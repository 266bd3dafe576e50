"""Run-config validation against `data/config.schema.json`, in the stdlib.

`cli` also checks the run files that `surfconv report` reads with it.
Interprets only the JSON Schema 2020-12 keywords that these schemas use,
with the draft's semantics: a bool is not a number, `1.0` is an
integer, and NaN fails no bound.  Any other keyword raises, so a schema edit
cannot be skipped silently.  Errors are yielded in the order jsonschema
yields them (schema keywords in file order), so `first_error` reports the
same JSON path as `Draft202012Validator` sorted by `(len(path), json_path)`.
"""

from __future__ import annotations


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _number,
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),
}


def _equal(a, b) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _type(t, x, schema, path):
    if not _TYPES[t](x):
        yield path, f"{x!r} is not of type {t!r}"


def _enum(values, x, schema, path):
    if not any(_equal(x, v) for v in values):
        yield path, f"{x!r} is not one of {values!r}"


def _const(value, x, schema, path):
    if not _equal(x, value):
        yield path, f"{value!r} was expected"


def _minimum(bound, x, schema, path):
    if _number(x) and x < bound:
        yield path, f"{x!r} is less than the minimum of {bound!r}"


def _exclusive_minimum(bound, x, schema, path):
    if _number(x) and x <= bound:
        yield path, f"{x!r} is less than or equal to the minimum of {bound!r}"


def _required(names, x, schema, path):
    if isinstance(x, dict):
        for name in names:
            if name not in x:
                yield path, f"{name!r} is a required property"


def _properties(props, x, schema, path):
    if isinstance(x, dict):
        for name, sub in props.items():
            if name in x:
                yield from iter_errors(x[name], sub, path + (name,))


def _additional_properties(allowed, x, schema, path):
    if allowed is not False:
        raise ValueError("only 'additionalProperties: false' is implemented")
    if isinstance(x, dict):
        extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
        if extras:
            names = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _items(sub, x, schema, path):
    if isinstance(x, list):
        for i in range(len(schema.get("prefixItems", ())), len(x)):
            yield from iter_errors(x[i], sub, path + (i,))


def _prefix_items(subs, x, schema, path):
    if isinstance(x, list):
        for i, (item, sub) in enumerate(zip(x, subs)):
            yield from iter_errors(item, sub, path + (i,))


def _min_items(n, x, schema, path):
    if isinstance(x, list) and len(x) < n:
        yield path, f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _max_items(n, x, schema, path):
    if isinstance(x, list) and len(x) > n:
        yield path, f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"


def _one_of(subs, x, schema, path):
    n_valid = sum(is_valid(x, sub) for sub in subs)
    if n_valid == 0:
        yield path, f"{x!r} is not valid under any of the given schemas"
    elif n_valid > 1:
        yield path, f"{x!r} is valid under {n_valid} of the given schemas"


def _all_of(subs, x, schema, path):
    for sub in subs:
        yield from iter_errors(x, sub, path)


def _if(cond, x, schema, path):
    if is_valid(x, cond):
        yield from iter_errors(x, schema.get("then", {}), path)


KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "const": _const,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "oneOf": _one_of,
    "allOf": _all_of,
    "if": _if,
}
# annotations, and `then`, which `if` reads
SKIPPED = frozenset({"$schema", "title", "then"})


def iter_errors(instance, schema: dict, path: tuple = ()):
    """Yield `(path, message)` for every violation, in jsonschema's order."""
    for key, value in schema.items():
        if key in SKIPPED:
            continue
        if key not in KEYWORDS:
            raise ValueError(f"schema keyword {key!r} is not implemented")
        yield from KEYWORDS[key](value, instance, schema, path)


def is_valid(instance, schema: dict) -> bool:
    return next(iter_errors(instance, schema), None) is None


def json_path(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def first_error(instance, schema: dict) -> tuple[str, str] | None:
    """`(json_path, message)` of the first error by `(len(path), json_path)`, or None."""
    errors = [(len(p), json_path(p), msg) for p, msg in iter_errors(instance, schema)]
    if not errors:
        return None
    _, where, msg = min(errors, key=lambda e: e[:2])
    return where, msg
