import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surfconv.exponents import (
    ExponentPair,
    InvalidDimensionError,
    TypeSet,
    critical_p0,
    critical_q0,
    ricci_gap,
    triangle_vertices,
    typeset,
    typeset_contains,
)
from surfconv.rationals import pair_to_frac

F = Fraction


# Critical vertex (1/p0, 1/q0) = (d/(2d-k), (d-k)/(2d-k)) for small cases,
# worked out by hand.
KNOWN_VERTICES = {
    (1, 2): (F(2, 3), F(1, 3)),
    (2, 3): (F(3, 4), F(1, 4)),
    (3, 5): (F(5, 7), F(2, 7)),
    (4, 7): (F(7, 10), F(3, 10)),
}


@pytest.mark.parametrize("kd,vertex", sorted(KNOWN_VERTICES.items()))
def test_known_vertices(kd, vertex):
    k, d = kd
    v0, v1, vc = triangle_vertices(k, d)
    assert (v0.inv_p, v0.inv_q) == (0, 0)
    assert (v1.inv_p, v1.inv_q) == (1, 1)
    assert (vc.inv_p, vc.inv_q) == vertex


@pytest.mark.parametrize("kd,vertex", sorted(KNOWN_VERTICES.items()))
def test_critical_exponents_match_vertex(kd, vertex):
    k, d = kd
    assert critical_p0(k, d) == 1 / vertex[0]
    assert critical_q0(k, d) == 1 / vertex[1]


def test_exponent_identity_exhaustive():
    # k + l/q0 = d/p0 = d^2/(2d - k), exactly, for every shape up to k = 8
    for k in range(1, 9):
        for l in range(1, k + 1):
            d = k + l
            q0, p0 = critical_q0(k, d), critical_p0(k, d)
            assert k + F(l) / q0 == F(d) / p0 == F(d * d, 2 * d - k)


def test_critical_vertex_is_self_dual():
    for k in range(1, 9):
        for l in range(1, k + 1):
            ts = typeset(k, k + l)
            vc = ts.vertices[2]
            assert vc.dual() == vc
            assert ts.vertices[0].dual() == ts.vertices[1]


def test_ricci_gap_values():
    # inside the band iff k(k + 3) < 2d
    assert ricci_gap(1, 3) == F(1, 6)
    assert ricci_gap(1, 2) is None  # 4 < 4 fails
    assert ricci_gap(3, 5) is None
    assert ricci_gap(2, 6) == F(2, 11)
    assert ricci_gap(2, 5) is None  # 10 < 10 fails


def test_invalid_dimensions_rejected():
    with pytest.raises(InvalidDimensionError):
        typeset(0, 1)
    with pytest.raises(InvalidDimensionError):
        typeset(3, 3)  # l = 0
    # l > k is legal here: the region depends only on (k, d)
    assert typeset(1, 3).l == 2


def test_pair_coordinates_validated():
    with pytest.raises(ValueError):
        ExponentPair(F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        ExponentPair(F(1, 2), F(-1, 2))


@pytest.mark.parametrize(
    "call,exc,message",
    [
        pytest.param(lambda: typeset(2.0, 3), InvalidDimensionError,
                     "dimensions must be integers, got k=2.0, d=3", id="float-k"),
        pytest.param(lambda: critical_q0(2, "5"), InvalidDimensionError,
                     "dimensions must be integers, got k=2, d='5'", id="string-d"),
        pytest.param(lambda: typeset_contains(typeset(2, 3), ExponentPair(F(1, 2), F(1, 3)),
                                              mode="closed"),
                     ValueError, "mode must be 'interior' or 'boundary', got 'closed'",
                     id="unknown-mode"),
        pytest.param(lambda: pair_to_frac([1, 2, 3]), ValueError,
                     "rational pair must have two entries, got [1, 2, 3]", id="pair-length"),
        pytest.param(lambda: pair_to_frac(F(1, 2)), TypeError,
                     "cannot parse Fraction(1, 2) as an exact rational", id="not-a-pair"),
        pytest.param(lambda: pair_to_frac([1, 0]), ValueError,
                     "rational pair [1, 0] has a zero denominator", id="zero-denominator"),
        pytest.param(lambda: ExponentPair(F(3, 2), F(1, 2)), ValueError,
                     "exponent coordinate 3/2 outside [0, 1]", id="pair-outside-square"),
    ],
)
def test_exact_input_refusals(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_typeset_containment_modes():
    ts = typeset(2, 3)
    vertex = ExponentPair(F(3, 4), F(1, 4))
    inside = ExponentPair(F(1, 2), F(1, 3))
    outside = ExponentPair(F(9, 10), F(1, 10))
    assert typeset_contains(ts, vertex, mode="boundary")
    assert not typeset_contains(ts, vertex, mode="interior")
    assert typeset_contains(ts, inside, mode="interior")
    assert not typeset_contains(ts, outside, mode="boundary")


@pytest.mark.parametrize(
    "point,boundary,interior",
    [
        ((F(3, 5), F(2, 5)), False, False),  # the vertex V: width 1/5
        ((F(3, 5), F(13, 30)), True, False),  # width exactly 1/6
        ((F(3, 5), F(21, 50)), False, False),  # width 9/50
        ((F(3, 5), F(1, 2)), True, True),  # width 1/10
    ],
)
def test_ricci_band_cuts_the_triangle(point, boundary, interior):
    # k = 1, d = 3: the band 1/p - 1/q <= 1/6 cuts the triangle's tip off;
    # every point lies in the closed triangle, so each False in boundary mode is the band's
    ts = typeset(1, 3)
    assert ts.ricci_gap == F(1, 6)
    p = ExponentPair(*point)
    assert typeset_contains(TypeSet(ts.k, ts.l, ts.vertices, None), p, mode="boundary")
    assert typeset_contains(ts, p, mode="boundary") is boundary
    assert typeset_contains(ts, p, mode="interior") is interior


def test_typeset_json_roundtrip():
    # the exact pairs a payload holds parse back into the same type set
    for k, d in [(3, 5), (1, 3)]:
        ts = typeset(k, d)
        doc = ts.to_json()
        vertices = tuple(ExponentPair(*map(pair_to_frac, v)) for v in doc["vertices"])
        gap = None if doc["ricci_gap"] is None else pair_to_frac(doc["ricci_gap"])
        assert TypeSet(doc["k"], doc["l"], vertices, gap) == ts


@given(
    a=st.fractions(min_value=0, max_value=1, max_denominator=64),
    b=st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_dual_is_an_involution(a, b):
    p = ExponentPair(a, b)
    assert p.dual().dual() == p


@given(
    k=st.integers(min_value=1, max_value=8),
    l=st.integers(min_value=1, max_value=8),
    a=st.fractions(min_value=0, max_value=1, max_denominator=32),
    b=st.fractions(min_value=0, max_value=1, max_denominator=32),
)
def test_closed_containment_is_dual_symmetric(k, l, a, b):
    if l > k:
        k, l = l, k
    ts = typeset(k, k + l)
    p = ExponentPair(a, b)
    assert typeset_contains(ts, p, mode="boundary") == typeset_contains(
        ts, p.dual(), mode="boundary"
    )
