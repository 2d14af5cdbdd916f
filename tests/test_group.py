import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axbkit.config import RunConfig
from axbkit.group import (
    GroupElement,
    _compose,
    LieVector,
    bracket,
    exp_map,
    factor,
    haar_weight,
    inverse,
    lie_to_matrix,
    multiply,
    to_matrix,
)
from axbkit.suites import suite_group

elements = st.builds(
    GroupElement,
    a=st.floats(0.05, 20.0),
    b=st.floats(-20.0, 20.0),
)


#: the ``group`` suite's ranges: a = e^u with u in [-3, 3], |b| <= 10
suite_elements = st.builds(
    GroupElement,
    a=st.floats(-3.0, 3.0).map(math.exp),
    b=st.floats(-10.0, 10.0),
)


def close(g1, g2, tol=1e-12):
    return abs(g1.a - g2.a) <= tol * max(1.0, abs(g2.a)) and \
        abs(g1.b - g2.b) <= tol * max(1.0, abs(g2.b))


def test_multiply_examples():
    assert multiply(GroupElement(2, 3), GroupElement(4, 5)) == GroupElement(8, 13)
    g = GroupElement(1.7, -0.3)
    assert multiply(g, GroupElement(1, 0)) == g
    assert close(multiply(GroupElement(2, 3), GroupElement(0.5, -1.5)), GroupElement(1, 0))
    # beyond the exact split's range the plain product is kept
    assert multiply(GroupElement(1e301, 2.0), GroupElement(1.0, 1.0)) == GroupElement(1e301, 1e301)


def test_inverse_examples():
    assert inverse(GroupElement(1, 0)) == GroupElement(1, 0)
    assert inverse(GroupElement(2, 3)) == GroupElement(0.5, -1.5)
    assert inverse(GroupElement(4, -8)) == GroupElement(0.25, 2.0)


@pytest.mark.parametrize("a, b, name", [(math.inf, 0.0, "a"), (-math.inf, 0.0, "a"),
                                        (math.nan, 0.0, "a"), (1.0, math.inf, "b"),
                                        (1.0, -math.inf, "b"), (2.0, math.nan, "b")])
def test_group_element_must_be_finite(a, b, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GroupElement(a, b)


def test_exp_map_refuses_an_infinite_dilation():
    # exp(inf) = inf and the translation inf / inf = nan: no element comes out
    with pytest.raises(ValueError, match="a must be finite"):
        exp_map(LieVector(math.inf, 1.0))


def test_exp_map_examples():
    assert close(exp_map(LieVector(math.log(2), 0)), GroupElement(2, 0))
    assert exp_map(LieVector(0.0, 5.0)) == GroupElement(1.0, 5.0)
    assert close(exp_map(LieVector(1, 1)), GroupElement(math.e, math.e - 1))


def test_exp_map_near_zero_stable():
    g = exp_map(LieVector(1e-12, 7.0))
    assert abs(g.b - 7.0) < 1e-11


def test_factor_examples():
    assert factor(GroupElement(1, 0)) == (0.0, 0.0)
    t1, t2 = factor(GroupElement(math.e, math.e))
    assert abs(t1 - 1) < 1e-15 and abs(t2 - 1) < 1e-15
    t1, t2 = factor(GroupElement(4, 2))
    assert abs(t1 - math.log(4)) < 1e-15 and abs(t2 - 0.5) < 1e-15


def test_haar_weight():
    assert haar_weight(GroupElement(1, 5.3), "left") == 1.0
    assert haar_weight(GroupElement(2, 0), "left") == 0.25
    assert haar_weight(GroupElement(2, 0), "right") == 0.5
    with pytest.raises(ValueError):
        haar_weight(GroupElement(1, 0), "middle")


def test_positivity_enforced():
    with pytest.raises(ValueError):
        GroupElement(-1.0, 0.0)


@given(elements, elements, elements)
@settings(max_examples=200)
def test_associativity(g1, g2, g3):
    lhs = multiply(multiply(g1, g2), g3)
    rhs = multiply(g1, multiply(g2, g3))
    assert close(lhs, rhs, 1e-12)


@given(suite_elements, suite_elements, suite_elements)
@settings(max_examples=300)
def test_associativity_to_one_ulp_over_the_suite_ranges(g1, g2, g3):
    lhs = multiply(multiply(g1, g2), g3)
    rhs = multiply(g1, multiply(g2, g3))
    # every b part here lies below 8192, where one ulp is 2^-40; the a parts
    # are products of three roundings each and may differ by two ulps
    assert abs(lhs.b - rhs.b) <= 2.0 ** -40
    assert abs(lhs.a - rhs.a) <= 2 * math.ulp(max(lhs.a, rhs.a))


@pytest.mark.parametrize("seed", [207, 1025])
def test_ac1_holds_where_two_roundings_failed(seed):
    # with a*d + b rounded twice, the associativity defect reached 1.364e-12 here
    check = suite_group(RunConfig(seed=seed))["checks"][0]
    assert check["passed"] and check["associativity"] <= 2.0 ** -40


#: elements over the whole range where ``a*c`` stays a positive normal number
wide_elements = st.builds(
    GroupElement,
    a=st.floats(1e-150, 1e150),
    b=st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@given(st.lists(st.tuples(wide_elements, wide_elements), min_size=1, max_size=20))
@example([(GroupElement(1e301, 2.0), GroupElement(1.0, 1.0)),  # the split overflows
          (GroupElement(2.0, 3.0), GroupElement(4.0, 5.0))])
@example([(GroupElement(1.0, -0.0), GroupElement(1.0, -0.0))])
def test_array_law_is_the_scalar_law_bit_for_bit(pairs):
    a, b, c, d = (np.array(col) for col in zip(*((g.a, g.b, h.a, h.b) for g, h in pairs)))
    prod_a, prod_b = _compose(a, b, c, d)
    # where a*d + b overflows, the scalar law refuses the product: no element has b = inf
    finite = np.isfinite(prod_b)
    for (g, h), ok in zip(pairs, finite):
        if not ok:
            with pytest.raises(ValueError, match="b must be finite"):
                multiply(g, h)
    scalar = [multiply(g, h) for (g, h), ok in zip(pairs, finite) if ok]
    np.testing.assert_array_equal(_bits(prod_a[finite]), _bits([p.a for p in scalar]))
    np.testing.assert_array_equal(_bits(prod_b[finite]), _bits([p.b for p in scalar]))


def _suite_group_scalar_loop(seed, n=1000):
    """The group suite's AC1 extras from scalar ``multiply``/``inverse``/``factor``/``exp_map``."""
    rng = np.random.default_rng(seed)
    elems = [GroupElement(float(np.exp(rng.uniform(-3, 3))), float(rng.uniform(-10, 10)))
             for _ in range(n)]

    def defect(g1, g2):
        return abs(g1.a - g2.a), abs(g1.b - g2.b)

    assoc, inv, rt = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 4))
    for i in range(n):
        g1, g2, g3 = (elems[rng.integers(n)] for _ in range(3))
        assoc[i] = defect(multiply(multiply(g1, g2), g3), multiply(g1, multiply(g2, g3)))
    for i, g in enumerate(elems):
        inv[i] = defect(multiply(g, inverse(g)), GroupElement(1.0, 0.0))
        t1, t2 = factor(g)
        back = multiply(exp_map(LieVector(t1, 0.0)), exp_map(LieVector(0.0, t2)))
        tt1, tt2 = factor(back)
        rt[i] = defect(back, g) + (abs(tt1 - t1), abs(tt2 - t2))
    assoc, inv, rt = float(np.max(assoc)), float(np.max(inv)), float(np.max(rt))
    return max(assoc, inv, rt), assoc, inv, rt


@pytest.mark.parametrize("seed", [0, 5, 207, 1025])
def test_suite_group_equals_the_scalar_loop(seed):
    check = suite_group(RunConfig(seed=seed))["checks"][0]
    got = (check["value"], check["associativity"], check["inverse"], check["roundtrip"])
    assert [x.hex() for x in got] == [x.hex() for x in _suite_group_scalar_loop(seed)]


@given(elements)
def test_inverse_roundtrip(g):
    assert close(multiply(g, inverse(g)), GroupElement(1, 0), 1e-12)
    assert close(multiply(inverse(g), g), GroupElement(1, 0), 1e-12)


@given(elements)
def test_factor_exp_roundtrip(g):
    t1, t2 = factor(g)
    back = multiply(exp_map(LieVector(t1, 0.0)), exp_map(LieVector(0.0, t2)))
    assert close(back, g, 1e-12)


@given(suite_elements)
@example(GroupElement(math.exp(3.0), 2.225073858507e-311))  # off by 7 * 2^-1074
@settings(max_examples=300)
def test_inverse_is_an_involution_to_a_few_ulps(g):
    # 1/(1/a) is two roundings; -(-b/a)/(1/a) is three
    back = inverse(inverse(g))
    assert abs(back.a - g.a) <= 2 * math.ulp(g.a)
    if g.b == 0 or abs(g.b) > 1e-300:  # -b/a stays a normal number
        assert abs(back.b - g.b) <= 3 * math.ulp(g.b)
        return
    # Near the subnormals a rounding can err by an absolute half spacing,
    # 2^-1075, however small the result.  With c = fl(1/a) = (1 + d)/a and
    # e = fl(-b/a) = -b/a + e1, the round trip is
    #     fl(-e/c) = (b - a e1)/(1 + d) + e2 = b - b d/(1 + d) - a e1/(1 + d) + e2.
    # The relative part b d/(1 + d) and the relative parts of e1 and e2 are
    # the three roundings above, within 3 ulp(b); the absolute parts are
    # |a e1/(1 + d)| <= (a/2)(1 + 2^-52) 2^-1074 and |e2| <= 2^-1074/2, within
    # (a/2 + 1) 2^-1074.
    assert abs(back.b - g.b) <= 3 * math.ulp(g.b) + (g.a / 2 + 1) * 2 ** -1074


# t2 = 0 or large enough that a * t2 stays a normal number
@given(st.floats(-3.0, 3.0), st.floats(-10.0, 10.0).filter(lambda t: t == 0.0 or abs(t) > 1e-300))
@settings(max_examples=300)
def test_factor_recovers_the_exponential_coordinates(t1, t2):
    g = multiply(exp_map(LieVector(t1, 0.0)), exp_map(LieVector(0.0, t2)))
    f1, f2 = factor(g)
    # log(exp(t1)): an error of one ulp in exp is 2^-52 absolute in the log, plus log's own
    assert abs(f1 - t1) <= math.ulp(1.0) + math.ulp(t1)
    # (a * t2) / a: two roundings
    assert abs(f2 - t2) <= 2 * math.ulp(t2)


@given(elements, elements)
@settings(max_examples=100)
def test_matrix_oracle(g1, g2):
    prod = to_matrix(multiply(g1, g2))
    np.testing.assert_allclose(prod, to_matrix(g1) @ to_matrix(g2), rtol=1e-13, atol=1e-13)


def test_lie_bracket_matches_matrix_commutator():
    x1, x2 = LieVector(1, 0), LieVector(0, 1)
    m1, m2 = lie_to_matrix(x1), lie_to_matrix(x2)
    np.testing.assert_array_equal(m1 @ m2 - m2 @ m1, lie_to_matrix(x2))
    v, w = LieVector(0.3, -2.0), LieVector(1.5, 0.7)
    mv, mw = lie_to_matrix(v), lie_to_matrix(w)
    np.testing.assert_allclose(mv @ mw - mw @ mv, lie_to_matrix(bracket(v, w)), atol=1e-15)


def test_exp_map_matches_matrix_exponential():
    from scipy.linalg import expm

    v = LieVector(0.8, -1.3)
    np.testing.assert_allclose(to_matrix(exp_map(v)), expm(lie_to_matrix(v)), rtol=1e-12)
