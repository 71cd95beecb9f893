"""Exact polynomial arithmetic, derivatives, evaluation, recentering."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import BasePoly, basecoeff, parse_poly, render_poly
from monograde.sampling import random_poly
from monograde.structure import taylor_shift


def P(text, nvars=2):
    return parse_poly(text, nvars)


def test_power_equals_repeated_product(monkeypatch):
    rng = Random(13)
    for _ in range(10):
        p = random_poly(rng, 2)
        repeated = BasePoly.const(2, 1)
        for k in range(10):
            assert p ** k == repeated
            repeated = repeated * p
    # squaring stops once no exponent bit is left to use
    p = P("x1 - x2 + 1")
    calls = []
    product = basecoeff.add_product
    monkeypatch.setattr(basecoeff, "add_product",
                        lambda *args: calls.append(args) or product(*args))
    for k in range(1, 10):
        calls.clear()
        p ** k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2


def test_product_difference_of_squares():
    x = BasePoly.var(1, 1)
    one = BasePoly.const(1, 1)
    assert (x + one) * (x - one) == x * x - one


def test_additive_identity():
    f = P("3/2*x1^2*x2 - x2 + 1")
    assert f + BasePoly.zero(2) == f
    assert f * BasePoly.const(2, 1) == f


def test_binomial_square():
    assert P("(x1 + x2)^2") == P("x1^2 + 2*x1*x2 + x2^2")


def test_partials():
    assert P("x1^2*x2").partial(1) == P("2*x1*x2")
    assert P("x1").partial(2) == BasePoly.zero(2)
    assert P("x1^3", 1).partial(1) == P("3*x1^2", 1)
    with pytest.raises(ValueError):
        P("x1").partial(3)


def test_eval():
    assert P("x1^2 + 1", 1).eval([2]) == 5
    assert BasePoly.const(3, 7).eval([1, 2, 3]) == 7
    assert P("x1*x2").eval([Fraction(1, 2), 4]) == 2
    with pytest.raises(ValueError):
        P("x1").eval([1, 2, 3])


def test_taylor_shift_square():
    # x^2 about 1 reads 1 + 2(x-1) + (x-1)^2
    shifted = taylor_shift(P("x1^2", 1), [1])
    assert shifted == P("x1^2 + 2*x1 + 1", 1)


def test_taylor_shift_at_origin_is_identity():
    f = P("3/2*x1^2*x2 - x2 + 1")
    assert taylor_shift(f, [0, 0]) == f


def test_taylor_shift_product():
    # x1*x2 about (1,1): 1 + (x1-1) + (x2-1) + (x1-1)(x2-1), coefficientwise
    shifted = taylor_shift(P("x1*x2"), [1, 1])
    assert shifted == P("1 + x1 + x2 + x1*x2")


def test_compose_matches_eval():
    f = P("x1^2*x2 - 3*x2 + 1")
    g1 = P("x1 + x2")
    g2 = P("2*x1")
    h = f.compose([g1, g2])
    rng = Random(0)
    for _ in range(25):
        p = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
        assert h.eval(p) == f.eval([g1.eval(p), g2.eval(p)])


def _random_poly(rng, nvars=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return BasePoly(nvars, terms)


def test_ring_laws_randomized():
    rng = Random(3)
    for _ in range(500):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partials_commute_randomized():
    rng = Random(4)
    for _ in range(200):
        f = _random_poly(rng)
        assert f.partial(1).partial(2) == f.partial(2).partial(1)


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(lambda d: BasePoly(2, d))
centers = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                   min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(polys, centers)
def test_taylor_shift_round_trips(f, c):
    assert taylor_shift(taylor_shift(f, c), [-q for q in c]) == f


@settings(max_examples=100, deadline=None)
@given(polys, centers)
def test_taylor_shift_is_evaluation_shift(f, c):
    # h(X) = f(X + c) pointwise
    h = taylor_shift(f, c)
    for p in ([0, 0], [1, -1], [Fraction(1, 2), 2]):
        assert h.eval(p) == f.eval([a + b for a, b in zip(p, c)])


def test_render_parse_fixed_point():
    rng = Random(5)
    for _ in range(100):
        f = _random_poly(rng)
        assert parse_poly(render_poly(f), 2) == f
