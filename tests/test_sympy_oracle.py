"""BasePoly against sympy's sparse polynomial rings over QQ, an oracle that
shares no code with the library."""

from fractions import Fraction
from random import Random

import pytest

from monograde import BasePoly
from monograde.sampling import random_poly, random_rational
from monograde.structure import taylor_shift

sympy = pytest.importorskip("sympy")


def oracle_ring(nvars):
    return sympy.ring(",".join("x%d" % (mu + 1) for mu in range(nvars)), sympy.QQ)[0]


def to_sympy(R, p: BasePoly):
    return R.from_dict({exps: sympy.QQ(c.numerator, c.denominator)
                        for exps, c in p.terms.items()})


def from_sympy(q) -> dict:
    return {exps: Fraction(int(c.numerator), int(c.denominator)) for exps, c in q.items()}


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_arithmetic_matches_sympy(nvars):
    R = oracle_ring(nvars)
    gens = R.gens
    rng = Random(80 + nvars)
    for _ in range(40):
        f, g = (random_poly(rng, nvars, max_terms=4, max_degree=3) for _ in range(2))
        fs, gs = to_sympy(R, f), to_sympy(R, g)
        assert (f * g).terms == from_sympy(fs * gs)
        reps = [random_poly(rng, nvars, max_terms=3, max_degree=2) for _ in range(nvars)]
        assert f.compose(reps).terms == from_sympy(
            fs.compose([(x, to_sympy(R, r)) for x, r in zip(gens, reps)]))
        center = [random_rational(rng) for _ in range(nvars)]
        assert taylor_shift(f, center).terms == from_sympy(fs.compose(
            [(x, x + sympy.QQ(c.numerator, c.denominator)) for x, c in zip(gens, center)]))
        point = [random_rational(rng, span=9, max_den=7) for _ in range(nvars)]
        value = fs(*[sympy.QQ(c.numerator, c.denominator) for c in point])
        assert f.eval(point) == Fraction(int(value.numerator), int(value.denominator))
