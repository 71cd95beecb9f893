"""Seeded random generators for polynomials, elements, and sample points.

Every randomized check in the library routes its draws through an explicit
`random.Random` instance, so a (session, seed) pair fully determines each
report byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm, prod
from random import Random

from .basecoeff import BasePoly
from .galgebra import GeneratorSpec, GradedElement

# A random point's coordinate on an axis with a bound is a multiple of
# 1/DRAW_DENSITY of a unit, or of the axis's width, from that bound.
DRAW_DENSITY = 8

# The shape of every draw: rationals of numerator at most SPAN in size over
# at most MAX_DEN; polynomials of 1 to POLY_TERMS terms of degree at most
# MAX_DEGREE; elements of 1 to ELEMENT_TERMS terms (HOMOGENEOUS_TERMS when
# homogeneous) on words of length at most MAX_WORD.
SPAN, MAX_DEN, POLY_TERMS, MAX_DEGREE = 4, 3, 3, 2
ELEMENT_TERMS, HOMOGENEOUS_TERMS, MAX_WORD = 3, 2, 3


def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, MAX_DEN))


def random_poly(rng: Random, nvars: int) -> BasePoly:
    terms = {}
    for _ in range(rng.randint(1, POLY_TERMS)):
        exps = tuple(rng.randint(0, MAX_DEGREE) for _ in range(nvars))
        if sum(exps) > MAX_DEGREE:
            exps = (0,) * nvars
        coeff = random_rational(rng)
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return BasePoly(nvars, terms)


def random_word(rng: Random, spec: GeneratorSpec, max_len: int = MAX_WORD):
    words = spec.words_up_to(max_len)
    return words[rng.randrange(len(words))]


def _random_terms(rng: Random, spec: GeneratorSpec, words, max_terms: int) -> GradedElement:
    """1 to max_terms terms, each a word drawn from words times a random poly."""
    return GradedElement(spec, [(words[rng.randrange(len(words))], random_poly(rng, spec.nvars))
                                for _ in range(rng.randint(1, max_terms))])


def random_element(rng: Random, spec: GeneratorSpec) -> GradedElement:
    return _random_terms(rng, spec, spec.words_up_to(MAX_WORD), ELEMENT_TERMS)


def random_homogeneous(rng: Random, spec: GeneratorSpec) -> GradedElement:
    """A random element all of whose words share one grading degree."""
    target = spec.word_degree(random_word(rng, spec))
    pool = [w for w in spec.words_up_to(MAX_WORD) if spec.word_degree(w) == target]
    return _random_terms(rng, spec, pool, HOMOGENEOUS_TERMS)


def random_point_in(rng: Random, box):
    """A rational point inside an axis-aligned box of Fraction bounds, None
    bounds open, as one (numerator, positive denominator) pair per axis."""
    density = DRAW_DENSITY
    point = []
    for lo, hi in box:
        if lo is None and hi is None:
            point.append((rng.randint(-density, density), rng.randint(1, 3)))
        elif lo is None or hi is None:
            # k / density below hi or above lo
            b, k = (hi, -1) if lo is None else (lo, 1)
            k *= rng.randint(0, 3 * density)
            point.append((b.numerator * density + k * b.denominator, b.denominator * density))
        else:
            # lo + (hi - lo) * t / density
            t = rng.randint(0, density)
            ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            point.append((ln * hd * density + (hn * ld - ln * hd) * t, ld * hd * density))
    return point


def grid_points(box):
    """A deterministic grid inside a box of Fraction bounds, as pairs like
    `random_point_in`'s: lo, midpoint, hi on a bounded axis (lo alone if
    degenerate), three unit steps from a single bound, -1, 0, 1 unbounded."""
    axes = []
    for lo, hi in box:
        if lo is None and hi is None:
            axes.append([(-1, 1), (0, 1), (1, 1)])
        elif lo is None or hi is None:
            b, steps = (hi, (-2, -1, 0)) if lo is None else (lo, (0, 1, 2))
            axes.append([(b.numerator + k * b.denominator, b.denominator) for k in steps])
        elif lo == hi:
            axes.append([(lo.numerator, lo.denominator)])
        else:
            ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            axes.append([(ln, ld), (ln * hd + hn * ld, 2 * ld * hd), (hn, hd)])
    points = [[]]
    for axis in axes:
        points = [p + [c] for p in points for c in axis]
    return points


def grid_size(box) -> int:
    """The number of points of `grid_points(box)`."""
    return prod(1 if lo is not None and lo == hi else 3 for lo, hi in box)


def point_bits(box) -> int:
    """A bound on the bit length of each integer of the points of
    `grid_points(box)` and `random_point_in(rng, box)` in
    `integer_point` form.  Every denominator on an axis divides that axis's
    entry of `dens`, so a point's common denominator divides their lcm, and
    every coordinate is at most `top` in size."""
    dens, top = [], 1
    for lo, hi in box:
        if lo is None and hi is None:
            dens.append(6)  # a draw's denominator is 1, 2 or 3
            top = max(top, DRAW_DENSITY)
        elif lo is None or hi is None:
            b = hi if lo is None else lo
            dens.append(b.denominator * DRAW_DENSITY)
            top = max(top, abs(b) + 3)
        else:
            dens.append(2 * lo.denominator * hi.denominator * DRAW_DENSITY)
            top = max(top, abs(lo), abs(hi))
    return (ceil(top) * lcm(*dens)).bit_length()
