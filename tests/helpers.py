"""Shared builders and independent oracles for the test suite.

The oracles here deliberately recompute results along different routes from
the library code (inversion-count signs instead of transposition sorting,
raw-word concatenation instead of exponent merging, explicit Taylor sums
instead of direct substitution), so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

from monograde import (BasePoly, DomainSpec, Derivation, GeneratorSpec,
                       GradedElement, IntPower, NatPower, Z2Power)
from monograde.grading import KGroupElement
from monograde.structure import degree_in


def nat1_spec(nvars=1, degrees=(1, 1), truncation=6, names=None):
    return GeneratorSpec(NatPower(1), nvars, list(degrees),
                         truncation=truncation, names=names)


def int1_spec(nvars=1, degrees=(1, -1), truncation=6, names=None):
    return GeneratorSpec(IntPower(1), nvars, list(degrees),
                         truncation=truncation, names=names)


def qk_model(truncation=6):
    """The four-coordinate bigraded model: one base variable x and odd
    generators theta (0,1), psi (1,0) plus the even phi (1,1), carrying
    Q: x->theta, psi->phi; K: theta->psi; d: x->psi, theta->phi."""
    spec = GeneratorSpec(NatPower(2), 1, [(0, 1), (1, 0), (1, 1)],
                         truncation=truncation, names=["theta", "psi", "phi"])
    dom = DomainSpec(spec)
    zero = GradedElement.zero(spec)
    theta = GradedElement.gen(spec, spec.position_of((0, 1), 1))
    psi = GradedElement.gen(spec, spec.position_of((1, 0), 1))
    phi = GradedElement.gen(spec, spec.position_of((1, 1), 1))
    Q = Derivation(dom, KGroupElement((0, 1), (0, 0)), [theta], [zero, phi, zero])
    K = Derivation(dom, KGroupElement((1, 0), (0, 1)), [zero], [psi, zero, zero])
    d = Derivation(dom, KGroupElement((1, 0), (0, 0)), [psi], [phi, zero, zero])
    return spec, dom, (theta, psi, phi), (Q, K, d)


# Gradings shaped like the three workloads: int_power k=1 (pullback-scaled
# and big.json) at truncation 3 and 6, and at 2, where short products
# repeat an odd generator in the step that passes the order; nat_power k=2
# with named generators (the QK models of calculus-scaled); and z2_power
# n=2 (pullback-scaled).  The last is int_power k=2 with an even generator
# `a` of degree (1,1), which squares to nonzero and comes before the odd
# ones of degree (1,2) in canonical order, yet anticommutes with them: the
# product (1,1)*(1,2) = (1,2) is odd.
WORKLOAD_SPECS = [
    GeneratorSpec(IntPower(1), 2, [1, 1, -1, 2, -2], truncation=n) for n in (2, 3, 6)] + [
    GeneratorSpec(NatPower(2), 2, [(0, 1), (1, 0), (1, 1), (2, 0)], truncation=4,
                  names=["theta", "psi", "phi", "eta"]),
    GeneratorSpec(Z2Power(2), 3, [(1, 0), (1, 0), (0, 1), (1, 1)], truncation=4),
    GeneratorSpec(IntPower(2), 1, [(1, 2), (1, 1), (1, 2)], truncation=3,
                  names=["b", "a", None])]


# -- independent oracles -----------------------------------------------------

def rich_int_spec(truncation=5):
    """Integer grading with two odd generators of degree +1 and two of -1,
    so that nonempty words of degree zero exist (products like th(1)th(-1))."""
    return GeneratorSpec(IntPower(1), 1, [1, 1, -1, -1], truncation=truncation)


def random_degree0_image(rng, spec, mu):
    """x_mu plus a nilpotent degree-zero tail."""
    from monograde.sampling import random_poly
    zero = spec.grading.zero()
    pool = [w for w in spec.words_up_to(3)
            if sum(w) > 0 and spec.word_degree(w) == zero]
    img = GradedElement.variable(spec, mu)
    for _ in range(rng.randint(0, 2)):
        w = pool[rng.randrange(len(pool))]
        img = img + GradedElement(spec, {w: random_poly(rng, spec.nvars,
                                                        max_degree=1)})
    return img


def random_gen_image(rng, spec, degree):
    """A nonzero homogeneous element of the given degree."""
    from monograde.sampling import random_poly
    pool = [w for w in spec.words_up_to(3) if spec.word_degree(w) == degree
            and sum(w) > 0]
    items = [(pool[rng.randrange(len(pool))],
              random_poly(rng, spec.nvars, max_degree=1))
             for _ in range(rng.randint(1, 2))]
    e = GradedElement(spec, items)
    return e if not e.is_zero() else GradedElement(spec, {pool[0]: 1})


def random_endomorphism(rng, spec):
    """A random self-map of the unbounded domain over spec."""
    from monograde import Morphism
    dom = DomainSpec(spec)
    base = [random_degree0_image(rng, spec, mu + 1) for mu in range(spec.nvars)]
    gens = [random_gen_image(rng, spec, g.degree) for g in spec.generators]
    return Morphism(dom, dom, base, gens)


def invert_rational_matrix(m):
    """Exact inverse via Gauss-Jordan; None for a singular matrix."""
    n = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_invertible_matrix(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        inv = invert_rational_matrix(m)
        if inv is not None:
            return m, inv


def inversion_sign(spec: GeneratorSpec, word) -> int:
    """Sign of sorting a raw occurrence word, via inversion pairs rather
    than explicit adjacent transpositions.  None when an odd generator
    repeats (the word is zero)."""
    seen = {}
    for g in word:
        seen[g] = seen.get(g, 0) + 1
        if seen[g] > 1 and spec.parities[g]:
            return None
    bit = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                bit ^= spec.swap_bits[word[i]][word[j]]
    return bit


def occurrences(beta):
    out = []
    for g, e in enumerate(beta):
        out.extend([g] * e)
    return out


def sorted_word(spec: GeneratorSpec, word):
    """Insertion-sort a raw occurrence word, tracking the commutation sign.

    Returns (sign_bit, exponent_vector) or None when an odd generator would
    be squared.
    """
    arr = list(word)
    sign = 0
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            sign ^= spec.swap_bits[arr[j - 1]][arr[j]]
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    beta = [0] * spec.ngens
    for g in arr:
        beta[g] += 1
        if beta[g] > 1 and spec.parities[g]:
            return None
    return sign, tuple(beta)


def from_raw_terms(spec: GeneratorSpec, raw_terms) -> GradedElement:
    """Normalize a sum of (coefficient, occurrence word) pairs where the
    words may list generator positions in any order, through the public
    validating constructor."""
    acc = []
    for poly, word in raw_terms:
        sw = sorted_word(spec, word)
        if sw is None:
            continue
        sign, beta = sw
        if not isinstance(poly, BasePoly):
            poly = BasePoly.const(spec.nvars, poly)
        acc.append((beta, -poly if sign else poly))
    return GradedElement(spec, acc)


def mul_oracle(a: GradedElement, b: GradedElement) -> GradedElement:
    """Product by concatenating raw occurrence words and renormalizing."""
    raw = []
    for b1, p1 in a.terms.items():
        for b2, p2 in b.terms.items():
            raw.append((p1 * p2, occurrences(b1) + occurrences(b2)))
    return from_raw_terms(a.spec, raw)


def taylor_sum_oracle(g: BasePoly, images, spec: GeneratorSpec) -> GradedElement:
    """Literal nested-loop Taylor sum: partial derivatives composed with the
    image bodies, over factorials, times powers of the nilpotent shifts
    taken one factor at a time through `mul_oracle`."""
    n = g.nvars
    bodies = [y.body() for y in images]
    shifts = [GradedElement(spec, [(b, p) for b, p in y.terms.items() if any(b)])
              for y in images]
    caps = [degree_in(g, mu + 1) for mu in range(n)]
    items = []
    idx = [0] * n

    def walk(mu):
        if mu == n:
            deriv = g
            for nu in range(n):
                for _ in range(idx[nu]):
                    deriv = deriv.partial(nu + 1)
            if deriv.is_zero():
                return
            scale = Fraction(1)
            for nu in range(n):
                scale /= factorial(idx[nu])
            term = GradedElement.scalar(
                spec, deriv.compose(bodies) * BasePoly.const(spec.nvars, scale))
            for nu in range(n):
                for _ in range(idx[nu]):
                    term = mul_oracle(term, shifts[nu])
            items.extend(term.terms.items())
            return
        for k in range(caps[mu] + 1):
            idx[mu] = k
            walk(mu + 1)
        idx[mu] = 0

    walk(0)
    return GradedElement(spec, items)


# -- the sampled range condition in Fraction arithmetic ----------------------

def random_point_oracle(rng, box, density=8):
    """The range check's seeded point as Fractions, drawn as the library
    draws it."""
    point = []
    for lo, hi in box:
        if lo is None and hi is None:
            point.append(Fraction(rng.randint(-density, density), rng.randint(1, 3)))
        elif lo is None:
            point.append(Fraction(hi) - Fraction(rng.randint(0, 3 * density), density))
        elif hi is None:
            point.append(Fraction(lo) + Fraction(rng.randint(0, 3 * density), density))
        else:
            t = Fraction(rng.randint(0, density), density)
            point.append(Fraction(lo) + (Fraction(hi) - Fraction(lo)) * t)
    return point


def grid_points_oracle(box, per_axis=3):
    """The range check's grid as Fractions: lo, mid, hi per bounded axis."""
    axes = []
    for lo, hi in box:
        if lo is None and hi is None:
            axes.append([Fraction(-1), Fraction(0), Fraction(1)][:per_axis])
        elif lo is None:
            hi = Fraction(hi)
            axes.append([hi - 2, hi - 1, hi][:per_axis])
        elif hi is None:
            lo = Fraction(lo)
            axes.append([lo, lo + 1, lo + 2][:per_axis])
        else:
            lo, hi = Fraction(lo), Fraction(hi)
            axes.append(sorted({lo, (lo + hi) / 2, hi})[:per_axis])
    points = [[]]
    for axis in axes:
        points = [p + [c] for p in points for c in axis]
    return points


def eval_oracle(poly: BasePoly, point) -> Fraction:
    """The value at a point, summed term by term in Fractions."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        v = coeff
        for c, e in zip(point, exps):
            v *= Fraction(c) ** e
        total += v
    return total


def range_failure_oracle(bodies, source_box, box, samples, seed, message):
    """The failure text of the sampled range condition -- the grid, then
    `samples` points from Random(seed) -- or None when every point lands."""
    rng = Random(seed)
    points = grid_points_oracle(source_box)
    points += [random_point_oracle(rng, source_box) for _ in range(samples)]
    for p in points:
        q = [eval_oracle(b, p) for b in bodies]
        if any((lo is not None and c < lo) or (hi is not None and c > hi)
               for (lo, hi), c in zip(box, q)):
            return message % ([str(c) for c in p], [str(c) for c in q])
    return None


# -- relation checks by probes alone -------------------------------------------

def lie_axioms_by_samples(d1, d2, d3, samples=50, seed=0):
    """`check_lie_axioms` as every sample decides it: each identity is
    applied to all `samples` random elements, with the library's draws."""
    from monograde import bracket
    from monograde.grading import k_mul, k_parity
    from monograde.reporting import CheckReport, render
    from monograde.sampling import random_element
    rep = CheckReport("graded Lie axiom check")
    grading = d1.domain.genspec.grading
    rng = Random(seed)
    elems = [random_element(rng, d1.domain.genspec) for _ in range(samples)]

    for label, a, b in (("(1,2)", d1, d2), ("(1,3)", d1, d3), ("(2,3)", d2, d3)):
        ab = bracket(a, b)
        ba = bracket(b, a)
        sign = k_parity(grading, k_mul(grading, a.degree, b.degree))
        rep.first_counterexample(
            elems, ("antisymmetry %s (%d samples)" % (label, samples),
                    lambda f: (ab.apply(f), ba.apply(f) if sign else -ba.apply(f)),
                    lambda f: "antisymmetry %s at %s" % (label, render(f))))

    lhs_op = bracket(d1, bracket(d2, d3))
    rhs1_op = bracket(bracket(d1, d2), d3)
    rhs2_op = bracket(d2, bracket(d1, d3))
    sign12 = k_parity(grading, k_mul(grading, d1.degree, d2.degree))

    def jacobi(f):
        lhs = lhs_op.apply(f)
        tail = rhs2_op.apply(f)
        return lhs, rhs1_op.apply(f) + (-tail if sign12 else tail)

    rep.first_counterexample(elems, ("jacobi (%d samples)" % samples, jacobi,
                                     lambda f: "jacobi at %s" % render(f)))
    return rep


def qk_verify_by_probes(Q, K, d, max_word=4, samples=20, seed=0):
    """`qk_verify` as every probe decides it: each relation is applied to
    every probe until the first counterexample, with the library's probes
    and draws.  The degree checks are left to the library."""
    from monograde import bracket
    from monograde.calculus import _exponents_up_to
    from monograde.reporting import CheckReport, render
    from monograde.sampling import random_poly, random_word
    spec = Q.domain.genspec
    rep = CheckReport("qk structure check")
    rng = Random(seed)
    base_monomials = _exponents_up_to(spec.nvars, 2)
    probes = []
    for w in spec.words_up_to(max_word):
        for exps in base_monomials:
            mono = BasePoly(spec.nvars, {exps: 1})
            probes.append(("monomial", GradedElement(spec, {w: mono})))
    for _ in range(samples):
        w = random_word(rng, spec, max_word)
        poly = random_poly(rng, spec.nvars)
        probes.append(("sample", GradedElement(spec, {w: poly})))

    zero = GradedElement.zero(spec)
    relations = (
        ("Q^2 = 0", lambda f: (Q(Q(f)), zero)),
        ("QK+KQ = d", lambda f: (Q(K(f)) + K(Q(f)), d(f))),
        ("Kd+dK = 0", lambda f: (K(d(f)) + d(K(f)), zero)),
    )
    for label, sides in relations:
        rep.first_counterexample(
            probes, ("%s on %d probes (word length <= %d)" % (label, len(probes), max_word),
                     lambda probe: sides(probe[1]),
                     lambda probe: "%s at %s %s" % (label, probe[0], render(probe[1]))))

    rep.note("NOTE bracket [Q,K] %s d as a derivation"
             % ("equals" if bracket(Q, K) == d else "differs from"))
    rep.note("NOTE bracket [K,d] %s the zero derivation"
             % ("is" if bracket(K, d).is_zero() else "is not"))
    return rep
