"""The paper's structural results that no command runs.

Small-monoid search and the parity-cardinality criterion, element orders
and normal forms in the group completion, jets of elements at a base
point, the split model of a graded vector bundle, and the graded Lie
axioms of derivations.  The tests and the acceptance suite call them; a
command process never does, so neither `monograde/__init__.py` nor the
command line imports this module and no command compiles it.  Import the
names from here: `from monograde.structure import split_model`.

The former methods take their receiver first: `taylor_truncate(f, p, k)`
for `f.taylor_truncate(p, k)`, and likewise `adic_order`,
`homogeneous_part`, `eval_at`, `taylor_shift`, `degree_in` and
`min_degree`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import gcd, lcm
from random import Random

from .basecoeff import BasePoly
from .calculus import Derivation, _sign_bit, bracket
from .galgebra import GeneratorSpec, GradedElement
from .grading import (CyclicProduct, GradingError, GradingSpec, KGroupElement,
                      NatPower, parity_counts)
from .morphism import DEFAULT_RANGE_SAMPLES, Atlas, DomainSpec, Morphism, MorphismError
from .reporting import CheckReport, render
from .sampling import random_element


# ---------------------------------------------------------------------------
# grading monoids
# ---------------------------------------------------------------------------

def check_parity_cardinality(spec: GradingSpec) -> bool:
    """Whether the even and odd parts have the same number of elements."""
    even, odd = parity_counts(spec)
    return even == odd


def element_order(spec: GradingSpec, i):
    """Least m >= 1 with m*i = 0, or None if no multiple returns to 0.

    In a cyclic product it is the lcm of the component orders q/gcd(c, q);
    in a table, the multiples are stepped through, at most one per element."""
    if not spec.is_finite:
        raise GradingError("element order needs a finite monoid")
    i = spec.check_element(i)
    if isinstance(spec, CyclicProduct):
        return lcm(*(q // gcd(c, q) for c, q in zip(spec._tup(i), spec.orders)))
    acc = i
    for m in range(1, spec.size + 1):
        if acc == spec.zero():
            return m
        acc = spec.add(acc, i)
    return None


def k_normalize(spec: GradingSpec, e: KGroupElement) -> KGroupElement:
    """Canonical representative with the componentwise minimum removed."""
    if not isinstance(spec, NatPower):
        raise GradingError("normalization is defined for nat_power gradings only")
    p, n = spec._tup(e.pos), spec._tup(e.neg)
    m = tuple(min(x, y) for x, y in zip(p, n))
    return KGroupElement(spec._out(tuple(x - c for x, c in zip(p, m))),
                         spec._out(tuple(y - c for y, c in zip(n, m))))


def all_cancellative_tables(n: int):
    """All commutative cancellative monoid tables on {0..n-1} with identity 0.

    Backtracking over the upper triangle of the Cayley table.  Cancellativity
    makes every row a permutation, which together with incremental
    associativity checking prunes the search to a small tree.
    """
    table = [[None] * n for _ in range(n)]
    for j in range(n):
        table[0][j] = table[j][0] = j
    row_used = [set(range(n)) if i == 0 else {i} for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def assoc_ok(i, j):
        # triples where the fresh cell is one of the two inner products
        for c in range(n):
            for x, y, z in ((i, j, c), (j, i, c), (c, i, j), (c, j, i)):
                xy = table[x][y]
                yz = table[y][z]
                if xy is None or yz is None:
                    continue
                lhs = table[xy][z]
                rhs = table[x][yz]
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
        # triples completed through the fresh cell as an outer product; the
        # mirrored outer-right case reduces to this one by commutativity
        for a, b in ((i, j), (j, i)):
            v = table[a][b]
            for x in range(n):
                rx = table[x]
                for y in range(n):
                    if rx[y] != a:
                        continue
                    yb = table[y][b]
                    if yb is not None and table[x][yb] is not None \
                            and table[x][yb] != v:
                        return False
        return True

    def fill(idx):
        if idx == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[idx]
        for v in range(n):
            if v in row_used[i] or (i != j and v in row_used[j]):
                continue
            table[i][j] = table[j][i] = v
            row_used[i].add(v)
            if i != j:
                row_used[j].add(v)
            if assoc_ok(i, j):
                yield from fill(idx + 1)
            table[i][j] = table[j][i] = None
            row_used[i].discard(v)
            if i != j:
                row_used[j].discard(v)

    yield from fill(0)


def parity_functions_of_table(table):
    """All nontrivial parity assignments for an addition table, by brute force."""
    n = len(table)
    found = []
    for bits in _cartesian((0, 1), repeat=n - 1):
        p = (0,) + bits
        if all(p[table[i][j]] == (p[i] + p[j]) % 2
               for i in range(n) for j in range(i, n)):
            if any(p):
                found.append(p)
    return found


# ---------------------------------------------------------------------------
# base polynomials and elements at a base point
# ---------------------------------------------------------------------------

def min_degree(poly: BasePoly):
    """Smallest term degree, or None for the zero polynomial."""
    if not poly.terms:
        return None
    return min(sum(e) for e in poly.terms)


def degree_in(poly: BasePoly, mu: int) -> int:
    if not 1 <= mu <= poly.nvars:
        raise ValueError("variable index out of range")
    return max((e[mu - 1] for e in poly.terms), default=0)


def taylor_shift(poly: BasePoly, center) -> BasePoly:
    """Rewrite in powers of (x - c): returns h with h(X) = poly(X + c),
    so the coefficients of h are the Taylor coefficients at the center."""
    center = [Fraction(c) for c in center]
    if len(center) != poly.nvars:
        raise ValueError("center has %d coordinates, expected %d"
                         % (len(center), poly.nvars))
    shifted = [BasePoly.var(poly.nvars, mu + 1) + BasePoly.const(poly.nvars, c)
               for mu, c in enumerate(center)]
    return poly.compose(shifted)


def eval_at(f: GradedElement, point) -> Fraction:
    """Scalar value at a base point: evaluate the body, kill the rest."""
    return f.body().eval(point)


def homogeneous_part(f: GradedElement, i) -> GradedElement:
    i = f.spec.grading.check_element(i)
    picked = {b: p for b, p in f.terms.items() if f.spec.word_degree(b) == i}
    return GradedElement._raw(f.spec, picked)


def taylor_truncate(f: GradedElement, point, k: int) -> GradedElement:
    """The polynomial jet of joint order k at the point: total degree in
    the shifted variables (x - p) and the generators together is <= k,
    and the remainder sits in the (k+1)-st power of the point's ideal."""
    if k < 0:
        raise ValueError("jet order must be >= 0")
    point = [Fraction(c) for c in point]
    neg = [-c for c in point]
    acc = {}
    for beta, poly in f.terms.items():
        w = sum(beta)
        if w > k:
            continue
        shifted = taylor_shift(poly, point)
        kept = {e: c for e, c in shifted.terms.items() if sum(e) <= k - w}
        if not kept:
            continue
        # shifting back is invertible, so a nonzero jet stays nonzero
        acc[beta] = taylor_shift(BasePoly._raw(f.spec.nvars, kept), neg)
    return GradedElement._raw(f.spec, acc)


def adic_order(f: GradedElement, point):
    """Smallest joint order of any term at the point (word length plus
    vanishing order of the coefficient); None for the zero element."""
    point = [Fraction(c) for c in point]
    best = None
    for beta, poly in f.terms.items():
        o = sum(beta) + min_degree(taylor_shift(poly, point))
        if best is None or o < best:
            best = o
    return best


# ---------------------------------------------------------------------------
# split models of graded vector bundles
# ---------------------------------------------------------------------------

def split_model(genspec: GeneratorSpec, chart_boxes, transitions, names=None,
                samples: int = DEFAULT_RANGE_SAMPLES, seed: int = 0) -> Atlas:
    """Build the atlas of the graded manifold attached to a graded vector
    bundle: base maps act on coordinates, and generators transform linearly
    degree by degree through the given matrices.

    `transitions` maps ordered chart pairs (a, b) to a triple
    (overlap_box_in_chart_a, base_images, matrices) where base_images is one
    polynomial per base coordinate and matrices[k][i][j] gives the
    coefficient of the j-th degree-k generator in the image of the i-th.
    """
    charts = [DomainSpec(genspec, box) for box in chart_boxes]
    degrees = sorted({g.degree for g in genspec.generators},
                     key=genspec.grading.sort_key)
    by_degree = {d: [pos for pos, g in enumerate(genspec.generators)
                     if g.degree == d] for d in degrees}
    built = {}
    for (a, b), (overlap, base_images, matrices) in transitions.items():
        source = DomainSpec(genspec, overlap)
        base = [GradedElement.scalar(genspec, poly) for poly in base_images]
        gen_images = [None] * genspec.ngens
        for d in degrees:
            positions = by_degree[d]
            m_k = len(positions)
            if d not in matrices:
                raise MorphismError("no matrix for degree %s in transition (%d,%d)"
                                    % (genspec.grading.format_element(d), a, b))
            mat = matrices[d]
            if len(mat) != m_k or any(len(row) != m_k for row in mat):
                raise MorphismError("matrix for degree %s must be %dx%d"
                                    % (genspec.grading.format_element(d), m_k, m_k))
            for i, row in enumerate(mat):
                gen_images[positions[i]] = GradedElement(genspec, [
                    (tuple(1 if p == positions[j] else 0 for p in range(genspec.ngens)), entry)
                    for j, entry in enumerate(row)])
        built[(a, b)] = Morphism(source, charts[b], base, gen_images,
                                 samples=samples, seed=seed)
    return Atlas(charts, built, names=names)


# ---------------------------------------------------------------------------
# the graded Lie algebra of derivations
# ---------------------------------------------------------------------------

def check_lie_axioms(d1: Derivation, d2: Derivation, d3: Derivation,
                     samples: int = 50, seed: int = 0) -> CheckReport:
    """Graded antisymmetry and the graded Jacobi identity as operator
    equalities.  Both sides of each are derivations of one degree, and
    `apply` is linear in a derivation's coordinate values, so when the
    sides agree on the coordinates they agree on every element; otherwise
    the first of `samples` random elements where they differ is located."""
    rep = CheckReport("graded Lie axiom check")

    def check(passed, what, lhs_op, rhs_ops, combine):
        holds = all(lhs == combine(*rhs) for lhs, *rhs in zip(
            lhs_op.base_values + lhs_op.gen_values,
            *(op.base_values + op.gen_values for op in rhs_ops)))
        # an identity that holds on the coordinates has no counterexample to draw
        rng = Random(seed)
        rep.first_counterexample(
            () if holds else (random_element(rng, d1.domain.genspec) for _ in range(samples)),
            (passed, lambda f: (lhs_op.apply(f), combine(*(op.apply(f) for op in rhs_ops))),
             lambda f: "%s at %s" % (what, render(f))))

    for label, a, b in (("(1,2)", d1, d2), ("(1,3)", d1, d3), ("(2,3)", d2, d3)):
        sign = _sign_bit(a, b)
        check("antisymmetry %s (%d samples)" % (label, samples), "antisymmetry " + label,
              bracket(a, b), [bracket(b, a)], lambda ba: ba if sign else -ba)
    sign12 = _sign_bit(d1, d2)
    check("jacobi (%d samples)" % samples, "jacobi", bracket(d1, bracket(d2, d3)),
          [bracket(bracket(d1, d2), d3), bracket(d2, bracket(d1, d3))],
          lambda rhs1, tail: rhs1 + (-tail if sign12 else tail))
    return rep
