"""Results of internal arithmetic, built through the trusted constructor,
must be exactly what the validating constructor would have built.

Every result of + - * ** invert, pullback and Derivation.apply is compared
with its re-validated copy, checked for stored zeros and over-long words,
and compared with a reference that builds the same terms one at a time and
sums them with the public constructor.  The references of pullback and
apply take every graded product over raw occurrence words (`mul_oracle`)
and continue coefficients by the Taylor sum (`taylor_sum_oracle`), so they
share no graded multiplication code with the library.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import (BasePoly, CyclicProduct, DomainSpec, Derivation,
                       GeneratorSpec, GradedElement, IntPower, Morphism,
                       NatPower, NotInvertible, compose)
from monograde.grading import KGroupElement
from monograde.sampling import random_poly

from helpers import mul_oracle, qk_model, random_gen_image, taylor_sum_oracle

SPECS = (
    # odd and even generators, a base variable; truncation small enough
    # that products overflow it
    GeneratorSpec(NatPower(1), 1, [1, 1, 2], truncation=3),
    # nonempty degree-zero words, two base variables
    GeneratorSpec(IntPower(1), 2, [1, 1, -1, -1], truncation=3),
    # colored signs: even degree 2 anticommutes with nothing, 1 and 3 do
    GeneratorSpec(CyclicProduct([4]), 1, [1, 2, 3], truncation=3),
    qk_model(truncation=3)[0],
)

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(nvars):
    monomials = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(monomials, coefficients, max_size=3).map(
        lambda terms: BasePoly(nvars, terms))


@st.composite
def elements(draw, spec):
    words = spec.words_up_to(spec.truncation)
    items = draw(st.lists(st.tuples(st.sampled_from(words), polys(spec.nvars)),
                          max_size=4))
    return GradedElement(spec, items)


spec_index = st.integers(0, len(SPECS) - 1)


def sum_by_terms(spec, terms):
    """The sum of elements, built by the validating constructor."""
    return GradedElement(spec, [kv for t in terms for kv in t.terms.items()])


def negated(x):
    return GradedElement(x.spec, {w: -p for w, p in x.terms.items()})


def assert_trusted(x, reference):
    spec = x.spec
    assert GradedElement(spec, x.terms) == x
    for beta, poly in x.terms.items():
        assert len(beta) == spec.ngens and sum(beta) <= spec.truncation
        assert all(e <= 1 for e, odd in zip(beta, spec.parities) if odd)
        assert isinstance(poly, BasePoly) and poly.nvars == spec.nvars
        assert poly.terms, "zero coefficient stored"
        assert all(isinstance(c, Fraction) and c for c in poly.terms.values())
    assert x == reference


@SETTINGS
@given(st.data(), spec_index)
def test_ring_operations_match_validated_construction(data, k):
    spec = SPECS[k]
    a = data.draw(elements(spec))
    b = data.draw(elements(spec))
    assert_trusted(a + b, sum_by_terms(spec, [a, b]))
    assert_trusted(a - b, sum_by_terms(spec, [a, negated(b)]))
    assert_trusted(-a, negated(a))
    assert_trusted(a * b, mul_oracle(a, b))
    # repeated squaring, replayed with the term-by-term product
    for k in range(4):
        result, base, e = GradedElement.one(spec), a, k
        while e:
            if e & 1:
                result = mul_oracle(result, base)
            base = mul_oracle(base, base)
            e >>= 1
        assert_trusted(a ** k, result)


@SETTINGS
@given(st.data(), spec_index, st.fractions(min_value=-3, max_value=3,
                                           max_denominator=3).filter(bool))
def test_invert_matches_validated_construction(data, k, c):
    spec = SPECS[k]
    nil = data.draw(elements(spec))
    nil = GradedElement(spec, {w: p for w, p in nil.terms.items() if sum(w)})
    f = nil + c
    u = nil * (1 / c)
    terms, power = [GradedElement.one(spec)], GradedElement.one(spec)
    for n in range(1, spec.truncation + 1):
        power = mul_oracle(power, u)
        if power.is_zero():
            break
        terms.append(power * (-1) ** n)
    assert_trusted(f.invert(), sum_by_terms(spec, terms) * (1 / c))
    try:
        nil.invert()
    except NotInvertible:
        pass
    else:
        raise AssertionError("an element with zero body was inverted")


def pullback_by_terms(m, f):
    """The pullback term by term: each coefficient continued by the Taylor
    sum, then multiplied left to right by the generator images, one
    occurrence at a time."""
    src = m.source.genspec
    terms = []
    for beta, poly in f.terms.items():
        term = taylor_sum_oracle(poly, m.base_images, src)
        for pos, e in enumerate(beta):
            for _ in range(e):
                term = mul_oracle(term, m.gen_images[pos])
        terms.append(term)
    return sum_by_terms(src, terms)


def endomorphism(rng, spec):
    """A self-map of the unbounded domain: each base image is x_mu plus a
    polynomial, plus a nilpotent degree-zero tail where the grading has
    nonempty degree-zero words; each generator image is homogeneous."""
    zero = spec.grading.zero()
    tails = [w for w in spec.words_up_to(3) if sum(w) and spec.word_degree(w) == zero]
    base = []
    for mu in range(spec.nvars):
        img = GradedElement.variable(spec, mu + 1) + random_poly(rng, spec.nvars)
        if tails:
            img = img + GradedElement(spec, {rng.choice(tails): random_poly(rng, spec.nvars)})
        base.append(img)
    gens = [random_gen_image(rng, spec, g.degree) for g in spec.generators]
    dom = DomainSpec(spec)
    return Morphism(dom, dom, base, gens)


@SETTINGS
@given(st.data(), spec_index, st.integers(0, 2 ** 16))
def test_pullback_matches_validated_construction(data, k, seed):
    spec = SPECS[k]
    m = endomorphism(Random(seed), spec)
    draws = [data.draw(elements(spec)) for _ in range(3)]
    # one morphism pulls back the draws in turn, so each later pullback
    # reads the monomial and word images that earlier ones cached
    pulled = [m.pullback(f) for f in draws]
    for f, pf in zip(draws, pulled):
        assert_trusted(pf, pullback_by_terms(m, f))
    # compose pulls m's own images back through m, caches warm; a freshly
    # built morphism must give every result again
    composite = compose(m, m)
    fresh = endomorphism(Random(seed), spec)
    assert composite == compose(fresh, fresh)
    for f, pf in zip(draws, pulled):
        assert m.pullback(f) == pf == endomorphism(Random(seed), spec).pullback(f)
        assert composite.pullback(f) == m.pullback(pf)


def derivations(spec):
    """A degree-0 field with polynomial values and, per odd generator, the
    contraction d/d(theta) of degree minus that generator's degree."""
    dom = DomainSpec(spec)
    zero_deg = spec.grading.zero()
    x = [GradedElement.variable(spec, mu + 1) for mu in range(spec.nvars)]
    gens = [GradedElement.gen(spec, pos) for pos in range(spec.ngens)]
    out = [Derivation(dom, KGroupElement(zero_deg, zero_deg),
                      [xi * xi + 1 for xi in x],
                      [x[0] * g for g in gens])]
    for pos, g in enumerate(spec.generators):
        values = [GradedElement.zero(spec)] * spec.ngens
        values[pos] = GradedElement.one(spec)
        out.append(Derivation(dom, KGroupElement(zero_deg, g.degree),
                              [GradedElement.zero(spec)] * spec.nvars, values))
    return out


def apply_by_terms(D, f):
    """Derivation.apply term by term: the chain rule on each coefficient
    and the graded Leibniz rule along each word."""
    spec = f.spec
    grading = spec.grading
    one = BasePoly.const(spec.nvars, 1)

    def word(occ, coeff=one):
        beta = [0] * spec.ngens
        for g in occ:
            beta[g] += 1
        return GradedElement(spec, {tuple(beta): coeff})

    def leibniz(occ):
        if not occ:
            return GradedElement.zero(spec)
        g, rest = occ[0], occ[1:]
        deg = spec.generators[g].degree
        sign = (grading.parity(grading.mul(D.degree.pos, deg))
                + grading.parity(grading.mul(D.degree.neg, deg))) % 2
        head = mul_oracle(D.gen_values[g], word(rest))
        tail = mul_oracle(GradedElement.gen(spec, g), leibniz(rest))
        return sum_by_terms(spec, [head, negated(tail) if sign else tail])

    terms = []
    for beta, poly in f.terms.items():
        occ = [g for g, e in enumerate(beta) for _ in range(e)]
        for mu in range(spec.nvars):
            dv, dp = D.base_values[mu], poly.partial(mu + 1)
            if not dv.is_zero() and not dp.is_zero():
                terms.append(mul_oracle(dv, word(occ, dp)))
        wd = leibniz(occ)
        if not wd.is_zero():
            terms.append(mul_oracle(GradedElement.scalar(spec, poly), wd))
    return sum_by_terms(spec, terms)


@SETTINGS
@given(st.data(), spec_index)
def test_apply_matches_validated_construction(data, k):
    spec = SPECS[k]
    fields = derivations(spec)
    if k == len(SPECS) - 1:
        fields += list(qk_model(truncation=3)[3])
    f = data.draw(elements(spec))
    for D in fields:
        assert_trusted(D.apply(f), apply_by_terms(D, f))


@SETTINGS
@given(st.data(), spec_index, st.randoms(use_true_random=False))
def test_insertion_order_does_not_matter(data, k, rnd):
    spec = SPECS[k]
    items = list(data.draw(elements(spec)).terms.items())
    shuffled = list(items)
    rnd.shuffle(shuffled)
    a, b = GradedElement(spec, items), GradedElement(spec, shuffled)
    assert a == b and hash(a) == hash(b)
    for _, poly in items:
        terms = list(poly.terms.items())
        rnd.shuffle(terms)
        p = BasePoly(spec.nvars, terms)
        assert p == poly and hash(p) == hash(poly)
