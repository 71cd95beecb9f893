"""Normal forms, graded arithmetic, body, inversion, jets."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import (AlgebraError, BasePoly, GeneratorSpec, GradedElement,
                       IntPower, NatPower, NotInvertible, Z2Power, parse_element,
                       render_element)
from monograde.galgebra import MAX_WORDS, Generator, TermSum, word_count
from monograde.sampling import random_element, random_homogeneous, random_poly
from monograde.structure import adic_order, eval_at, homogeneous_part, taylor_truncate

from helpers import (WORKLOAD_SPECS, from_raw_terms, inversion_sign, mul_oracle,
                     nat1_spec, occurrences)


def E(text, spec):
    return parse_element(text, spec)


# -- normalization -----------------------------------------------------------

def test_normalize_single_swap():
    spec = nat1_spec()
    swapped = from_raw_terms(spec, [(1, [1, 0])])
    assert swapped == -E("th[1,1]*th[1,2]", spec)
    assert render_element(swapped) == "-th[1,1]*th[1,2]"


def test_normalize_odd_square_dies():
    spec = nat1_spec()
    assert from_raw_terms(spec, [(1, [0, 0])]).is_zero()


def test_normalize_even_slides_through_odd():
    # t even of degree 2, theta odd of degree 1: product degree 2 is even,
    # so t*theta*t = t^2*theta with no sign
    spec = GeneratorSpec(NatPower(1), 0, [1, 2], names=["theta", "t"])
    t_pos = spec.position_of(2, 1)
    th_pos = spec.position_of(1, 1)
    raw = from_raw_terms(spec, [(1, [t_pos, th_pos, t_pos])])
    assert raw == E("theta*t^2", spec)
    # cross-check the sign against the inversion-count oracle
    assert inversion_sign(spec, [t_pos, th_pos, t_pos]) == 0


def test_normalize_agrees_with_inversion_oracle():
    spec = GeneratorSpec(NatPower(1), 1, [1, 1, 2, 3], truncation=6)
    rng = Random(7)
    for _ in range(300):
        word = [rng.randrange(spec.ngens) for _ in range(rng.randint(0, 5))]
        got = from_raw_terms(spec, [(1, word)])
        bit = inversion_sign(spec, word)
        if bit is None:
            assert got.is_zero()
        else:
            expected = from_raw_terms(spec, [(1, sorted(word))])
            assert got == (-expected if bit else expected)


def test_normalize_idempotent_and_permutation_invariant():
    spec = nat1_spec(nvars=2, degrees=(1, 1, 2))
    rng = Random(8)
    for _ in range(100):
        raw = []
        for _ in range(rng.randint(1, 4)):
            word = [rng.randrange(spec.ngens) for _ in range(rng.randint(0, 4))]
            raw.append((random_poly(rng, 2), word))
        a = from_raw_terms(spec, raw)
        rng.shuffle(raw)
        b = from_raw_terms(spec, raw)
        assert a == b
        # renormalizing the normal form is the identity
        again = from_raw_terms(spec, [(p, occurrences(beta)) for beta, p in a.terms.items()])
        assert again == a


# -- arithmetic ----------------------------------------------------------------

def test_unit_telescoping():
    spec = nat1_spec()
    f = E("1 + th[1,1]", spec)
    g = E("1 - th[1,1]", spec)
    assert f * g == GradedElement.one(spec)


def test_multiplicative_identity():
    spec = nat1_spec()
    f = E("x1 + x1^2*th[1,1]*th[1,2]", spec)
    assert f * GradedElement.one(spec) == f


def test_nilpotent_word_collapse():
    spec = nat1_spec()
    f = E("x1 + th[1,1]*th[1,2]", spec)
    assert f * E("th[1,1]", spec) == E("x1*th[1,1]", spec)


def test_power_equals_repeated_product():
    spec = nat1_spec(nvars=2, degrees=(1, 1, 2), truncation=4)
    rng = Random(12)
    for _ in range(10):
        p = random_element(rng, spec)
        repeated = GradedElement.one(spec)
        for k in range(10):
            assert p ** k == repeated
            repeated = repeated * p


def test_power_squares_only_while_bits_are_left(monkeypatch):
    spec = nat1_spec(nvars=2, degrees=(1, 1, 2))
    p = E("x1 + th[2,1] + 1", spec)
    calls = []
    product = TermSum.add_product

    def counted(self, x, y):
        calls.append((x, y))
        product(self, x, y)

    monkeypatch.setattr(TermSum, "add_product", counted)
    for k in range(1, 10):
        calls.clear()
        p ** k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2


def test_generator_is_a_plain_value():
    g = Generator(1, 2, "t")
    assert g == Generator(1, 2, "t") and hash(g) == hash(Generator(1, 2, "t"))
    assert g != Generator(1, 2) and g != (1, 2, "t")
    assert repr(g) == "Generator(degree=1, index=2, name='t')"
    with pytest.raises(AttributeError):
        g.index = 3


@pytest.mark.parametrize("spec", WORKLOAD_SPECS)
def test_words_are_counted_before_they_are_built(spec):
    # every exponent vector within the length, an odd generator at most once
    for max_len in range(spec.truncation + 1):
        oracle = {beta for beta in product(*[range(2 if odd else max_len + 1)
                                             for odd in spec.parities])
                  if sum(beta) <= max_len}
        words = spec.words_up_to(max_len)
        assert set(words) == oracle and len(words) == word_count(spec.parities, max_len)
    past = GeneratorSpec(NatPower(1), 0, [2] * 4, truncation=60)
    assert word_count(past.parities, 60) > MAX_WORDS
    with pytest.raises(AlgebraError, match="more than %d words" % MAX_WORDS):
        past.words_up_to(60)


def test_products_match_raw_word_oracle():
    rng = Random(9)
    for spec in (GeneratorSpec(Z2Power(2), 1, [(1, 0), (0, 1), (1, 1)],
                               truncation=5),
                 GeneratorSpec(IntPower(2), 1, [(1, 0), (0, -1), (1, 1)],
                               truncation=5)):
        for _ in range(200):
            a = random_element(rng, spec)
            b = random_element(rng, spec)
            assert a * b == mul_oracle(a, b)


def test_multiplication_associative_and_distributive():
    # truncation drops may happen at different moments in the two groupings,
    # but word length only grows, so the truncated products agree exactly
    spec = GeneratorSpec(IntPower(2), 1, [(1, 0), (0, -1), (1, 1)], truncation=4)
    rng = Random(19)
    for _ in range(150):
        a = random_element(rng, spec)
        b = random_element(rng, spec)
        c = random_element(rng, spec)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_colored_commutation():
    # over Z2 x Z2 the sign comes from the product of degrees, not from the
    # product of parities: two odd generators of degrees (1,0) and (0,1)
    # commute, while the even generator of degree (1,1) anticommutes with
    # both of them
    spec = GeneratorSpec(Z2Power(2), 0, [(1, 0), (0, 1), (1, 1)],
                         names=["a", "b", "c"])
    g = spec.grading
    a, b, c = (E(nm, spec) for nm in ("a", "b", "c"))
    assert g.parity((1, 0)) == 1 and g.parity((1, 1)) == 0
    assert a * b == b * a
    assert a * a == GradedElement.zero(spec)
    assert c * a == -(a * c)
    assert c * b == -(b * c)
    assert c * c != GradedElement.zero(spec)  # even: exponents unbounded


def test_finite_table_graded_algebra():
    # Z4 presented as an explicit table with its ring product
    from monograde import FiniteTable, parse_element, render_element
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    g = FiniteTable(add, [0, 1, 0, 1], mul_table=mul)
    spec = GeneratorSpec(g, 0, [1, 3], truncation=4)
    u = GradedElement.gen(spec, 0)
    w = GradedElement.gen(spec, 1)
    assert u * u == GradedElement.zero(spec)
    assert u * w == -(w * u)  # parity(1*3 mod 4) = parity(3) = 1
    assert (u * w).degree() == 0
    assert parse_element(render_element(u * w), spec) == u * w


def test_cyclic_grading_algebra():
    # Z4-graded: degree-1 and degree-3 generators are odd and anticommute,
    # the degree-2 generator is even and central
    from monograde import CyclicProduct
    spec = GeneratorSpec(CyclicProduct([4]), 0, [1, 2, 3],
                         names=["u", "t", "w"])
    u, t, w = (E(nm, spec) for nm in ("u", "t", "w"))
    assert u * u == GradedElement.zero(spec)
    assert w * w == GradedElement.zero(spec)
    assert u * w == -(w * u)
    assert u * t == t * u and w * t == t * w
    assert (u * w).degree() == 0  # 1 + 3 = 0 mod 4
    assert (t * t).degree() == 0


def test_graded_commutativity_randomized():
    spec = GeneratorSpec(NatPower(1), 1, [1, 1, 2], truncation=6)
    g = spec.grading
    rng = Random(10)
    for _ in range(400):
        f = random_homogeneous(rng, spec)
        h = random_homogeneous(rng, spec)
        if f.is_zero() or h.is_zero():
            continue
        bit = g.parity(g.mul(f.degree(), h.degree()))
        rhs = h * f
        assert f * h == (-rhs if bit else rhs)


def test_degree_additivity():
    spec = GeneratorSpec(NatPower(2), 1, [(0, 1), (1, 0), (1, 1)], truncation=6)
    g = spec.grading
    rng = Random(11)
    for _ in range(200):
        f = random_homogeneous(rng, spec)
        h = random_homogeneous(rng, spec)
        fh = f * h
        if fh.is_zero():
            continue
        assert fh.is_homogeneous()
        assert fh.degree() == g.add(f.degree(), h.degree())


# -- body, evaluation ---------------------------------------------------------

def test_body():
    spec = nat1_spec()
    assert E("x1^2 + x1*th[1,1]*th[1,2]", spec).body() == BasePoly.var(1, 1) ** 2
    assert E("th[1,1]", spec).body().is_zero()
    assert E("5", spec).body() == BasePoly.const(1, 5)


def test_eval_at():
    spec = nat1_spec()
    assert eval_at(E("x1^2 + th[1,1]*th[1,2]", spec), [2]) == 4
    assert eval_at(E("th[1,1]", spec), [3]) == 0
    spec2 = nat1_spec(nvars=2)
    assert eval_at(E("(x1 + x2)*th[1,1]*th[1,2] + 3", spec2), [1, 1]) == 3


# -- inversion ------------------------------------------------------------------

def test_invert_nilpotent_unit():
    spec = nat1_spec()
    f = E("1 + th[1,1]*th[1,2]", spec)
    inv = f.invert()
    assert inv == E("1 - th[1,1]*th[1,2]", spec)
    assert f * inv == GradedElement.one(spec)


def test_invert_geometric_series():
    spec = GeneratorSpec(NatPower(1), 0, [2], truncation=4, names=["t"])
    inv = E("1 - t", spec).invert()
    assert render_element(inv) == "1 + t + t^2 + t^3 + t^4"


def test_invert_rejects_nonconstant_body():
    spec = nat1_spec()
    with pytest.raises(NotInvertible):
        E("x1 + th[1,1]", spec).invert()
    with pytest.raises(NotInvertible):
        E("th[1,1]", spec).invert()


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def units(draw):
    """A nonzero constant plus up to four terms of nonempty words, over a
    grading shaped like a workload."""
    spec = draw(st.sampled_from(WORKLOAD_SPECS))
    monomials = st.tuples(*[st.integers(0, 2)] * spec.nvars)
    polys = st.dictionaries(monomials, RATIONALS, min_size=1, max_size=2).map(
        lambda terms: BasePoly(spec.nvars, terms))
    words = st.sampled_from([w for w in spec.words_up_to(spec.truncation) if sum(w)])
    items = draw(st.lists(st.tuples(words, polys), max_size=4))
    c = draw(RATIONALS.filter(bool))
    return GradedElement(spec, [((0,) * spec.ngens, c)] + items)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(units())
def test_invert_equals_the_geometric_series_of_raw_products(f):
    # f = c*(1 + u) with u of word length >= 1, so f^-1 = c^-1 * sum of
    # (-u)^k up to the first zero power
    spec = f.spec
    cinv = BasePoly.const(spec.nvars, 1 / f.body().constant_value())
    minus_u = GradedElement(spec, [(beta, -p * cinv) for beta, p in f.terms.items() if sum(beta)])
    power = GradedElement.one(spec)
    series = [power]
    for _ in range(spec.truncation):
        power = mul_oracle(power, minus_u)
        if power.is_zero():
            break
        series.append(power)
    expected = GradedElement(spec, [(beta, p * cinv) for x in series
                                    for beta, p in x.terms.items()])
    assert f.invert() == expected


def test_invert_randomized_both_directions():
    spec = GeneratorSpec(IntPower(1), 2, [1, 1, -1, 2], truncation=6)
    rng = Random(12)
    done = 0
    while done < 200:
        f = random_element(rng, spec)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        f = f - GradedElement.scalar(spec, f.body()) + GradedElement.scalar(spec, c)
        assert f * f.invert() == GradedElement.one(spec)
        done += 1
    for _ in range(100):
        f = random_element(rng, spec)
        f = f - GradedElement.scalar(spec, f.body())  # body 0
        with pytest.raises(NotInvertible):
            f.invert()
        # but 1 - f is a unit (the local-ring consequence)
        g = GradedElement.one(spec) - f
        assert g * g.invert() == GradedElement.one(spec)


# -- grading projections -----------------------------------------------------

def test_homogeneous_part():
    spec = nat1_spec()
    f = E("x1 + th[1,1] + th[1,1]*th[1,2]", spec)
    assert homogeneous_part(f, 0) == E("x1", spec)
    assert homogeneous_part(f, 2) == E("th[1,1]*th[1,2]", spec)
    assert homogeneous_part(f, 5).is_zero()
    total = sum((homogeneous_part(f, i) for i in range(0, 3)),
                GradedElement.zero(spec))
    assert total == f


# -- jets ---------------------------------------------------------------------

def test_taylor_truncate_classical():
    spec = nat1_spec()
    f = E("x1^2", spec)
    assert taylor_truncate(f, [1], 1) == E("2*x1 - 1", spec)


def test_taylor_truncate_kills_long_words():
    spec = nat1_spec()
    f = E("th[1,1]*th[1,2]", spec)
    p0 = taylor_truncate(f, [0], 1)
    assert p0.is_zero()
    assert adic_order(f - p0, [0]) == 2


def test_taylor_truncate_constant():
    spec = nat1_spec()
    f = E("7/2", spec)
    for k in range(4):
        assert taylor_truncate(f, [5], k) == f


def test_jet_remainder_order():
    spec = nat1_spec(nvars=2, degrees=(1, 1, 2))
    rng = Random(13)
    for _ in range(150):
        f = random_element(rng, spec)
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        k = rng.randint(0, 4)
        rem = f - taylor_truncate(f, p, k)
        order = adic_order(rem, p)
        assert order is None or order >= k + 1


def test_separation_by_jets():
    # distinct elements are told apart by some finite jet at some sample point
    spec = nat1_spec(nvars=1, degrees=(1, 1))
    rng = Random(14)
    points = ([0], [1], [Fraction(-1, 2)])
    for _ in range(100):
        f = random_element(rng, spec)
        g = random_element(rng, spec)
        if f == g:
            continue
        h = f - g
        assert any(not taylor_truncate(h, p, spec.truncation).is_zero()
                   for p in points)


def test_truncation_breaks_the_power_law_in_values():
    # t^2 survives at truncation 3, but t^2*t^2 = t^4 is dropped
    spec = GeneratorSpec(NatPower(1), 1, [2], truncation=3)
    t = E("th[2,1]", spec)
    sq = t * t
    assert not sq.is_zero()
    dropped = sq * sq  # word length 4 > 3
    assert dropped.is_zero()


@pytest.mark.parametrize("name", ["2", "t-1", "a b", "\u03b8", "", "1t", 5,
                                  "th", "x1", "x01"])
def test_generator_names_are_readable_and_unreserved(name):
    # a name the grammar cannot read as one NAME token would render to text
    # that parses to a different element, or not at all
    with pytest.raises(AlgebraError):
        GeneratorSpec(NatPower(1), 1, [2], names=[name])


@pytest.mark.parametrize("name", ["t", "_a", "thU", "x", "xa", "x1a", "theta2"])
def test_generator_names_round_trip(name):
    spec = GeneratorSpec(NatPower(1), 1, [2], names=[name])
    e = E("%s + x1" % name, spec)
    assert render_element(e) == "x1 + %s" % name
    assert E(render_element(e), spec) == e


def test_element_never_equals_a_bare_scalar():
    spec = nat1_spec()
    one = GradedElement.one(spec)
    for scalar in (1, Fraction(1), BasePoly.const(spec.nvars, 1)):
        assert one != scalar and scalar != one
        assert len({one, scalar}) == 2
    assert GradedElement.zero(spec) != 0
    assert BasePoly.const(1, 1) != 1
    # equal elements hash equal, however they were built
    a = E("th[1,1] + 1", spec)
    b = GradedElement.gen(spec, 0) + one
    assert a == b and hash(a) == hash(b) and len({a, b, one}) == 2
