"""Continuation, pullbacks, composition, atlases, split models."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import (BasePoly, DomainSpec, GeneratorSpec, GradedElement,
                       IntPower, Morphism, MorphismError, NatPower, check_cocycle,
                       check_homomorphism, compose, continuation, parse_element)
from monograde import morphism as morphism_module
from monograde.morphism import Atlas, RangeViolation, _check_range, intersect_boxes
from monograde.sampling import random_element, random_poly
from monograde.structure import split_model

from helpers import (eval_oracle, grid_points_oracle, random_endomorphism,
                     random_invertible_matrix, random_point_oracle,
                     range_failure_oracle, rich_int_spec, taylor_sum_oracle)


def nilpotent_pair_spec(truncation=6):
    # one odd generator of degree +1 and one of degree -1, so th1*th2 has
    # degree zero and may appear in base-coordinate images
    return GeneratorSpec(IntPower(1), 1, [1, -1], truncation=truncation)


def E(text, spec):
    return parse_element(text, spec)


def shift_morphism(spec):
    dom = DomainSpec(spec)
    x = GradedElement.variable(spec, 1)
    nil = E("th[1,1]*th[-1,1]", spec)
    gens = [GradedElement.gen(spec, pos) for pos in range(spec.ngens)]
    return Morphism(dom, dom, [x + nil], gens)


# -- continuation -------------------------------------------------------------

def test_continuation_square():
    spec = nilpotent_pair_spec()
    g = BasePoly.var(1, 1) ** 2
    y = E("x1 + th[1,1]*th[-1,1]", spec)
    got = continuation(g, [y])
    assert got == E("x1^2 + 2*x1*th[1,1]*th[-1,1]", spec)


def test_continuation_constant():
    spec = nilpotent_pair_spec()
    g = BasePoly.const(1, Fraction(5, 3))
    y = E("x1 + 7*th[1,1]*th[-1,1]", spec)
    assert continuation(g, [y]) == E("5/3", spec)


def test_continuation_two_variables():
    spec = GeneratorSpec(IntPower(1), 2, [1, -1], truncation=6)
    g = BasePoly.var(2, 1) * BasePoly.var(2, 2)
    y1 = E("x1", spec)
    y2 = E("x2 + th[1,1]*th[-1,1]", spec)
    assert continuation(g, [y1, y2]) == E("x1*x2 + x1*th[1,1]*th[-1,1]", spec)


def test_continuation_rejects_graded_image():
    spec = nilpotent_pair_spec()
    with pytest.raises(MorphismError):
        continuation(BasePoly.var(1, 1), [E("th[1,1]", spec)])


def test_continuation_matches_composition_for_plain_images():
    spec = nilpotent_pair_spec()
    rng = Random(20)
    for _ in range(60):
        g = random_poly(rng, 1, max_terms=4, max_degree=3)
        img_poly = random_poly(rng, 1, max_terms=3, max_degree=2)
        got = continuation(g, [GradedElement.scalar(spec, img_poly)])
        assert got == GradedElement.scalar(spec, g.compose([img_poly]))


def test_continuation_matches_taylor_sum_oracle():
    spec = rich_int_spec()
    rng = Random(21)
    zero = spec.grading.zero()
    pool = [w for w in spec.words_up_to(3)
            if sum(w) > 0 and spec.word_degree(w) == zero]
    for _ in range(40):
        g = random_poly(rng, 1, max_terms=3, max_degree=3)
        img = GradedElement.variable(spec, 1)
        for _ in range(rng.randint(1, 2)):
            w = pool[rng.randrange(len(pool))]
            img = img + GradedElement(spec, {w: random_poly(rng, 1, max_degree=1)})
        assert continuation(g, [img]) == taylor_sum_oracle(g, [img], spec)


# -- pullback -----------------------------------------------------------------

def test_pullback_coordinate_image():
    spec = nilpotent_pair_spec()
    m = shift_morphism(spec)
    assert m.pullback(E("x1", spec)) == E("x1 + th[1,1]*th[-1,1]", spec)


def test_pullback_generator_swap_picks_up_sign():
    spec = GeneratorSpec(NatPower(1), 1, [1, 1], truncation=6)
    dom = DomainSpec(spec)
    th1, th2 = (GradedElement.gen(spec, p) for p in range(2))
    swap = Morphism(dom, dom, [GradedElement.variable(spec, 1)], [th2, th1])
    assert swap.pullback(E("th[1,1]*th[1,2]", spec)) == \
        -E("th[1,1]*th[1,2]", spec)


def test_pullback_identity():
    spec = rich_int_spec()
    ident = Morphism.identity(DomainSpec(spec))
    rng = Random(22)
    for _ in range(50):
        f = random_element(rng, spec)
        assert ident.pullback(f) == f


def test_degree_violating_image_rejected():
    spec = nilpotent_pair_spec()
    dom = DomainSpec(spec)
    x = GradedElement.variable(spec, 1)
    with pytest.raises(MorphismError):
        Morphism(dom, dom, [x], [x, E("th[-1,1]", spec)])  # th1 -> x


# -- composition ----------------------------------------------------------------

def test_compose_with_identity():
    spec = nilpotent_pair_spec()
    m = shift_morphism(spec)
    ident = Morphism.identity(DomainSpec(spec))
    assert compose(ident, m) == m
    assert compose(m, ident) == m


def test_compose_shift_then_square():
    spec = nilpotent_pair_spec()
    shift = shift_morphism(spec)
    dom = DomainSpec(spec)
    gens = [GradedElement.gen(spec, pos) for pos in range(spec.ngens)]
    square = Morphism(dom, dom, [E("x1^2", spec)], gens)
    comp = compose(shift, square)
    assert comp.base_images[0] == E("x1^2 + 2*x1*th[1,1]*th[-1,1]", spec)


def test_compose_contravariant_and_associative():
    spec = rich_int_spec()
    rng = Random(23)
    for _ in range(8):
        phi = random_endomorphism(rng, spec)
        psi = random_endomorphism(rng, spec)
        chi = random_endomorphism(rng, spec)
        comp = compose(phi, psi)
        for _ in range(10):
            f = random_element(rng, spec)
            assert comp.pullback(f) == phi.pullback(psi.pullback(f))
        assert compose(compose(phi, psi), chi) == compose(phi, compose(psi, chi))


# -- underlying map --------------------------------------------------------------

def test_underlying_map_kills_generators():
    spec = nilpotent_pair_spec()
    assert shift_morphism(spec).underlying_map() == [BasePoly.var(1, 1)]


def test_underlying_map_square():
    spec = nilpotent_pair_spec()
    dom = DomainSpec(spec)
    gens = [GradedElement.gen(spec, pos) for pos in range(spec.ngens)]
    square = Morphism(dom, dom, [E("x1^2", spec)], gens)
    assert square.underlying_map() == [BasePoly.var(1, 1) ** 2]


def test_body_commutes_with_pullback():
    spec = rich_int_spec()
    rng = Random(24)
    for _ in range(10):
        m = random_endomorphism(rng, spec)
        under = m.underlying_map()
        for _ in range(20):
            f = random_element(rng, spec)
            assert m.pullback(f).body() == f.body().compose(under)


def test_equal_images_give_equal_pullbacks():
    spec = rich_int_spec()
    rng = Random(25)
    m1 = random_endomorphism(rng, spec)
    m2 = Morphism(m1.source, m1.target, m1.base_images, m1.gen_images)
    assert m1 == m2
    for _ in range(50):
        f = random_element(rng, spec)
        assert m1.pullback(f) == m2.pullback(f)


def test_pullback_over_colored_grading():
    from monograde import Z2Power
    spec = GeneratorSpec(Z2Power(2), 1, [(1, 0), (0, 1), (1, 1)],
                         truncation=5, names=["a", "b", "c"])
    dom = DomainSpec(spec)
    x = GradedElement.variable(spec, 1)
    # c -> c + x*a*b keeps degree (1,1): (1,0)+(0,1) = (1,1)
    images = {"a": parse_element("a", spec), "b": parse_element("b", spec),
              "c": parse_element("c + x1*a*b", spec)}
    m = Morphism(dom, dom, [x], [images[g.name] for g in spec.generators])
    rep = check_homomorphism(m, samples=80, seed=2)
    assert rep.passed


def test_generator_free_morphism_is_polynomial_composition():
    spec_u = GeneratorSpec(NatPower(1), 2, [], truncation=4)
    spec_v = GeneratorSpec(NatPower(1), 1, [], truncation=4)
    U, V = DomainSpec(spec_u), DomainSpec(spec_v)
    y = parse_element("x1^2 + x2", spec_u)
    m = Morphism(U, V, [y], [])
    f = parse_element("x1^3 - 2*x1", spec_v)
    got = m.pullback(f)
    expected = GradedElement.scalar(
        spec_u, f.body().compose([y.body()]))
    assert got == expected
    assert m.underlying_map() == [y.body()]


# -- homomorphism check ------------------------------------------------------------

def test_check_homomorphism_identity():
    spec = nilpotent_pair_spec()
    rep = check_homomorphism(Morphism.identity(DomainSpec(spec)), samples=20, seed=0)
    assert rep.passed


def test_check_homomorphism_shift():
    spec = nilpotent_pair_spec()
    rep = check_homomorphism(shift_morphism(spec), samples=100, seed=0)
    assert rep.passed
    assert any("multiplicativity" in line for line in rep.lines)


def test_check_homomorphism_shares_the_pullbacks_of_f_and_g(monkeypatch):
    # the unit, then per sample f, g, f+g, f*g and h
    spec = nilpotent_pair_spec()
    m = shift_morphism(spec)
    calls = []
    pullback = Morphism.pullback
    monkeypatch.setattr(Morphism, "pullback",
                        lambda self, f: calls.append(f) or pullback(self, f))
    assert check_homomorphism(m, samples=30, seed=4).passed
    assert len(calls) == 1 + 5 * 30


def test_check_homomorphism_reports_truncation_loss():
    # t^2 vanishes at truncation 1, but its image (u*v)^2 survives at 4:
    # the FAIL line comes from inside the sample loop, before the PASS lines
    tgt = GeneratorSpec(NatPower(1), 0, [4], truncation=1, names=["t"])
    src = GeneratorSpec(NatPower(1), 0, [2, 2], truncation=4, names=["u", "v"])
    uv = GradedElement.gen(src, 0) * GradedElement.gen(src, 1)
    m = Morphism(DomainSpec(src), DomainSpec(tgt), [], [uv])
    rep = check_homomorphism(m, samples=20, seed=0)
    assert rep.text() == "\n".join([
        "homomorphism check: FAIL (1)",
        "PASS unit",
        "FAIL multiplicativity sample 2: lhs=4/3*u*v rhs=4/3*u*v + 5/2*u^2*v^2",
        "PASS additivity (20 samples)",
        "PASS degree preservation (20 samples)"])


def test_truncation_breaks_multiplicativity_in_values():
    # t*t is dropped in the target, so it pulls back to zero, while the
    # product of the images of t is u^2*v^2
    tgt = GeneratorSpec(NatPower(1), 0, [4], truncation=1, names=["t"])
    src = GeneratorSpec(NatPower(1), 0, [2, 2], truncation=4, names=["u", "v"])
    uv = GradedElement.gen(src, 0) * GradedElement.gen(src, 1)
    m = Morphism(DomainSpec(src), DomainSpec(tgt), [], [uv])
    t = GradedElement.gen(tgt, 0)
    lost = t * t
    assert lost.is_zero()
    assert m.pullback(lost).is_zero()
    assert m.pullback(t) * m.pullback(t) == E("u^2*v^2", src)


# -- range condition ----------------------------------------------------------------

def test_range_condition_enforced():
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    src = DomainSpec(spec, [(0, 2)])
    tgt = DomainSpec(spec, [(0, 1)])
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)
    with pytest.raises(RangeViolation):
        Morphism(src, tgt, [x], [th])  # x=2 falls outside [0,1]
    half = Morphism(src, tgt, [x / 2], [th])
    assert half.underlying_map()[0] == BasePoly.var(1, 1) * Fraction(1, 2)


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
INTERVALS = st.one_of(
    st.tuples(RATIONALS, RATIONALS).map(sorted).map(tuple),
    RATIONALS.map(lambda r: (r, r)),
    RATIONALS.map(lambda r: (None, r)),
    RATIONALS.map(lambda r: (r, None)),
    st.just((None, None)))


def boxes(n):
    return st.lists(INTERVALS, min_size=n, max_size=n)


def cubic_polys(n):
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    return st.dictionaries(exps, RATIONALS, max_size=4).map(
        lambda terms: BasePoly(n, terms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_range_check_matches_fraction_oracle(data):
    n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    source = DomainSpec(GeneratorSpec(NatPower(1), n, [1], truncation=2),
                        data.draw(boxes(n)))
    target = DomainSpec(GeneratorSpec(NatPower(1), m, [1], truncation=2),
                        data.draw(boxes(m)))
    bodies = [data.draw(cubic_polys(n)) for _ in range(m)]
    samples, seed = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 2 ** 16))
    # an unbounded target lets the morphism exist; then check the drawn box
    morph = Morphism(source, DomainSpec(target.genspec),
                     [GradedElement.scalar(source.genspec, b) for b in bodies],
                     [GradedElement.gen(source.genspec, 0)], samples=0)
    message = "point %s maps to %s"
    try:
        _check_range(morph, target.box, samples, seed, message)
        got = None
    except RangeViolation as exc:
        got = str(exc)
    assert got == range_failure_oracle(bodies, source.box, target.box, samples, seed,
                                       message)
    rng = Random(seed)
    points = grid_points_oracle(source.box) + [
        random_point_oracle(rng, source.box) for _ in range(samples)]
    assert [[Fraction(n, p[-1]) for n in p[:-1]]
            for p in source.sample_points(samples, seed)] == points
    for b in bodies:
        for p in points:
            assert b.eval(p) == eval_oracle(b, p)


# -- atlases ----------------------------------------------------------------------

def sign_atlas(flip_back=True):
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    chart = DomainSpec(spec, [(-2, 2)])
    overlap = [(-1, 1)]
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)
    t01 = Morphism(DomainSpec(spec, overlap), chart, [x], [-th])
    t10 = Morphism(DomainSpec(spec, overlap), chart, [x], [-th if flip_back else th])
    return Atlas([chart, chart], {(0, 1): t01, (1, 0): t10}, names=["U", "V"])


def test_cocycle_single_chart():
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    atlas = Atlas([DomainSpec(spec, [(-1, 1)])], {})
    assert check_cocycle(atlas).passed


def test_cocycle_sign_flip_consistent():
    assert check_cocycle(sign_atlas(flip_back=True)).passed


def test_cocycle_sign_flip_broken():
    rep = check_cocycle(sign_atlas(flip_back=False))
    assert rep.text() == ("atlas cocycle check: FAIL (2)\n"
                          "FAIL pair (U,V): lhs=x1; -th[1,1] rhs=identity images\n"
                          "FAIL pair (V,U): lhs=x1; -th[1,1] rhs=identity images")


def test_atlas_requires_reverse_transition():
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    chart = DomainSpec(spec, [(-2, 2)])
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)
    t01 = Morphism(DomainSpec(spec, [(-1, 1)]), chart, [x], [th])
    with pytest.raises(MorphismError):
        Atlas([chart, chart], {(0, 1): t01})


def test_triple_cocycle():
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    chart = DomainSpec(spec, [(-2, 2)])
    overlap = [(-1, 1)]
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)

    def scaled(c):
        return Morphism(DomainSpec(spec, overlap), chart, [x], [th * Fraction(c)])

    def atlas_with(c02):
        scalars = {(0, 1): 2, (1, 0): Fraction(1, 2),
                   (1, 2): 3, (2, 1): Fraction(1, 3),
                   (0, 2): c02, (2, 0): Fraction(1, c02)}
        return Atlas([chart] * 3,
                     {pair: scaled(c) for pair, c in scalars.items()},
                     names=["A", "B", "C"])

    assert check_cocycle(atlas_with(6)).passed
    rep = check_cocycle(atlas_with(5))
    assert rep.text() == "\n".join(
        ["atlas cocycle check: FAIL (6)"]
        + ["PASS pair (%s) inverts" % pair
           for pair in ("A,B", "B,A", "A,C", "C,A", "B,C", "C,B")]
        + ["FAIL triple (A,B,C): lhs=x1; 6*th[1,1] rhs=x1; 5*th[1,1]",
           "FAIL triple (A,C,B): lhs=x1; 5/3*th[1,1] rhs=x1; 2*th[1,1]",
           "FAIL triple (B,A,C): lhs=x1; 5/2*th[1,1] rhs=x1; 3*th[1,1]",
           "FAIL triple (B,C,A): lhs=x1; 3/5*th[1,1] rhs=x1; 1/2*th[1,1]",
           "FAIL triple (C,A,B): lhs=x1; 2/5*th[1,1] rhs=x1; 1/3*th[1,1]",
           "FAIL triple (C,B,A): lhs=x1; 1/6*th[1,1] rhs=x1; 1/5*th[1,1]"])


def arc_atlas(pairs):
    """Charts [0,3] glued by translations: for (a, b) in pairs, the top
    third [2,3] of chart a is the bottom third [0,1] of chart b."""
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    chart = DomainSpec(spec, [(0, 3)])
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)
    transitions = {}
    for a, b in pairs:
        transitions[(a, b)] = Morphism(DomainSpec(spec, [(2, 3)]), chart, [x - 2], [th])
        transitions[(b, a)] = Morphism(DomainSpec(spec, [(0, 1)]), chart, [x + 2], [th])
    return Atlas([chart] * 3, transitions, names=["A", "B", "C"])


def test_cocycle_skips_a_triple_without_its_direct_transition():
    # a chain A - B - C: no triple has a declared (a, c) transition
    assert check_cocycle(arc_atlas([(0, 1), (1, 2)])).text() == "\n".join(
        ["atlas cocycle check: PASS"]
        + ["PASS pair (%s) inverts" % pair for pair in ("A,B", "B,A", "B,C", "C,B")])


def test_cocycle_skips_a_triple_with_disjoint_overlaps():
    # a circle of three arcs: each chart meets the other two in disjoint
    # thirds, so no triple has a common overlap to compare on
    atlas = arc_atlas([(0, 1), (1, 2), (2, 0)])
    assert all((b, c) in atlas.transitions and (a, c) in atlas.transitions
               for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 0, 2)))
    assert check_cocycle(atlas).text() == "\n".join(
        ["atlas cocycle check: PASS"]
        + ["PASS pair (%s) inverts" % pair
           for pair in ("A,B", "B,A", "A,C", "C,A", "B,C", "C,B")])


def test_cocycle_and_compose_use_the_transitions_sampling_policy(monkeypatch):
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    x = BasePoly.var(1, 1)
    overlap = [(-1, 1)]
    scalars = {(0, 1): 2, (1, 0): Fraction(1, 2), (1, 2): 3, (2, 1): Fraction(1, 3),
               (0, 2): 6, (2, 0): Fraction(1, 6)}
    atlas = split_model(spec, [[(-2, 2)]] * 3,
                        {pair: (overlap, [x], {1: [[c]]}) for pair, c in scalars.items()},
                        names=["A", "B", "C"], samples=5, seed=7)
    policies = []
    check_range = morphism_module._check_range

    def spy(m, box, samples, seed, message):
        policies.append((samples, seed))
        check_range(m, box, samples, seed, message)

    monkeypatch.setattr(morphism_module, "_check_range", spy)
    rep = check_cocycle(atlas)
    assert rep.passed and rep.text().count("PASS triple") == 6
    compose(atlas.transitions[(0, 1)], atlas.transitions[(1, 2)])
    # 6 pairs and 6 triples, each a compose check and the composite's own,
    # plus the 6 triple legs restricted to the common overlap; then compose
    assert len(policies) == 6 * 2 + 6 * 3 + 2
    assert set(policies) == {(5, 7)}


# -- split models -----------------------------------------------------------------

def two_chart_split(degree_list, matrix_01, matrix_10):
    spec = GeneratorSpec(NatPower(1), 1, degree_list, truncation=4)
    x = BasePoly.var(1, 1)
    overlap = [(-1, 1)]
    transitions = {(0, 1): (overlap, [x], matrix_01),
                   (1, 0): (overlap, [x], matrix_10)}
    return split_model(spec, [[(-2, 2)], [(-2, 2)]], transitions,
                       names=["U", "V"])


def test_split_model_trivial_bundle():
    ident = {1: [[1, 0], [0, 1]]}
    atlas = two_chart_split([1, 1], ident, ident)
    assert check_cocycle(atlas).passed


def test_split_model_sign_line_bundle():
    atlas = two_chart_split([1], {1: [[-1]]}, {1: [[-1]]})
    assert check_cocycle(atlas).passed


def test_split_model_bad_inverse_detected():
    atlas = two_chart_split([1], {1: [[2]]}, {1: [[Fraction(1, 3)]]})
    rep = check_cocycle(atlas)
    assert rep.text() == ("atlas cocycle check: FAIL (2)\n"
                          "FAIL pair (U,V): lhs=x1; 2/3*th[1,1] rhs=identity images\n"
                          "FAIL pair (V,U): lhs=x1; 2/3*th[1,1] rhs=identity images")


def test_split_model_matrix_shape_checked():
    with pytest.raises(MorphismError):
        two_chart_split([1, 1], {1: [[1, 0]]}, {1: [[1, 0], [0, 1]]})


def test_cocycle_with_affine_flip():
    # non-identity base maps: the flip x -> -x is its own inverse on [-1,1]
    spec = GeneratorSpec(NatPower(1), 1, [1], truncation=4)
    chart = DomainSpec(spec, [(-2, 2)])
    overlap = [(-1, 1)]
    x = GradedElement.variable(spec, 1)
    th = GradedElement.gen(spec, 0)
    flip = Morphism(DomainSpec(spec, overlap), chart, [-x], [th])
    atlas = Atlas([chart, chart], {(0, 1): flip, (1, 0): flip},
                  names=["U", "V"])
    assert check_cocycle(atlas).passed


def test_split_model_polynomial_shear():
    # polynomial matrix entries whose inverse is again polynomial
    spec = GeneratorSpec(NatPower(1), 1, [1, 1], truncation=4)
    x = BasePoly.var(1, 1)
    one = BasePoly.const(1, 1)
    zero = BasePoly.zero(1)
    shear = {1: [[one, x], [zero, one]]}
    unshear = {1: [[one, -x], [zero, one]]}
    atlas = split_model(
        spec, [[(-2, 2)], [(-2, 2)]],
        {(0, 1): ([(-1, 1)], [x], shear), (1, 0): ([(-1, 1)], [x], unshear)},
        names=["U", "V"])
    assert check_cocycle(atlas).passed


def test_split_model_randomized_cocycles():
    rng = Random(26)
    grading = NatPower(1)
    for _ in range(10):
        sizes = {1: rng.randint(1, 2), 2: rng.randint(1, 2)}
        degree_list = [d for d, m in sizes.items() for _ in range(m)]
        spec = GeneratorSpec(grading, 1, degree_list, truncation=4)
        mats, invs = {}, {}
        for d, m in sizes.items():
            mats[d], invs[d] = random_invertible_matrix(rng, m)
        x = BasePoly.var(1, 1)
        atlas = split_model(
            spec, [[(-2, 2)], [(-2, 2)]],
            {(0, 1): ([(-1, 1)], [x], mats), (1, 0): ([(-1, 1)], [x], invs)})
        assert check_cocycle(atlas).passed


def test_intersect_boxes():
    assert intersect_boxes(((0, 2),), ((1, 3),)) == ((1, 2),)
    assert intersect_boxes(((0, 1),), ((2, 3),)) is None
    assert intersect_boxes(((None, 1),), ((0, None),)) == ((0, 1),)
