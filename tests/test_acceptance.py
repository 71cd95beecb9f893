"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (run with -s to see them);
a failing assertion is the FAIL line.  Sample counts and runtime bounds
are pinned here and are not tunable from outside.
"""

import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from monograde import (BasePoly, Derivation, DomainSpec, FiniteTable,
                       GeneratorSpec, GradedElement, IntPower, NatPower,
                       NotInvertible, Z2Power, check_cocycle, check_descent,
                       compose, continuation, k_element, k_parity, k_sequence,
                       parse_element, qk_verify, render_element)
from monograde.cli import main
from monograde.grading import (EXAMPLE_TABLE3, EXAMPLE_TABLE3_PARITY,
                               KGroupElement, k_add, k_eq)
from monograde.sampling import random_element, random_homogeneous, random_poly
from monograde.structure import (adic_order, all_cancellative_tables,
                                 check_lie_axioms, check_parity_cardinality,
                                 k_normalize, parity_functions_of_table,
                                 split_model, taylor_truncate)

from helpers import (draw_element, draw_poly, qk_model, random_endomorphism,
                     random_invertible_matrix, rich_int_spec, taylor_sum_oracle)

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def test_criterion_01_koszul_sign_rule():
    started = time.monotonic()
    cases = [
        ("N", GeneratorSpec(NatPower(1), 1, [1, 1, 2], truncation=6)),
        ("Z", GeneratorSpec(IntPower(1), 1, [1, -1, 2], truncation=6)),
        ("Z2^2", GeneratorSpec(Z2Power(2), 1, [(1, 0), (0, 1), (1, 1)],
                               truncation=6)),
        ("ZxZ", GeneratorSpec(IntPower(2), 1, [(1, 0), (0, -1), (1, 1)],
                              truncation=6)),
    ]
    for label, spec in cases:
        g = spec.grading
        rng = Random(101)
        for _ in range(1000):
            f = random_homogeneous(rng, spec)
            h = random_homogeneous(rng, spec)
            if f.is_zero() or h.is_zero():
                continue
            bit = g.parity(g.mul(f.degree(), h.degree()))
            swapped = h * f
            assert f * h - (-swapped if bit else swapped) == \
                GradedElement.zero(spec), label
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "took %.2fs" % elapsed
    print("PASS criterion 1: Koszul sign rule on N, Z, Z2^2, ZxZ "
          "(4 x 1000 pairs, %.2fs)" % elapsed)


def test_criterion_02_inversion():
    spec = GeneratorSpec(IntPower(1), 3, [1, 1, -1, 2, -2, 2], truncation=6)
    rng = Random(102)
    for _ in range(200):
        f = random_element(rng, spec)
        c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        if rng.random() < 0.5:
            c = -c
        f = f - GradedElement.scalar(spec, f.body()) + GradedElement.scalar(spec, c)
        assert f * f.invert() == GradedElement.one(spec)
    rejected = 0
    for k in range(50):
        f = random_element(rng, spec)
        f = f - GradedElement.scalar(spec, f.body())
        if k % 2:
            f = f + GradedElement.variable(spec, 1)  # non-constant body
        with pytest.raises(NotInvertible):
            f.invert()
        rejected += 1
    assert rejected == 50
    tspec = GeneratorSpec(NatPower(1), 0, [2], truncation=4, names=["t"])
    rendered = render_element(parse_element("1 - t", tspec).invert())
    assert rendered == "1 + t + t^2 + t^3 + t^4"
    print("PASS criterion 2: inversion (200 units, 50 rejections, "
          "geometric series byte-exact)")


def test_criterion_03_cancellative_monoids_split_evenly():
    checked = 0
    with_parity = 0
    for n in range(1, 9):
        for table in all_cancellative_tables(n):
            checked += 1
            parities = parity_functions_of_table(table)
            for p in parities:
                spec = FiniteTable(table, p)
                assert spec.is_cancellative()
                assert check_parity_cardinality(spec)
                with_parity += 1
    assert checked == 1 + 1 + 1 + 4 + 6 + 60 + 120 + 1920
    assert with_parity > 0
    table1 = FiniteTable(EXAMPLE_TABLE3, EXAMPLE_TABLE3_PARITY)
    assert not table1.is_cancellative()
    assert not check_parity_cardinality(table1)
    even = sum(1 for e in table1.elements() if table1.parity(e) == 0)
    odd = sum(1 for e in table1.elements() if table1.parity(e) == 1)
    assert (even, odd) == (2, 1)
    print("PASS criterion 3: all %d cancellative tables of order <= 8 split "
          "evenly under %d nontrivial parities; order-3 counterexample "
          "flagged (2 vs 1)" % (checked, with_parity))


def test_criterion_04_induced_parity_on_the_completion():
    for g, span in ((NatPower(1), None), (NatPower(2), 2)):
        rng = Random(104)
        for _ in range(500):
            if span is None:
                a1, a2 = rng.randint(0, 30), rng.randint(0, 30)
                c = rng.randint(0, 15)
            else:
                a1 = tuple(rng.randint(0, 30) for _ in range(span))
                a2 = tuple(rng.randint(0, 30) for _ in range(span))
                c = tuple(rng.randint(0, 15) for _ in range(span))
            e = KGroupElement(a1, a2)
            f = KGroupElement(g.add(a1, c), g.add(a2, c))
            assert k_eq(g, e, f)
            assert k_parity(g, e) == k_parity(g, f)
    g = NatPower(1)
    for z in range(-20, 21):
        rep = k_element(g, max(z, 0) + 7, max(-z, 0) + 7)
        assert k_normalize(g, rep) == k_element(g, max(z, 0), max(-z, 0))
        assert k_parity(g, rep) == z % 2
    print("PASS criterion 4: induced parity well-defined on K(N) and K(N^2) "
          "(500 pairs each) and matches integer parity on -20..20")


def test_criterion_05_pullbacks_are_ring_maps():
    spec = rich_int_spec()
    rng = Random(105)
    morphisms = [random_endomorphism(rng, spec) for _ in range(10)]
    one = GradedElement.one(spec)
    for m in morphisms:
        assert m.pullback(one) == one
        for _ in range(400):
            f = draw_element(rng, spec, 2, 2, max_degree=1)
            h = draw_element(rng, spec, 2, 2, max_degree=1)
            assert m.pullback(f + h) == m.pullback(f) + m.pullback(h)
            assert m.pullback(f * h) == m.pullback(f) * m.pullback(h)
        for _ in range(40):
            f = draw_element(rng, spec, 2, 2, homogeneous=True)
            pf = m.pullback(f)
            if not pf.is_zero():
                assert pf.is_homogeneous() and pf.degree() == f.degree()
    for k in range(5):
        phi, psi = morphisms[2 * k], morphisms[2 * k + 1]
        comp = compose(phi, psi)
        under = phi.underlying_map()
        for _ in range(20):
            f = draw_element(rng, spec, 2, 2, max_degree=1)
            assert comp.pullback(f) == phi.pullback(psi.pullback(f))
            assert phi.pullback(f).body() == f.body().compose(under)
    print("PASS criterion 5: 10 random morphisms are unital degree-preserving "
          "ring maps (400 pairs each); functoriality and body compatibility "
          "on 100 pulled-back elements")


def test_criterion_06_continuation_against_two_oracles():
    spec = rich_int_spec()
    rng = Random(106)
    for _ in range(100):
        g = draw_poly(rng, 1, max_terms=4, max_degree=3)
        plain = random_poly(rng, 1)
        got = continuation(g, [GradedElement.scalar(spec, plain)])
        assert got == GradedElement.scalar(spec, g.compose([plain]))
    zero_deg = spec.grading.zero()
    pool = [w for w in spec.words_up_to(3)
            if sum(w) > 0 and spec.word_degree(w) == zero_deg]
    for _ in range(100):
        g = draw_poly(rng, 1, max_degree=3)
        img = GradedElement.variable(spec, 1)
        for _ in range(rng.randint(1, 2)):
            w = pool[rng.randrange(len(pool))]
            img = img + GradedElement(spec, {w: draw_poly(rng, 1, max_degree=1)})
        assert continuation(g, [img]) == taylor_sum_oracle(g, [img], spec)
    print("PASS criterion 6: continuation equals polynomial composition "
          "(100 plain images) and the explicit Taylor sum (100 nilpotent "
          "images)")


def test_criterion_07_polynomial_jets():
    spec = GeneratorSpec(NatPower(1), 2, [1, 1, 2], truncation=6)
    rng = Random(107)
    for _ in range(100):
        f = draw_element(rng, spec, 3, 3, max_degree=3)
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        k = rng.randint(0, 4)
        jet = taylor_truncate(f, p, k)
        remainder = f - jet
        order = adic_order(remainder, p)
        assert order is None or order >= k + 1
    print("PASS criterion 7: jet remainders vanish to order k+1 "
          "(100 random elements, k <= 4)")


def _random_derivation(rng, dom, degree):
    spec = dom.genspec
    g = spec.grading

    def value_for(coord_degree):
        want = k_add(g, degree, k_element(g, coord_degree))
        norm = k_normalize(g, want)
        if norm.neg != g.zero():
            return GradedElement.zero(spec)
        pool = [w for w in spec.words_up_to(spec.truncation)
                if spec.word_degree(w) == norm.pos]
        if not pool or rng.random() < 0.25:
            return GradedElement.zero(spec)
        w = pool[rng.randrange(len(pool))]
        poly = draw_poly(rng, spec.nvars, max_terms=2)
        value = GradedElement(spec, {w: poly})
        return value

    base = [value_for(g.zero()) for _ in range(spec.nvars)]
    gens = [value_for(gen.degree) for gen in spec.generators]
    return Derivation(dom, degree, base, gens)


def test_criterion_08_graded_lie_axioms():
    spec = GeneratorSpec(NatPower(1), 1, [1, 1], truncation=4)
    dom = DomainSpec(spec)
    rng = Random(108)
    degrees = [KGroupElement(0, 1), KGroupElement(0, 0), KGroupElement(1, 0),
               KGroupElement(1, 1), KGroupElement(2, 1), KGroupElement(2, 0)]
    for trial in range(100):
        d1 = _random_derivation(rng, dom, degrees[rng.randrange(len(degrees))])
        d2 = _random_derivation(rng, dom, degrees[rng.randrange(len(degrees))])
        d3 = _random_derivation(rng, dom, degrees[rng.randrange(len(degrees))])
        rep = check_lie_axioms(d1, d2, d3, samples=50, seed=1000 + trial)
        assert rep.passed, "\n".join(rep.lines)
    print("PASS criterion 8: antisymmetry and Jacobi for 100 random "
          "homogeneous derivation triples, 50 elements each")


def test_criterion_09_qk_model_and_descent():
    started = time.monotonic()
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    rep = qk_verify(Q, K, d, max_word=4, samples=20, seed=0)
    assert rep.passed, "\n".join(rep.lines)
    seq = k_sequence(Q, K, d, theta, pmax=4)
    zero = GradedElement.zero(spec)
    assert list(seq) == [theta, psi, zero, zero, zero]
    descent = check_descent(Q, d, seq)
    assert descent.passed, "\n".join(descent.lines)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, "took %.2fs" % elapsed
    print("PASS criterion 9: QK model verified on words of length <= 4 and "
          "its tower (theta, psi, 0, 0, 0) satisfies descent (%.2fs)" % elapsed)


def test_criterion_10_split_models():
    rng = Random(110)
    grading = NatPower(1)
    x = BasePoly.var(1, 1)
    for _ in range(50):
        sizes = {1: rng.randint(1, 2), 2: rng.randint(1, 2), 3: rng.randint(0, 1)}
        degree_list = [deg for deg, m in sizes.items() for _ in range(m)]
        spec = GeneratorSpec(grading, 1, degree_list, truncation=4)
        mats, invs = {}, {}
        for deg, m in sizes.items():
            mats[deg], invs[deg] = random_invertible_matrix(rng, m)
        atlas = split_model(
            spec, [[(-2, 2)], [(-2, 2)]],
            {(0, 1): ([(-1, 1)], [x], mats), (1, 0): ([(-1, 1)], [x], invs)},
            names=["U", "V"])
        rep = check_cocycle(atlas)
        assert rep.passed, "\n".join(rep.lines)
    spec = GeneratorSpec(grading, 1, [1], truncation=4)
    broken = split_model(
        spec, [[(-2, 2)], [(-2, 2)]],
        {(0, 1): ([(-1, 1)], [x], {1: [[2]]}),
         (1, 0): ([(-1, 1)], [x], {1: [[Fraction(1, 3)]]})},
        names=["U", "V"])
    rep = check_cocycle(broken)
    assert not rep.passed
    assert any(line.startswith("FAIL pair (U,V)")
               or line.startswith("FAIL pair (V,U)") for line in rep.lines)
    print("PASS criterion 10: 50 random split models satisfy the cocycle "
          "check; the broken instance fails with a located chart pair")


def test_criterion_11_round_trip_and_determinism(tmp_path):
    specs = [GeneratorSpec(NatPower(1), 2, [1, 1, 2], truncation=6),
             rich_int_spec(),
             GeneratorSpec(Z2Power(2), 1, [(1, 0), (0, 1), (1, 1)],
                           truncation=5)]
    rng = Random(111)
    done = 0
    while done < 500:
        spec = specs[done % len(specs)]
        e = random_element(rng, spec)
        text = render_element(e)
        again = parse_element(text, spec)
        assert again == e
        assert render_element(again) == text
        done += 1
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code = main(["check-hom", "shift", "--session",
                     str(SESSIONS / "morphisms.json"), "--seed", "7",
                     "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    for path in (a, b):
        code = main(["qk-verify", "Q", "K", "d", "--session",
                     str(SESSIONS / "qk_model.json"), "--seed", "3",
                     "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    print("PASS criterion 11: parse/render fixed on 500 elements; "
          "identical session and seed give byte-identical reports")
