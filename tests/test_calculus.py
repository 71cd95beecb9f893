"""Derivations, brackets, the QK model, descent towers."""

from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import (BasePoly, Derivation, DescentSequence, GeneratorSpec,
                       GradedElement, IntPower, NatPower, NotQClosed, bracket,
                       check_descent, check_exact, k_sequence, parse_element,
                       qk_verify, render_element)
from monograde import calculus
from monograde.calculus import CalculusError
from monograde.grading import (IntPower, KGroupElement, NatPower, k_element, k_eq, k_mul,
                               k_parity)
from monograde.morphism import DomainSpec
from monograde.sampling import random_element, random_homogeneous
from monograde import structure
from monograde.session import load_session
from monograde.structure import check_lie_axioms

from helpers import lie_axioms_by_samples, qk_model, qk_verify_by_probes

ROOT = Path(__file__).resolve().parent.parent


def pair_setup(truncation=6):
    """One base variable, two odd generators of degree 1."""
    spec = GeneratorSpec(NatPower(1), 1, [1, 1], truncation=truncation)
    dom = DomainSpec(spec)
    th1, th2 = (GradedElement.gen(spec, p) for p in range(2))
    x = GradedElement.variable(spec, 1)
    zero = GradedElement.zero(spec)
    one = GradedElement.one(spec)
    d_th1 = Derivation(dom, KGroupElement(0, 1), [zero], [one, zero])
    d_th2 = Derivation(dom, KGroupElement(0, 1), [zero], [zero, one])
    d_x = Derivation(dom, KGroupElement(0, 0), [one], [zero, zero])
    return spec, dom, (x, th1, th2), (d_x, d_th1, d_th2)


# -- applying a derivation -----------------------------------------------------

def test_apply_odd_contraction():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    assert d_th1(th1 * th2) == th2


def test_apply_chain_rule():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    assert d_x(x * x * th1) == 2 * x * th1


def test_apply_missing_generator():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    assert d_th1(x * th2).is_zero()


def test_apply_polynomial_coefficient_field():
    # E = x * d/dth1 has degree -1 and polynomial coefficient
    spec, dom, (x, th1, th2), _ = pair_setup()
    zero = GradedElement.zero(spec)
    E = Derivation(dom, KGroupElement(0, 1), [zero], [x, zero])
    assert E(th1 * th2) == x * th2
    assert E(x * th1) == x * x


def test_homogeneity_validated():
    spec, dom, (x, th1, th2), _ = pair_setup()
    zero = GradedElement.zero(spec)
    with pytest.raises(CalculusError):
        # claims degree -1 but sends th1 to an element of degree 2
        Derivation(dom, KGroupElement(0, 1), [zero], [th1 * th2, zero])
    with pytest.raises(CalculusError, match="^value on generator 0 is not homogeneous$"):
        Derivation(dom, KGroupElement(0, 1), [zero], [th1 + th1 * th2, zero])
    with pytest.raises(CalculusError, match=(
            r"^value on x1 has degree 1, expected derivation degree plus "
            r"coordinate degree$")):
        Derivation(dom, KGroupElement(0, 1), [th1], [zero, zero])


def test_value_degrees_computed_once(monkeypatch):
    """Each nonzero coordinate value has its degrees computed once."""
    session = load_session(ROOT / "sessions" / "qk_model.json")
    calls = []
    degrees = GradedElement.degrees
    monkeypatch.setattr(GradedElement, "degrees",
                        lambda self: calls.append(self) or degrees(self))
    counts = []
    for name in ("Q", "K", "d"):
        D = session.derivations[name]
        calls.clear()
        Derivation(D.domain, D.degree, D.base_values, D.gen_values)
        counts.append(len(calls))
    assert counts == [2, 1, 2]


def test_leibniz_randomized():
    spec, dom, _, derivs = pair_setup()
    g = spec.grading
    rng = Random(30)
    for D in derivs:
        for _ in range(300):
            f = random_homogeneous(rng, spec)
            h = random_element(rng, spec)
            if f.is_zero():
                continue
            sign_bit = (g.parity(g.mul(D.degree.pos, f.degree()))
                        + g.parity(g.mul(D.degree.neg, f.degree()))) % 2
            second = f * D(h)
            assert D(f * h) == D(f) * h + (-second if sign_bit else second)


def test_apply_degree_shift():
    spec, dom, _, (d_x, d_th1, _) = pair_setup()
    rng = Random(31)
    for _ in range(100):
        f = random_homogeneous(rng, spec)
        out = d_th1(f)
        if f.is_zero() or out.is_zero():
            continue
        assert out.is_homogeneous()
        assert out.degree() == f.degree() - 1


def test_truncation_breaks_leibniz_in_values():
    # t*t^2 is dropped at truncation 2, so D(t*t^2) is zero, while the
    # Leibniz expansion D(t)*t^2 + t*D(t^2) is 3*t^2
    spec = GeneratorSpec(IntPower(1), 0, [2], truncation=2, names=["t"])
    D = Derivation(DomainSpec(spec), KGroupElement(0, 2), [], [GradedElement.one(spec)])
    t = GradedElement.gen(spec, 0)
    lost = t * t ** 2
    assert lost.is_zero()
    assert D(lost).is_zero()
    assert D(t) * t ** 2 + t * D(t ** 2) == 3 * t ** 2


# -- brackets -----------------------------------------------------------------

def test_bracket_contraction_with_multiplication_field():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    zero = GradedElement.zero(spec)
    # D2 = th1 * d/dth2, an even derivation of degree 0
    D2 = Derivation(dom, KGroupElement(1, 1), [zero], [zero, th1])
    b = bracket(d_th1, D2)
    assert b == d_th2


def test_bracket_of_odd_with_itself():
    spec, dom, _, (d_x, d_th1, d_th2) = pair_setup()
    assert bracket(d_th1, d_th1).is_zero()


def test_bracket_coordinate_fields_commute():
    spec, dom, _, (d_x, d_th1, d_th2) = pair_setup()
    assert bracket(d_x, d_th1).is_zero()


def test_bracket_matches_operator_difference():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    g = spec.grading
    zero = GradedElement.zero(spec)
    fields = [d_x, d_th1,
              Derivation(dom, KGroupElement(1, 1), [zero], [zero, x * th1]),
              Derivation(dom, KGroupElement(1, 0), [zero], [x * th1 * th2, zero])]
    rng = Random(32)
    for i in range(len(fields)):
        for j in range(len(fields)):
            D1, D2 = fields[i], fields[j]
            br = bracket(D1, D2)
            bit = k_parity(g, k_mul(g, D1.degree, D2.degree))
            for _ in range(10):
                f = random_element(rng, spec)
                second = D2(D1(f))
                expected = D1(D2(f)) + (second if bit else -second)
                assert br(f) == expected


def test_lie_axiom_report():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    zero = GradedElement.zero(spec)
    D3 = Derivation(dom, KGroupElement(1, 1), [zero], [zero, x * th1])
    rep = check_lie_axioms(d_th1, D3, d_x, samples=60, seed=0)
    assert rep.passed


# NatPower(1) with odd generators of degree 1 and an even one of degree 2;
# derivation degrees pos-neg from -2 to 2, so pairs of either sign bit
# occur, and a field of negative degree may send a generator to a body term
LIE_DEGREES = ((0, 1), (0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 0))


@st.composite
def lie_fields(draw, spec):
    pos, neg = draw(st.sampled_from(LIE_DEGREES))
    values = [draw(homogeneous_value(spec, degree + pos - neg))
              for degree in [0] + [g.degree for g in spec.generators]]
    return Derivation(DomainSpec(spec), KGroupElement(pos, neg), values[:1], values[1:])


LIE_SPEC = GeneratorSpec(NatPower(1), 1, [1, 1, 2], truncation=2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lie_fields(LIE_SPEC), lie_fields(LIE_SPEC), lie_fields(LIE_SPEC),
       st.integers(0, 6), st.integers(0, 5))
def test_lie_axioms_match_the_sampling_oracle(d1, d2, d3, samples, seed):
    assert (check_lie_axioms(d1, d2, d3, samples=samples, seed=seed).text()
            == lie_axioms_by_samples(d1, d2, d3, samples, seed).text())


def test_lie_axioms_decided_on_the_coordinates(monkeypatch):
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    zero = GradedElement.zero(spec)
    D3 = Derivation(dom, KGroupElement(1, 1), [zero], [zero, x * th1])
    calls = count_applies(monkeypatch)
    draws = []
    monkeypatch.setattr(structure, "random_element",
                        lambda *a, **k: draws.append(a) or random_element(*a, **k))
    text = check_lie_axioms(d_th1, D3, d_x, samples=60, seed=0).text()
    # two applications per coordinate (x1, th1, th2) in each of the six
    # brackets of antisymmetry and the six of Jacobi, and none on a sample,
    # which is never drawn
    assert len(calls) == 12 * 2 * 3
    assert draws == []
    assert text == lie_axioms_by_samples(d_th1, D3, d_x, samples=60, seed=0).text()


def test_bracket_degree_is_additive():
    spec, dom, _, (d_x, d_th1, d_th2) = pair_setup()
    g = spec.grading
    b = bracket(d_th1, d_th2)
    assert k_parity(g, b.degree) == 0
    assert b.degree == KGroupElement(0, 2)


def test_restriction_is_symbolically_silent():
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    restricted = d_th1.restrict([(0, 1)])
    rng = Random(33)
    for _ in range(30):
        f = random_element(rng, spec)
        assert restricted(f) == d_th1(f)


def test_colored_derivations_satisfy_lie_axioms():
    # degrees in (Z2)^2, where the even generator anticommutes with odd ones
    from monograde import Z2Power, parse_element
    spec = GeneratorSpec(Z2Power(2), 1, [(1, 0), (0, 1), (1, 1)],
                         truncation=4, names=["a", "b", "c"])
    dom = DomainSpec(spec)
    zero = GradedElement.zero(spec)
    one = GradedElement.one(spec)

    def deriv(degree, on_x, values_by_name):
        gen_values = [values_by_name[g.name] for g in spec.generators]
        return Derivation(dom, KGroupElement(degree, (0, 0)), [on_x], gen_values)

    E = lambda s: parse_element(s, spec)
    d1 = deriv((1, 0), E("a"), {"a": one, "b": E("c"), "c": E("b")})
    d2 = deriv((0, 1), zero, {"a": E("c"), "b": one, "c": E("a")})
    d3 = deriv((1, 1), E("c"), {"a": E("x1*b"), "b": E("a"), "c": one})
    rep = check_lie_axioms(d1, d2, d3, samples=40, seed=3)
    assert rep.passed, "\n".join(rep.lines)


# -- the QK model ----------------------------------------------------------------

def test_qk_model_relations():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    rep = qk_verify(Q, K, d, max_word=4, samples=20, seed=0)
    assert rep.passed
    assert any("[Q,K] equals d" in line for line in rep.lines)
    assert any("[K,d] is the zero derivation" in line for line in rep.lines)


def test_qk_zero_fields_pass():
    spec, dom, _, (Q, K, d) = qk_model()
    z_q = Derivation.zero(dom, Q.degree)
    z_k = Derivation.zero(dom, K.degree)
    z_d = Derivation.zero(dom, d.degree)
    assert qk_verify(z_q, z_k, z_d, max_word=3, samples=5, seed=0).passed


def test_qk_scaled_k_fails_at_base_monomial():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    zero = GradedElement.zero(spec)
    K2 = Derivation(dom, K.degree, [zero], [2 * psi, zero, zero])
    rep = qk_verify(Q, K2, d, max_word=3, samples=5, seed=0)
    assert rep.text() == "\n".join([
        "qk structure check: FAIL (1)",
        "PASS Q^2 = 0 on 41 probes (word length <= 3)",
        "FAIL QK+KQ = d at monomial x1: lhs=2*psi rhs=psi",
        "PASS Kd+dK = 0 on 41 probes (word length <= 3)",
        "NOTE bracket [Q,K] differs from d as a derivation",
        "NOTE bracket [K,d] is the zero derivation"])


# The QK fields and their coordinates, with the values of the model of
# `helpers.qk_model` that exist over a spec; a spec with a generator of
# degree (0,-1), (-1,1) or (-1,0) lets Q, K or d send it to a body term.
QK_DEGREES = (("Q", (0, 1), (0, 0)), ("K", (1, 0), (0, 1)), ("d", (1, 0), (0, 0)))
QK_MODEL = {("Q", "x1"): "theta", ("Q", "psi"): "phi", ("K", "theta"): "psi",
            ("d", "x1"): "psi", ("d", "theta"): "phi"}
QK_GENERATORS = (
    (NatPower(2), ((0, 1), (1, 0), (1, 1)), ("theta", "psi", "phi")),
    (IntPower(2), ((0, 1), (1, 0), (0, -1)), ("theta", "psi", "eta")),
    (IntPower(2), ((0, 1), (1, 0), (-1, 1)), ("theta", "psi", "u")),
    (IntPower(2), ((0, 1), (1, 0), (-1, 0)), ("theta", "psi", "chi")),
)


@st.composite
def homogeneous_value(draw, spec, degree, model=None):
    """Zero, the model value, or one or two terms c*x1^e*word of the degree;
    a degree-0 value may have a body term."""
    kind = draw(st.sampled_from(("zero", "model", "random")))
    if kind == "model" and model is not None:
        return parse_element(model, spec)
    pool = [w for w in spec.words_up_to(spec.truncation) if spec.word_degree(w) == degree]
    if kind == "zero" or not pool:
        return GradedElement.zero(spec)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 1),
                                    st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=2))
    return GradedElement(spec, [(w, BasePoly(spec.nvars, {(e,): c})) for w, e, c in terms])


@st.composite
def qk_triples(draw):
    grading, degrees, names = draw(st.sampled_from(QK_GENERATORS))
    spec = GeneratorSpec(grading, 1, list(degrees), truncation=draw(st.integers(2, 3)),
                         names=list(names))
    dom = DomainSpec(spec)
    coords = [("x1", (0, 0))] + [(g.name, g.degree) for g in spec.generators]
    fields = []
    for name, pos, neg in QK_DEGREES:
        values = []
        for coord, degree in coords:
            model = QK_MODEL.get((name, coord))
            values.append(draw(homogeneous_value(
                spec, tuple(p - n + c for p, n, c in zip(pos, neg, degree)),
                model if model in names else None)))
        fields.append(Derivation(dom, KGroupElement(pos, neg), values[:1], values[1:]))
    return fields


@settings(max_examples=200, derandomize=True, deadline=None)
@given(qk_triples(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 5))
def test_qk_verify_matches_the_probe_oracle(fields, max_word, samples, seed):
    Q, K, d = fields
    assert (qk_verify(Q, K, d, max_word=max_word, samples=samples, seed=seed).text()
            == qk_verify_by_probes(Q, K, d, max_word, samples, seed).text())


def count_applies(monkeypatch):
    calls = []
    apply = Derivation.apply
    monkeypatch.setattr(Derivation, "apply", lambda self, f: calls.append(f) or apply(self, f))
    return calls


def test_qk_relations_are_decided_on_the_coordinates(monkeypatch):
    spec, dom, _, (Q, K, d) = qk_model()
    assert Q.keeps_word_length and K.keeps_word_length and d.keeps_word_length
    calls = count_applies(monkeypatch)
    text = qk_verify(Q, K, d, max_word=4, samples=20, seed=0).text()
    # two applications per coordinate (x1 and three generators) in each of
    # the brackets [Q,Q], [Q,K] and [K,d], and none on a probe
    assert len(calls) == 3 * 2 * 4
    assert text == qk_verify_by_probes(Q, K, d, max_word=4, samples=20, seed=0).text()
    assert "PASS QK+KQ = d on 68 probes (word length <= 4)" in text.splitlines()


# the degrees qk_verify requires of Q, K and d, as (pos, neg)
REQUIRED_DEGREES = {"Q": ((0, 1), (0, 0)), "K": ((1, 0), (0, 1)), "d": ((1, 0), (0, 0))}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([NatPower(2), IntPower(2)]), st.data())
def test_required_degrees_fix_the_sign_bits(grading, data):
    # parity and the product are well defined on the group completion, so
    # every representative (s + pos) - (s + neg) of the required classes
    # gives (Q,Q), (Q,K) and (K,d) sign bit 1, and qk_verify need not test it
    low = 0 if isinstance(grading, NatPower) else -9

    def representative(name):
        pos, neg = REQUIRED_DEGREES[name]
        s = data.draw(st.tuples(st.integers(low, 9), st.integers(low, 9)))
        rep = KGroupElement(grading.add(s, pos), grading.add(s, neg))
        assert k_eq(grading, rep, k_element(grading, pos, neg))
        calculus._require_degree(grading, SimpleNamespace(degree=rep), pos, neg, name)
        return rep

    for a, b in (("Q", "Q"), ("Q", "K"), ("K", "d")):
        assert k_parity(grading, k_mul(grading, representative(a), representative(b))) == 1


def test_a_length_lowering_field_is_probed():
    # K sends u of degree (-1,1) to 1, as d/du does.  Both brackets equal the
    # right sides, but x1*u^2 shows both relations failing at truncation 2:
    # d(x1*u^2) = u^2*psi is dropped before K can lower it back
    spec = GeneratorSpec(IntPower(2), 1, [(0, 1), (1, 0), (-1, 1)], truncation=2,
                         names=["theta", "psi", "u"])
    dom = DomainSpec(spec)

    def field(pos, neg, on_x, by_name):
        return Derivation(dom, KGroupElement(pos, neg), [parse_element(on_x, spec)],
                          [parse_element(by_name.get(g.name, "0"), spec)
                           for g in spec.generators])

    Q = field((0, 1), (0, 0), "theta", {})
    K = field((1, 0), (0, 1), "0", {"theta": "psi", "u": "1"})
    d = field((1, 0), (0, 0), "psi", {})
    assert not K.keeps_word_length and Q.keeps_word_length and d.keeps_word_length
    assert qk_verify(Q, K, d, max_word=2, samples=3, seed=0).text() == "\n".join([
        "qk structure check: FAIL (2)",
        "PASS Q^2 = 0 on 27 probes (word length <= 2)",
        "FAIL QK+KQ = d at monomial x1*u^2: lhs=-2*u*theta rhs=0",
        "FAIL Kd+dK = 0 at monomial x1*u^2: lhs=-2*u*psi rhs=0",
        "NOTE bracket [Q,K] equals d as a derivation",
        "NOTE bracket [K,d] is the zero derivation"])


def test_qk_verify_builds_no_probe_when_every_relation_is_decided(monkeypatch, capsys):
    # every relation of the bundled QK model is decided on the coordinates,
    # so the runner gets no probe and none is built or drawn
    from monograde import cli
    from monograde.reporting import CheckReport

    def refuse(*args, **kwargs):
        raise AssertionError("drew a probe")

    given = []
    run = CheckReport.first_counterexample
    monkeypatch.setattr(calculus, "random_word", refuse)
    monkeypatch.setattr(calculus, "random_poly", refuse)
    monkeypatch.setattr(CheckReport, "first_counterexample", lambda self, probes, *rels:
                        given.append(probes) or run(self, probes, *rels))
    session = str(Path(__file__).resolve().parent.parent / "sessions" / "qk_model.json")
    assert cli.main(["qk-verify", "Q", "K", "d", "--session", session]) == 0
    assert given == [(), (), ()]
    assert "PASS Q^2 = 0 on 248 probes (word length <= 4)" in capsys.readouterr().out


def test_qk_degree_precondition():
    spec, dom, _, (Q, K, d) = qk_model()
    with pytest.raises(CalculusError):
        qk_verify(Q, d, K, max_word=2, samples=2, seed=0)  # roles swapped


# -- descent towers ----------------------------------------------------------------

def test_k_sequence_from_theta():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    seq = k_sequence(Q, K, d, theta, pmax=2)
    assert list(seq) == [theta, psi, GradedElement.zero(spec)]


def test_k_sequence_normalizes_factorials():
    # seed theta*f with K acting like multiplication needs exact 1/p!
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    seq = k_sequence(Q, K, d, theta, pmax=4)
    assert len(seq) == 5
    assert all(e.is_zero() for e in seq.entries[2:])


def test_k_sequence_divides_by_p_factorial():
    # K = d/dx on the seed x^3*th2 gives K^p O(0) / p! = comb(3, p) x^(3-p) th2,
    # nonzero up to p = 3: dividing by anything but p changes O(2) and on
    spec, dom, (x, th1, th2), (d_x, d_th1, d_th2) = pair_setup()
    seq = k_sequence(d_th1, d_x, d_th2, x ** 3 * th2)
    assert [render_element(e) for e in seq] == [
        "x1^3*th[1,2]", "3*x1^2*th[1,2]", "3*x1*th[1,2]", "th[1,2]", "0"]


def test_k_sequence_constant_seed():
    spec, dom, _, (Q, K, d) = qk_model()
    seq = k_sequence(Q, K, d, GradedElement.one(spec))
    assert list(seq) == [GradedElement.one(spec), GradedElement.zero(spec)]


def test_k_sequence_rejects_open_seed():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    with pytest.raises(NotQClosed):
        k_sequence(Q, K, d, psi)  # Q(psi) = phi != 0


def test_check_descent_tower():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    zero = GradedElement.zero(spec)
    assert check_descent(Q, d, DescentSequence([theta, psi, zero])).passed
    assert check_descent(Q, d, DescentSequence([zero, zero])).passed
    rep = check_descent(Q, d, DescentSequence([theta, theta]))
    assert rep.text() == ("descent equation check: FAIL (1)\n"
                          "PASS p=0 seed is Q-closed\n"
                          "FAIL p=1: lhs=0 rhs=phi")


def test_check_exact():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    zero = GradedElement.zero(spec)
    assert check_exact(Q, d, DescentSequence([zero, zero]),
                       DescentSequence([zero, zero])).passed
    rng = Random(34)
    for _ in range(25):
        f = random_homogeneous(rng, spec)
        o_seq = DescentSequence([Q(f), d(f)])
        p_seq = DescentSequence([f, zero])
        assert check_exact(Q, d, o_seq, p_seq).passed
        # witness tower may omit its last entry
        assert check_exact(Q, d, o_seq, DescentSequence([f])).passed
    rep = check_exact(Q, d, DescentSequence([theta, psi]),
                      DescentSequence([zero, zero]))
    assert rep.text() == ("exactness check: FAIL (2)\n"
                          "FAIL p=0: lhs=theta rhs=0\n"
                          "FAIL p=1: lhs=psi rhs=0")


def test_check_exact_length_mismatch():
    spec, dom, (theta, psi, phi), (Q, K, d) = qk_model()
    zero = GradedElement.zero(spec)
    with pytest.raises(CalculusError):
        check_exact(Q, d, DescentSequence([zero, zero, zero]),
                    DescentSequence([zero]))


def test_sequence_requires_homogeneous_entries():
    spec, dom, (theta, psi, phi), _ = qk_model()
    with pytest.raises(CalculusError):
        DescentSequence([theta + GradedElement.one(spec)])
