"""Expression grammar and the canonical renderer."""

from fractions import Fraction
from functools import reduce
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograde import (BasePoly, ExprError, GeneratorSpec, GradedElement, IntPower,
                       NatPower, parse_element, parse_poly, render_element,
                       render_poly)
from monograde.expr import render_generator
from monograde.sampling import random_element

from helpers import WORKLOAD_SPECS, from_raw_terms, nat1_spec, rich_int_spec


def test_parse_basic_terms():
    spec = nat1_spec(nvars=2)
    got = parse_element("3/2*x1^2 + x1*th[1,1]*th[1,2]", spec)
    expected = (GradedElement.scalar(spec, 1) * 3 / 2
                * GradedElement.variable(spec, 1) ** 2
                + GradedElement.variable(spec, 1)
                * GradedElement.gen(spec, 0) * GradedElement.gen(spec, 1))
    assert got == expected


def test_parse_normalizes_koszul_order():
    spec = nat1_spec()
    assert render_element(parse_element("th[1,2]*th[1,1]", spec)) == \
        "-th[1,1]*th[1,2]"


def test_parse_kills_odd_square():
    spec = nat1_spec()
    assert render_element(parse_element("th[1,1]^2", spec)) == "0"


def test_parse_tuple_degrees_and_negative_components():
    spec = GeneratorSpec(IntPower(2), 1, [(1, 0), (0, -1)], truncation=4)
    e = parse_element("th[(1,0),1]*th[(0,-1),1]", spec)
    assert not e.is_zero()
    assert e.degree() == (1, -1)
    assert parse_element(render_element(e), spec) == e


def test_parse_named_generators():
    spec = GeneratorSpec(NatPower(1), 0, [2], truncation=4, names=["t"])
    assert parse_element("t^2 + 2*t + 1", spec) == \
        (parse_element("t", spec) + 1) ** 2


def test_parse_parentheses_and_unary_minus():
    spec = nat1_spec()
    assert parse_element("-(x1 - 2)*th[1,1]", spec) == \
        parse_element("2*th[1,1] - x1*th[1,1]", spec)


def test_syntax_error_carries_position():
    spec = nat1_spec()
    with pytest.raises(ExprError) as err:
        parse_element("x1 + * 2", spec)
    assert err.value.pos == 5


def test_unknown_symbol():
    spec = nat1_spec()
    with pytest.raises(ExprError):
        parse_element("x1 + y", spec)
    with pytest.raises(ExprError):
        parse_element("x7", spec)


def test_unknown_generator_degree():
    spec = nat1_spec()
    with pytest.raises(ExprError):
        parse_element("th[3,1]", spec)
    with pytest.raises(ExprError):
        parse_element("th[1,9]", spec)


def test_generators_rejected_in_polynomials():
    # a base polynomial is an element over a spec with no generators
    with pytest.raises(ExprError) as err:
        parse_poly("x1 + th[1,1]", 1)
    assert str(err.value) == "no generator of degree 1 with index 1 (at position 5)"
    assert render_poly(parse_poly("x1^2 - x2 + 1/3", 2)) == "x1^2 - x2 + 1/3"


def test_render_zero_and_constants():
    spec = nat1_spec()
    assert render_element(GradedElement.zero(spec)) == "0"
    assert render_element(parse_element("-3/2", spec)) == "-3/2"


def test_render_term_order():
    spec = GeneratorSpec(NatPower(1), 3, [1, 1], truncation=6)
    text = "3/2*x1^2*x2 - x3 + 1"
    assert render_element(parse_element(text, spec)) == text


def test_golden_renderings():
    from pathlib import Path
    spec = GeneratorSpec(NatPower(1), 2, [1, 1, 2], truncation=6)
    lines = (Path(__file__).parent / "golden_render.txt").read_text().splitlines()
    checked = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        source, expected = (part.strip() for part in line.split("=>"))
        rendered = render_element(parse_element(source, spec))
        assert rendered == expected, "%r -> %r != %r" % (source, rendered, expected)
        # the canonical form is a parse/render fixed point
        assert render_element(parse_element(rendered, spec)) == rendered
        checked += 1
    assert checked >= 20


def test_round_trip_random_elements():
    rng = Random(40)
    for spec in (nat1_spec(nvars=2, degrees=(1, 1, 2)), rich_int_spec()):
        for _ in range(150):
            e = random_element(rng, spec)
            text = render_element(e)
            again = parse_element(text, spec)
            assert again == e
            assert render_element(again) == text


# the message and position the parser reports for each malformed input
SYNTAX_ERRORS = [
    ("x1 $ 2", "unexpected character '$'", 3),
    ("x1 2", "trailing input 2", 3),
    ("1/0", "zero denominator", 2),
    ("(x1", "expected ')', found None", 3),
    ("x1^", "expected exponent, found None", 3),
    ("th[1 1]", "expected ',', found 1", 5),
    ("th[1,]", "expected generator index, found ']'", 5),
    ("", "expected a value, found None", 0),
    ("   ", "expected a value, found None", 3),
    ("x1^-1", "expected exponent, found '-'", 3),
    ("2x1", "trailing input 'x1'", 1),
    ("1/2/3", "trailing input '/'", 3),
    # a number is one token per symbol; a variable, th[...] or name takes its ^NAT
    ("(x1)^2/3", "trailing input '/'", 6),
    ("th[1,2/3]", "expected ']', found '/'", 6),
    ("th[(1/2,0),1]", "expected ')', found '/'", 5),
    ("x1 x2^2", "trailing input 'x2'", 3),
    ("2 th[1,1]", "trailing input 'th'", 2),
    ("1/ 0", "zero denominator", 3),
    ("th[1,1]^2^3", "trailing input '^'", 9),
    ("th^1[1,2]", "unknown symbol 'th'", 0),
]


@pytest.mark.parametrize("text, message, pos", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, pos):
    with pytest.raises(ExprError) as err:
        parse_element(text, nat1_spec())
    assert str(err.value) == "%s (at position %d)" % (message, pos)
    assert err.value.pos == pos


def test_a_failing_text_is_read_once(monkeypatch):
    calls = []
    power = GradedElement.__pow__
    monkeypatch.setattr(GradedElement, "__pow__",
                        lambda self, e: calls.append(e) or power(self, e))
    with pytest.raises(ExprError) as err:
        parse_element("(x1 + x2 + x3 + 1)^20)", nat1_spec(nvars=3))
    assert str(err.value) == "trailing input ')' (at position 21)"
    assert calls == [20]


FUZZ_TOKENS = ("x1 x2 x0 t th u [ ] ( ) , + - * ^ / 0 1 2 3 4 5 6 7 8 9 $ "
               "(1,0) (0,-1)").split()
FUZZ_SPECS = (
    GeneratorSpec(NatPower(1), 2, [1, 1, 2], truncation=3, names=["u", None, "t"]),
    GeneratorSpec(IntPower(2), 1, [(1, 0), (0, -1), (1, 0)], truncation=3,
                  names=[None, "t", "u"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=14), st.sampled_from(FUZZ_SPECS))
def test_token_sequences_parse_back_or_raise_expr_error(tokens, spec):
    try:
        element = parse_element(" ".join(tokens), spec)
    except ExprError:
        return
    assert parse_element(render_element(element), spec) == element


# u is odd and t even in both gradings, and over IntPower(2) the even t
# anticommutes with u, which follows it in canonical order; at truncation
# 2 and 3 the exponents 0..truncation+2 reach the odd square and the overflow
ATOM_SPECS = [
    GeneratorSpec(NatPower(1), 2, [1, 1, 2], truncation=n, names=["u", None, "t"])
    for n in (2, 3)] + [
    GeneratorSpec(IntPower(2), 1, [(1, 0), (1, 1), (2, 1), (0, -1)], truncation=n,
                  names=[None, "t", "u", None])
    for n in (2, 3)]


def atoms(spec):
    """(text, element) of one plain atom, the element built without the parser."""
    def rational(a, b, slash):
        text = "%d/%d" % (a, b) if slash or b > 1 else "%d" % a
        return text, GradedElement.scalar(spec, Fraction(a, b))

    def generator(pos, named):
        g = spec.generators[pos]
        text = render_generator(spec, pos) if named else "th[%s,%d]" % (
            spec.grading.format_element(g.degree), g.index)
        return text, GradedElement.gen(spec, pos)

    return st.one_of(
        st.builds(rational, st.integers(0, 4), st.integers(1, 3), st.booleans()),
        st.integers(1, spec.nvars).map(lambda mu: ("x%d" % mu, GradedElement.variable(spec, mu))),
        st.builds(generator, st.integers(0, spec.ngens - 1), st.booleans()))


@st.composite
def atom_runs(draw):
    """A spec, a run of atom factors joined by '*' (one of them perhaps a
    parenthesised sum), and the factors as elements."""
    spec = draw(st.sampled_from(ATOM_SPECS))
    n = draw(st.integers(1, 6))
    paren_at = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    texts, factors = [], []
    for i in range(n):
        text, value = draw(atoms(spec))
        if i == paren_at:
            text2, value2 = draw(atoms(spec))
            text, value = "(%s - %s)" % (text, text2), value - value2
        e = draw(st.one_of(st.none(), st.integers(0, spec.truncation + 2)))
        if e is not None:
            text, value = "%s^%d" % (text, e), value ** e
        texts.append(text)
        factors.append(value)
    return spec, "*".join(texts), factors


@settings(max_examples=600, deadline=None)
@given(atom_runs())
def test_atom_runs_equal_the_left_to_right_product(run):
    spec, text, factors = run
    expected = reduce(mul, factors)
    assert parse_element(text, spec) == expected


# spec index into ATOM_SPECS, text => rendering
ATOM_RUN_CASES = [
    (0, "0*t^3", "0"),            # an even power past the order, times zero
    (0, "t*t*t*0", "0"),          # the word overflows before the zero
    (0, "0*t*t*t", "0"),          # the zero stops the word before it overflows
    (0, "t*u*u", "0"),            # the odd square kills it before the overflow
    (0, "t*u*th[1,2]", "0"),
    (0, "u^2*t^5", "0"),
    (0, "x1^0", "1"),
    (0, "t^0*u^0*0^0", "1"),
    (0, "th[1,2]*u*x2^2*1/2", "-1/2*x2^2*u*th[1,2]"),
    (0, "(1 + x1)*th[1,2]*u", "-x1*u*th[1,2] - u*th[1,2]"),  # the run's own sign
    (3, "u*t", "-t*u"),           # t is even but anticommutes with u
    (3, "u*t^2", "t^2*u"),
]


@pytest.mark.parametrize("spec_index, text, rendering", ATOM_RUN_CASES)
def test_atom_run_renderings(spec_index, text, rendering):
    assert render_element(parse_element(text, ATOM_SPECS[spec_index])) == rendering


ATOM_KINDS = st.sampled_from(["integer", "fraction", "variable"] + ["generator", "name"] * 2)
INTEGERS = st.integers(0, 12) | st.integers(0, 10 ** 30)
POWER_SIGNS = st.sampled_from(["^", " ^ "])
TH_FORMS = st.sampled_from(["th[%s,%d]", "th[ %s , %d ]"])
# an atom's exponent reaches past the truncation order of its spec
ATOM_EXPONENTS = {n: st.none() | st.integers(0, n + 2) for n in (2, 3, 4, 6)}
PAREN_EXPONENTS = st.none() | st.integers(0, 3)
FACTOR_KINDS = st.sampled_from(["atom"] * 6 + ["negation", "parentheses"])
SIGNS = st.sampled_from(["+", "-"])


def oracle_atom(draw, spec):
    """(text, value) of a plain atom power, the value built from
    `GradedElement.scalar`, `variable` and `gen` alone."""
    kind = draw(ATOM_KINDS)
    if kind == "integer":
        n = draw(INTEGERS)
        text, value = str(n), GradedElement.scalar(spec, n)
    elif kind == "fraction":
        a, b = draw(st.integers(0, 30)), draw(st.integers(1, 12))
        text, value = "%d/%d" % (a, b), GradedElement.scalar(spec, Fraction(a, b))
    elif kind == "variable":
        mu = draw(st.integers(1, spec.nvars))
        text, value = "x%d" % mu, GradedElement.variable(spec, mu)
    else:
        pos = draw(st.integers(0, spec.ngens - 1))
        g = spec.generators[pos]
        if kind == "name" and g.name:
            text = g.name
        else:
            text = draw(TH_FORMS) % (spec.grading.format_element(g.degree), g.index)
        value = GradedElement.gen(spec, pos)
    e = draw(ATOM_EXPONENTS[spec.truncation])
    if e is None:
        return text, value
    return "%s%s%d" % (text, draw(POWER_SIGNS), e), value ** e


def oracle_factor(draw, spec, depth):
    kind = draw(FACTOR_KINDS if depth < 3 else st.just("atom"))
    if kind == "atom":
        return oracle_atom(draw, spec)
    if kind == "negation":
        text, value = oracle_factor(draw, spec, depth + 1)
        return "-" + text, -value
    text, value = oracle_sum(draw, spec, depth + 1)
    e = draw(PAREN_EXPONENTS)
    if e is None:
        return "(%s)" % text, value
    return "(%s)^%d" % (text, e), value ** e


def oracle_term(draw, spec, depth):
    text, value = oracle_factor(draw, spec, depth)
    for _ in range(draw(st.integers(0, 4))):
        more, factor = oracle_factor(draw, spec, depth)
        text, value = text + "*" + more, value * factor
    return text, value


def oracle_sum(draw, spec, depth):
    text, value = oracle_term(draw, spec, depth)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(SIGNS)
        more, term = oracle_term(draw, spec, depth)
        text = "%s %s %s" % (text, op, more)
        value = value + term if op == "+" else value - term
    return text, value


@st.composite
def oracle_texts(draw):
    """A spec, a text of the full grammar over it, and its value built in
    the text's own grouping with `+`, unary `-`, `*` and `**`."""
    spec = draw(st.sampled_from(WORKLOAD_SPECS))
    return (spec, *oracle_sum(draw, spec, 0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(oracle_texts())
def test_parsing_equals_the_operator_evaluation(drawn):
    spec, text, expected = drawn
    try:
        got = parse_element(text, spec)
    except ExprError as exc:
        # a power past the budget is refused before it is computed
        assert "the limit for an exponent" in str(exc)
        return
    assert got == expected


# The sign shape that a parser sharing `*`'s word product cannot check
# against `*`: an even generator before an odd one it anticommutes with.
SIGN_SHAPE = WORKLOAD_SPECS[-1]


def raw_atom(draw, spec):
    """(text, raw terms) of an atom power: its (coefficient, occurrence
    word) pairs, built without the parser and without `*`."""
    e = draw(st.integers(0, spec.truncation + 1))
    kind = draw(st.sampled_from(["number", "variable", "generator", "generator"]))
    if kind == "number":
        n = draw(st.integers(0, 3))
        return "%d^%d" % (n, e), [(BasePoly.const(spec.nvars, n ** e), [])]
    if kind == "variable":
        mu = draw(st.integers(1, spec.nvars))
        exps = tuple(e if k == mu - 1 else 0 for k in range(spec.nvars))
        return "x%d^%d" % (mu, e), [(BasePoly(spec.nvars, {exps: 1}), [])]
    pos = draw(st.integers(0, spec.ngens - 1))
    return "%s^%d" % (render_generator(spec, pos), e), [(BasePoly.const(spec.nvars, 1),
                                                         [pos] * e)]


def raw_signed_sum(draw, part):
    """(text, raw terms) of one to three drawn parts, each signed."""
    texts, raw = [], []
    for i in range(draw(st.integers(1, 3))):
        text, terms = part()
        minus = draw(st.booleans())
        texts.append(("- " if minus else "+ " if i else "") + text)
        raw += [(-c if minus else c, word) for c, word in terms]
    return " ".join(texts), raw


def raw_factor(draw, spec):
    """(text, raw terms) of an atom power or a parenthesised sum of them."""
    if draw(st.booleans()):
        return raw_atom(draw, spec)
    text, raw = raw_signed_sum(draw, lambda: raw_atom(draw, spec))
    return "(%s)" % text, raw


def raw_product(draw, spec):
    """(text, raw terms) of one to four factors: a product concatenates
    the occurrence words of its factors."""
    text, terms = raw_factor(draw, spec)
    for _ in range(draw(st.integers(0, 3))):
        more, factor = raw_factor(draw, spec)
        text, terms = text + "*" + more, [(c * d, w + v) for c, w in terms for d, v in factor]
    return text, terms


@st.composite
def raw_sums(draw, spec):
    return raw_signed_sum(draw, lambda: raw_product(draw, spec))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw_sums(SIGN_SHAPE))
def test_parsing_equals_the_sorted_raw_words(drawn):
    text, raw = drawn
    assert parse_element(text, SIGN_SHAPE) == from_raw_terms(SIGN_SHAPE, raw)
