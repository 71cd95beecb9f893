"""Expression syntax for algebra elements, and the canonical renderer.

Grammar (no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ['^' NAT]
    atom    := NAT ['/' NAT] | variable | generator | NAME | '(' expr ')'

where `variable` is x1..xn, `generator` is th[degree,index] with the degree
an integer or a tuple literal like (1,0), and NAME is a declared generator
name.  Parentheses and unary minus nest at most MAX_NESTING deep.

One evaluator reads this grammar straight into the algebra of a
`GeneratorSpec`; `parse_poly` is its generator-free case, the body of an
element over a spec with no generators.  Its atom reader takes each plain
atom (rational, variable or generator) once, with its exponent, and
multiplies it into the running product of its term in one pass over that
product's terms (`GradedElement._scale`, `times_variable`, `times_gen`);
negated and parenthesised factors take the general product.  Factors
multiply left to right with the `truncated` flag of repeated `*`: a word
longer than the truncation order, or an even generator power longer on
its own, leaves a flagged zero even if a later factor is 0, while a
repeated odd generator gives an unflagged zero.

Rendering emits terms sorted by generator word (short words first), then
by base monomial in descending graded-lexicographic order; this is the only
place the canonical term order is applied, and parsing the rendered form
reproduces the element exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm, log10

from .basecoeff import BasePoly
from .galgebra import NAME_PATTERN, GeneratorSpec, GradedElement, TermSum
from .grading import FiniteTable, GradingError, NatPower, format_number


class ExprError(ValueError):
    """Syntax or symbol-resolution failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# Every '(' and every unary '-' passes through _Parser.factor; bounding the
# factors open at once bounds the parser's recursion.
MAX_NESTING = 100

# An exponent on a number or a parenthesised factor is refused before the
# power is computed when the power may have more base monomials, or more
# digits in all its coefficients, than these.
MAX_POWER_MONOMIALS = 2000
MAX_POWER_DIGITS = 100_000

# every non-blank character starts a token; `bad` catches the ones no
# other group reads
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>%s)|(?P<sym>[+\-*^()\[\],/])|(?P<bad>\S))"
                       % NAME_PATTERN)


def _too_long(pos: int) -> ExprError:
    """The error for a number at pos past the interpreter's int-from-string limit."""
    return ExprError("a number has more than %d digits, the limit for reading"
                     % sys.get_int_max_str_digits(), pos)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.start(kind)
        if kind == "num":
            try:
                value = int(value)
            except ValueError as exc:
                raise _too_long(pos) from exc
        elif kind == "bad":
            raise ExprError("unexpected character %r" % value, pos)
        tokens.append((kind, value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def _check_power(coeffs, top: int, nvars: int, e: int, at: int):
    """Refuse the e-th power of a base with rational coefficients `coeffs`
    and top base degree `top` over nvars variables, e read at position
    `at`, when it passes the budget.  The power has at most comb(nvars +
    e*top, nvars) base monomials, and each of its coefficients is at most
    height**e over a divisor of den**e."""
    monomials = 1
    for k in range(1, nvars + 1):  # comb(e*top + k, k), stopped past the limit
        monomials = monomials * (e * top + k) // k
        if monomials > MAX_POWER_MONOMIALS:
            raise ExprError("a power may have more than %d base monomials, the limit "
                            "for an exponent" % MAX_POWER_MONOMIALS, at)
    den = lcm(*(c.denominator for c in coeffs))
    height = max(int(sum(map(abs, coeffs)) * den), den)
    # a height of 2 or more gives 0.3 digits or more per unit of e, so the
    # cap on e keeps the float finite without changing the answer
    if monomials * min(e, 4 * MAX_POWER_DIGITS) * log10(height) > MAX_POWER_DIGITS:
        raise ExprError("a power may have more than %d digits, the limit for an "
                        "exponent" % MAX_POWER_DIGITS, at)


class _Parser:
    """Recursive-descent evaluator straight into the algebra of one
    `GeneratorSpec`: each atom power multiplies into its term's running
    product in one pass, and a sum of several terms accumulates in one
    `TermSum`."""

    def __init__(self, text: str, spec: GeneratorSpec):
        self.tokens = _tokenize(text)
        self.i = 0
        self.spec = spec
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, describe=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprError("expected %s, found %r" % (describe or kind, tok[1]), tok[2])
        self.i += 1
        return tok

    def expect(self, sym: str):
        if self.accept(sym) is None:
            tok = self.peek()
            raise ExprError("expected %r, found %r" % (sym, tok[1]), tok[2])

    def accept(self, *values):
        """Take the next token if it is one of the symbols `values` and
        return that symbol; otherwise take nothing and return None."""
        tok = self.tokens[self.i]
        if tok[0] == "sym" and tok[1] in values:
            self.i += 1
            return tok[1]
        return None

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError("trailing input %r" % tok[1], tok[2])
        return value

    def expr(self):
        value = self.term()
        op = self.accept("+", "-")
        if op is None:
            return value
        total = TermSum(self.spec)
        total.add(value)
        while op is not None:
            rhs = self.term()
            total.add(rhs if op == "+" else -rhs)
            op = self.accept("+", "-")
        return total.element()

    def term(self):
        value = self.factor(None)
        while self.accept("*"):
            value = self.factor(value)
        return value

    def factor(self, left):
        """`left` times the next factor; None for `left` starts a term.
        An atom power multiplies into `left` in one pass over its terms,
        negated and parenthesised factors through the general product."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError("nesting deeper than %d" % MAX_NESTING, self.peek()[2])
        if self.accept("-"):
            value = -self.factor(None)
        elif self.accept("("):
            value = self.expr()
            self.expect(")")
            value = value ** self.exponent(value)
        else:
            self.depth -= 1
            return self.atom_power(GradedElement.one(self.spec) if left is None else left)
        self.depth -= 1
        return value if left is None else left * value

    def exponent(self, base=None) -> int:
        """The exponent after an optional '^', 1 without one.  A `base`, a
        number or a parenthesised element, is checked against the budget."""
        if not self.accept("^"):
            return 1
        _, e, at = self.take("num", "exponent")
        if isinstance(base, Fraction):
            _check_power([base], 0, 0, e, at)
        elif base is not None:
            polys = base.terms.values()
            _check_power([c for p in polys for c in p.terms.values()],
                         max((sum(x) for p in polys for x in p.terms), default=0),
                         self.spec.nvars, e, at)
        return e

    def atom_power(self, left):
        """`left` times the next plain atom (rational, variable or
        generator) raised to its exponent."""
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            value = Fraction(tok[1])
            if self.accept("/"):
                den = self.take("num", "denominator")
                if den[1] == 0:
                    raise ExprError("zero denominator", den[2])
                value = Fraction(tok[1], den[1])
            return left._scale(value ** self.exponent(value))
        if tok[0] != "name":
            raise ExprError("expected a value, found %r" % (tok[1],), tok[2])
        self.take()
        name, at = tok[1], tok[2]
        if name == "th" and self.accept("["):
            return left.times_gen(self.generator_ref(at), self.exponent())
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            try:
                mu = int(m.group(1))
            except ValueError as exc:
                raise _too_long(at) from exc
            if not 1 <= mu <= self.spec.nvars:
                raise ExprError("variable %s out of range 1..%d" % (name, self.spec.nvars), at)
            return left.times_variable(mu, self.exponent())
        pos = self.spec.position_of_name(name)
        if pos is None:
            raise ExprError("unknown symbol %r" % name, at)
        return left.times_gen(pos, self.exponent())

    def signed_int(self) -> int:
        neg = self.accept("-")
        tok = self.take("num", "integer")
        return -tok[1] if neg else tok[1]

    def generator_ref(self, at: int):
        """The position of the generator th[degree,index] whose '[' was
        just taken."""
        if self.accept("("):
            comps = [self.signed_int()]
            while self.accept(","):
                comps.append(self.signed_int())
            self.expect(")")
            degree = tuple(comps)
        else:
            degree = self.signed_int()
        self.expect(",")
        index = self.take("num", "generator index")[1]
        self.expect("]")
        try:
            return self.spec.position_of(degree, index)
        except (GradingError, ValueError) as exc:
            raise ExprError(str(exc), at) from exc


def parse_element(text: str, spec: GeneratorSpec) -> GradedElement:
    return _Parser(text, spec).parse()


def parse_poly(text: str, nvars: int) -> BasePoly:
    """A base polynomial: the generator-free case of `parse_element`."""
    return parse_element(text, GeneratorSpec(NatPower(1), nvars, [])).body()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _factors(tokens, exps) -> list:
    """tokens[k], or tokens[k]^e, for each nonzero exponent e at k."""
    return [tokens[k] if e == 1 else "%s^%s" % (tokens[k], format_number(e))
            for k, e in enumerate(exps) if e]


def render_poly(poly: BasePoly) -> str:
    """A base polynomial's text: the generator-free case of `render_element`."""
    return render_element(GradedElement.scalar(GeneratorSpec(NatPower(1), poly.nvars, []),
                                               poly))


def render_generator(spec: GeneratorSpec, pos: int) -> str:
    """The token of the generator at a canonical position: its declared
    name, or th[degree,index] with the degree written the way the parser
    reads it (a finite table's element index, not its display name)."""
    g = spec.generators[pos]
    if g.name:
        return g.name
    if isinstance(spec.grading, FiniteTable):
        degree = format_number(g.degree)
    else:
        degree = spec.grading.format_element(g.degree)
    return "th[%s,%d]" % (degree, g.index)


def _join_terms(parts) -> str:
    pieces = []
    for coeff, factors in parts:
        mag = abs(coeff)
        body = list(factors)
        if mag != 1 or not body:
            body.insert(0, format_number(mag, "a coefficient has more than %d digits, "
                                         "the limit for printing"))
        text = "*".join(body)
        if not pieces:
            pieces.append(text if coeff > 0 else "-" + text)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + text)
    return "".join(pieces)


def render_element(element: GradedElement) -> str:
    """The canonical text of an element: words in canonical order (short
    words first), each word's base monomials in descending graded order."""
    spec = element.spec
    if element.is_zero():
        return "0"
    variables = ["x%d" % (mu + 1) for mu in range(spec.nvars)]
    generators = [render_generator(spec, pos) for pos in range(spec.ngens)]
    flat = []
    for beta, poly in sorted(element.terms.items(),
                             key=lambda kv: spec.word_key(kv[0])):
        word = _factors(generators, beta)
        for exps, coeff in sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                                  reverse=True):
            flat.append((coeff, _factors(variables, exps) + word))
    return _join_terms(flat)
