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
`GeneratorSpec`; `parse_poly` is its generator-free case.  Its lexer reads
one symbol per token, except that a variable, a generator or a name takes
its ^NAT with it, in one `findall` that keeps no positions; an error finds
its token's position in the same token list.  A bad character, or a
numeral too long to read, is the first error of any text, found by a scan
of its symbols.  A term's atom powers fold into one monomial (`_Run`),
applied in one pass to the words of the term's parenthesised factor, if
any.  Words multiply through `galgebra._word_product`, the one place that
decides the sign, the zero of a repeated odd generator and the truncation.

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

from .basecoeff import BasePoly, add_product, add_terms
from .galgebra import (NAME_PATTERN, GeneratorSpec, GradedElement, TermSum, _word_product,
                       word_count)
from .grading import FiniteTable, GradingError, NatPower, format_number


class ExprError(ValueError):
    """Syntax or symbol-resolution failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# Every '(' and every unary '-' opens a factor in _Parser.term; bounding
# the factors open at once bounds the parser's recursion.
MAX_NESTING = 100

# An exponent on a number or a parenthesised factor is refused before the
# power is computed when the power may have more base monomials, terms
# (words times base monomials) or digits in all its coefficients than these.
MAX_POWER_MONOMIALS = 2000
MAX_POWER_DIGITS = 100_000

# One token per symbol, except that a variable, a generator th[deg,idx]
# or a name is one token with its optional ^NAT.  Every non-blank character
# starts a token; `bad` catches the ones no other group reads.  A token is
# the tuple of the groups in this order, '' for each one that did not
# match: num, var, deg, idx, name, exp, sym, bad.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?:x(?P<var>[0-9]+)(?![A-Za-z0-9_])"
    r"|th\s*\[\s*(?P<deg>-?\s*\d+|\(\s*-?\s*\d+(?:\s*,\s*-?\s*\d+)*\s*\))"
    r"\s*,\s*(?P<idx>\d+)\s*\]|(?P<name>%s))(?:\s*\^\s*(?P<exp>\d+))?"
    r"|(?P<sym>[+\-*^()\[\],/])|(?P<bad>\S))" % NAME_PATTERN)
_END = ("",) * 8  # no group matched
# The symbols one at a time: a numeral, a name, a symbol or blank, else a bad character.
_SYMBOL = re.compile(r"(\d+)|%s|[+\-*^()\[\],/\s]|(\S)" % NAME_PATTERN)


def _too_long() -> str:
    """The error text for a number past the interpreter's int-from-string limit."""
    return "a number has more than %d digits, the limit for reading" % sys.get_int_max_str_digits()


def _value(tok):
    """What a token's first symbol reads: a number, 'x<digits>', 'th', a
    name, a symbol, or None at the end."""
    num, var, deg = tok[:3]
    return int(num) if num else "x" + var if var else "th" if deg else tok[4] or tok[6] or None


def _check_symbols(text: str) -> None:
    """Raise the first bad character or numeral too long to read in `text`."""
    limit = sys.get_int_max_str_digits()
    for m in _SYMBOL.finditer(text):
        if m[2] or limit and len(m[1] or "") > limit:
            raise ExprError("unexpected character %r" % m[2] if m[2] else _too_long(), m.start())


def _comb_past(n: int, k: int) -> int:
    """comb(n + k, k), or a number past MAX_POWER_MONOMIALS once it passes it."""
    c = j = 1
    while j <= k and c <= MAX_POWER_MONOMIALS:
        c, j = c * (n + j) // j, j + 1
    return c


class _Run:
    """A term's atom powers: the rational num/den, the base exponent
    shift, and the generator powers multiplied into one signed word
    (sign bit, exponents), None without a generator.  A zero product of
    generator powers makes num 0."""

    __slots__ = ("num", "den", "shift", "word")

    def __init__(self):
        self.num = self.den = 1
        self.shift = self.word = None

    def add_to(self, total: TermSum, value, negate: bool = False) -> None:
        """Add value (1 for None) times the run, negated when `negate`, into
        `total`: each word of value times the run's word, in that order."""
        if not self.num:
            return
        spec = total.spec
        c = Fraction(-self.num if negate else self.num, self.den)
        exps = tuple(self.shift) if self.shift else (0,) * spec.nvars
        run_sign, gamma = self.word or (0, None)
        if value is None:
            add_terms(total.acc.setdefault(gamma or (0,) * spec.ngens, {}),
                      {exps: -c if run_sign else c})
            return
        unit = self.shift is None and self.num == self.den
        for beta, poly in value.terms.items():
            product = (0, beta) if gamma is None else _word_product(spec, beta, gamma)
            if product is None:
                continue
            sign = product[0] ^ run_sign
            slot = total.acc.setdefault(product[1], {})
            if unit:
                add_terms(slot, poly.terms if sign == negate
                          else {x: -q for x, q in poly.terms.items()})
            else:
                add_product(slot, {exps: c}, poly.terms, sign)


class _Parser:
    """Recursive-descent evaluator straight into the algebra of one
    `GeneratorSpec`, over the tokens of `_TOKEN`; a sum accumulates in one
    `TermSum`."""

    def __init__(self, text: str, spec: GeneratorSpec):
        self.text, self.spec = text, spec
        self.tokens = _TOKEN.findall(text) + [_END]
        self.i = self.depth = 0

    def fail(self, message: str, i: int) -> ExprError:
        """The error `message` at the first non-blank character of token i."""
        starts = [m.end() - len(m[0].lstrip()) for m in _TOKEN.finditer(self.text)]
        return ExprError(message, starts[i] if i < len(starts) else len(self.text))

    def accept(self, sym: str) -> bool:
        """Take the next token if it is the symbol `sym`."""
        if self.tokens[self.i][6] != sym:
            return False
        self.i += 1
        return True

    def expect(self, sym: str):
        if not self.accept(sym):
            raise self.fail("expected %r, found %r" % (sym, _value(self.tokens[self.i])), self.i)

    def number(self, describe: str) -> int:
        """The next token, which must be a plain number."""
        tok = self.tokens[self.i]
        if not tok[0]:
            raise self.fail("expected %s, found %r" % (describe, _value(tok)), self.i)
        self.i += 1
        return int(tok[0])

    def parse(self):
        value = self.expr()
        if self.i < len(self.tokens) - 1:
            raise self.fail("trailing input %r" % (_value(self.tokens[self.i]),), self.i)
        return value

    def expr(self):
        total = TermSum(self.spec)
        negate = False
        while True:
            self.term(total, negate)
            op = self.tokens[self.i][6]
            if op != "+" and op != "-":
                return total.element()
            self.i += 1
            negate = op == "-"

    def term(self, total: TermSum, negate: bool) -> None:
        """Add the next term, negated when `negate`, into `total`: its
        factors up to the last parenthesised one multiply into `value`,
        the atom powers after it fold into `run`.  The symbol tests are
        `accept` written out, in this hot loop."""
        tokens = self.tokens
        value = run = None
        while True:
            entered = 0
            while True:  # a factor: its '-' signs, then a power
                self.depth += 1
                entered += 1
                if self.depth > MAX_NESTING:
                    raise self.fail("nesting deeper than %d" % MAX_NESTING, self.i)
                if tokens[self.i][6] != "-":
                    break
                self.i += 1
                negate = not negate
            if tokens[self.i][6] == "(":
                self.i += 1
                factor = self.power(self.expr())
                if run is not None:
                    left = TermSum(self.spec)
                    run.add_to(left, value)
                    value, run = left.element(), None
                value = factor if value is None else value * factor
            else:
                run = run or _Run()
                self.atom(run)
            self.depth -= entered
            if tokens[self.i][6] != "*":
                break
            self.i += 1
        (run or _Run()).add_to(total, value, negate)

    def power(self, base: GradedElement) -> GradedElement:
        """The parenthesised `base`, whose ')' comes next, to its exponent,
        refused past the budget.  The power's words are at most those up
        to its length bound over the generators of base's words."""
        self.expect(")")
        e, at = self.exponent()
        if e is None:
            return base
        spec, polys = self.spec, base.terms.values()
        gens = {g for beta in base.terms for g, k in enumerate(beta) if k}
        words = word_count([spec.parities[g] for g in gens],
                           min(e * max(map(sum, base.terms), default=0), spec.truncation))
        self.check_power([c for p in polys for c in p.terms.values()],
                         max((p.degree() for p in polys), default=0), spec.nvars, words, e, at)
        return base if e == 1 else base ** e

    def check_power(self, coeffs, top: int, nvars: int, words: int, e: int, at: int):
        """Refuse the e-th power, e read at token `at`, of a factor with
        rational coefficients `coeffs` (one per term) and top base degree
        `top` over nvars variables, whose power has at most `words` words,
        when it passes the budget.  The power has at most one term per
        multiset of e of the factor's terms, so at most that many or
        comb(nvars + e*top, nvars) base monomials per word, and each of its
        coefficients is at most height**e over a divisor of den**e."""
        multisets = _comb_past(e, len(coeffs) - 1)
        monomials = min(_comb_past(e * top, nvars), multisets)
        if monomials > MAX_POWER_MONOMIALS:
            raise self.fail("a power may have more than %d base monomials, the limit "
                            "for an exponent" % MAX_POWER_MONOMIALS, at)
        terms = min(monomials * words, multisets)
        if terms > MAX_POWER_MONOMIALS:
            raise self.fail("a power may have more than %d terms, the limit for an exponent"
                            % MAX_POWER_MONOMIALS, at)
        den = lcm(*(c.denominator for c in coeffs))
        height = max(int(sum(map(abs, coeffs)) * den), den)
        # a height of 2 or more gives 0.3 digits or more per unit of e, so the
        # cap on e keeps the float finite without changing the answer
        if terms * min(e, 4 * MAX_POWER_DIGITS) * log10(height) > MAX_POWER_DIGITS:
            raise self.fail("a power may have more than %d digits, the limit for an "
                            "exponent" % MAX_POWER_DIGITS, at)

    def exponent(self, default=None):
        """(e, token index) of the number after a '^', if one comes next;
        (default, None) without one."""
        if not self.accept("^"):
            return default, None
        return self.number("exponent"), self.i - 1

    def atom(self, run: _Run) -> None:
        """Multiply `run` by the next plain atom power."""
        spec, i = self.spec, self.i
        tok = self.tokens[i]
        num, var, deg, idx, name, exp = tok[:6]
        if not (num or var or deg or name):
            raise self.fail("expected a value, found %r" % (_value(tok),), i)
        self.i += 1
        if num:
            n, d, at = int(num), 1, i
            if self.accept("/"):
                at, d = self.i, self.number("denominator")
            if not d:
                raise self.fail("zero denominator", at)
            e, at = self.exponent()
            if e is not None:
                q = Fraction(n, d)
                self.check_power([q], 0, 0, 1, e, at)
                q **= e
                n, d = q.numerator, q.denominator
            run.num *= n
            run.den *= d
            return
        if deg:
            pos = spec._parsed.get(tok[2:4])
            if pos is None:
                deg = re.sub(r"\s", "", deg)
                degree = tuple(map(int, deg[1:-1].split(","))) if deg[0] == "(" else int(deg)
                pos = spec._parsed[tok[2:4]] = self.position(degree, int(idx), i)
        elif var:
            try:
                mu = int(var)
            except ValueError as exc:
                raise self.fail(_too_long(), i) from exc
            if not 1 <= mu <= spec.nvars:
                raise self.fail("variable x%s out of range 1..%d" % (var, spec.nvars), i)
        elif name == "th" and not exp and self.accept("["):
            pos = self.generator_ref(i)
        else:
            pos = spec.position_of_name(name)
            if pos is None:
                raise self.fail("unknown symbol %r" % name, i)
        e = int(exp) if exp else self.exponent(1)[0]
        if var:
            run.shift = run.shift or [0] * spec.nvars
            run.shift[mu - 1] += e
        elif run.num:
            sign, word = run.word or (0, (0,) * spec.ngens)
            product = _word_product(spec, word, (0,) * pos + (e,) + (0,) * (len(word) - pos - 1))
            if product is None:
                run.num = 0
            else:
                run.word = (sign ^ product[0], product[1])

    def signed_int(self) -> int:
        neg = self.accept("-")
        value = self.number("integer")
        return -value if neg else value

    def generator_ref(self, at: int):
        """The position of the generator th[degree,index] whose '[' was
        just taken, its 'th' at token `at`."""
        if self.accept("("):
            comps = [self.signed_int()]
            while self.accept(","):
                comps.append(self.signed_int())
            self.expect(")")
            degree = tuple(comps)
        else:
            degree = self.signed_int()
        self.expect(",")
        index = self.number("generator index")
        self.expect("]")
        return self.position(degree, index, at)

    def position(self, degree, index: int, at: int) -> int:
        try:
            return self.spec.position_of(degree, index)
        except (GradingError, ValueError) as exc:
            raise self.fail(str(exc), at) from exc


def parse_element(text: str, spec: GeneratorSpec) -> GradedElement:
    """The element `text` reads over spec, read once.  A bad character or a
    numeral too long to read is reported before any other error: the
    symbols are scanned before the reading when the text could hold such
    a numeral, and after it when the reading fails, as a bad character makes it."""
    if len(text) > sys.get_int_max_str_digits() > 0:
        _check_symbols(text)
    try:
        return _Parser(text, spec).parse()
    except ExprError:
        _check_symbols(text)
        raise


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
