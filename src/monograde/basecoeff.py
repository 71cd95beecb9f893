"""Exact multivariate polynomials with rational coefficients.

These stand in for the smooth functions on the base of a graded domain:
being polynomial keeps every derivative, every Taylor expansion, and every
substitution a finite exact computation, so the algebraic identities of the
graded layer can be asserted with `==` instead of tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul


class BasePoly:
    """A polynomial in x1..xn over Q, stored as exponent-tuple -> coefficient.

    Values are immutable and no zero coefficient is ever stored, so
    structural equality is semantic equality.  Terms are kept in no
    particular order: dict equality and the frozenset hash ignore it, and
    renderers sort the terms themselves.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                coeff = Fraction(coeff)
                if coeff:
                    c = clean.get(exps)
                    c = coeff if c is None else c + coeff
                    if c:
                        clean[exps] = c
                    else:
                        clean.pop(exps, None)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "BasePoly":
        """Trusted constructor for results of internal arithmetic: `terms`
        maps exponent tuples of length nvars to nonzero Fractions, and the
        new polynomial takes ownership of the dict."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("BasePoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "BasePoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "BasePoly":
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        value = Fraction(value)
        return cls._raw(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def var(cls, nvars: int, mu: int) -> "BasePoly":
        """The coordinate x_mu, with mu between 1 and nvars."""
        if not 1 <= mu <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (mu, nvars))
        exps = tuple(1 if k == mu - 1 else 0 for k in range(nvars))
        return cls._raw(nvars, {exps: Fraction(1)})

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BasePoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials in %d and %d variables"
                                 % (self.nvars, other.nvars))
            return other
        if isinstance(other, (int, Fraction)):
            return BasePoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        add_terms(acc, other.terms)
        return BasePoly._raw(self.nvars, strip_zeros(acc))

    __radd__ = __add__

    def __neg__(self):
        return BasePoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        add_product(acc, self.terms, other.terms)
        return BasePoly._raw(self.nvars, strip_zeros(acc))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, BasePoly.const(self.nvars, 1))

    def __eq__(self, other):
        return (isinstance(other, BasePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .expr import render_poly
        return "BasePoly(%r)" % render_poly(self)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Largest term degree, 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    # -- calculus ----------------------------------------------------------

    def partial(self, mu: int) -> "BasePoly":
        """Formal partial derivative with respect to x_mu (1-based)."""
        if not 1 <= mu <= self.nvars:
            raise ValueError("variable index %d out of range 1..%d" % (mu, self.nvars))
        k = mu - 1
        # lowering x_mu is injective on the terms that contain it, so no
        # two terms merge and no coefficient vanishes
        return BasePoly._raw(self.nvars, {
            exps[:k] + (exps[k] - 1,) + exps[k + 1:]: coeff * exps[k]
            for exps, coeff in self.terms.items() if exps[k]})

    def eval(self, point) -> Fraction:
        point = [Fraction(c) for c in point]
        if len(point) != self.nvars:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(point), self.nvars))
        v = integer_point([(c.numerator, c.denominator) for c in point])
        return Fraction(*integer_value(integer_form(self), v))

    def compose(self, replacements) -> "BasePoly":
        """Substitute a polynomial for every variable.

        All replacement polynomials must share a variable count, which
        becomes the variable count of the result.
        """
        replacements = list(replacements)
        if len(replacements) != self.nvars:
            raise ValueError("need %d replacement polynomials" % self.nvars)
        if self.nvars == 0:
            return self
        m = replacements[0].nvars
        if any(r.nvars != m for r in replacements):
            raise ValueError("replacements disagree on variable count")
        acc: dict = {}
        powers: dict = {}
        for exps, coeff in self.terms.items():
            term = BasePoly.const(m, coeff)
            for mu, e in enumerate(exps):
                if e:
                    power = powers.get((mu, e))
                    if power is None:
                        power = powers[(mu, e)] = replacements[mu] ** e
                    term = term * power
            add_terms(acc, term.terms)
        return BasePoly._raw(m, strip_zeros(acc))

def power(x, k: int, one, mul=mul):
    """x**k by square-and-multiply with `mul`, `one` for k = 0.  It squares
    only while a higher bit of k is left: bit_length + popcount - 2 products."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a natural number")
    result = None
    while True:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if not k:
            return one if result is None else result
        x = mul(x, x)


# -- exact evaluation in integers -------------------------------------------------
#
# A polynomial of top degree d over a common denominator c is homogenized by
# one extra variable; a rational point becomes integers over a common
# denominator D, which fills that slot; the value is an integer over c * D**d.

def integer_form(poly: BasePoly) -> tuple:
    """(c, d, terms) of poly, with terms listing (integer numerator,
    ((index, exponent), ...)) over the homogenized variables."""
    den = lcm(*[c.denominator for c in poly.terms.values()])
    degree = poly.degree()
    return den, degree, [
        (c.numerator * (den // c.denominator),
         tuple((i, e) for i, e in enumerate(exps + (degree - sum(exps),)) if e))
        for exps, c in poly.terms.items()]


def integer_point(pairs) -> tuple:
    """The point of coordinates n/d, given as (n, d) pairs with d > 0, as
    integers n*D/d followed by D, the least common multiple of the d."""
    den = lcm(*[d for _, d in pairs])
    return (*[n * (den // d) for n, d in pairs], den)


def integer_value(form: tuple, point: tuple) -> tuple:
    """(numerator, positive denominator) of the value of a polynomial in
    `integer_form` at a point in `integer_point` form."""
    den, degree, terms = form
    total = 0
    for num, factors in terms:
        for i, e in factors:
            num *= point[i] ** e
        total += num
    return total, den * point[-1] ** degree


# -- term-dict kernels ---------------------------------------------------------
#
# Arithmetic accumulates into plain dicts mapping exponent tuples to
# Fractions and strips zero coefficients once, when the sum is complete.

def add_terms(acc: dict, terms: dict) -> None:
    """Add terms into acc, in place."""
    get = acc.get
    for exps, coeff in terms.items():
        prev = get(exps)
        acc[exps] = coeff if prev is None else prev + coeff


def add_product(acc: dict, terms1: dict, terms2: dict, negate: bool = False) -> None:
    """Add the product of two term dicts into acc, in place, negated when
    asked."""
    get = acc.get
    items2 = list(terms2.items())
    for e1, c1 in terms1.items():
        if negate:
            c1 = -c1
        for e2, c2 in items2:
            exps = tuple(map(add, e1, e2))
            prev = get(exps)
            acc[exps] = c1 * c2 if prev is None else prev + c1 * c2


def strip_zeros(acc: dict) -> dict:
    return {exps: coeff for exps, coeff in acc.items() if coeff}
