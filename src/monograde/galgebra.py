"""The truncated graded-commutative coordinate algebra.

Elements are finite sums  coefficient * generator-word  with `BasePoly`
coefficients, kept in a normal form: generator words sorted into canonical
order with the commutation sign picked up per transposition, squares of
odd generators annihilated, and words longer than the truncation order
dropped.  For a product of two words these three rules are decided in one
place, `_word_product`, through which `*` and the expression parser
multiply words.  The terms of an element are stored in no particular
order; the canonical term order (short words first) is applied only when
an element is rendered.

Outside input goes through the validating `GradedElement` constructor.
Results of internal arithmetic are assembled by `TermSum`, which adds and
multiplies coefficient dicts in one pass and builds the result through
the trusted `_raw` constructor.

The commutation sign between homogeneous pieces of degrees i and j is
(-1)**parity(i*j), using the grading monoid's product; this is not in
general the product of the two parities, and elements of even degree may
genuinely anticommute with odd ones in multi-component gradings.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .basecoeff import BasePoly, add_product, add_terms, power, strip_zeros
from .grading import GradingSpec


# The token a generator name must be: the expression grammar's NAME.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"


class AlgebraError(ValueError):
    """Inconsistent algebra data (mixed specs, bad generator references)."""


class NotInvertible(AlgebraError):
    """The element's body is not a unit, so no inverse exists."""


class Generator:
    """One coordinate generator: a nonzero degree plus an index within it."""

    __slots__ = ("degree", "index", "name")

    def __init__(self, degree, index: int, name: str | None = None):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def _key(self):
        return (self.degree, self.index, self.name)

    def __eq__(self, other):
        if type(other) is not Generator:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Generator(degree=%r, index=%r, name=%r)" % self._key()


class GeneratorSpec:
    """Shape of a coordinate algebra: base variables, generators, truncation.

    Generators are stored in canonical order (by degree under the grading's
    total order, then by index), which fixes the normal form of every word.
    The index of a generator counts the generators of its degree in
    declaration order, from 1; `declared[k]` is the canonical position of
    the k-th declared generator.
    """

    def __init__(self, grading: GradingSpec, nvars: int, degrees,
                 truncation: int = 6, names=None):
        if not grading.has_mul:
            raise AlgebraError("grading %r has no product; commutation signs "
                               "would be undefined" % grading.kind)
        if nvars < 0:
            raise AlgebraError("nvars must be >= 0")
        if truncation < 1:
            raise AlgebraError("truncation order must be >= 1")
        self.grading = grading
        self.nvars = nvars
        self.truncation = truncation
        degrees = [grading.check_element(d) for d in degrees]
        names = list(names) if names is not None else [None] * len(degrees)
        if len(names) != len(degrees):
            raise AlgebraError("need one name entry per generator")
        zero = grading.zero()
        counter: dict = {}
        gens = []
        for d, nm in zip(degrees, names):
            if d == zero:
                raise AlgebraError("generators must have nonzero degree")
            if nm is not None:
                if not isinstance(nm, str) or not re.fullmatch(NAME_PATTERN, nm):
                    raise AlgebraError("generator name %r must match %s" % (nm, NAME_PATTERN))
                if nm == "th" or re.fullmatch(r"x\d+", nm):
                    raise AlgebraError("generator name %r is reserved syntax" % nm)
            if grading.parity(grading.mul(d, d)) != grading.parity(d):
                raise AlgebraError("degree %s squares to the opposite parity; "
                                   "no consistent exponent range exists"
                                   % grading.format_element(d))
            counter[d] = counter.get(d, 0) + 1
            gens.append(Generator(d, counter[d], nm))
        self.generators = canon = tuple(
            sorted(gens, key=lambda g: (grading.sort_key(g.degree), g.index)))
        self.parities = tuple(grading.parity(g.degree) for g in canon)
        self.swap_bits = tuple(
            tuple(grading.parity(grading.mul(g.degree, h.degree)) for h in canon)
            for g in canon)
        self._by_label = {(g.degree, g.index): pos for pos, g in enumerate(canon)}
        self.declared = tuple(self._by_label[(g.degree, g.index)] for g in gens)
        self._by_name = {g.name: pos for pos, g in enumerate(canon) if g.name}
        if len(self._by_name) != sum(1 for g in canon if g.name):
            raise AlgebraError("generator names must be unique")
        self._word_cache: dict = {}
        self._degree_cache: dict = {}
        self._parsed: dict = {}  # the parser's th[deg,idx] token texts -> positions

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def position_of(self, degree, index: int) -> int:
        degree = self.grading.check_element(degree)
        pos = self._by_label.get((degree, index))
        if pos is None:
            raise AlgebraError("no generator of degree %s with index %d"
                               % (self.grading.format_element(degree), index))
        return pos

    def position_of_name(self, name: str):
        return self._by_name.get(name)

    def word_degree(self, beta):
        total = self._degree_cache.get(beta)
        if total is None:
            total = self.grading.zero()
            for g, e in enumerate(beta):
                for _ in range(e):
                    total = self.grading.add(total, self.generators[g].degree)
            self._degree_cache[beta] = total
        return total

    def word_key(self, beta):
        """Sort key for canonical term order: word length, then occurrences."""
        occ = []
        for g, e in enumerate(beta):
            occ.extend([g] * e)
        return (len(occ), tuple(occ))

    def words_up_to(self, max_len: int):
        """All admissible exponent vectors of word length <= max_len."""
        max_len = min(max_len, self.truncation)
        cached = self._word_cache.get(max_len)
        if cached is not None:
            return cached
        words = []

        def walk(pos, remaining, prefix):
            if pos == self.ngens:
                words.append(tuple(prefix))
                return
            cap = min(remaining, 1 if self.parities[pos] else remaining)
            for e in range(cap + 1):
                prefix.append(e)
                walk(pos + 1, remaining - e, prefix)
                prefix.pop()

        walk(0, max_len, [])
        words.sort(key=self.word_key)
        self._word_cache[max_len] = tuple(words)
        return self._word_cache[max_len]

    def _key(self):
        return (self.grading, self.nvars, self.truncation,
                tuple((g.degree, g.index) for g in self.generators))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, GeneratorSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "GeneratorSpec(%r, nvars=%d, degrees=%r, truncation=%d)" % (
            self.grading, self.nvars,
            [g.degree for g in self.generators], self.truncation)


def _word_product(spec: GeneratorSpec, beta, gamma):
    """Sign bit and exponent vector of word(beta) * word(gamma), or None
    when an odd generator repeats or the word passes the truncation order."""
    if sum(beta) + sum(gamma) > spec.truncation:
        return None
    sign = 0
    out = []
    swap = spec.swap_bits
    parities = spec.parities
    for g, (bg, cg) in enumerate(zip(beta, gamma)):
        e = bg + cg
        if e > 1 and parities[g]:
            return None
        out.append(e)
        if cg:
            # each occurrence of g from the right factor crosses every
            # occurrence of a strictly later generator in the left factor
            for h in range(g + 1, len(beta)):
                if beta[h]:
                    sign ^= (swap[h][g] * beta[h] * cg) & 1
    return sign, tuple(out)


class GradedElement:
    """A normal-form element of the truncated coordinate algebra."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GeneratorSpec, terms=None):
        object.__setattr__(self, "spec", spec)
        clean = {}
        if terms:
            for beta, poly in (terms.items() if isinstance(terms, dict) else terms):
                beta = tuple(beta)
                if len(beta) != spec.ngens:
                    raise AlgebraError("exponent vector has wrong length")
                if not isinstance(poly, BasePoly):
                    poly = BasePoly.const(spec.nvars, poly)
                if poly.nvars != spec.nvars:
                    raise AlgebraError("coefficient has %d variables, expected %d"
                                       % (poly.nvars, spec.nvars))
                for g, e in enumerate(beta):
                    if e < 0 or (e > 1 and spec.parities[g]):
                        raise AlgebraError("bad exponent %d for generator %d" % (e, g))
                if poly.is_zero() or sum(beta) > spec.truncation:
                    continue
                prev = clean.get(beta)
                total = poly if prev is None else prev + poly
                if total.is_zero():
                    clean.pop(beta, None)
                else:
                    clean[beta] = total
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, spec: GeneratorSpec, terms: dict) -> "GradedElement":
        """Trusted constructor for results of internal arithmetic: `terms`
        maps admissible exponent vectors no longer than the truncation
        order to nonzero `BasePoly` coefficients over spec.nvars variables,
        and the new element takes ownership of the dict."""
        element = object.__new__(cls)
        object.__setattr__(element, "spec", spec)
        object.__setattr__(element, "terms", terms)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("GradedElement is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec: GeneratorSpec) -> "GradedElement":
        return cls._raw(spec, {})

    @classmethod
    def one(cls, spec: GeneratorSpec) -> "GradedElement":
        return cls.scalar(spec, 1)

    @classmethod
    def scalar(cls, spec: GeneratorSpec, value) -> "GradedElement":
        if not isinstance(value, BasePoly):
            value = BasePoly.const(spec.nvars, value)
        elif value.nvars != spec.nvars:
            raise AlgebraError("coefficient has %d variables, expected %d"
                               % (value.nvars, spec.nvars))
        return cls._raw(spec, {(0,) * spec.ngens: value} if value else {})

    @classmethod
    def variable(cls, spec: GeneratorSpec, mu: int) -> "GradedElement":
        return cls.scalar(spec, BasePoly.var(spec.nvars, mu))

    @classmethod
    def gen(cls, spec: GeneratorSpec, pos: int) -> "GradedElement":
        if not 0 <= pos < spec.ngens:
            raise AlgebraError("generator position %d out of range" % pos)
        beta = tuple(1 if g == pos else 0 for g in range(spec.ngens))
        return cls._raw(spec, {beta: BasePoly.const(spec.nvars, 1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedElement):
            if other.spec != self.spec:
                raise AlgebraError("elements live over different generator specs")
            return other
        if isinstance(other, (int, Fraction, BasePoly)):
            return GradedElement.scalar(self.spec, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        total = TermSum(self.spec)
        total.add(self)
        total.add(other)
        return total.element()

    __radd__ = __add__

    def __neg__(self):
        return GradedElement._raw(self.spec, {b: -p for b, p in self.terms.items()})

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
        total = TermSum(self.spec)
        total.add_product(self, other)
        return total.element()

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, GradedElement.one(self.spec))

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scale(Fraction(1) / Fraction(scalar))

    def _scale(self, c: Fraction):
        """self * c for a rational c, in one pass over the terms."""
        if not c:
            return GradedElement._raw(self.spec, {})
        return GradedElement._raw(self.spec, {
            beta: BasePoly._raw(poly.nvars, {exps: coeff * c for exps, coeff in poly.terms.items()})
            for beta, poly in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.spec == other.spec
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def __repr__(self):
        from .expr import render_element
        return "GradedElement(%r)" % render_element(self)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure maps ------------------------------------------------------

    def body(self) -> BasePoly:
        """Coefficient of the empty word: the projection killing every
        generator.  A ring homomorphism onto the base polynomials."""
        empty = (0,) * self.spec.ngens
        return self.terms.get(empty, BasePoly.zero(self.spec.nvars))

    def invert(self) -> "GradedElement":
        """Multiplicative inverse, when the body is a nonzero constant.

        Uses the terminating geometric series: with f = c + f' and f' of
        word length >= 1, each power of f' climbs one filtration step, so
        the series stops at the truncation order.
        """
        b = self.body()
        if not b.is_constant() or b.is_zero():
            raise NotInvertible("body %r is not a nonzero constant" % (b,))
        c = b.constant_value()
        cinv = Fraction(1) / c
        u = (self - GradedElement.scalar(self.spec, c))._scale(cinv)
        out = TermSum(self.spec)
        out.add(GradedElement.one(self.spec))
        power = GradedElement.one(self.spec)
        for k in range(1, self.spec.truncation + 1):
            power = power * u
            if power.is_zero():
                break
            out.add(-power if k % 2 else power)
        return out.element()._scale(cinv)

    # -- grading -----------------------------------------------------------

    def degrees(self):
        return {self.spec.word_degree(b) for b in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self):
        """The common degree of all terms; None for zero."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise AlgebraError("element is not homogeneous")
        return next(iter(ds))

class TermSum:
    """A sum of graded terms built in one pass.

    Coefficients accumulate in plain dicts (word -> base exponents ->
    Fraction) and zero coefficients are stripped once, in `element`.
    """

    __slots__ = ("spec", "acc")

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self.acc: dict = {}

    def add(self, x: GradedElement, coeff: BasePoly | None = None) -> None:
        """Add coeff * x, with coeff a base polynomial (1 when omitted)."""
        acc = self.acc
        for beta, poly in x.terms.items():
            slot = acc.get(beta)
            if slot is None:
                slot = acc[beta] = {}
            if coeff is None:
                add_terms(slot, poly.terms)
            else:
                add_product(slot, coeff.terms, poly.terms)

    def add_product(self, x: GradedElement, y: GradedElement) -> None:
        """Add x * y."""
        spec = self.spec
        acc = self.acc
        right = [(b2, p2.terms) for b2, p2 in y.terms.items()]
        for b1, p1 in x.terms.items():
            t1 = p1.terms
            for b2, t2 in right:
                sw = _word_product(spec, b1, b2)
                if sw is None:
                    continue
                sign, beta = sw
                slot = acc.get(beta)
                if slot is None:
                    slot = acc[beta] = {}
                add_product(slot, t1, t2, sign)

    def element(self) -> GradedElement:
        nvars = self.spec.nvars
        terms = {}
        for beta, slot in self.acc.items():
            slot = strip_zeros(slot)
            if slot:
                terms[beta] = BasePoly._raw(nvars, slot)
        return GradedElement._raw(self.spec, terms)
