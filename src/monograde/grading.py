"""Grading monoids: commutative monoids with a parity map, a total order,
and an optional product compatible with addition.

Degrees of algebra elements live in one of these monoids; degrees of
operators (morphism-like maps, derivations) live in its group completion,
represented by formal differences (`KGroupElement`).
"""

from __future__ import annotations

import sys
from itertools import product as _cartesian
from math import prod


class GradingError(ValueError):
    """Invalid grading data, or an operation unsupported by the monoid kind."""


def format_number(x, message: str = "a number has more than %d digits, the limit "
                  "for printing") -> str:
    """The text of an int or a Fraction, the one printer of numbers: past the
    interpreter's int-to-string limit, a GradingError of `message` % limit."""
    try:
        return str(x)
    except ValueError as exc:
        raise GradingError(message % sys.get_int_max_str_digits()) from exc


# ---------------------------------------------------------------------------
# monoid kinds
# ---------------------------------------------------------------------------

class GradingSpec:
    """A commutative monoid of grading degrees.

    Concrete kinds provide addition, a parity function (a homomorphism to
    Z_2), a total order on elements, and optionally a commutative product
    distributing over addition.  The product is what the commutation sign
    of the algebra layer is computed from, so kinds without one cannot be
    used to grade an algebra.
    """

    kind: str = "abstract"
    is_finite: bool = False
    has_mul: bool = False

    def zero(self):
        raise NotImplementedError

    def add(self, i, j):
        raise NotImplementedError

    def mul(self, i, j):
        raise GradingError("monoid kind %r has no product" % self.kind)

    def parity(self, i) -> int:
        raise NotImplementedError

    def sort_key(self, i):
        """Key realizing the total order used for canonical generator order."""
        raise NotImplementedError

    def check_element(self, i):
        """Validate and normalize an element; raises GradingError if invalid."""
        raise NotImplementedError

    def elements(self):
        """All elements (finite kinds only)."""
        raise GradingError("monoid kind %r is not finite" % self.kind)

    def is_cancellative(self) -> bool:
        return self.cancellation_witness() is None

    def cancellation_witness(self):
        """A triple (x, y, z) with x+y = x+z but y != z, or None."""
        return None

    def format_element(self, i) -> str:
        if isinstance(i, tuple):
            return "(" + ",".join(map(format_number, i)) + ")"
        return format_number(i)

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, GradingSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self._key()[1:])


class _PowerSpec(GradingSpec):
    """Shared machinery for component-wise kinds; elements are ints when the
    number of components is 1, otherwise tuples of ints."""

    def __init__(self, k: int):
        if k < 1:
            raise GradingError("need at least one component")
        self.ncomp = k

    def _tup(self, i):
        return (i,) if self.ncomp == 1 else i

    def _out(self, t):
        return t[0] if self.ncomp == 1 else t

    def zero(self):
        return self._out((0,) * self.ncomp)

    def add(self, i, j):
        a, b = self._tup(i), self._tup(j)
        return self._out(tuple(x + y for x, y in zip(a, b)))

    has_mul = True

    def mul(self, i, j):
        a, b = self._tup(i), self._tup(j)
        return self._out(tuple(x * y for x, y in zip(a, b)))

    def parity(self, i) -> int:
        return sum(self._tup(i)) % 2

    def sort_key(self, i):
        return self._tup(i)

    def _check_components(self, i, ok, what):
        t = (i,) if isinstance(i, int) else i
        if not (isinstance(t, tuple) and len(t) == self.ncomp
                and all(isinstance(c, int) and ok(c) for c in t)):
            raise GradingError("%r is not %s" % (i, what))
        return self._out(t)

    def _key(self):
        return (self.kind, self.ncomp)


class NatPower(_PowerSpec):
    """Tuples of natural numbers under componentwise addition."""

    kind = "nat_power"

    def check_element(self, i):
        return self._check_components(i, lambda c: c >= 0,
                                      "a %d-tuple of naturals" % self.ncomp)


class IntPower(_PowerSpec):
    """Tuples of integers under componentwise addition."""

    kind = "int_power"

    def check_element(self, i):
        return self._check_components(i, lambda c: True,
                                      "a %d-tuple of integers" % self.ncomp)


class CyclicProduct(_PowerSpec):
    """Product of cyclic groups Z_q1 x ... x Z_qk, componentwise mod-q ops.

    A nontrivial parity exists iff some factor has even order; the first
    such factor carries it as the mod-2 residue of that component.  The
    residue is a homomorphism precisely because the order is even, so it
    holds by construction and is not re-checked; the tests sample the law.
    """

    kind = "cyclic_product"
    is_finite = True

    def __init__(self, orders):
        orders = tuple(orders)
        if not orders or any(not isinstance(q, int) or q < 1 for q in orders):
            raise GradingError("orders must be positive integers")
        super().__init__(len(orders))
        self.orders = orders
        even = [a for a, q in enumerate(orders) if q % 2 == 0]
        self._parity_axis = even[0] if even else None

    def add(self, i, j):
        a, b = self._tup(i), self._tup(j)
        return self._out(tuple((x + y) % q for x, y, q in zip(a, b, self.orders)))

    def mul(self, i, j):
        a, b = self._tup(i), self._tup(j)
        return self._out(tuple((x * y) % q for x, y, q in zip(a, b, self.orders)))

    def parity(self, i) -> int:
        if self._parity_axis is None:
            return 0
        return self._tup(i)[self._parity_axis] % 2

    def check_element(self, i):
        t = self._tup(self._check_components(i, lambda c: True, "a %d-tuple" % self.ncomp))
        return self._out(tuple(c % q for c, q in zip(t, self.orders)))

    def elements(self):
        for t in _cartesian(*(range(q) for q in self.orders)):
            yield self._out(t)

    def _key(self):
        return (self.kind, self.orders)


class Z2Power(CyclicProduct):
    """(Z_2)^n with the total mod-2 weight as parity, a homomorphism by
    construction (a sum of residues mod 2) that is not re-checked."""

    kind = "z2_power"
    _key = _PowerSpec._key
    parity = _PowerSpec.parity

    def __init__(self, n: int):
        super().__init__((2,) * n)


class FiniteTable(GradingSpec):
    """A finite commutative monoid given by its addition table.

    Elements are the indices 0..size-1 with 0 the identity.  The declared
    parity bits and the optional product table are user input, so they are
    validated exhaustively at construction (homomorphism law; commutativity
    and distributivity); this is the only kind whose parity is checked.
    """

    kind = "finite_table"
    is_finite = True

    def __init__(self, table, parity, mul_table=None, names=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n < 1 or any(len(row) != n for row in table):
            raise GradingError("addition table must be square")
        rng = range(n)
        for row in table:
            if any(not isinstance(v, int) or v not in rng for v in row):
                raise GradingError("table entries must be element indices")
        for j in rng:
            if table[0][j] != j or table[j][0] != j:
                raise GradingError("0 must be the identity")
        for i in rng:
            for j in rng:
                if table[i][j] != table[j][i]:
                    raise GradingError("table is not commutative at (%d,%d)" % (i, j))
        for a in rng:
            for b in rng:
                for c in rng:
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise GradingError(
                            "table is not associative at (%d,%d,%d)" % (a, b, c))
        try:
            parity = tuple(int(b) for b in parity)
        except (TypeError, ValueError) as exc:
            raise GradingError("parity must be a bit per element") from exc
        if len(parity) != n or any(b not in (0, 1) for b in parity):
            raise GradingError("parity must be a bit per element")
        self.size = n
        self.table = table
        self.parity_bits = parity
        self.names = tuple(names) if names is not None else tuple(str(i) for i in rng)
        if len(self.names) != n:
            raise GradingError("need one name per element")
        if parity[0] != 0:
            raise GradingError("parity of the identity must be 0")
        for i in rng:
            for j in rng:
                if parity[table[i][j]] != (parity[i] + parity[j]) % 2:
                    raise GradingError("parity is not additive at %s, %s"
                                       % (self.names[i], self.names[j]))
        self.mul_table = None
        if mul_table is not None:
            mul_table = tuple(tuple(row) for row in mul_table)
            if len(mul_table) != n or any(len(row) != n for row in mul_table):
                raise GradingError("product table must match size")
            for i in rng:
                for j in rng:
                    if mul_table[i][j] not in rng:
                        raise GradingError("product entries must be element indices")
                    if mul_table[i][j] != mul_table[j][i]:
                        raise GradingError("product is not commutative")
            for a in rng:
                for b in rng:
                    for c in rng:
                        if mul_table[a][table[b][c]] != table[mul_table[a][b]][mul_table[a][c]]:
                            raise GradingError(
                                "product does not distribute at (%d,%d,%d)" % (a, b, c))
            self.mul_table = mul_table
            self.has_mul = True

    def zero(self):
        return 0

    def add(self, i, j):
        return self.table[i][j]

    def mul(self, i, j):
        if self.mul_table is None:
            raise GradingError("this table has no declared product")
        return self.mul_table[i][j]

    def parity(self, i) -> int:
        return self.parity_bits[i]

    def sort_key(self, i):
        return i

    def check_element(self, i):
        if not isinstance(i, int) or not 0 <= i < self.size:
            raise GradingError("%r is out of range for a table of size %d" % (i, self.size))
        return i

    def elements(self):
        return range(self.size)

    def cancellation_witness(self):
        for x in range(self.size):
            row = self.table[x]
            for y in range(self.size):
                for z in range(y + 1, self.size):
                    if row[y] == row[z]:
                        return (x, y, z)
        return None

    def format_element(self, i) -> str:
        return self.names[i]

    def _key(self):
        return (self.kind, self.table, self.parity_bits, self.mul_table)


# ---------------------------------------------------------------------------
# element-level helpers
# ---------------------------------------------------------------------------

def parity_of(spec: GradingSpec, i) -> int:
    return spec.parity(spec.check_element(i))


def parity_counts(spec: GradingSpec) -> tuple:
    """The number of even and of odd elements of a finite monoid.

    A cyclic product's parity is zero or a homomorphism onto Z_2, whose
    kernel has index 2, so its counts need no enumeration."""
    if not spec.is_finite:
        raise GradingError("cardinality comparison needs a finite monoid")
    if isinstance(spec, CyclicProduct):
        n = prod(spec.orders)
        return (n, 0) if spec._parity_axis is None else (n // 2, n // 2)
    bits = [spec.parity(e) for e in spec.elements()]
    return len(bits) - sum(bits), sum(bits)


# ---------------------------------------------------------------------------
# group completion
# ---------------------------------------------------------------------------

class KGroupElement:
    """A formal difference pos - neg of two monoid elements."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos, neg):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __setattr__(self, name, value):
        raise AttributeError("KGroupElement is immutable")

    def __eq__(self, other):
        if type(other) is not KGroupElement:
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self):
        return hash((self.pos, self.neg))

    def __repr__(self):
        return "KGroupElement(pos=%r, neg=%r)" % (self.pos, self.neg)


def k_element(spec: GradingSpec, pos, neg=None) -> KGroupElement:
    """The checked difference pos - neg; without neg, the embedding of pos."""
    return KGroupElement(spec.check_element(pos),
                         spec.zero() if neg is None else spec.check_element(neg))


def k_add(spec: GradingSpec, a: KGroupElement, b: KGroupElement) -> KGroupElement:
    return KGroupElement(spec.add(a.pos, b.pos), spec.add(a.neg, b.neg))


def k_mul(spec: GradingSpec, a: KGroupElement, b: KGroupElement) -> KGroupElement:
    # (p1 - n1)(p2 - n2) = (p1 p2 + n1 n2) - (p1 n2 + n1 p2)
    pos = spec.add(spec.mul(a.pos, b.pos), spec.mul(a.neg, b.neg))
    neg = spec.add(spec.mul(a.pos, b.neg), spec.mul(a.neg, b.pos))
    return KGroupElement(pos, neg)


def k_eq(spec: GradingSpec, a: KGroupElement, b: KGroupElement) -> bool:
    """Equality of the represented difference classes.

    For cancellative monoids the empty witness decides; otherwise the
    monoid is a finite table, the only kind with a cancellation witness,
    and every element is tried as a witness.
    """
    lhs = spec.add(a.pos, b.neg)
    rhs = spec.add(a.neg, b.pos)
    if lhs == rhs:
        return True
    if spec.is_cancellative():
        return False
    return any(spec.add(lhs, c) == spec.add(rhs, c) for c in spec.elements())


def k_parity(spec: GradingSpec, e: KGroupElement) -> int:
    return (spec.parity(e.pos) + spec.parity(e.neg)) % 2


def format_k(spec: GradingSpec, e: KGroupElement) -> str:
    if e.neg == spec.zero():
        return spec.format_element(e.pos)
    return "%s-%s" % (spec.format_element(e.pos), spec.format_element(e.neg))


# The non-cancellative order-3 monoid used throughout the tests: 0 is the
# identity, a+a = b, a+b = a, b+b = b; parity 0,1,0 on (0, a, b).
EXAMPLE_TABLE3 = ((0, 1, 2), (1, 2, 1), (2, 1, 2))
EXAMPLE_TABLE3_PARITY = (0, 1, 0)
EXAMPLE_TABLE3_NAMES = ("0", "a", "b")
