"""Graded derivations and the descent-equation machinery.

A derivation is determined by its values on the coordinates and extended to
everything else by linearity, the graded Leibniz rule over generator words,
and the chain rule on base coefficients.  Its degree lives in the group
completion of the grading monoid, and the Leibniz sign between a derivation
of degree u and an argument of degree i is (-1)**parity(u*i) with the
product taken in the completed semi-ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from random import Random

from .basecoeff import BasePoly
from .galgebra import GradedElement, TermSum
from .grading import (IntPower, KGroupElement, NatPower, k_add, k_element,
                      k_eq, k_mul, k_parity)
from .morphism import DomainSpec
from .reporting import CheckReport, render
from .sampling import random_poly, random_word


# The most entries a descent tower computes past its seed: the bound of an
# open-ended tower, and the largest pmax.
MAX_TOWER = 64


class CalculusError(ValueError):
    """Inconsistent derivation data or mismatched domains."""


class NotQClosed(CalculusError):
    """The seed of a descent sequence must be annihilated by Q."""


class Derivation:
    """A vector field on a graded domain, given by coordinate values.

    Every nonzero value must be homogeneous with degree equal to the
    derivation degree plus the coordinate degree (an equation in the group
    completion); this is validated at construction.
    """

    def __init__(self, domain: DomainSpec, degree: KGroupElement,
                 base_values, gen_values):
        spec = domain.genspec
        grading = spec.grading
        degree = k_element(grading, degree.pos, degree.neg)
        base_values = tuple(base_values)
        gen_values = tuple(gen_values)
        if len(base_values) != spec.nvars:
            raise CalculusError("need %d base values, got %d"
                                % (spec.nvars, len(base_values)))
        if len(gen_values) != spec.ngens:
            raise CalculusError("need %d generator values, got %d"
                                % (spec.ngens, len(gen_values)))
        coords = ([("value on x%d" % (mu + 1), grading.zero()) for mu in range(spec.nvars)]
                  + [("value on generator %d" % pos, g.degree)
                     for pos, g in enumerate(spec.generators)])
        for (what, coord_deg), v in zip(coords, base_values + gen_values):
            if not isinstance(v, GradedElement) or v.spec != spec:
                raise CalculusError("%s does not live over the domain" % what)
            if v.is_zero():
                continue
            degrees = v.degrees()
            if len(degrees) > 1:
                raise CalculusError("%s is not homogeneous" % what)
            (v_degree,) = degrees
            want = k_add(grading, degree, k_element(grading, coord_deg))
            if not k_eq(grading, k_element(grading, v_degree), want):
                raise CalculusError("%s has degree %s, expected derivation degree "
                                    "plus coordinate degree" %
                                    (what, grading.format_element(v_degree)))
        self.domain = domain
        self.degree = degree
        self.base_values = base_values
        self.gen_values = gen_values
        # False when a generator value has a body term, as for d/dtheta: the
        # field lowers word length, and `apply` is no derivation of the
        # truncated algebra
        empty = (0,) * spec.ngens
        self.keeps_word_length = all(empty not in v.terms for v in gen_values)
        # Leibniz sign bit against each generator degree
        self._sign_bits = tuple(
            k_parity(grading, k_mul(grading, degree, k_element(grading, g.degree)))
            for g in spec.generators)
        # Leibniz extension per word, keyed by exponent vector
        self._word_cache: dict = {}

    @classmethod
    def zero(cls, domain: DomainSpec, degree=None) -> "Derivation":
        spec = domain.genspec
        z = GradedElement.zero(spec)
        if degree is None:
            degree = k_element(spec.grading, spec.grading.zero())
        return cls(domain, degree, [z] * spec.nvars, [z] * spec.ngens)

    def is_zero(self) -> bool:
        return (all(v.is_zero() for v in self.base_values)
                and all(v.is_zero() for v in self.gen_values))

    def restrict(self, box) -> "Derivation":
        """Shrink the base box; the symbolic data is untouched."""
        return Derivation(DomainSpec(self.domain.genspec, box), self.degree,
                          self.base_values, self.gen_values)

    def _word_derivative(self, beta) -> GradedElement:
        """Leibniz extension over a word, peeling off its first generator
        in canonical order."""
        out = self._word_cache.get(beta)
        if out is not None:
            return out
        spec = self.domain.genspec
        g = next((g for g, e in enumerate(beta) if e), None)
        if g is None:
            out = GradedElement.zero(spec)
        else:
            rest = beta[:g] + (beta[g] - 1,) + beta[g + 1:]
            out = self.gen_values[g] * GradedElement._raw(
                spec, {rest: BasePoly.const(spec.nvars, 1)})
            tail = GradedElement.gen(spec, g) * self._word_derivative(rest)
            out = out - tail if self._sign_bits[g] else out + tail
        self._word_cache[beta] = out
        return out

    def __call__(self, f: GradedElement) -> GradedElement:
        return self.apply(f)

    def apply(self, f: GradedElement) -> GradedElement:
        spec = self.domain.genspec
        if f.spec != spec:
            raise CalculusError("element does not live over the derivation's domain")
        total = TermSum(spec)
        for beta, poly in f.terms.items():
            # chain rule on the coefficient; base coordinates have degree 0,
            # so no sign appears in front of the second Leibniz summand
            for mu in range(spec.nvars):
                if self.base_values[mu].is_zero():
                    continue
                dp = poly.partial(mu + 1)
                if dp.is_zero():
                    continue
                total.add_product(self.base_values[mu],
                                  GradedElement._raw(spec, {beta: dp}))
            wd = self._word_derivative(beta)
            if not wd.is_zero():
                total.add(wd, poly)
        return total.element()

    def __eq__(self, other):
        if not isinstance(other, Derivation) or self.domain != other.domain:
            return False
        grading = self.domain.genspec.grading
        return (k_eq(grading, self.degree, other.degree)
                and self.base_values == other.base_values
                and self.gen_values == other.gen_values)

    def __repr__(self):
        return "Derivation(degree=%s-%s)" % (self.degree.pos, self.degree.neg)


def _sign_bit(d1: Derivation, d2: Derivation) -> int:
    """The Leibniz sign bit of a pair: 1 when [d1,d2] = d1 d2 + d2 d1."""
    grading = d1.domain.genspec.grading
    return k_parity(grading, k_mul(grading, d1.degree, d2.degree))


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """The graded commutator, again a derivation: its coordinate values are
    the commutator applied to the coordinates."""
    if d1.domain != d2.domain:
        raise CalculusError("derivations live on different domains")
    grading = d1.domain.genspec.grading
    sign = _sign_bit(d1, d2)

    def commute(value1, value2):
        cross = d2.apply(value1)
        out = d1.apply(value2)
        return out + cross if sign else out - cross

    base = [commute(d1.base_values[mu], d2.base_values[mu])
            for mu in range(d1.domain.genspec.nvars)]
    gens = [commute(d1.gen_values[pos], d2.gen_values[pos])
            for pos in range(d1.domain.genspec.ngens)]
    return Derivation(d1.domain, k_add(grading, d1.degree, d2.degree), base, gens)


# ---------------------------------------------------------------------------
# QK structures and descent sequences
# ---------------------------------------------------------------------------

def _exponents_up_to(nvars: int, total: int):
    """Exponent tuples of total degree <= total, in graded order."""
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(total + 1)]
    return sorted((e for e in out if sum(e) <= total), key=lambda e: (sum(e), e))


def _require_degree(grading, deriv: Derivation, pos, neg, what: str):
    want = k_element(grading, pos, neg)
    if not k_eq(grading, deriv.degree, want):
        raise CalculusError("%s must have degree %s-%s" % (what, pos, neg))


def qk_verify(Q: Derivation, K: Derivation, d: Derivation, max_word: int = 4,
              samples: int = 20, seed: int = 0) -> CheckReport:
    """Check the structure relations of the three fields as operator
    identities on every normal-form monomial of bounded word length, plus
    random base-coefficient multiples, unless the coordinates decide them;
    also compare the literal anticommutators against the graded brackets."""
    domain = Q.domain
    spec = domain.genspec
    grading = spec.grading
    if not isinstance(grading, (NatPower, IntPower)) or grading.ncomp != 2:
        raise CalculusError("QK structures need a two-component power grading")
    if K.domain != domain or d.domain != domain:
        raise CalculusError("the three fields live on different domains")
    _require_degree(grading, Q, (0, 1), (0, 0), "Q")
    _require_degree(grading, K, (1, 0), (0, 1), "K")
    _require_degree(grading, d, (1, 0), (0, 0), "d")

    rep = CheckReport("qk structure check")
    words = spec.words_up_to(max_word)
    monomials = [BasePoly._raw(spec.nvars, {e: Fraction(1)})
                 for e in _exponents_up_to(spec.nvars, 2)]
    count = len(words) * len(monomials) + samples

    @cache
    def probes():
        # words_up_to gives admissible words within the truncation order; a
        # sample draws its word, then its coefficient
        rng = Random(seed)
        return [("monomial", GradedElement._raw(spec, {w: mono}))
                for w in words for mono in monomials] + [
            ("sample", GradedElement(spec, {random_word(rng, spec, max_word):
                                            random_poly(rng, spec.nvars)}))
            for _ in range(samples)]

    # The degrees required above give (Q,Q), (Q,K) and (K,d) sign bit 1, so
    # each relation is a graded commutator: Q^2 = [Q,Q]/2, QK+KQ = [Q,K],
    # Kd+dK = [K,d].  When no field lowers word length, that is a derivation
    # of the truncated algebra, fixed by its coordinate values, so the
    # relation holds everywhere iff the bracket equals the rhs.
    qk, kd = bracket(Q, K), bracket(K, d)
    exact = Q.keeps_word_length and K.keeps_word_length and d.keeps_word_length
    zero = GradedElement.zero(spec)
    relations = (
        ("Q^2 = 0", lambda f: (Q(Q(f)), zero), bracket(Q, Q).is_zero()),
        ("QK+KQ = d", lambda f: (Q(K(f)) + K(Q(f)), d(f)), qk == d),
        ("Kd+dK = 0", lambda f: (K(d(f)) + d(K(f)), zero), kd.is_zero()),
    )
    for label, sides, holds in relations:
        # a relation decided on the coordinates has no counterexample
        rep.first_counterexample(
            () if exact and holds else probes(),
            ("%s on %d probes (word length <= %d)" % (label, count, max_word),
             lambda probe: sides(probe[1]),
             lambda probe: "%s at %s %s" % (label, probe[0], render(probe[1]))))

    # graded-bracket forms, for comparison with the literal anticommutators
    rep.note("NOTE bracket [Q,K] %s d as a derivation"
             % ("equals" if qk == d else "differs from"))
    rep.note("NOTE bracket [K,d] %s the zero derivation"
             % ("is" if kd.is_zero() else "is not"))
    return rep


class DescentSequence:
    """A finite tower of homogeneous observables O(0), O(1), ..."""

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise CalculusError("a descent sequence needs at least one entry")
        for p, e in enumerate(entries):
            if not isinstance(e, GradedElement):
                raise CalculusError("entry %d is not an algebra element" % p)
            if not e.is_homogeneous():
                raise CalculusError("entry %d is not homogeneous" % p)
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, p):
        return self.entries[p]

    def __eq__(self, other):
        return isinstance(other, DescentSequence) and self.entries == other.entries

    def __repr__(self):
        return "DescentSequence(%d entries)" % len(self.entries)


def k_sequence(Q: Derivation, K: Derivation, d: Derivation | None,
               O0: GradedElement, pmax: int | None = None) -> DescentSequence:
    """The canonical tower O(p) = K^p O(0) / p! seeded by a Q-closed O(0).

    With pmax omitted, entries are generated until the first zero entry,
    which is included.  Either way at most MAX_TOWER entries follow the seed.
    """
    if pmax is not None and pmax > MAX_TOWER:
        raise CalculusError("pmax is more than %d, the limit for a descent tower"
                            % MAX_TOWER)
    if not O0.is_homogeneous():
        raise CalculusError("the seed must be homogeneous")
    if not Q(O0).is_zero():
        raise NotQClosed("the seed is not annihilated by Q")
    entries = [O0]
    p = 1
    while True:
        if pmax is not None and p > pmax:
            break
        nxt = K(entries[-1]) / Fraction(p)
        entries.append(nxt)
        if pmax is None and nxt.is_zero():
            break
        if pmax is None and p >= MAX_TOWER:
            raise CalculusError("sequence did not terminate; supply pmax")
        p += 1
    return DescentSequence(entries)


def check_descent(Q: Derivation, d: Derivation, seq: DescentSequence) -> CheckReport:
    """The descent equations: Q kills the seed, and Q of each entry equals
    d of the previous one.  Exact equality throughout."""
    rep = CheckReport("descent equation check")
    q0 = Q(seq[0])
    if q0.is_zero():
        rep.ok("p=0 seed is Q-closed")
    else:
        rep.fail("p=0", q0, "0")
    for p in range(1, len(seq)):
        rep.compare("p=%d" % p, Q(seq[p]), d(seq[p - 1]))
    return rep


def check_exact(Q: Derivation, d: Derivation, o_seq: DescentSequence,
                p_seq: DescentSequence) -> CheckReport:
    """Verify that the given witnesses exhibit the tower as exact:
    O(0) = Q P(0) and O(p) = Q P(p) + d P(p-1) for p >= 1.

    The witness tower may be one entry shorter, in which case its missing
    last entry is taken to be zero.
    """
    if len(p_seq) not in (len(o_seq), len(o_seq) - 1):
        raise CalculusError("witness tower has %d entries, expected %d or %d"
                            % (len(p_seq), len(o_seq), len(o_seq) - 1))
    spec = o_seq[0].spec
    witnesses = list(p_seq.entries)
    if len(witnesses) == len(o_seq) - 1:
        witnesses.append(GradedElement.zero(spec))
    rep = CheckReport("exactness check")
    rep.compare("p=0", o_seq[0], Q(witnesses[0]))
    for p in range(1, len(o_seq)):
        rep.compare("p=%d" % p, o_seq[p], Q(witnesses[p]) + d(witnesses[p - 1]))
    return rep
