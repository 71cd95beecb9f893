"""Graded coordinate domains and the morphisms between them.

A morphism is given entirely by coordinate images: one degree-0 element per
target base coordinate and one homogeneous element per target generator.
Pulling back an arbitrary element substitutes those images, extending base
coefficients through `continuation`.  Underlying point maps, homomorphism
property runs and atlas cocycle checking live here; the split-model
constructor from graded vector-bundle data is in `structure`.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .basecoeff import BasePoly, integer_form, integer_point, integer_value, power
from .galgebra import GeneratorSpec, GradedElement, TermSum
from .grading import format_number
from .reporting import CheckReport
from .sampling import (grid_points, grid_size, point_bits, random_element,
                       random_homogeneous, random_point_in)

DEFAULT_RANGE_SAMPLES = 12

# A range check is refused before it evaluates when one of its values may
# have more than MAX_RANGE_BITS bits, or its work may pass MAX_RANGE_WORK
# units of about 2.5 ns: 2048 per sample point, plus 128 and the value's
# bits per term of a base image and per denominator.  At the work limit a
# check takes 0.7 to 1.6 s (2-vCPU VM, Python 3.11), and the identity on
# ten bounded axes, 3^10 grid points, is within it.
MAX_RANGE_BITS = 1 << 18
MAX_RANGE_WORK = 1 << 29

# A substitution (`pullback`, `compose`, `continuation`) is refused before
# a product of two elements whose base terms make more than
# MAX_PRODUCT_PAIRS pairs, at about 3 us a pair: at the limit the product
# takes about 0.8 s (2-vCPU VM, Python 3.11).  The benchmark's products
# make at most 336 pairs.
MAX_PRODUCT_PAIRS = 1 << 18


class MorphismError(ValueError):
    """Invalid morphism or atlas data: degree violations, spec mismatches,
    or sampled range-condition failures."""


class RangeViolation(MorphismError):
    """A sampled base point left the box it was required to land in."""


# ---------------------------------------------------------------------------
# boxes and domains
# ---------------------------------------------------------------------------

def _check_box(box, nvars: int):
    if box is None:
        return tuple((None, None) for _ in range(nvars))
    box = tuple((None if lo is None else Fraction(lo),
                 None if hi is None else Fraction(hi)) for lo, hi in box)
    if len(box) != nvars:
        raise MorphismError("box has %d intervals, expected %d" % (len(box), nvars))
    for lo, hi in box:
        if lo is not None and hi is not None and lo > hi:
            raise MorphismError("empty interval [%s, %s]" % (lo, hi))
    return box


def intersect_boxes(a, b):
    """Componentwise intersection; None if some interval comes out empty."""
    out = []
    for (lo1, hi1), (lo2, hi2) in zip(a, b):
        lo = lo1 if lo2 is None else (lo2 if lo1 is None else max(lo1, lo2))
        hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
        if lo is not None and hi is not None and lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def box_within(inner, outer) -> bool:
    for (li, hi_), (lo, ho) in zip(inner, outer):
        if lo is not None and (li is None or li < lo):
            return False
        if ho is not None and (hi_ is None or hi_ > ho):
            return False
    return True


class DomainSpec:
    """A coordinate patch: a generator spec plus an axis-aligned rational box
    (or unbounded axes) for the base coordinates."""

    def __init__(self, genspec: GeneratorSpec, box=None):
        self.genspec = genspec
        self.box = _check_box(box, genspec.nvars)

    @property
    def n(self) -> int:
        return self.genspec.nvars

    def sample_points(self, count: int, seed: int = 0) -> list:
        """The range check's points: the 3-per-axis grid, then `count`
        points drawn from Random(seed).  The rational points and their
        order depend on (box, count, seed) alone; each comes in exact
        `integer_point` form."""
        rng = Random(seed)
        return [integer_point(p) for p in grid_points(self.box)] + [
            integer_point(random_point_in(rng, self.box)) for _ in range(count)]

    def __eq__(self, other):
        return (isinstance(other, DomainSpec) and self.genspec == other.genspec
                and self.box == other.box)

    def __hash__(self):
        return hash((self.genspec, self.box))

    def __repr__(self):
        return "DomainSpec(n=%d, ngens=%d, box=%r)" % (
            self.n, self.genspec.ngens, self.box)


# ---------------------------------------------------------------------------
# analytic continuation of base coefficients
# ---------------------------------------------------------------------------

def continuation(g: BasePoly, images) -> GradedElement:
    """Extend the base polynomial g to graded arguments.

    Each image must be a degree-0 element; the result is g evaluated on
    them, which for polynomial g coincides with the Taylor expansion around
    the images' bodies (the nilpotent shifts terminate on their own).  With
    generator-free images this is plain polynomial composition.
    """
    images = list(images)
    if len(images) != g.nvars:
        raise MorphismError("need %d images, got %d" % (g.nvars, len(images)))
    if not images:
        raise MorphismError("cannot infer the target algebra of a constant")
    spec = images[0].spec
    zero_deg = spec.grading.zero()
    for mu, y in enumerate(images):
        if y.spec != spec:
            raise MorphismError("images live over different generator specs")
        if not y.degrees() <= {zero_deg}:
            raise MorphismError("image of x%d is not of degree zero" % (mu + 1))
    return _substitute(g, spec, images, {})


def _check_pairs(x: GradedElement, y: GradedElement) -> None:
    """Refuse x * y when its base terms make more than MAX_PRODUCT_PAIRS pairs."""
    if (sum([len(p.terms) for p in x.terms.values()])
            * sum([len(p.terms) for p in y.terms.values()]) > MAX_PRODUCT_PAIRS):
        raise MorphismError("a substitution needs a product of more than %d pairs of "
                            "terms, the limit for a product" % MAX_PRODUCT_PAIRS)


def _times(x: GradedElement, y: GradedElement) -> GradedElement:
    _check_pairs(x, y)
    return x * y


def _power(images, cache: dict, i: int, e: int) -> GradedElement:
    """images[i] ** e, memoized in cache under (i, e)."""
    p = cache.get((i, e))
    if p is None:
        p = cache[(i, e)] = power(images[i], e, GradedElement.one(images[i].spec), _times)
    return p


def _substitute(g: BasePoly, spec: GeneratorSpec, images, cache: dict) -> GradedElement:
    """g evaluated on checked degree-0 images, summed in one pass, with the
    images' powers memoized in cache."""
    total = TermSum(spec)
    for exps, coeff in g.terms.items():
        term = None
        for mu, e in enumerate(exps):
            if e:
                p = _power(images, cache, mu, e)
                term = p if term is None else _times(term, p)
        if term is None:
            term = GradedElement.one(spec)
        total.add(term, BasePoly.const(spec.nvars, coeff))
    return total.element()


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def _identity_images(spec: GeneratorSpec) -> tuple:
    """(base images, generator images) of the identity map of spec."""
    return (tuple(GradedElement.variable(spec, mu + 1) for mu in range(spec.nvars)),
            tuple(GradedElement.gen(spec, pos) for pos in range(spec.ngens)))


class Morphism:
    """A morphism of graded domains, stored as its coordinate images.

    Degree constraints are enforced at construction; the requirement that
    the underlying point map send the source box into the target box is
    checked on a deterministic grid plus `samples` random points drawn
    from `seed`, within the range-check budget and only when the target
    box has a bound, and a violation is a hard error; `restrict` and
    `compose` reuse this sampling policy.  The images are never changed
    after construction, so the powers that `pullback` raises them to are
    cached on the morphism.
    """

    def __init__(self, source: DomainSpec, target: DomainSpec, base_images,
                 gen_images, samples: int = DEFAULT_RANGE_SAMPLES, seed: int = 0):
        self.source = source
        self.target = target
        base_images = tuple(base_images)
        gen_images = tuple(gen_images)
        src = source.genspec
        tgt = target.genspec
        if len(base_images) != tgt.nvars:
            raise MorphismError("need %d base images, got %d"
                                % (tgt.nvars, len(base_images)))
        if len(gen_images) != tgt.ngens:
            raise MorphismError("need %d generator images, got %d"
                                % (tgt.ngens, len(gen_images)))
        if src.grading != tgt.grading:
            raise MorphismError("source and target use different gradings")
        zero_deg = src.grading.zero()
        for mu, y in enumerate(base_images):
            if y.spec != src:
                raise MorphismError("base image %d is not over the source" % (mu + 1))
            if not y.degrees() <= {zero_deg}:
                raise MorphismError("image of x%d must be homogeneous of degree zero"
                                    % (mu + 1))
        for pos, eta in enumerate(gen_images):
            if eta.spec != src:
                raise MorphismError("generator image %d is not over the source" % pos)
            want = tgt.generators[pos].degree
            if not eta.degrees() <= {want}:
                raise MorphismError(
                    "image of generator %d must be homogeneous of degree %s"
                    % (pos, src.grading.format_element(want)))
        self.base_images = base_images
        self.gen_images = gen_images
        self.samples = samples
        self.seed = seed
        self._base_powers: dict = {}
        self._gen_powers: dict = {}
        _check_range(self, target.box, samples, seed,
                     "range condition fails: point %s maps to %s outside the target box")

    @classmethod
    def identity(cls, domain: DomainSpec) -> "Morphism":
        return cls(domain, domain, *_identity_images(domain.genspec))

    def restrict(self, box) -> "Morphism":
        return Morphism(DomainSpec(self.source.genspec, box), self.target,
                        self.base_images, self.gen_images, self.samples, self.seed)

    def pullback(self, f: GradedElement) -> GradedElement:
        """Substitute coordinate images for coordinates throughout f."""
        if f.spec != self.target.genspec:
            raise MorphismError("element does not live over the morphism's target")
        src = self.source.genspec
        total = TermSum(src)
        for beta, poly in f.terms.items():
            term = _substitute(poly, src, self.base_images, self._base_powers)
            powers = [_power(self.gen_images, self._gen_powers, pos, e)
                      for pos, e in enumerate(beta) if e]
            if not powers:
                total.add(term)
                continue
            # multiply left to right, as the term is written, and let the
            # last product land in the sum directly
            for p in powers[:-1]:
                term = _times(term, p)
            _check_pairs(term, powers[-1])
            total.add_product(term, powers[-1])
        return total.element()

    def underlying_map(self):
        """The point map between the base boxes: the bodies of the base images."""
        return [y.body() for y in self.base_images]

    @property
    def images(self) -> tuple:
        return self.base_images, self.gen_images

    def __eq__(self, other):
        return (isinstance(other, Morphism) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __repr__(self):
        return "Morphism(%r -> %r)" % (self.source, self.target)


def compose(first: Morphism, second: Morphism) -> Morphism:
    """The composite domain map running first, then second; its pullback is
    the pullback of second followed by the pullback of first.  Both range
    checks use first's sampling policy."""
    if first.target.genspec != second.source.genspec:
        raise MorphismError("cannot compose: middle generator specs differ")
    _check_range(first, second.source.box, first.samples, first.seed,
                 "cannot compose: point %s leaves the second source box at %s")
    # refuse the composite's range check before any pullback: its base
    # images have at most second's degree times first's top degree
    top = max((b.degree() for b in first.underlying_map()), default=0)
    _check_work(first.source.box, first.samples, second.target.box,
                [(1, top * b.degree()) for b in second.underlying_map()])
    return Morphism(first.source, second.target,
                    [first.pullback(y) for y in second.base_images],
                    [first.pullback(eta) for eta in second.gen_images],
                    first.samples, first.seed)


def _check_work(source_box, samples: int, box, forms) -> bool:
    """Whether a range check into box, at the sample points of source_box,
    has work to do: none when box has no bound.  Refuses one past the
    budget for base images of (term count, degree) `forms`."""
    if all(bound == (None, None) for bound in box):
        return False
    bits = point_bits(source_box)
    if max((d for _, d in forms), default=0) * bits > MAX_RANGE_BITS:
        raise MorphismError("a range check may compute a number of more than %d bits, "
                            "the limit for a range check" % MAX_RANGE_BITS)
    if (grid_size(source_box) + samples) * (2048 + sum(
            (t + 1) * (128 + d * bits) for t, d in forms)) > MAX_RANGE_WORK:
        raise MorphismError("a range check may take more than %d units of work, the "
                            "limit for a range check" % MAX_RANGE_WORK)
    return True


def _check_range(m: Morphism, box, samples: int, seed: int, message: str):
    """Sampled range condition: the underlying map of m sends every sample
    point of its source (`DomainSpec.sample_points`) into box; message
    formats the first failure.  Evaluation is exact in integers: each body's
    value is one integer over a positive denominator, compared with each
    bound by cross-multiplication, and Fractions only format a failure."""
    bodies = m.underlying_map()
    if not _check_work(m.source.box, samples, box,
                       [(len(b.terms), b.degree()) for b in bodies]):
        return
    forms = [integer_form(b) for b in bodies]
    bounds = [tuple(None if b is None else (b.numerator, b.denominator) for b in pair)
              for pair in box]
    for p in m.source.sample_points(samples, seed):
        q = [integer_value(f, p) for f in forms]
        for (num, den), (lo, hi) in zip(q, bounds):
            if ((lo is not None and num * lo[1] < lo[0] * den)
                    or (hi is not None and num * hi[1] > hi[0] * den)):
                raise RangeViolation(message % (
                    [format_number(Fraction(n, p[-1])) for n in p[:-1]],
                    [format_number(Fraction(*v)) for v in q]))


def check_homomorphism(m: Morphism, samples: int = 100, seed: int = 0) -> CheckReport:
    """Property run: the pullback is a unital degree-preserving ring map."""
    rng = Random(seed)
    tgt = m.target.genspec
    rep = CheckReport("homomorphism check")
    rep.compare("unit", m.pullback(GradedElement.one(tgt)),
                GradedElement.one(m.source.genspec))
    # probe k: f, g, h, and the pullbacks of f and g that two relations share
    draws = ((random_element(rng, tgt), random_element(rng, tgt), random_homogeneous(rng, tgt))
             for _ in range(samples))
    rep.first_counterexample(
        ((k, f, g, h, m.pullback(f), m.pullback(g)) for k, (f, g, h) in enumerate(draws)),
        ("additivity (%d samples)" % samples, lambda p: (m.pullback(p[1] + p[2]), p[4] + p[5]),
         lambda p: "additivity sample %d" % p[0]),
        ("multiplicativity (%d samples)" % samples,
         lambda p: (m.pullback(p[1] * p[2]), p[4] * p[5]),
         lambda p: "multiplicativity sample %d" % p[0]),
        ("degree preservation (%d samples)" % samples, lambda p: (p[3], m.pullback(p[3])),
         lambda p: "degree sample %d" % p[0], lambda h, ph: ph.degrees() <= h.degrees()))
    return rep


# ---------------------------------------------------------------------------
# atlases
# ---------------------------------------------------------------------------

class Atlas:
    """Charts plus transition morphisms on declared overlaps.

    A transition for the ordered pair (a, b) is a morphism whose source is
    chart a restricted to the overlap box and whose target is chart b; the
    reverse pair must also be declared.
    """

    def __init__(self, charts, transitions, names=None):
        self.charts = list(charts)
        self.names = list(names) if names is not None else [
            "chart%d" % i for i in range(len(self.charts))]
        if len(self.names) != len(self.charts):
            raise MorphismError("need one name per chart")
        self.transitions = dict(transitions)
        for (a, b), t in self.transitions.items():
            if not (0 <= a < len(self.charts) and 0 <= b < len(self.charts)):
                raise MorphismError("transition (%d,%d) references a missing chart" % (a, b))
            if t.source.genspec != self.charts[a].genspec:
                raise MorphismError("transition (%d,%d) source spec mismatch" % (a, b))
            if not box_within(t.source.box, self.charts[a].box):
                raise MorphismError("overlap of (%d,%d) leaves chart %d" % (a, b, a))
            if t.target != self.charts[b]:
                raise MorphismError("transition (%d,%d) must land in chart %d" % (a, b, b))
            if a != b and (b, a) not in self.transitions:
                raise MorphismError("missing reverse transition (%d,%d)" % (b, a))


def check_cocycle(atlas: Atlas) -> CheckReport:
    """Consistency of the transition system: declared self-transitions are
    identities, reverse transitions invert each other on the overlaps, and
    composites around chart triples match the direct transitions.  The
    first leg of each composite, restricted or not, sets the sampling
    policy of its range checks."""
    rep = CheckReport("atlas cocycle check")
    nm = atlas.names

    def composite(locator, passed, first, second, expected, shown, box=None):
        """PASS `passed` if first (restricted to box) then second has the
        images `expected`, else FAIL at locator against shown."""
        try:
            if box is not None:
                first = first.restrict(box)
            comp = compose(first, second)
        except RangeViolation as exc:
            rep.fail(locator, str(exc), "composable")
            return
        if comp.images == expected:
            rep.ok(passed)
        else:
            rep.fail(locator, comp.base_images + comp.gen_images, shown)

    for (a, b), t in sorted(atlas.transitions.items()):
        if a == b:
            if t.images == _identity_images(t.source.genspec):
                rep.ok("self (%s,%s) is the identity" % (nm[a], nm[b]))
            else:
                rep.fail("self (%s,%s)" % (nm[a], nm[b]), "declared transition",
                         "identity")
    for (a, b) in sorted(atlas.transitions):
        if a >= b:
            continue
        t_ab = atlas.transitions[(a, b)]
        t_ba = atlas.transitions[(b, a)]
        for first, second, x, y in ((t_ab, t_ba, a, b), (t_ba, t_ab, b, a)):
            locator = "pair (%s,%s)" % (nm[x], nm[y])
            composite(locator, locator + " inverts", first, second,
                      _identity_images(first.source.genspec), "identity images")
    for (a, b) in sorted(atlas.transitions):
        for c in range(len(atlas.charts)):
            if len({a, b, c}) != 3:
                continue
            if (b, c) not in atlas.transitions or (a, c) not in atlas.transitions:
                continue
            t_ab = atlas.transitions[(a, b)]
            t_ac = atlas.transitions[(a, c)]
            common = intersect_boxes(t_ab.source.box, t_ac.source.box)
            if common is None:
                continue
            locator = "triple (%s,%s,%s)" % (nm[a], nm[b], nm[c])
            composite(locator, locator, t_ab, atlas.transitions[(b, c)], t_ac.images,
                      t_ac.base_images + t_ac.gen_images, box=common)
    return rep
