"""Session files: one JSON document declaring a grading, domains, and named
objects, so that every command-line run is reproducible from a single input.

Top-level sections: ``format`` (must be 1), ``grading``, ``options``,
``domains``, ``elements``, ``morphisms``, ``derivations``, ``atlases``,
``sequences``.  Rationals may be written as integers or as strings like
``"3/2"``; degrees are integers or integer lists matching the grading's
component count; derivation degrees may be a bare degree or an object
``{"pos": ..., "neg": ...}``.

The named sections load in the order above through one table of
(section, kind, build) rows, so an entry may refer to earlier sections.
They share one namespace of nonempty names, each entry is an object, and
a library error in an entry is a `SessionError` prefixed with the entry.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .calculus import CalculusError, Derivation, DescentSequence
from .expr import ExprError, parse_element
from .galgebra import AlgebraError, GeneratorSpec, GradedElement
from .grading import (CyclicProduct, FiniteTable, GradingError, IntPower,
                      KGroupElement, NatPower, Z2Power, k_element)
from .morphism import Atlas, DomainSpec, Morphism, MorphismError


class SessionError(ValueError):
    """Malformed or inconsistent session data."""


class Session:
    def __init__(self):
        self.grading = None
        self.truncation = 6
        self.seed = 0
        self.samples = 200
        self.domains: dict = {}
        self.elements: dict = {}
        self.morphisms: dict = {}
        self.derivations: dict = {}
        self.atlases: dict = {}
        self.sequences: dict = {}

    def sole_domain(self):
        if len(self.domains) != 1:
            raise SessionError("no unique domain; name one explicitly")
        return next(iter(self.domains))


def _rat(value, what="number"):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SessionError("%s must be an integer or a string fraction" % what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SessionError("bad %s %r" % (what, value)) from exc


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SessionError("%s must be an integer, not %r" % (what, value))
    try:
        return int(value)
    except ValueError as exc:
        raise SessionError("bad %s %r" % (what, value)) from exc


def _degree(grading, value):
    """A checked degree of the grading, written as an integer or integer list."""
    if isinstance(value, list):
        if not all(isinstance(c, int) for c in value):
            raise SessionError("degree components must be integers")
        value = tuple(value)
    elif not isinstance(value, int):
        raise SessionError("bad degree %r" % (value,))
    return grading.check_element(value)


def _k_degree(grading, value) -> KGroupElement:
    if not isinstance(value, dict):
        return k_element(grading, _degree(grading, value))
    if set(value) != {"pos", "neg"}:
        raise SessionError("a split degree needs exactly 'pos' and 'neg'")
    return k_element(grading, _degree(grading, value["pos"]),
                     _degree(grading, value["neg"]))


def _box(value, nvars):
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != nvars:
        raise SessionError("box must list one interval per variable")
    out = []
    for pair in value:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SessionError("each interval must be a [lo, hi] pair")
        out.append(tuple(None if b is None else _rat(b, "bound") for b in pair))
    return out


def _components(value, what: str) -> int:
    """The integer component count of a grading, refused past MAX_COMPONENTS."""
    n = _int(value, what)
    if n > MAX_COMPONENTS:
        raise SessionError("%s is more than %d, the limit for a grading" % (what, MAX_COMPONENTS))
    return n


def _grading(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise SessionError("grading section needs a 'kind'")
    kind = data["kind"]
    try:
        if kind == "nat_power":
            return NatPower(_components(data["k"], "grading size k"))
        if kind == "int_power":
            return IntPower(_components(data["k"], "grading size k"))
        if kind == "z2_power":
            return Z2Power(_components(data["n"], "grading size n"))
        if kind == "cyclic_product":
            orders = [_int(q, "cyclic order") for q in data["orders"]]
            _components(len(orders), "number of cyclic orders")
            return CyclicProduct(orders)
        if kind == "finite_table":
            # validation checks every triple of elements
            if isinstance(data["table"], list) and len(data["table"]) > MAX_TABLE_ORDER:
                raise SessionError("table order is more than %d, the limit for a grading"
                                   % MAX_TABLE_ORDER)
            return FiniteTable(data["table"], data["parity"],
                               mul_table=data.get("mul"),
                               names=data.get("names"))
    except (KeyError, TypeError) as exc:
        raise SessionError("bad grading section: %s" % exc) from exc
    except GradingError as exc:
        raise SessionError("bad grading: %s" % exc) from exc
    raise SessionError("unknown grading kind %r" % kind)


def _list(entry: dict, field: str, what: str) -> list:
    value = entry.get(field, [])
    if not isinstance(value, list):
        raise SessionError("%s: %r must be a list" % (what, field))
    return value


def _ref(value, names, what: str) -> str:
    """A reference by name, which must be a string among names."""
    if not isinstance(value, str) or value not in names:
        raise SessionError("%s references unknown %r" % (what, value))
    return value


def _parse(text, spec: GeneratorSpec, what: str) -> GradedElement:
    if not isinstance(text, str):
        raise SessionError("%s must be an expression string" % what)
    try:
        return parse_element(text, spec)
    except ExprError as exc:
        raise SessionError("%s: %s" % (what, exc)) from exc


def _exprs(entry: dict, field: str, spec: GeneratorSpec, what: str) -> list:
    return [_parse(t, spec, "%s %s" % (what, field)) for t in _list(entry, field, what)]


# Bounds checked before any word, exponent or degree tuple is built.  At
# them, on geometric.json, `invert g` takes 0.5 s at truncation 256 and
# `invert f` 0.24 s over 1000 variables, as over none; a grading of
# 100,000 components makes `check-monoid` a 0.2-0.5 s process, and a
# finite table of 128 elements with a product table is validated in
# 0.2-0.4 s (cubic in the order: 0.85-1.45 s at 200; 2-vCPU VM).
MAX_TRUNCATION = 256
MAX_VARS = 1000
MAX_COMPONENTS = 100_000
MAX_TABLE_ORDER = 128

# the library errors that make an entry an input error, prefixed with the entry
_ENTRY_ERRORS = (GradingError, AlgebraError, MorphismError, CalculusError)


def load_session(source, truncation: int | None = None, seed: int | None = None,
                 samples: int | None = None) -> Session:
    """Build a session from a file path or a parsed dict.
    Explicit keyword overrides win over the session's own options."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SessionError("cannot read session file: %s" % exc) from exc
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SessionError("not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise SessionError("session must be a JSON object")
    # exactly the integer 1: True and 1.0 compare equal to it
    if type(data.get("format")) is not int or data["format"] != 1:
        raise SessionError("missing or unsupported 'format' (expected 1)")

    s = Session()
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise SessionError("options must be an object")
    for key, override in (("truncation", truncation), ("seed", seed), ("samples", samples)):
        value = _int(opts.get(key, getattr(s, key)), "%s option" % key)
        setattr(s, key, value if override is None else override)
    if s.samples < 0:
        raise SessionError("samples must be nonnegative, got %d" % s.samples)
    if s.truncation > MAX_TRUNCATION:
        raise SessionError("truncation is more than %d, the limit for a session"
                           % MAX_TRUNCATION)
    s.grading = _grading(data.get("grading"))

    def canonical(values, spec, what):
        if len(values) != len(spec.declared):
            raise SessionError("%s needs %d generator entries, got %d"
                               % (what, len(spec.declared), len(values)))
        canon = [None] * len(values)
        for pos, v in zip(spec.declared, values):
            canon[pos] = v
        return canon

    def image(entry, src, tgt, box, what):
        """The morphism from domain src over box to domain tgt that entry gives."""
        spec, target = s.domains[src].genspec, s.domains[tgt]
        base = _exprs(entry, "base_images", spec, what)
        gens = canonical(_exprs(entry, "generator_images", spec, what), target.genspec, what)
        return Morphism(DomainSpec(spec, box), target, base, gens,
                        samples=s.samples, seed=s.seed)

    def domain(entry, what):
        try:
            nvars = _int(entry.get("vars", 0), "variable count")
            if nvars > MAX_VARS:
                raise SessionError("%s: vars is more than %d, the limit for a domain"
                                   % (what, MAX_VARS))
            gens = _list(entry, "generators", what)
            degrees = [_degree(s.grading, g["degree"]) for g in gens]
            spec = GeneratorSpec(s.grading, nvars, degrees, truncation=s.truncation,
                                 names=[g.get("name") for g in gens])
            return DomainSpec(spec, _box(entry.get("box"), nvars))
        except (KeyError, TypeError) as exc:
            raise SessionError("%s: %s" % (what, exc)) from exc

    def domain_of(entry, what):
        return s.domains[_ref(entry.get("domain"), s.domains, what)]

    def morphism(entry, what):
        src, tgt = (_ref(entry.get(k), s.domains, what) for k in ("source", "target"))
        return image(entry, src, tgt, s.domains[src].box, what)

    def derivation(entry, what):
        dom = domain_of(entry, what)
        degree = _k_degree(s.grading, entry.get("degree"))
        base = _exprs(entry, "base_values", dom.genspec, what)
        gens = _exprs(entry, "generator_values", dom.genspec, what)
        return Derivation(dom, degree, base, canonical(gens, dom.genspec, what))

    def atlas(entry, what):
        charts = [_ref(c, s.domains, what) for c in _list(entry, "charts", what)]
        if not charts:
            raise SessionError("%s has no charts" % what)
        index = {c: i for i, c in enumerate(charts)}
        transitions = {}
        for tr in _list(entry, "transitions", what):
            if not isinstance(tr, dict):
                raise SessionError("%s: each transition must be an object" % what)
            src, tgt = (_ref(tr.get(k), index, what + " transition")
                        for k in ("source", "target"))
            leg = "%s transition (%s,%s)" % (what, src, tgt)
            # a transition without an overlap has an unbounded source box
            box = _box(tr.get("overlap"), s.domains[src].n)
            try:
                transitions[(index[src], index[tgt])] = image(tr, src, tgt, box, leg)
            except _ENTRY_ERRORS as exc:
                raise SessionError("%s: %s" % (leg, exc)) from exc
        return Atlas([s.domains[c] for c in charts], transitions, names=charts)

    # (section, kind, build) in load order: an entry refers to earlier sections
    sections = (
        ("domains", "domain", domain),
        ("elements", "element",
         lambda entry, what: _parse(entry.get("expr"), domain_of(entry, what).genspec, what)),
        ("morphisms", "morphism", morphism),
        ("derivations", "derivation", derivation),
        ("atlases", "atlas", atlas),
        ("sequences", "sequence", lambda entry, what: DescentSequence(
            _exprs(entry, "entries", domain_of(entry, what).genspec, what))))
    seen: set = set()  # one namespace for all sections
    for section, kind, build in sections:
        table = data.get(section) or {}
        if not isinstance(table, dict):
            raise SessionError("%s must be an object" % section)
        built = getattr(s, section)
        for name, entry in table.items():
            if not isinstance(name, str) or not name:
                raise SessionError("names must be nonempty strings")
            if name in seen:
                raise SessionError("duplicate name %r (in %s)" % (name, section))
            seen.add(name)
            if not isinstance(entry, dict):
                raise SessionError("%s: %r must be an object" % (section, name))
            what = "%s %r" % (kind, name)
            try:
                built[name] = build(entry, what)
            except _ENTRY_ERRORS as exc:
                raise SessionError("%s: %s" % (what, exc)) from exc
    return s
