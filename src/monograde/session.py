"""Session files: one JSON document declaring a grading, domains, and named
objects, so that every command-line run is reproducible from a single input.

Top-level sections: ``format`` (must be 1), ``grading``, ``options``,
``domains``, ``elements``, ``morphisms``, ``derivations``, ``atlases``,
``sequences``.  Rationals may be written as integers or as strings like
``"3/2"``; degrees are integers or integer lists matching the grading's
component count; derivation degrees may be a bare degree or an object
``{"pos": ..., "neg": ...}``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .calculus import CalculusError, Derivation, DescentSequence
from .expr import ExprError, parse_element
from .galgebra import AlgebraError, GeneratorSpec, GradedElement
from .grading import (CyclicProduct, FiniteTable, GradingError, IntPower,
                      KGroupElement, NatPower, Z2Power)
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
        self.domain_declared: dict = {}
        self.elements: dict = {}
        self.element_domain: dict = {}
        self.morphisms: dict = {}
        self.derivations: dict = {}
        self.derivation_domain: dict = {}
        self.atlases: dict = {}
        self.sequences: dict = {}
        self.sequence_domain: dict = {}

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
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SessionError("bad %s %r" % (what, value)) from exc


def _degree(value):
    if isinstance(value, list):
        if not all(isinstance(c, int) for c in value):
            raise SessionError("degree components must be integers")
        return tuple(value)
    if isinstance(value, int):
        return value
    raise SessionError("bad degree %r" % (value,))


def _k_degree(grading, value) -> KGroupElement:
    if isinstance(value, dict):
        if set(value) != {"pos", "neg"}:
            raise SessionError("a split degree needs exactly 'pos' and 'neg'")
        return KGroupElement(grading.check_element(_degree(value["pos"])),
                             grading.check_element(_degree(value["neg"])))
    return KGroupElement(grading.check_element(_degree(value)), grading.zero())


def _box(value, nvars):
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != nvars:
        raise SessionError("box must list one interval per variable")
    out = []
    for pair in value:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SessionError("each interval must be a [lo, hi] pair")
        lo, hi = pair
        out.append((None if lo is None else _rat(lo, "bound"),
                    None if hi is None else _rat(hi, "bound")))
    return out


def _grading(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise SessionError("grading section needs a 'kind'")
    kind = data["kind"]
    try:
        if kind == "nat_power":
            return NatPower(_int(data["k"], "grading size k"))
        if kind == "int_power":
            return IntPower(_int(data["k"], "grading size k"))
        if kind == "z2_power":
            return Z2Power(_int(data["n"], "grading size n"))
        if kind == "cyclic_product":
            return CyclicProduct([_int(q, "cyclic order") for q in data["orders"]])
        if kind == "finite_table":
            return FiniteTable(data["table"], data["parity"],
                               mul_table=data.get("mul"),
                               names=data.get("names"))
    except (KeyError, TypeError) as exc:
        raise SessionError("bad grading section: %s" % exc) from exc
    except GradingError as exc:
        raise SessionError("bad grading: %s" % exc) from exc
    raise SessionError("unknown grading kind %r" % kind)


def _parse(session: Session, text, domain_name: str, what: str) -> GradedElement:
    if not isinstance(text, str):
        raise SessionError("%s must be an expression string" % what)
    spec = session.domains[domain_name].genspec
    try:
        return parse_element(text, spec)
    except ExprError as exc:
        raise SessionError("%s: %s" % (what, exc)) from exc


def load_session(source, truncation: int | None = None, seed: int | None = None,
                 samples: int | None = None) -> Session:
    """Build a session from a file path, a JSON string, or a parsed dict.
    Explicit keyword overrides win over the session's own options."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SessionError("cannot read session file: %s" % exc) from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SessionError("not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise SessionError("session must be a JSON object")
    if data.get("format") != 1:
        raise SessionError("missing or unsupported 'format' (expected 1)")

    s = Session()
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise SessionError("options must be an object")
    s.truncation = _int(opts.get("truncation", 6), "truncation option")
    s.seed = _int(opts.get("seed", 0), "seed option")
    s.samples = _int(opts.get("samples", 200), "samples option")
    if truncation is not None:
        s.truncation = truncation
    if seed is not None:
        s.seed = seed
    if samples is not None:
        s.samples = samples
    s.grading = _grading(data.get("grading"))

    seen: set = set()

    def claim(name, section):
        if not isinstance(name, str) or not name:
            raise SessionError("names must be nonempty strings")
        if name in seen:
            raise SessionError("duplicate name %r (in %s)" % (name, section))
        seen.add(name)

    for name, dom in (data.get("domains") or {}).items():
        claim(name, "domains")
        if not isinstance(dom, dict):
            raise SessionError("domain %r must be an object" % name)
        try:
            nvars = _int(dom.get("vars", 0), "variable count")
            gens = dom.get("generators", [])
            degrees = [s.grading.check_element(_degree(g["degree"])) for g in gens]
            names = [g.get("name") for g in gens]
            spec = GeneratorSpec(s.grading, nvars, degrees,
                                 truncation=s.truncation, names=names)
            s.domains[name] = DomainSpec(spec, _box(dom.get("box"), nvars))
            # canonical position of each generator in declaration order, so
            # that value lists in the file may follow the declaration
            counter: dict = {}
            positions = []
            for d in degrees:
                counter[d] = counter.get(d, 0) + 1
                positions.append(spec.position_of(d, counter[d]))
            s.domain_declared[name] = positions
        except (KeyError, TypeError) as exc:
            raise SessionError("domain %r: %s" % (name, exc)) from exc
        except (GradingError, AlgebraError, MorphismError) as exc:
            raise SessionError("domain %r: %s" % (name, exc)) from exc

    def domain_of(entry, name, section):
        dn = entry.get("domain")
        if dn not in s.domains:
            raise SessionError("%s %r references unknown domain %r"
                               % (section, name, dn))
        return dn

    def to_canonical(values, domain_name, what):
        declared = s.domain_declared[domain_name]
        if len(values) != len(declared):
            raise SessionError("%s needs %d generator entries, got %d"
                               % (what, len(declared), len(values)))
        canon = [None] * len(declared)
        for i, v in enumerate(values):
            canon[declared[i]] = v
        return canon

    for name, entry in (data.get("elements") or {}).items():
        claim(name, "elements")
        if not isinstance(entry, dict):
            raise SessionError("element %r must be an object" % name)
        dn = domain_of(entry, name, "element")
        s.elements[name] = _parse(s, entry.get("expr"), dn, "element %r" % name)
        s.element_domain[name] = dn

    for name, entry in (data.get("morphisms") or {}).items():
        claim(name, "morphisms")
        if not isinstance(entry, dict):
            raise SessionError("morphism %r must be an object" % name)
        src = entry.get("source")
        tgt = entry.get("target")
        if src not in s.domains or tgt not in s.domains:
            raise SessionError("morphism %r references unknown domains" % name)
        base = [_parse(s, t, src, "morphism %r base image" % name)
                for t in entry.get("base_images", [])]
        gens = to_canonical(
            [_parse(s, t, src, "morphism %r generator image" % name)
             for t in entry.get("generator_images", [])],
            tgt, "morphism %r" % name)
        try:
            s.morphisms[name] = Morphism(s.domains[src], s.domains[tgt],
                                         base, gens, samples=s.samples,
                                         seed=s.seed)
        except (MorphismError, AlgebraError) as exc:
            raise SessionError("morphism %r: %s" % (name, exc)) from exc

    for name, entry in (data.get("derivations") or {}).items():
        claim(name, "derivations")
        if not isinstance(entry, dict):
            raise SessionError("derivation %r must be an object" % name)
        dn = domain_of(entry, name, "derivation")
        try:
            degree = _k_degree(s.grading, entry.get("degree"))
        except GradingError as exc:
            raise SessionError("derivation %r: %s" % (name, exc)) from exc
        base = [_parse(s, t, dn, "derivation %r base value" % name)
                for t in entry.get("base_values", [])]
        gens = to_canonical(
            [_parse(s, t, dn, "derivation %r generator value" % name)
             for t in entry.get("generator_values", [])],
            dn, "derivation %r" % name)
        try:
            s.derivations[name] = Derivation(s.domains[dn], degree, base, gens)
        except CalculusError as exc:
            raise SessionError("derivation %r: %s" % (name, exc)) from exc
        s.derivation_domain[name] = dn

    for name, entry in (data.get("atlases") or {}).items():
        claim(name, "atlases")
        if not isinstance(entry, dict):
            raise SessionError("atlas %r must be an object" % name)
        chart_names = entry.get("charts", [])
        if not chart_names or any(c not in s.domains for c in chart_names):
            raise SessionError("atlas %r references unknown charts" % name)
        charts = [s.domains[c] for c in chart_names]
        index = {c: i for i, c in enumerate(chart_names)}
        transitions = {}
        for tr in entry.get("transitions", []):
            src = tr.get("source")
            tgt = tr.get("target")
            if src not in index or tgt not in index:
                raise SessionError("atlas %r transition references unknown charts" % name)
            overlap = _box(tr.get("overlap"), s.domains[src].n)
            base = [_parse(s, t, src, "atlas %r base image" % name)
                    for t in tr.get("base_images", [])]
            gens = to_canonical(
                [_parse(s, t, src, "atlas %r generator image" % name)
                 for t in tr.get("generator_images", [])],
                tgt, "atlas %r transition" % name)
            try:
                source_dom = DomainSpec(s.domains[src].genspec, overlap)
                transitions[(index[src], index[tgt])] = Morphism(
                    source_dom, s.domains[tgt], base, gens,
                    samples=s.samples, seed=s.seed)
            except (MorphismError, AlgebraError) as exc:
                raise SessionError("atlas %r transition (%s,%s): %s"
                                   % (name, src, tgt, exc)) from exc
        try:
            s.atlases[name] = Atlas(charts, transitions, names=chart_names)
        except MorphismError as exc:
            raise SessionError("atlas %r: %s" % (name, exc)) from exc

    for name, entry in (data.get("sequences") or {}).items():
        claim(name, "sequences")
        if not isinstance(entry, dict):
            raise SessionError("sequence %r must be an object" % name)
        dn = domain_of(entry, name, "sequence")
        entries = [_parse(s, t, dn, "sequence %r entry" % name)
                   for t in entry.get("entries", [])]
        try:
            s.sequences[name] = DescentSequence(entries)
        except CalculusError as exc:
            raise SessionError("sequence %r: %s" % (name, exc)) from exc
        s.sequence_domain[name] = dn

    return s
