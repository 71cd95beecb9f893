"""In-process tracing of monograde's layers, from outside the program.

`Tracer.install` replaces the public functions and methods that
`_targets` lists with wrappers that record one span per call: name, start, end,
parent span and command id.  Spans live in flat in-memory arrays until the
traced pass ends; `Tracer.layer_metrics` then computes each span's self
time as its duration minus the time its direct children cover, and sums
calls, self time and the work counters per layer.  `uninstall` restores
the original objects, so an untraced pass in the same process runs the
program unchanged.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("grading", "basecoeff", "galgebra", "morphism", "calculus",
           "expr", "session", "cli")

_ADD = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
_MUL = ("__mul__", "__rmul__")


def _mul_counts(layer: str, cls):
    """Counter hook for a multiply: term pairs tried and terms produced.
    An operand that is not a `cls` is a scalar, coerced to one term."""
    def terms(x) -> int:
        return len(x.terms) if isinstance(x, cls) else 1

    def after(counts, args, result):
        counts[layer + ".term_pairs"] += terms(args[0]) * terms(args[1])
        counts[layer + ".terms_out"] += terms(result)
    return after


def _galgebra_mul_counts():
    graded = importlib.import_module("monograde.galgebra").GradedElement
    pairs = _mul_counts("galgebra.mul", graded)

    def after(counts, args, result):
        pairs(counts, args, result)
        a, b = args[0], args[1]
        if not isinstance(b, graded):
            return
        # pairs whose joint word length exceeds the truncation order
        cut = a.spec.truncation
        la = Counter(sum(beta) for beta in a.terms)
        lb = Counter(sum(beta) for beta in b.terms)
        counts["galgebra.mul.truncated_out"] += sum(
            na * nb for i, na in la.items() for j, nb in lb.items() if i + j > cut)
    return after


def _chars_after(counts, args, result):
    counts["expr.parse_element.chars"] += len(args[0])


def _bytes_after(counts, args, result):
    counts["expr.render_element.bytes"] += len(result.encode("utf-8"))


def _exit_after(counts, args, result):
    if result:
        counts["cli.nonzero_exits"] += 1


def _targets():
    """(module, class or None, attribute, span name, counter hook)."""
    base_poly = importlib.import_module("monograde.basecoeff").BasePoly
    base_mul, graded_mul = _mul_counts("basecoeff.mul", base_poly), _galgebra_mul_counts()
    out = [("basecoeff", "BasePoly", "__init__", "basecoeff.init", None)]
    out += [("basecoeff", "BasePoly", a, "basecoeff.mul", base_mul) for a in _MUL]
    out += [("basecoeff", "BasePoly", a, "basecoeff.add", None) for a in _ADD]
    out += [("basecoeff", "BasePoly", a, "basecoeff." + a, None)
            for a in ("compose", "partial", "eval")]
    out.append(("galgebra", "GradedElement", "__init__", "galgebra.init", None))
    out += [("galgebra", "GradedElement", a, "galgebra.mul", graded_mul) for a in _MUL]
    out += [("galgebra", "GradedElement", a, "galgebra.add", None) for a in _ADD]
    out += [("galgebra", "GradedElement", "__pow__", "galgebra.pow", None),
            ("galgebra", "GradedElement", "invert", "galgebra.invert", None),
            ("galgebra", "GradedElement", "is_homogeneous", "galgebra.is_homogeneous", None),
            ("galgebra", "GeneratorSpec", "words_up_to", "galgebra.words_up_to", None),
            ("morphism", None, "continuation", "morphism.continuation", None),
            ("morphism", "Morphism", "pullback", "morphism.pullback", None),
            ("morphism", None, "compose", "morphism.compose", None),
            ("morphism", "Morphism", "__init__", "morphism.Morphism_init", None),
            ("morphism", None, "check_homomorphism", "morphism.check_homomorphism", None),
            ("morphism", None, "check_cocycle", "morphism.check_cocycle", None),
            ("calculus", "Derivation", "apply", "calculus.apply", None),
            ("calculus", None, "bracket", "calculus.bracket", None),
            ("calculus", "Derivation", "__init__", "calculus.Derivation_init", None),
            ("calculus", None, "qk_verify", "calculus.qk_verify", None),
            ("calculus", None, "k_sequence", "calculus.k_sequence", None),
            ("calculus", None, "check_descent", "calculus.check_descent", None),
            ("expr", None, "parse_element", "expr.parse_element", _chars_after),
            ("expr", None, "render_element", "expr.render_element", _bytes_after),
            ("expr", None, "render_poly", "expr.render_poly", None),
            ("session", None, "load_session", "session.load_session", None),
            ("cli", None, "main", "cli.main", _exit_after)]
    grading = importlib.import_module("monograde.grading")
    for cls in vars(grading).values():
        if isinstance(cls, type) and issubclass(cls, grading.GradingSpec):
            for op in ("add", "mul", "parity"):
                if op in vars(cls):
                    out.append(("grading", cls.__name__, op, "grading." + op, None))
    return out


# Per-layer metrics: (name, unit).  BENCHMARK.json lists the same names.
def _calls_self(layer, *ops):
    out = []
    for op in ops:
        out += [("%s.%s.calls" % (layer, op), "count"), ("%s.%s.self_s" % (layer, op), "s")]
    return out


METRICS = (
    [("basecoeff.init.calls", "count")]
    + _calls_self("basecoeff", "mul")
    + [("basecoeff.mul.term_pairs", "count"), ("basecoeff.mul.terms_out", "count")]
    + _calls_self("basecoeff", "add", "compose")
    + [("basecoeff.partial.calls", "count"), ("basecoeff.eval.calls", "count")]
    + _calls_self("galgebra", "init", "mul")
    + [("galgebra.mul.term_pairs", "count"), ("galgebra.mul.terms_out", "count"),
       ("galgebra.mul.truncated_out", "count")]
    + _calls_self("galgebra", "add")
    + [("galgebra.pow.calls", "count")]
    + _calls_self("galgebra", "invert", "is_homogeneous")
    + [("galgebra.words_up_to.calls", "count")]
    + _calls_self("morphism", "continuation", "pullback", "compose", "Morphism_init")
    + [("morphism.check_homomorphism.self_s", "s"), ("morphism.check_cocycle.self_s", "s"),
       ("morphism.range_violations", "count")]
    + _calls_self("calculus", "apply", "bracket")
    + [("calculus.Derivation_init.calls", "count"), ("calculus.qk_verify.self_s", "s"),
       ("calculus.k_sequence.self_s", "s"), ("calculus.check_descent.self_s", "s")]
    + [("grading.add.calls", "count"), ("grading.mul.calls", "count"),
       ("grading.parity.calls", "count"), ("grading.self_s", "s")]
    + _calls_self("expr", "parse_element")
    + [("expr.parse_element.chars", "count")]
    + _calls_self("expr", "render_element")
    + [("expr.render_element.bytes", "count"), ("expr.render_poly.calls", "count")]
    + _calls_self("session", "load_session")
    + [("cli.import_s", "s"), ("cli.main.self_s", "s"), ("cli.nonzero_exits", "count"),
       ("trace.overhead_ratio", "ratio")]
)


# filled in by the harness, not from spans
MEASURED_OUTSIDE = ("cli.import_s", "trace.overhead_ratio")


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("H")
        self.cmd = array("l")
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, span, after):
        nid = len(self.names)
        self.names.append(span)
        start, end, parent, name, cmd = self.start, self.end, self.parent, self.name, self.cmd
        stack, counts = self._stack, self.counts
        range_violation = importlib.import_module("monograde.morphism").RangeViolation

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            cmd.append(self.command)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except range_violation:
                counts["morphism.range_violations"] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def install(self):
        mods = {m: importlib.import_module("monograde." + m) for m in MODULES}
        for mod, owner, attr, span, after in _targets():
            if owner is not None:
                cls = getattr(mods[mod], owner)
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span, after))
                continue
            original = getattr(mods[mod], attr)
            wrapped = self._wrap(original, span, after)
            # rebind every module-level name that refers to the function,
            # including `from .x import f` copies in other modules
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict:
        """Calls, self seconds and counters per span name, plus the sums
        the metric list asks for."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = self.names
        for i in range(n):
            span = names[self.name[i]]
            calls[span] += 1
            self_s[span] += end[i] - start[i] - covered[i]
        out = {}
        for metric, _unit in METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[layer]
            elif field == "self_s" and layer == "grading":
                out[metric] = sum(v for k, v in self_s.items() if k.startswith("grading."))
            elif field == "self_s":
                out[metric] = self_s[layer]
            elif metric not in MEASURED_OUTSIDE:
                out[metric] = self.counts[metric]
        return out

    def write_spans(self, path, commands):
        """Write the recorded spans: a JSON header naming the span kinds,
        the commands (a span's command id indexes this list) and the
        arrays' layout, then the raw arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "commands": commands, "count": len(self.start),
                      "arrays": [["start", "d"], ["end", "d"], ["parent", "l"],
                                 ["name", "H"], ["cmd", "l"]]}
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.start, self.end, self.parent, self.name, self.cmd):
                arr.tofile(fh)
