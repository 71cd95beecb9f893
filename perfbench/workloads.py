"""Seeded session generator and command lists for the three workloads.

The generator is plain Python with no import of monograde: it writes
session JSON files whose algebraic laws hold by construction, and the
command list says which exit code each command must give.  The same seed
gives byte-identical session files and the same command list.

Each workload keeps its structure (gradings, generator counts, truncation
orders, term counts) fixed and lets the seed choose only coefficients,
words and exponents, so the work in one pass changes little from seed to
seed while the inputs still differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

BUNDLED = "sessions"
LAW_COMMANDS = ("check-hom", "verify-atlas", "qk-verify", "check-descent")


@dataclass(frozen=True)
class Command:
    """One `monograde` invocation.

    `key` names the command independently of where its session file lives;
    `law` marks a law check whose report may hold only PASS and NOTE lines;
    `fixed` marks a command whose session does not depend on the seed, so
    its expected stdout is the same under every seed.
    """

    key: str
    argv: tuple
    code: int = 0
    law: bool = False
    fixed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    sessions: tuple          # every session file the commands read
    tail_pct: int            # fixed percentile reported as cmd_tail_ms
    min_commands: int        # a run times at least this many commands


def _command(label: str, argv, path, code: int = 0, fixed: bool = False) -> Command:
    """`argv` run on the session file at `path`; `label` names the session."""
    return Command("%s %s" % (label, " ".join(argv)), tuple(argv) + ("--session", str(path)),
                   code=code, law=argv[0] in LAW_COMMANDS and code == 0, fixed=fixed)


# -- small exact helpers (independent of the library) -----------------------

class Grading:
    """Component-wise degrees of the power gradings used here."""

    def __init__(self, kind: str, k: int):
        self.kind, self.k = kind, k

    def add(self, a, b):
        s = tuple(x + y for x, y in zip(a, b))
        return tuple(c % 2 for c in s) if self.kind == "z2_power" else s

    def zero(self):
        return (0,) * self.k

    @staticmethod
    def parity(d) -> int:
        return sum(d) % 2

    def to_json(self, d):
        return d[0] if self.k == 1 else list(d)

    def token(self, d) -> str:
        return str(d[0]) if self.k == 1 else "(%s)" % ",".join(map(str, d))

    def section(self):
        return {"kind": self.kind, ("n" if self.kind == "z2_power" else "k"): self.k}


def _rat(rng, span=4, den=3) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, den))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _sum(terms) -> str:
    """Join (coefficient, factor list) pairs into an expression string."""
    out = []
    for c, factors in terms:
        body = "*".join([_fmt(abs(c))] + list(factors))
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out) if out else "0"


def _monomial(exps):
    return ["x%d" % (k + 1) if e == 1 else "x%d^%d" % (k + 1, e)
            for k, e in enumerate(exps) if e]


def _poly(rng, nvars, nterms, maxdeg, mindeg=0) -> str:
    """A polynomial with exactly `nterms` distinct monomials of total
    degree between `mindeg` and `maxdeg` (fewer only when not that many
    exist)."""
    pool = [e for e in product(range(maxdeg + 1), repeat=nvars)
            if mindeg <= sum(e) <= maxdeg]
    picked = rng.sample(pool, min(nterms, len(pool)))
    return _sum((_rat(rng), _monomial(e)) for e in sorted(picked))


class Gens:
    """Generator declarations of one domain and the words they span."""

    def __init__(self, grading: Grading, degrees, names=None):
        self.g = grading
        self.degrees = [tuple(d) for d in degrees]
        self.names = names
        seen: dict = {}
        self.tokens = []
        for pos, d in enumerate(self.degrees):
            seen[d] = seen.get(d, 0) + 1
            self.tokens.append(names[pos] if names else
                               "th[%s,%d]" % (grading.token(d), seen[d]))

    def declare(self):
        out = []
        for pos, d in enumerate(self.degrees):
            entry = {"degree": self.g.to_json(d)}
            if self.names:
                entry["name"] = self.names[pos]
            out.append(entry)
        return out

    def words(self, max_len):
        """(factor list, degree, length) of every admissible nonempty word."""
        caps = [1 if self.g.parity(d) else max_len for d in self.degrees]
        out = []
        for exps in product(*(range(c + 1) for c in caps)):
            n = sum(exps)
            if not 1 <= n <= max_len:
                continue
            deg = self.g.zero()
            factors = []
            for pos, e in enumerate(exps):
                for _ in range(e):
                    deg = self.g.add(deg, self.degrees[pos])
                if e:
                    tok = self.tokens[pos]
                    factors.append(tok if e == 1 else "%s^%d" % (tok, e))
            out.append((factors, deg, n))
        return out


def _graded(rng, nvars, words, nterms, poly_terms, poly_deg, poly_mindeg=0) -> str:
    """Sum of `nterms` distinct words, each with a random polynomial factor."""
    picked = rng.sample(words, min(nterms, len(words)))
    return " + ".join("(%s)*%s" % (_poly(rng, nvars, poly_terms, poly_deg, poly_mindeg),
                                   "*".join(w[0])) for w in picked)


def _longest(words):
    """The words of the greatest length present, so that the shape of an
    image does not depend on the seed."""
    top = max(w[2] for w in words)
    return [w for w in words if w[2] == top]


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# -- pullback-scaled ----------------------------------------------------------

# (name, grading kind, components, generator degrees, truncation, base vars)
PULLBACK_SHAPES = (
    ("ip1", "int_power", 1, [(1,), (1,), (-1,), (-1,), (2,), (-2,)], 6, 2),
    ("ip2", "int_power", 2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], 5, 1),
    ("z2", "z2_power", 2, [(1, 0), (1, 0), (0, 1), (1, 1)], 7, 3),
    ("np1", "nat_power", 1, [(1,), (1,), (1,), (2,), (2,), (3,), (3,), (4,)], 5, 2),
)


def _endomorphism(rng, gens: Gens, nvars):
    """Coordinate images of a random endomorphism of one domain.

    Base images are x_mu plus a quadratic monomial plus a nilpotent
    degree-zero tail (where the grading has nonempty degree-zero words);
    generator images are homogeneous of the generator's degree.  Every
    image of a generator has word length >= 1, so the pullback respects
    truncation and is a ring map on the truncated algebra.
    """
    words = gens.words(3)
    zero = gens.g.zero()
    tails = [w for w in words if w[1] == zero and w[2] == 2]
    base = []
    for mu in range(nvars):
        img = "x%d + %s" % (mu + 1, _poly(rng, nvars, 1, 2, 2))
        if tails:
            img += " + " + _graded(rng, nvars, tails, 1, 1, 1, 1)
        base.append(img)
    images = []
    for pos, d in enumerate(gens.degrees):
        same = [w for w in words if w[1] == d and w[0] != [gens.tokens[pos]]]
        img = "%s*%s" % (_fmt(_rat(rng)), gens.tokens[pos])
        if same:
            img += " + " + _graded(rng, nvars, _longest(same), 1, 1, 1, 1)
        images.append(img)
    return base, images


def _split_atlas(rng, gens: Gens, nvars, charts=("A", "B", "C")):
    """A split model on three charts built from per-chart frames.

    Chart a has affine base coordinates x_a = s_a * z + c_a and a linear
    generator frame F_a per degree.  The transition a -> b is
    x_b = s_b (x_a - c_a) / s_a + c_b on the base and F_b F_a^-1 on each
    degree block, so every pair inverts and every triple composes exactly.
    """
    blocks: dict = {}
    for pos, d in enumerate(gens.degrees):
        blocks.setdefault(d, []).append(pos)
    frames = {}
    for c in charts:
        scale = [_rat(rng) for _ in range(nvars)]
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars)]
        mats = {d: _unimodular(rng, len(p)) for d, p in blocks.items()}
        frames[c] = (scale, shift, mats)
    transitions = []
    for a in charts:
        for b in charts:
            if a == b:
                continue
            sa, ca, Fa = frames[a]
            sb, cb, Fb = frames[b]
            base = []
            for mu in range(nvars):
                k = sb[mu] / sa[mu]
                base.append(_sum([(k, ["x%d" % (mu + 1)])]
                                 + ([(cb[mu] - k * ca[mu], [])] if cb[mu] != k * ca[mu] else [])))
            images = [None] * len(gens.degrees)
            for d, positions in blocks.items():
                m = _matmul(Fb[d], _inverse(Fa[d]))
                for i, pi in enumerate(positions):
                    images[pi] = _sum((m[i][j], [gens.tokens[pj]])
                                      for j, pj in enumerate(positions) if m[i][j])
            transitions.append({"source": a, "target": b,
                                "base_images": base, "generator_images": images})
    return {"charts": list(charts), "transitions": transitions}


def _unimodular(rng, n):
    """A random invertible rational matrix: lower times upper triangular
    with nonzero diagonals."""
    lower = [[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-2, 2))
              for j in range(n)] for i in range(n)]
    upper = [[_rat(rng, 3, 2) if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0))
              for j in range(n)] for i in range(n)]
    return _matmul(lower, upper)


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def pullback_scaled(rng, out: Path):
    commands, sessions = [], []
    for name, kind, k, degrees, trunc, nvars in PULLBACK_SHAPES:
        g = Grading(kind, k)
        gens = Gens(g, degrees)
        maps = {}
        for m in ("m0", "m1"):
            base, images = _endomorphism(rng, gens, nvars)
            maps[m] = {"source": "U", "target": "U", "base_images": base,
                       "generator_images": images}
        dense = _graded(rng, nvars, gens.words(3), 8, 2, 2)
        data = {"format": 1, "grading": g.section(),
                "options": {"truncation": trunc, "seed": rng.randrange(1000), "samples": 25},
                "domains": {"U": {"vars": nvars, "generators": gens.declare()}},
                "elements": {"E": {"domain": "U", "expr": dense}},
                "morphisms": maps}
        path = _write(out / ("pb_%s.json" % name), data)
        sessions.append(path)
        for argv in (("check-hom", "m0"), ("check-hom", "m1"), ("compose", "m0", "m1"),
                     ("pullback", "m0", "E"), ("pullback", "m1", "E")):
            commands.append(_command("pb_" + name, argv, path))
    for name, kind, k, degrees, trunc, nvars in PULLBACK_SHAPES[:2]:
        g = Grading(kind, k)
        gens = Gens(g, degrees)
        domains = {c: {"vars": nvars, "generators": gens.declare()} for c in "ABC"}
        data = {"format": 1, "grading": g.section(),
                "options": {"truncation": trunc, "seed": rng.randrange(1000), "samples": 50},
                "domains": domains,
                "atlases": {"split": _split_atlas(rng, gens, nvars)}}
        path = _write(out / ("atlas_%s.json" % name), data)
        sessions.append(path)
        commands.append(_command("atlas_" + name, ("verify-atlas", "split"), path))
    return commands, sessions


# -- calculus-scaled ----------------------------------------------------------

def _qk_copies(rng, m: int):
    """m copies of the bigraded QK model with seeded scalings.

    Per copy i: Q: x_i -> a_i theta_i, psi_i -> b_i phi_i; K: theta_i ->
    c_i psi_i; d = QK + KQ on coordinates: x_i -> a_i c_i psi_i,
    theta_i -> b_i c_i phi_i.  Q^2 = 0, QK + KQ = d and Kd + dK = 0 hold
    on every coordinate, copy by copy.
    """
    gens, q_gen, k_gen, d_gen, q_base, d_base, scale = [], [], [], [], [], [], []
    for i in range(1, m + 1):
        a, b, c = _rat(rng, 3, 2), _rat(rng, 3, 2), _rat(rng, 3, 2)
        scale.append(c)
        gens += [{"degree": [0, 1], "name": "theta%d" % i},
                 {"degree": [1, 0], "name": "psi%d" % i},
                 {"degree": [1, 1], "name": "phi%d" % i}]
        q_base.append("%s*theta%d" % (_fmt(a), i))
        d_base.append("%s*psi%d" % (_fmt(a * c), i))
        q_gen += ["0", "%s*phi%d" % (_fmt(b), i), "0"]
        k_gen += ["%s*psi%d" % (_fmt(c), i), "0", "0"]
        d_gen += ["%s*phi%d" % (_fmt(b * c), i), "0", "0"]
    derivations = {
        "Q": {"domain": "M", "degree": [0, 1], "base_values": q_base, "generator_values": q_gen},
        "K": {"domain": "M", "degree": {"pos": [1, 0], "neg": [0, 1]},
              "base_values": ["0"] * m, "generator_values": k_gen},
        "d": {"domain": "M", "degree": [1, 0], "base_values": d_base, "generator_values": d_gen},
    }
    return gens, derivations, scale


def _tower(rng, m, scale, nterms, phi_power):
    """A descent tower O(0) = sum r theta_i phi_j^e, O(1) = K O(0) =
    sum r c_i psi_i phi_j^e, O(2) = 0; it satisfies the descent
    equations because Q and d kill theta-free phi words."""
    o0, o1 = [], []
    for _ in range(nterms):
        i, j, r = rng.randint(1, m), rng.randint(1, m), _rat(rng)
        tail = [] if not phi_power else ["phi%d^%d" % (j, phi_power) if phi_power > 1 else "phi%d" % j]
        o0.append((r, ["theta%d" % i] + tail))
        o1.append((r * scale[i - 1], ["psi%d" % i] + tail))
    return [_sum(o0), _sum(o1), "0"]


def calculus_scaled(rng, out: Path):
    commands, sessions = [], []
    for name, m, max_words in (("qk2a", 2, (4, 5)), ("qk2b", 2, (4, 5)), ("qk3", 3, ())):
        gens, derivations, scale = _qk_copies(rng, m)
        gspec = Gens(Grading("nat_power", 2), [tuple(g["degree"]) for g in gens],
                     [g["name"] for g in gens])
        elements = {"F%d" % n: {"domain": "M", "expr": _graded(rng, m, gspec.words(4), 24, 2, 2)}
                    for n in range(2)}
        thetas = ["theta%d" % i for i in range(1, m + 1)]
        # inline arguments must not start with "-", or argparse reads an option
        seeds = ["%s*%s" % (_fmt(abs(_rat(rng))), "*".join(thetas)),
                 "%s*%s*phi%d" % (_fmt(abs(_rat(rng))), thetas[0], m)]
        sequences = {"T%d" % n: {"domain": "M", "entries": _tower(rng, m, scale, 4, n)}
                     for n in (1, 2)}
        data = {"format": 1, "grading": {"kind": "nat_power", "k": 2},
                "options": {"truncation": 6, "seed": rng.randrange(1000), "samples": 20},
                "domains": {"M": {"vars": m, "generators": gens}},
                "elements": elements, "derivations": derivations,
                "sequences": sequences}
        path = _write(out / ("%s.json" % name), data)
        sessions.append(path)
        # the qk-verify runs carry most of the compute, so the two-copy
        # models get the lighter commands once and the three-copy model
        # gets them all
        argvs = [("qk-verify", "Q", "K", "d", "--max-word", str(w)) for w in max_words]
        argvs += [("descent", "Q", "K", "d", s) for s in seeds[:1 if max_words else 2]]
        argvs += [("check-descent", "Q", "d", t) for t in sequences]
        argvs += [("bracket", "Q", "K")] + ([] if max_words else [("bracket", "K", "d")])
        argvs += [("apply", "Q", "F0"), ("apply", "d", "F0")] + (
            [] if max_words else [("apply", "K", "F1")])
        commands += [_command(name, argv, path) for argv in argvs]
    return commands, sessions


# -- frontend-mix -------------------------------------------------------------

# Every command on the bundled sessions except the check-hom property runs,
# whose compute dominates; exit code 1 marks the expected failures.
FRONTEND_BUNDLED = (
    ("geometric.json", ("normalize", "f"), 0),
    ("geometric.json", ("normalize", "g"), 0),
    ("geometric.json", ("normalize", "t*t - t^2 + 1"), 0),
    ("geometric.json", ("invert", "f"), 0),
    ("geometric.json", ("invert", "g"), 0),
    ("geometric.json", ("invert", "t"), 1),
    ("geometric.json", ("check-monoid",), 0),
    ("morphisms.json", ("normalize", "nil"), 0),
    ("morphisms.json", ("pullback", "shift", "f"), 0),
    ("morphisms.json", ("pullback", "square", "nil"), 0),
    ("morphisms.json", ("compose", "shift", "square"), 0),
    ("morphisms.json", ("compose", "square", "ident"), 0),
    ("morphisms.json", ("underlying", "shift"), 0),
    ("morphisms.json", ("underlying", "square"), 0),
    ("morphisms.json", ("check-monoid",), 0),
    ("qk_model.json", ("apply", "Q", "obs"), 0),
    ("qk_model.json", ("apply", "K", "theta*psi + x1^2*phi"), 0),
    ("qk_model.json", ("bracket", "Q", "K"), 0),
    ("qk_model.json", ("bracket", "K", "d"), 0),
    ("qk_model.json", ("qk-verify", "Q", "K", "d", "--max-word", "2"), 0),
    ("qk_model.json", ("descent", "Q", "K", "d", "theta"), 0),
    ("qk_model.json", ("check-descent", "Q", "d", "tower"), 0),
    ("qk_model.json", ("check-descent", "Q", "d", "bad_tower"), 1),
    ("qk_model.json", ("check-exact", "Q", "d", "zeros", "zeros"), 0),
    ("table1.json", ("check-monoid",), 0),
    ("two_charts.json", ("verify-atlas", "sign_bundle"), 0),
    ("two_charts.json", ("verify-atlas", "broken_bundle"), 1),
    ("two_charts.json", ("check-monoid",), 0),
)

def frontend_mix(rng, out: Path):
    commands = []
    sessions = sorted({"%s/%s" % (BUNDLED, s) for s, _, _ in FRONTEND_BUNDLED})
    for sess, argv, code in FRONTEND_BUNDLED:
        commands.append(_command(sess[:-5], argv, "%s/%s" % (BUNDLED, sess), code, fixed=True))
    # one generated session of many large named elements: parsing them is
    # session-load work, printing them is render work
    g = Grading("int_power", 1)
    gens = Gens(g, [(1,), (1,), (-1,), (-1,), (2,), (-2,)])
    words = gens.words(3)
    long_words = [w for w in words if w[2] >= 2]
    elements = {}
    for n in range(8):
        elements["E%d" % n] = {"domain": "U", "expr": _graded(rng, 3, words, 24, 3, 3)}
    for n in range(4):
        unit = "%s + %s" % (_fmt(_rat(rng)), _graded(rng, 3, long_words, 24, 3, 3))
        elements["U%d" % n] = {"domain": "U", "expr": unit}
    data = {"format": 1, "grading": g.section(),
            "options": {"truncation": 3, "seed": 0, "samples": 20},
            "domains": {"U": {"vars": 3, "generators": gens.declare()}},
            "elements": elements}
    path = _write(out / "big.json", data)
    sessions.append(path)
    commands += [_command("big", ("normalize", "E%d" % n), path) for n in range(0, 8, 2)]
    commands += [_command("big", ("invert", "U%d" % n), path) for n in range(4)]
    return commands, sessions


BUILDERS = {
    "frontend-mix": (frontend_mix, 90, 100),
    "pullback-scaled": (pullback_scaled, 75, 40),
    "calculus-scaled": (calculus_scaled, 75, 40),
}


def build(name: str, seed: int, out: Path) -> Workload:
    """Write the workload's generated sessions under `out` and return it."""
    builder, tail_pct, min_commands = BUILDERS[name]
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s:%d" % (name, seed))
    commands, sessions = builder(rng, out)
    return Workload(name, tuple(commands), tuple(sessions), tail_pct, min_commands)
