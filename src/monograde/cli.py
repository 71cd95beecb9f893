"""The monograde command line: batch commands over a session file.

Each command is one row of `COMMANDS`: its help text, its positionals, any
extra integer option, and a handler; adding a command means adding one row.
A positional that names a session object says which session table it comes
from, and `main` looks it up before the handler runs.  A handler returns
report lines or a `CheckReport`.

`main` and its `_outcome` alone map results and exceptions to exit codes:
0 for success; 1 for a mathematical failure -- a failed `CheckReport`,
with a located counterexample, or `NotInvertible`, `NotQClosed` or the
`RangeViolation` of a composite, reported as one `FAIL` line; 2 for input
errors -- `SessionError` (which is how the loader reports a session
morphism or transition that leaves its target box), `ExprError`,
`AlgebraError`, `GradingError`, `CalculusError`, `MorphismError` and an
`--out` path that cannot be written, reported on stderr, and bad
arguments, which argparse rejects.
Reports are line-oriented and deterministic for a fixed session and seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from .calculus import (CalculusError, NotQClosed, bracket, check_descent,
                       check_exact, k_sequence, qk_verify)
from .expr import (ExprError, parse_element, render_element, render_generator,
                   render_poly)
from .galgebra import AlgebraError, NotInvertible
from .grading import GradingError, format_k, format_number, parity_counts
from .morphism import (MorphismError, RangeViolation, check_cocycle,
                       check_homomorphism, compose)
from .reporting import CheckReport
from .session import SessionError, load_session

PASS, MATH_FAIL, INPUT_ERROR = 0, 1, 2

# Mathematical failures and the text of their FAIL line.  They are caught
# before the input errors, because NotInvertible is an AlgebraError and
# RangeViolation a MorphismError.
FAILURES = {NotInvertible: "not invertible: ", NotQClosed: "seed not Q-closed: ",
            RangeViolation: ""}
INPUT_ERRORS = (SessionError, ExprError, AlgebraError, GradingError,
                CalculusError, MorphismError, OSError)


def _element(session, args, token: str, spec=None):
    """A named session element, or an inline expression over --domain,
    else over spec, else over the session's sole domain."""
    if token in session.elements:
        return session.elements[token]
    if args.domain or spec is None:
        name = args.domain or session.sole_domain()
        if name not in session.domains:
            raise SessionError("unknown domain %r" % name)
        spec = session.domains[name].genspec
    return parse_element(token, spec)


def _image_lines(spec, base, gens) -> list:
    """One line per base coordinate and per generator: its image or value."""
    return (["x%d -> %s" % (mu + 1, render_element(y)) for mu, y in enumerate(base)]
            + ["%s -> %s" % (render_generator(spec, pos), render_element(e))
               for pos, e in enumerate(gens)])


def _compose(session, args, first, second):
    m = compose(first, second)
    return _image_lines(m.target.genspec, m.base_images, m.gen_images)


def _bracket(session, args, first, second):
    d = bracket(first, second)
    spec = d.domain.genspec
    return (["degree: %s" % format_k(spec.grading, d.degree)]
            + _image_lines(spec, d.base_values, d.gen_values))


def _descent(session, args, Q, K, d, token):
    seq = k_sequence(Q, K, d, _element(session, args, token, Q.domain.genspec),
                     pmax=args.pmax)
    return ["O(%d) = %s" % (p, render_element(e)) for p, e in enumerate(seq)]


def _check_monoid(session, args):
    g = session.grading
    lines = ["monoid kind: %s" % g.kind]
    if g.is_finite:
        even, odd = parity_counts(g)
        counts = [format_number(c, "the parity counts have more than %d digits, "
                                "the limit for the report") for c in (even, odd)]
        witness = g.cancellation_witness()
        if witness is None:
            lines.append("cancellative: yes")
        else:
            x, y, z = (g.format_element(e) for e in witness)
            lines.append("non-cancellative: %s+%s = %s+%s, %s != %s"
                         % (x, y, x, z, y, z))
        lines.append("even part %s, odd part %s: %s"
                     % (*counts, "equal" if even == odd else "unequal"))
    else:
        lines.append("cancellative: yes (structural)")
        lines.append("infinite monoid: cardinality comparison skipped")
    lines.append("parity homomorphism: validated at construction")
    return lines


class Command(NamedTuple):
    help: str
    # (name, session table or None for a plain token), in command-line order
    positionals: tuple
    handler: Callable
    # (flag, default) of an extra nonnegative integer option
    option: tuple | None = None


ELEMENT = ("element", None)
MORPHISM = ("morphism", "morphisms")
Q, K, D = (("q", "derivations"), ("k", "derivations"), ("d", "derivations"))

COMMANDS = {
    "normalize": Command(
        "print the normal form", (ELEMENT,),
        lambda s, a, token: [render_element(_element(s, a, token))]),
    "invert": Command(
        "multiplicative inverse", (ELEMENT,),
        lambda s, a, token: [render_element(_element(s, a, token).invert())]),
    "pullback": Command(
        "pull an element back along a morphism", (MORPHISM, ELEMENT),
        lambda s, a, m, token: [render_element(
            m.pullback(_element(s, a, token, m.target.genspec)))]),
    "compose": Command(
        "compose two morphisms (first, then second)",
        (("first", "morphisms"), ("second", "morphisms")), _compose),
    "underlying": Command(
        "underlying base point map", (MORPHISM,),
        lambda s, a, m: ["x%d -> %s" % (mu + 1, render_poly(p))
                         for mu, p in enumerate(m.underlying_map())]),
    "check-hom": Command(
        "homomorphism property run", (MORPHISM,),
        lambda s, a, m: check_homomorphism(m, samples=s.samples, seed=s.seed)),
    "verify-atlas": Command(
        "cocycle consistency of an atlas", (("atlas", "atlases"),),
        lambda s, a, atlas: check_cocycle(atlas)),
    "bracket": Command(
        "graded commutator of two derivations",
        (("first", "derivations"), ("second", "derivations")), _bracket),
    "apply": Command(
        "apply a derivation to an element", (("derivation", "derivations"), ELEMENT),
        lambda s, a, d, token: [render_element(
            d.apply(_element(s, a, token, d.domain.genspec)))]),
    "qk-verify": Command(
        "verify the QK structure relations", (Q, K, D),
        lambda s, a, q, k, d: qk_verify(q, k, d, max_word=a.max_word,
                                        samples=s.samples, seed=s.seed),
        ("--max-word", 4)),
    "descent": Command(
        "generate the canonical descent tower", (Q, K, D, ("seed_element", None)),
        _descent, ("--pmax", None)),
    "check-descent": Command(
        "verify the descent equations", (Q, D, ("sequence", "sequences")),
        lambda s, a, q, d, seq: check_descent(q, d, seq)),
    "check-exact": Command(
        "verify exactness witnesses",
        (Q, D, ("observables", "sequences"), ("witnesses", "sequences")),
        lambda s, a, q, d, o_seq, p_seq: check_exact(q, d, o_seq, p_seq)),
    "check-monoid": Command(
        "report on the session's grading monoid", (), _check_monoid),
}


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monograde",
        description="exact computations in monoid-graded commutative algebras")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", required=True, help="session JSON file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--truncation", type=int, default=None)
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--domain", default=None, help="domain for inline expressions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, parents=[common])
        for arg, _ in cmd.positionals:
            p.add_argument(arg, metavar=arg.replace("_", "-"))
        if cmd.option:
            flag, default = cmd.option
            p.add_argument(flag, type=_count, default=default)
    return parser


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _outcome(cmd: Command, args):
    """The report lines of a command and its exit code."""
    try:
        session = load_session(args.session, truncation=args.truncation,
                               seed=args.seed, samples=args.samples)
        values = []
        for arg, table in cmd.positionals:
            token = getattr(args, arg)
            if table is not None:
                found = getattr(session, table)
                if token not in found:
                    raise SessionError("no %r among the session's %s" % (token, table))
                token = found[token]
            values.append(token)
        result = cmd.handler(session, args, *values)
    except tuple(FAILURES) as exc:
        return ["FAIL %s%s" % (FAILURES[type(exc)], exc)], MATH_FAIL
    if isinstance(result, CheckReport):
        return [result.text()], PASS if result.passed else MATH_FAIL
    return result, PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, code = _outcome(COMMANDS[args.command], args)
        _emit(lines, args.out)
    except INPUT_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
