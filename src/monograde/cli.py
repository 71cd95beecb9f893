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
`--out` path that cannot be written, reported on stderr, and a command
line that `read_argv` rejects, which raises SystemExit(2) after a usage
line.  `read_argv` reads the options of every command from `OPTIONS` and
the command's row, so a command process imports no argument parser.
Reports are line-oriented and deterministic for a fixed session and seed.
"""

from __future__ import annotations

import re
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
    if args["--domain"] or spec is None:
        name = args["--domain"] or session.sole_domain()
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
                     pmax=args["--pmax"])
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
    # {flag: default} of an extra nonnegative integer option
    option: dict = {}


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
        lambda s, a, q, k, d: qk_verify(q, k, d, max_word=a["--max-word"],
                                        samples=s.samples, seed=s.seed),
        {"--max-word": 4}),
    "descent": Command(
        "generate the canonical descent tower", (Q, K, D, ("seed_element", None)),
        _descent, {"--pmax": None}),
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
        raise ValueError("must be nonnegative, got %d" % value)
    return value


# flag -> conversion of the options every command takes; each defaults to None
OPTIONS = {"--session": str, "--seed": int, "--samples": int, "--truncation": int,
           "--out": str, "--domain": str}
HELP = ("-h", "--help")
OPTIONS_HELP = """
options:
  -h, --help               show this help and exit
  --session SESSION        session JSON file (required)
  --seed SEED              seed of the random draws
  --samples SAMPLES        number of random samples
  --truncation TRUNCATION  truncation order
  --out OUT                write the report here
  --domain DOMAIN          domain for inline expressions
"""
# a token that reads as a negative number is a positional, as in argparse
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(name) -> str:
    """The usage line of a command, or of the program when name is None."""
    if name is None:
        return "usage: monograde [-h] COMMAND ..."
    cmd = COMMANDS[name]
    return "usage: monograde %s [-h] --session SESSION [options]%s %s" % (
        name, "".join(" [%s N]" % flag for flag in cmd.option),
        " ".join(arg for arg, _ in cmd.positionals))


def _fail(name, message: str):
    """Report a command line error under its usage line, and exit 2."""
    sys.stderr.write("%s\nmonograde: error: %s\n" % (_usage(name), message))
    raise SystemExit(INPUT_ERROR)


def _help(name, flag: str, value):
    """Print help and exit 0; a help flag takes no value, but `-hh` is `-h` twice."""
    if value is not None and (flag == "--help" or not value or value.strip("h")):
        _fail(name, "ignored explicit argument %r" % value)
    if name is None:
        text = "commands:\n" + "".join("  %-14s %s\n" % (command, cmd.help)
                                       for command, cmd in COMMANDS.items())
    else:
        text = COMMANDS[name].help + "\n" + OPTIONS_HELP + "".join(
            "  %-24s a nonnegative integer\n" % (flag + " N") for flag in COMMANDS[name].option)
    sys.stdout.write("%s\n\n%s" % (_usage(name), text))
    raise SystemExit(PASS)


def _option(token: str, flags, name):
    """How a token reads: None for a positional, else (flag, value or None)
    of an option, the flag None for an unknown option.  A unique prefix of
    a long flag names it."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    found = [head] if head in flags else [
        flag for flag in flags if token[1] == "-" and flag.startswith(head)]
    if found[1:]:
        _fail(name, "ambiguous option: %s could match %s" % (token, ", ".join(found)))
    if found:
        return found[0], value if eq else None
    if token[1] == "h":
        return "-h", token[2:]
    if NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def read_argv(argv):
    """The command name, the option values by flag and the positional tokens
    of a command line, read by argparse's conventions: `--flag value` or
    `--flag=value` in any order with the positionals, the last value of an
    option winning, and `--` ending the options.  Help exits 0; any other
    error prints the usage line and the error to stderr and exits 2."""
    # the program's own options come before the command: help, or unknown
    kinds = [None if token == "--" else _option(token, HELP, None) for token in argv]
    at = (kinds + [None]).index(None)
    for kind in kinds[:at]:
        if kind[0]:
            _help(None, *kind)
    name = (argv + [None])[at]
    if name not in COMMANDS:
        _fail(None, "expected a command, found %r" % name)
    cmd, tokens, extras = COMMANDS[name], argv[at + 1:], argv[:at]
    flags = {**OPTIONS, **dict.fromkeys(cmd.option, _count)}
    values = {**dict.fromkeys(OPTIONS), **cmd.option}
    # every token is read before any is used, as argparse does; the "--"
    # past the last token ends an option's value there too
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, HELP + tuple(flags), name) for token in tokens[:end]]
    kinds += ["--"] + [None] * len(tokens)
    positionals, last = [], None
    steps = iter(range(len(tokens)))
    for i in steps:
        kind, full = kinds[i], len(positionals) == len(cmd.positionals)
        if kind is None and not full:
            positionals.append(tokens[i])
            last = i
        elif kind == "--":
            # past the positionals it is an extra, unless it follows the last
            if full and last != i - 1:
                extras.append("--")
        elif kind is None or kind[0] is None:
            extras.append(tokens[i])
        elif kind[0] in HELP:
            _help(name, *kind)
        else:
            flag, value = kind
            if value is None:
                if kinds[i + 1] is not None:
                    _fail(name, "argument %s: expected one argument" % flag)
                value = tokens[next(steps)]
            try:
                values[flag] = flags[flag](value)
            except ValueError as exc:
                _fail(name, "argument %s: %s" % (flag, exc))
    missing = ["--session"] * (values["--session"] is None)
    missing += [arg for arg, _ in cmd.positionals[len(positionals):]]
    if missing or extras:
        _fail(name, "the following arguments are required: " + ", ".join(missing) if missing
              else "unrecognized arguments: " + " ".join(extras))
    return name, values, positionals


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _outcome(cmd: Command, args, tokens):
    """The report lines of a command and its exit code."""
    try:
        session = load_session(args["--session"], truncation=args["--truncation"],
                               seed=args["--seed"], samples=args["--samples"])
        values = []
        for (arg, table), token in zip(cmd.positionals, tokens):
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
    name, args, tokens = read_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        lines, code = _outcome(COMMANDS[name], args, tokens)
        _emit(lines, args["--out"])
    except INPUT_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
