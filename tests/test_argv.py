"""Command-line reading against an argparse reference.

`cli.read_argv` reads a command line by argparse's conventions without
importing argparse.  The reference below is the argparse front end it
replaced, built from the same `COMMANDS` table; every drawn command line
must get the same outcome from both: the same exit code and the same
choice of stdout or stderr, or the same command, option values and
positionals.
"""

import argparse
import contextlib
import io

from random import Random

from monograde import cli


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monograde")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", required=True)
    for flag in ("--seed", "--samples", "--truncation"):
        common.add_argument(flag, type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--domain", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in cli.COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for arg, _ in cmd.positionals:
            p.add_argument(arg)
        for flag, default in cmd.option.items():
            p.add_argument(flag, type=cli._count, default=default)
    return parser


REFERENCE = reference_parser()


def reference(argv):
    ns = vars(REFERENCE.parse_args(argv))
    cmd = cli.COMMANDS[ns.pop("command")]
    positionals = [ns.pop(arg) for arg, _ in cmd.positionals]
    return cmd, {"--" + dest.replace("_", "-"): value for dest, value in ns.items()}, positionals


def outcome(read, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("read", *read(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, bool(out.getvalue()), bool(err.getvalue())


def read_argv(argv):
    name, values, positionals = cli.read_argv(argv)
    return cli.COMMANDS[name], values, positionals


COMMAND_NAMES = ["normalize", "pullback", "check-monoid", "qk-verify", "descent"]
# flags, unique and ambiguous prefixes, `=` forms, help in its forms, and
# tokens that argparse reads as positionals although they start with "-"
TOKENS = COMMAND_NAMES + [
    "nope", "", "-", "--", "f", "x1", "3", "x", "a b", "-1", "-2.5", "-.5", "-1e3", "-x1^2",
    "- x1", "-x", "--x", "--x=1 2", "---x", "--session", "--sess", "--s", "--se", "--sa",
    "--seed", "--samples", "--t", "--truncation", "--out", "--o", "--domain", "--d",
    "--max-word", "--m", "--pmax", "--p", "--pm=5", "--max=-2", "--session=", "--session=a",
    "--sess=b", "--s=1", "--seed=3", "--seed=x", "--pmax=-1", "--pmax=2", "--out=o", "-h",
    "--help", "--h", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=", "--help=x", "--=x"]


def command_lines(rng, count):
    """Runs of up to eight tokens, and commands with their positionals and
    --session in some order and up to three tokens inserted."""
    for _ in range(count):
        yield [rng.choice(TOKENS) for _ in range(rng.randint(0, 8))]
        name = rng.choice(COMMAND_NAMES)
        body = [rng.choice(["f", "x1", "-1", "- x1", "", "-x1^2", "a b"])
                for _ in cli.COMMANDS[name].positionals]
        body[rng.randint(0, len(body)):0] = ["--session", rng.choice(["s", "-1", "-x", "--"])]
        for _ in range(rng.randint(0, 3)):
            body[rng.randint(0, len(body)):0] = [rng.choice(TOKENS)]
        yield [name] + body


# edges the drawn lines seldom reach: a "--" after the last positional,
# after an option's value or in an option's place, help before an
# ambiguous prefix, and options before the command
EDGES = [["normalize", "--session", "s", "f", "--"], ["normalize", "f", "--session", "s", "--"],
         ["normalize", "f", "--", "--session", "s"], ["normalize", "--session", "--", "f"],
         ["pullback", "m", "--session", "s", "f", "--"], ["normalize", "-h", "--s"],
         ["--foo", "normalize", "-h"], ["--foo", "normalize", "f", "--session", "s"],
         ["-hh"], ["-hx", "normalize"], ["--", "normalize"], ["descent", "-h", "--pmax", "-1"]]


def test_command_lines_read_as_argparse_reads_them():
    for argv in EDGES + list(command_lines(Random(0), 1500)):
        expected = outcome(reference, argv)
        # argparse reads a second "--" in a positional's place as an empty
        # list, which no handler can look up; read_argv keeps the token
        if expected[0] == "read" and [] in expected[3]:
            continue
        assert outcome(read_argv, argv) == expected, argv
