#!/usr/bin/env python3
"""Byte-identity check of the command line against a parent commit.

    python3 tools/diff_parent.py --parent REV --export DIR

Exports REV with `git archive` into DIR (which must not exist yet), then
runs one corpus of command lines through `monograde.cli.main` in a fresh
interpreter per side, the export first and the working tree second, and
compares the SHA-256 digest of each run's (exit code, stdout, stderr).
It prints every mismatch and exits 1 if there is any.

The corpus has four parts:
- every command of the three benchmark workloads at seeds 0-2, from the
  unchanged `perfbench/workloads.py`;
- every single-field mutation of the bundled sessions, with the command
  that `tests/test_cli.py` runs on each (`FUZZ_COMMANDS`) at the
  session's own `samples`, and the mutation test's ten replacement values
  plus five that reach the numeric and string readers;
- the FAIL paths of the probe runner at seeds 0-2: `qk-verify` on the
  length-lowering QK model of `tests/test_calculus.py`, from a generated
  session, and `check_homomorphism` on the truncation-loss morphism of
  `tests/test_morphism.py`.  A session declares one truncation order for
  all its domains, so `check-hom` on a session never loses a word and
  never fails; that morphism (target truncated at 1, source at 4) runs
  through the library, its report printed to stdout;
- error texts and positions: `normalize --domain` of a fixed list of
  malformed and edge-case expressions (`error_texts`) on every bundled
  session that declares a domain.

The generated sessions are written under DIR/.bench_out/diff_parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench"),
                str(ROOT / "tools")]

import workloads  # noqa: E402  (perfbench)
from bench_pairs import export  # noqa: E402
from test_cli import (EXPR_PIECES, FUZZ_COMMANDS, MUTATION_VALUES,  # noqa: E402
                      NORMALIZE_DOMAINS, field_paths, replace_field)

SEEDS = (0, 1, 2)
# the mutation test's values, then five that reach the numeric and string readers
VALUES = MUTATION_VALUES + (0, 3, "", "-1", "1/2")

# Runs each command line of the JSON list in argv[1] through cli.main, and
# each string in it as Python code, in a source tree and prints the digest
# of each (exit code, stdout, stderr).
RUNNER = """
import contextlib, hashlib, io, json, sys
sys.path[:0] = ["src"]
import monograde.cli as cli
with open(sys.argv[1], encoding="utf-8") as fh:
    runs = json.load(fh)
digests = []
for run in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # a list is a command line, a string library code
            code = cli.main(run) if isinstance(run, list) else exec(run, {})
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised %s: %s" % (type(exc).__name__, exc)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    digests.append(hashlib.sha256(record.encode("utf-8")).hexdigest())
print(json.dumps(digests))
"""


def corpus(out: Path) -> list:
    """(label, argv) of every run."""
    runs = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            wl = workloads.build(name, seed, out / ("%s-%d" % (name, seed)))
            runs += [("%s seed %d: %s" % (name, seed, cmd.key), list(cmd.argv))
                     for cmd in wl.commands]
    for name, command in sorted(FUZZ_COMMANDS.items()):
        base = json.loads((ROOT / "sessions" / name).read_text(encoding="utf-8"))
        for i, path in enumerate(field_paths(base)):
            for j, value in enumerate(VALUES):
                data = json.loads(json.dumps(base))
                replace_field(data, path, value)
                session = out / ("%s-%d-%d.json" % (name[:-len(".json")], i, j))
                session.write_text(json.dumps(data), encoding="utf-8")
                runs.append(("%s %s = %s" % (name, list(path), json.dumps(value)),
                             [*command, "--session", str(session)]))
    runs += fail_paths(out)
    for name, domain in sorted(NORMALIZE_DOMAINS.items()):
        session = str(ROOT / "sessions" / name)
        runs += [("%s normalize %r" % (name, text),
                  ["normalize", "--domain", domain, "--session", session, "--", text])
                 for text in error_texts()]
    return runs


# One more digit than the interpreter reads by default, and as many.
LONG, EDGE = "9" * 4301, "9" * 4300


def error_texts() -> list:
    """Malformed and edge-case expressions: each piece of the syntax of
    tests/test_cli.py alone and in every pair, bad generator references,
    zero and missing denominators, '^' without a number, adjacent atoms,
    deep nesting, token boundaries of numbers and of atoms with their
    exponents, a failing text with a large power, the ways a term's atom
    run becomes zero (a power past the truncation order, a word that passes
    it, a zero factor, an odd square) on the generators of geometric.json
    and qk_model.json, and numerals past and at the digit limit in every
    numeric position."""
    texts = list(EXPR_PIECES) + [a + b for a in EXPR_PIECES for b in EXPR_PIECES]
    texts += ["th[", "th[1", "th[1,", "th[1,1", "th[1,1]]", "th[,1]", "th[(1,0,1]",
              "th[(1,0),]", "th[1,1)", "th[- 1,1]", "th[--1,1]", "th [ 1 , 1 ]", "th[1 1]",
              "th[1,-1]", "th[(),1]", "th[(1,),1]", "th[1/2,1]", "th[1,2/3]", "th[1,1]^",
              "th[1,1]^-1", "th1", "th^2", "th[x1,1]", "th[1,x1]", "th[(1,0),1]"]
    texts += ["1/0", "1/00", "x1*2/0", "1/0^2", "0/0", "2^2/0", "2^0/3", "1/", "1/x1",
              "1/-2", "1 / 2", "1/2/3", "1/2^2", "0^0", "x1^", "x1^-1", "t^", "(x1)^", "2^",
              "x1^x1", "x1^^2", "x1^2^3", "(x1)^2^3", "-x1^2", "2x1", "x1 2", "x1x2",
              "x1 x2", "t t", "2 2", "1/2 3", "th[1,1]th[1,1]", "(x1)(x2)", "x1(2)", "2(x1)",
              "", " ", "-", "--x1", "-(-x1)", "((x1))", "x0", "x01", "x99", "\u0663",
              "x\u0663", "x1\u0663", "1/\u0663", "$", "x1 $", "t*$", "x1 + * 2"]
    texts += ["(x1)^2/3", "th[(1/2,0),1]", "x1 x2^2", "2 th[1,1]", "1/ 0", "th[1,1]^2^3",
              "th^1[1,2]", "th ^ 2 [1,1]", "(x1 + x2 + x3 + 1)^20)", "(x1^4 + 1)^100"]
    texts += ["t^5", "0*t^5", "t*t*t*t*t*0", "t^2*(t^3)", "(t^2)^3", "theta*theta*phi",
              "psi*theta*psi", "phi^7", "phi^3*phi^4"]
    texts += ["(" * n + "x1" + ")" * n for n in (99, 100, 101)]
    texts += ["-" * n + "x1" for n in (99, 100, 101)]
    for digits in (LONG, EDGE):
        texts += [form % digits for form in (
            "%s", "1/%s", "x1^%s", "2^%s", "(x1)^%s", "t^%s", "th[%s,1]", "th[-%s,1]",
            "th[(%s,0),1]", "th[1,%s]", "x%s", "x%s^2", "+ %s", "x1 $ %s", "%s $",
            "x1 2 %s", "1/0 %s", "th[1, %s")]
    return list(dict.fromkeys(texts))


# The model of tests/test_calculus.py::test_a_length_lowering_field_is_probed:
# K sends u to 1, and two relations fail at x1*u^2 at truncation 2.
QK_LOWERING = {
    "format": 1, "grading": {"kind": "int_power", "k": 2},
    "options": {"truncation": 2, "seed": 0, "samples": 3},
    "domains": {"M": {"vars": 1, "generators": [
        {"degree": [0, 1], "name": "theta"}, {"degree": [1, 0], "name": "psi"},
        {"degree": [-1, 1], "name": "u"}]}},
    "derivations": {
        "Q": {"domain": "M", "degree": [0, 1], "base_values": ["theta"],
              "generator_values": ["0", "0", "0"]},
        "K": {"domain": "M", "degree": {"pos": [1, 0], "neg": [0, 1]},
              "base_values": ["0"], "generator_values": ["psi", "0", "1"]},
        "d": {"domain": "M", "degree": [1, 0], "base_values": ["psi"],
              "generator_values": ["0", "0", "0"]}}}

# The morphism of tests/test_morphism.py::test_check_homomorphism_reports_truncation_loss:
# t^2 vanishes at truncation 1, but its image (u*v)^2 survives at 4.
TRUNCATION_LOSS = """
from monograde import (DomainSpec, GeneratorSpec, GradedElement, Morphism, NatPower,
                       check_homomorphism)
tgt = GeneratorSpec(NatPower(1), 0, [4], truncation=1, names=["t"])
src = GeneratorSpec(NatPower(1), 0, [2, 2], truncation=4, names=["u", "v"])
uv = GradedElement.gen(src, 0) * GradedElement.gen(src, 1)
m = Morphism(DomainSpec(src), DomainSpec(tgt), [], [uv])
print(check_homomorphism(m, samples=20, seed=%d).text())
"""


def fail_paths(out: Path) -> list:
    """(label, run) of the probe runner's FAIL paths at every seed."""
    session = out / "qk_lowering.json"
    session.write_text(json.dumps(QK_LOWERING), encoding="utf-8")
    runs = []
    for seed in SEEDS:
        runs.append(("qk_lowering seed %d: qk-verify" % seed,
                     ["qk-verify", "Q", "K", "d", "--max-word", "2", "--session",
                      str(session), "--seed", str(seed)]))
        runs.append(("truncation loss seed %d: check_homomorphism" % seed,
                     TRUNCATION_LOSS % seed))
    return runs


def digests(tree: Path, runs_file: Path) -> list:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(runs_file)], cwd=tree,
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("runner failed in %s:\n%s" % (tree, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--export", required=True, type=Path,
                        help="new directory to export the parent into")
    args = parser.parse_args(argv)
    export(args.parent, args.export)
    out = args.export.resolve() / ".bench_out" / "diff_parent"
    out.mkdir(parents=True)
    runs = corpus(out)
    runs_file = out / "runs.json"
    runs_file.write_text(json.dumps([run for _, run in runs]), encoding="utf-8")
    parent = digests(args.export.resolve(), runs_file)
    change = digests(ROOT, runs_file)
    mismatches = [label for (label, _), p, c in zip(runs, parent, change) if p != c]
    for label in mismatches:
        print("MISMATCH %s" % label)
    print("%d runs, %d mismatches" % (len(runs), len(mismatches)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
