#!/usr/bin/env python3
"""Mutation check: does the Tier-1 suite kill a fixed list of mutants?

    python3 tools/mutants.py --export DIR

Each mutant in MUTANTS is one textual replacement in one module under
src/monograde, named, with what it breaks.  For each mutant the tool
exports the working tree's tracked files (HEAD with any uncommitted change,
through `git stash create`) with `git archive` into DIR/<name>, which must
not exist yet, applies the replacement (its old text must occur exactly
once), and runs the Tier-1 suite there with `-x`.  A failing test kills
the mutant.  An equivalent mutant changes nothing the library promises; it
is listed with the reason and is expected to survive.

It prints one line per mutant and writes MUTANTS.json at the root of the
working tree: the digest of src/, the Tier-1 command, and per mutant its
fields, whether it was killed, by which test, and the run's seconds.  It
exits 1 when a mutant that is not equivalent survives or an equivalent one
is killed.  It needs no package beyond the test suite's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import export, git, src_digest  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
         "-p", "no:cacheprovider"]

# (name, module, old text, new text, what it breaks, reason it is equivalent or None)
MUTANTS = [
    ("word-product-multiplicity", "galgebra.py",
     "sign ^= (swap[h][g] * beta[h] * cg) & 1",
     "sign ^= (swap[h][g] * beta[h]) & 1",
     "the sign of a word times a generator's even power that crosses an odd generator: "
     "u*t^2 would read -t^2*u", None),
    ("odd-repeat", "galgebra.py",
     "if e > 1 and parities[g]:",
     "if e > 2 and parities[g]:",
     "the zero from a repeated odd generator: th*th would be a word", None),
    ("truncation", "galgebra.py",
     "if sum(beta) + sum(gamma) > spec.truncation:",
     "if sum(beta) + sum(gamma) >= spec.truncation:",
     "products whose word has exactly the truncation order's length would be dropped", None),
    ("run-sign", "expr.py",
     "sign = product[0] ^ run_sign",
     "sign = product[0]",
     "the sign of a term's atom run after a parenthesised factor: (1 + x1)*th[1,2]*th[1,1] "
     "would read (1 + x1)*th[1,1]*th[1,2]", None),
    ("descent-factorial", "calculus.py",
     "nxt = K(entries[-1]) / Fraction(p)",
     "nxt = K(entries[-1]) / Fraction(max(p - 1, 1))",
     "the 1/p! normalization of a descent tower from its third entry on", None),
    ("count-sign", "cli.py",
     "if value < 0:",
     "if value < -1:",
     "the nonnegative check of --max-word and --pmax: --pmax -1 would reach the descent "
     "tower", None),
    ("session-required", "cli.py",
     'missing = ["--session"] * (values["--session"] is None)',
     "missing = []",
     "the required --session: a command line without one would be read, and fail only "
     "when the session loads", None),
    ("homomorphism-degree", "morphism.py",
     "lambda h, ph: ph.degrees() <= h.degrees()",
     "lambda h, ph: True",
     "nothing: the degree preservation probe of check_homomorphism always passes",
     "the Morphism constructor requires each generator image to be homogeneous of its "
     "generator's degree and each base image to be of degree zero, so a pullback of a "
     "homogeneous element is homogeneous of the same degree or zero"),
]


def first_failure(output: str):
    """The id of the first test the pytest output reports as failed, if any."""
    m = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    return m[1] if m else None


def run(name, module, old, new, breaks, equivalent, tree: Path) -> dict:
    path = tree / "src" / "monograde" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit("mutant %s: its old text occurs %d times in %s"
                         % (name, text.count(old), module))
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    seconds = round(time.perf_counter() - start, 1)
    killed = done.returncode != 0
    return {"name": name, "module": module, "old": old, "new": new, "breaks": breaks,
            "equivalent": equivalent, "killed": killed,
            "killed_by": first_failure(done.stdout) if killed else None, "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--export", required=True, type=Path,
                        help="directory for the exports; must not exist")
    args = parser.parse_args(argv)
    if args.export.exists():
        parser.error("%s exists" % args.export)
    snapshot = git("stash", "create") or git("rev-parse", "HEAD")
    results, bad = [], 0
    for mutant in MUTANTS:
        tree = args.export / mutant[0]
        export(snapshot, tree)
        result = run(*mutant, tree)
        results.append(result)
        expected = result["equivalent"] is None
        bad += result["killed"] != expected
        print("%-28s %-8s %6.1f s  %s" % (
            result["name"], "killed" if result["killed"] else "survived", result["seconds"],
            result["killed_by"] or ("equivalent" if result["equivalent"] else "NOT KILLED")))
    record = {"src_digest": src_digest(ROOT),
              "python": platform.python_version(),
              "tier1": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
              "mutants": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
