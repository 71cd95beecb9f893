#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The session generator is deterministic: the same seed gives the same
   command list and byte-identical session files, another seed does not.
2. The correctness gate flags a deliberately altered expected output, an
   altered stdout, a wrong exit code and a FAIL line in a law check, and
   passes the recorded output unchanged.
3. For every workload, a short run prints exactly the end-to-end metrics
   of BENCHMARK.json with --trace 0 and exactly its per-layer metrics
   with --trace 1, with the units it declares and a clean gate.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

FAILURES: list = []


def expect(ok: bool, what: str):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def snapshot(name: str, seed: int, out: Path):
    wl = workloads.build(name, seed, out)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    keys = [(c.key, c.code, c.law, c.fixed) for c in wl.commands]
    return keys, files


def check_generator():
    for name in sorted(workloads.BUILDERS):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            a = snapshot(name, 7, Path(tmp) / "a")
            b = snapshot(name, 7, Path(tmp) / "b")
            c = snapshot(name, 8, Path(tmp) / "c")
        expect(a == b, "%s: seed 7 twice gives identical sessions and commands" % name)
        expect(a[1] != c[1], "%s: seeds 7 and 8 give different sessions" % name)


def check_gate():
    os.chdir(run.ROOT)
    wl = workloads.build("frontend-mix", run.EXPECTED_SEED,
                         (run.OUT / "selfcheck-gate").relative_to(run.ROOT))
    with open(run.expected_path(wl.name), encoding="utf-8") as fh:
        expected = json.load(fh)["outputs"]
    by_key = {c.key: c for c in wl.commands}
    plain = by_key["geometric invert f"]
    law = by_key["two_charts verify-atlas sign_bundle"]
    generated = by_key["big normalize E0"]
    env = run.child_env()
    with open(run.OUT / "selfcheck-gate" / "stderr.bin", "w+b") as err_file:
        results = {c.key: run.run_process([sys.executable, "-c", run.CLI] + list(c.argv),
                                          env, err_file)[1:4] for c in (plain, law, generated)}

    def gate(outputs=expected, seed=run.EXPECTED_SEED):
        return run.Gate(outputs, seed)

    code, out, err = results[plain.key]
    expect(gate().check(plain, code, out, err), "gate passes the recorded output")
    expect(not gate(dict(expected, **{plain.key: run.digest(b"altered\n")})).check(
        plain, code, out, err), "gate flags an altered expected output")
    expect(not gate().check(plain, code, out + b" ", err), "gate flags an altered stdout")
    expect(not gate().check(plain, 1, out, err), "gate flags a wrong exit code")
    expect(not gate().check(plain, code, out, b"error: x\n"), "gate flags output on stderr")

    # a generated session under another seed has no recorded output, so
    # only the repeat rule can catch a change between two runs
    code, out, err = results[generated.key]
    other = gate(seed=run.EXPECTED_SEED + 1)
    first = other.check(generated, code, out, err)
    expect(first and not other.check(generated, code, out + b" ", err),
           "gate flags a repeat that prints other bytes")

    code, out, err = results[law.key]
    failing = out + b"FAIL pair (U,V): lhs=a rhs=b\n"
    expect(not gate(dict(expected, **{law.key: run.digest(failing)})).check(
        law, code, failing, err), "gate flags a FAIL line in a law check")


def check_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in sorted(workloads.BUILDERS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[section]}
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            expect(proc.returncode == 0 and got == want,
                   "%s --trace %d prints every %s metric with its unit" % (name, trace, section))
            expect(result.get("correct") is True and result.get("failed") == 0,
                   "%s --trace %d passes the correctness gate" % (name, trace))


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_generator()
    check_gate()
    check_metrics()
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
