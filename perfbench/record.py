#!/usr/bin/env python3
"""Record the expected stdout of every benchmark command.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each command of each workload once as a `monograde` process at the
recording seed and writes perfbench/expected/<workload>.json, holding the
SHA-256 of each command's stdout.  It refuses to write when a command
gives the wrong exit code, writes to stderr, or a law check prints a line
other than PASS or NOTE.  Re-record only when a change to the program is
meant to change its reports.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def record(name: str) -> bool:
    os.chdir(run.ROOT)
    out_dir = run.OUT / ("%s-%d" % (name, run.EXPECTED_SEED))
    wl = workloads.build(name, run.EXPECTED_SEED, out_dir.relative_to(run.ROOT))
    env = run.child_env()
    results = []
    with open(out_dir / "stderr.bin", "w+b") as err_file:
        for cmd in wl.commands:
            _, code, out, err, _ = run.run_process(
                [sys.executable, "-c", run.CLI] + list(cmd.argv), env, err_file)
            results.append((cmd, code, out, err))
    outputs = {cmd.key: run.digest(out) for cmd, _, out, _ in results}
    gate = run.Gate(outputs, run.EXPECTED_SEED)
    for cmd, code, out, err in results:
        gate.check(cmd, code, out, err)
    for problem in gate.problems:
        print("FAIL %s" % problem, file=sys.stderr)
    if gate.failed:
        return False
    path = run.expected_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": run.EXPECTED_SEED, "outputs": outputs},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("recorded %d outputs in %s" % (len(outputs), path.relative_to(run.ROOT)))
    return True


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(workloads.BUILDERS)
    sys.exit(0 if all([record(n) for n in names]) else 1)
