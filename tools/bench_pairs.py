#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --export DIR --label NAME \\
        --seeds 70 71 ...

Exports REV with `git archive` into DIR/parent and the working tree's
tracked files (HEAD with any uncommitted change, through `git stash
create`) into DIR/change; DIR must not exist yet. Both sides thus start
from a fresh tree with no `__pycache__`: a cache left in the working tree
is read by one side only and once passed for a 20-30 % gain in
`cmd_p50_ms` and `setup_s`. (A fresh PYTHONPYCACHEPREFIX would hide such a
cache too, but under PYTHONDONTWRITEBYTECODE=1 every child then recompiles
the standard library: frontend-mix `cmd_p50_ms` read 457 ms instead of
about 140 ms on a 2-vCPU VM.) Then, for every seed and every workload of
BENCHMARK.json, it runs the unchanged `perfbench/run.py --trace 0` for the
benchmark's `run_seconds` once in each export, the parent first at even
seed positions and the change first at odd ones. After the pairs it times
in-process passes: per workload, INPROCESS_ROUNDS rounds, the sides
alternating which goes first, each a fresh interpreter per side that
builds the seed-0 workload, runs one untimed pass of its commands through
`monograde.cli.main` and times the next (perfbench's own
`in_process_pass`, gate included). Session loads are timed the same way:
each round loads every session of the seed-0 workload once untimed and
once timed, which splits `setup_s` into its import and its load. Then it
runs `--trace 1` at seed 0 once per side and workload for the per-layer
metrics.

It writes BENCH_<label>.json at the root of the working tree: the machine,
the Python version, both shas (the working tree's HEAD with a dirty flag
and the revision exported for it) and a digest of each side's src/, every
run's result and which side ran first, each side's failed and attempted
commands per workload, and per workload and end-to-end metric each side's
median and quartiles, the change's wins, and the two rules a claim is
judged by: a gain needs wins in nine tenths of the pairs and a median
difference larger than the parent's quartile spread; no regression needs
the change's median within the metric's bound from BENCHMARK.json. A
metric whose parent spread exceeds its bound is marked unresolved. Each
side's in-process pass and session-load times are recorded with their
medians.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 0
INPROCESS_ROUNDS = 5

# One timed in-process pass of a workload at TRACE_SEED, after an untimed
# one, through perfbench/run.py's own pass and gate; run in a source tree.
INPROCESS = """
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import run
import monograde.cli as cli
name, seed = sys.argv[1], int(sys.argv[2])
wl = run.workloads.build(name, seed, Path(".bench_out") / ("inprocess-%s-%d" % (name, seed)))
expected = json.loads(run.expected_path(name).read_text(encoding="utf-8"))["outputs"]
gate = run.Gate(expected, seed)
run.in_process_pass(wl, gate, cli)
seconds = run.in_process_pass(wl, gate, cli)
print(json.dumps({"seconds": seconds, "failed": gate.failed, "attempted": gate.attempted}))
"""

# One timed load of every session of a workload at TRACE_SEED, after an
# untimed one; run in a source tree.
LOAD = """
import json, sys, time
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from monograde.session import load_session
name, seed = sys.argv[1], int(sys.argv[2])
wl = workloads.build(name, seed, Path(".bench_out") / ("load-%s-%d" % (name, seed)))
paths = [str(path) for path in wl.sessions]
for path in paths:
    load_session(path)
start = time.perf_counter()
for path in paths:
    load_session(path)
print(json.dumps({"seconds": time.perf_counter() - start}))
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def src_digest(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count()}


def run(tree: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """The JSON result line of one perfbench run in `tree`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        raise SystemExit("perfbench/run.py failed in %s:\n%s" % (tree, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def in_process(trees: dict, workload: str, script: str = INPROCESS) -> dict:
    """Per side, the seconds `script` timed in INPROCESS_ROUNDS rounds,
    their median and the sums of any counts it reports besides (the
    commands that failed the gate); and which side went first in each
    round."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = {side: {"passes_s": []} for side in trees}
    out["first"] = []
    for i in range(INPROCESS_ROUNDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out["first"].append(order[0])
        for side in order:
            proc = subprocess.run([sys.executable, "-c", script, workload, str(TRACE_SEED)],
                                  cwd=trees[side], env=env, capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit("in-process pass failed in %s:\n%s"
                                 % (trees[side], proc.stderr[-2000:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            out[side]["passes_s"].append(result.pop("seconds"))
            for key, count in result.items():
                out[side][key] = out[side].get(key, 0) + count
    for side in trees:
        out[side]["median_s"] = statistics.median(out[side]["passes_s"])
    return out


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, metrics) -> dict:
    """Per end-to-end metric: medians, quartiles, wins and the two rules."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in
                 ("parent", "change")}
        parent, change = (statistics.median(sides[s]) for s in ("parent", "change"))
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        q1, _, q3 = quartiles(sides["parent"])
        worse_by = (change - parent) / parent if lower else (parent - change) / parent
        out[name] = {
            "parent_median": parent, "parent_quartiles": [q1, q3],
            "change_median": change, "change_quartiles": quartiles(sides["change"])[::2],
            "change_over_parent": change / parent,
            "change_wins": wins, "pairs": len(pairs),
            "gain_rule_met": wins * 10 >= 9 * len(pairs) and abs(change - parent) > q3 - q1,
            "bound": m["bound"],
            "within_bound": worse_by <= m["bound"],
            "unresolved": (q3 - q1) / parent > m["bound"],
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--export", required=True, type=Path,
                        help="new directory to export the parent into")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    trees = {side: args.export.resolve() / side for side in ("parent", "change")}
    snapshot = git("stash", "create") or git("rev-parse", "HEAD")
    export(args.parent, trees["parent"])
    export(snapshot, trees["change"])
    report = {
        "label": args.label,
        "machine": machine(),
        "python": platform.python_version(),
        "parent": {"sha": git("rev-parse", args.parent), "src_digest": src_digest(trees["parent"])},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                   "exported": snapshot, "src_digest": src_digest(trees["change"])},
        "command": "perfbench/run.py --trace 0 --seconds %s" % seconds,
        "seeds": args.seeds,
        "pairs": {w: [] for w in workloads},
    }
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed, seconds, 0)
            report["pairs"][workload].append(pair)
            print("%s seed %d (%s first): %s" % (workload, seed, order[0], " ".join(
                "%s %.4f/%.4f" % (m["name"], pair["parent"]["metrics"][m["name"]]["value"],
                                  pair["change"]["metrics"][m["name"]]["value"])
                for m in bench["end_to_end"])), flush=True)
    report["summary"] = {w: summarize(pairs, bench["end_to_end"])
                         for w, pairs in report["pairs"].items()}
    report["failed_of_attempted"] = {w: {side: [sum(p[side][k] for p in pairs)
                                                for k in ("failed", "attempted")]
                                         for side in trees}
                                     for w, pairs in report["pairs"].items()}
    report["in_process"] = {"seed": TRACE_SEED, "workloads": {}}
    for w in workloads:
        report["in_process"]["workloads"][w] = result = in_process(trees, w)
        print("%s in-process pass median parent %.4f s, change %.4f s" % (
            w, result["parent"]["median_s"], result["change"]["median_s"]), flush=True)
    report["load"] = {"seed": TRACE_SEED, "workloads": {}}
    for w in workloads:
        report["load"]["workloads"][w] = result = in_process(trees, w, LOAD)
        print("%s session-load median parent %.4f s, change %.4f s" % (
            w, result["parent"]["median_s"], result["change"]["median_s"]), flush=True)
    report["trace"] = {"seed": TRACE_SEED, "runs": {
        w: {side: run(trees[side], w, TRACE_SEED, seconds, 1) for side in trees}
        for w in workloads}}
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
