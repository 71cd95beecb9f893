#!/usr/bin/env python3
"""The monograde benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it generates the workload's
sessions under .bench_out/, runs monograde from src/, and prints every
metric by name and unit, then one JSON result line.

--trace 0 is the end-to-end run: a closed loop with one client, where
every command is a fresh `monograde` process started only after the
previous one exits.  Whole passes over the command list repeat while one
more fits in S seconds, and until the workload's minimum command count
is reached.
Metrics:
  wall_s       one pass over the command list: the sum over its commands
               of each command's median latency across the run's passes
  cmd_p50_ms   median latency of all command processes
  cmd_tail_ms  the workload's fixed tail percentile of the same samples
               (the highest with ten samples beyond it at the minimum
               command count)
  setup_s      median time a fresh interpreter takes to import monograde
               and load every session of the workload
  peak_rss_mb  largest max-RSS of any command process, from its rusage
The fraction of commands that failed the gate is printed as fail_ratio;
the result line carries it as `failed` out of `attempted`.

--trace 1 is the per-layer run: in one process it alternates an untraced
pass and a traced pass of `monograde.cli.main(argv)` while one more pair
fits in S seconds (at least one pair).  It reports the layers' counts
and self times (lower median over the traced passes; see tracing.py),
cli.import_s from the set-up probes, and trace.overhead_ratio, the
traced over the untraced median pass time.

Both runs gate every command's exit code and stdout (see Gate), and
start the set-up probes between commands or passes (see Probes).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# the entry point an installed `monograde` script runs
CLI = "import sys; from monograde.cli import main; sys.exit(main())"

PROBE = """
import sys, time
t0 = time.perf_counter()
import monograde.cli
t1 = time.perf_counter()
from monograde.session import load_session
for path in sys.argv[1:]:
    load_session(path)
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""
MIN_PROBES = 7       # set-up probes per run at least
PROBE_EVERY = 12     # commands between two set-up probes
EXPECTED_SEED = 0    # seed at which expected outputs were recorded


def expected_path(workload: str) -> Path:
    return HERE / "expected" / ("%s.json" % workload)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Correctness of every command run.

    A command passes when its exit code is the one its session was built
    for, stderr is empty, a law check prints only PASS and NOTE lines, its
    stdout is byte-identical to the recorded output (always for bundled
    sessions, and under the recording seed for generated ones), and it
    prints the same bytes every time it runs in this process.
    """

    def __init__(self, expected: dict, seed: int):
        self.expected = expected
        self.seed = seed
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, cmd, code: int, out: bytes, err: bytes) -> bool:
        bad = []
        if code != cmd.code:
            bad.append("exit %d, expected %d" % (code, cmd.code))
        if err:
            bad.append("stderr %r" % err[:200])
        if cmd.law:
            lines = out.decode("utf-8", "replace").splitlines()
            if not lines or not lines[0].endswith(": PASS") or any(
                    not line.startswith(("PASS ", "NOTE ")) for line in lines[1:]):
                bad.append("law check printed a line that is not PASS or NOTE")
        if cmd.fixed or self.seed == EXPECTED_SEED:
            want = self.expected.get(cmd.key)
            if want is None:
                bad.append("no recorded output")
            elif digest(out) != want:
                bad.append("stdout differs from the recorded output")
        first = self.seen.setdefault(cmd.key, out)
        if first != out:
            bad.append("stdout differs from an earlier run of the same command")
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.append("%s: %s" % (cmd.key, "; ".join(bad)))
        return not bad


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, env, err_file):
    """Run one command to completion; returns (seconds, exit code, stdout,
    stderr, max RSS in KiB) with RSS read from the child's own rusage."""
    err_file.seek(0)
    err_file.truncate()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_file, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_file.seek(0)
    return elapsed, proc.returncode, out, err_file.read(), usage.ru_maxrss


class Probes:
    """Set-up probes: fresh interpreters that import monograde and load
    every session of the workload.  They are spread over the run, between
    commands, so that a few seconds of contention from other processes on
    the machine cannot hit all of them."""

    def __init__(self, wl, env, err_file):
        self.argv = [sys.executable, "-c", PROBE] + list(wl.sessions)
        self.env, self.err_file = env, err_file
        self.imports: list = []
        self.setups: list = []
        self.run(record=False)  # warms the file cache and the bytecode

    def run(self, record=True):
        _, code, out, err, _ = run_process(self.argv, self.env, self.err_file)
        if code != 0:
            raise RuntimeError("setup probe failed: %s" % err.decode("utf-8", "replace"))
        if record:
            imp, setup = map(float, out.split())
            self.imports.append(imp)
            self.setups.append(setup)

    def medians(self):
        while len(self.setups) < MIN_PROBES:
            self.run()
        return statistics.median(self.imports), statistics.median(self.setups)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def closed_loop(wl, gate, seconds, env, err_file, probes):
    """Whole passes over the command list, one process at a time, while
    another pass still fits in the time left or the workload's minimum
    command count is not reached.

    Returns each command's latencies across passes, and the largest max
    RSS of any command process.
    """
    latencies = {cmd.key: [] for cmd in wl.commands}
    count, rss = 0, 0
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for cmd in wl.commands:
            elapsed, code, out, err, maxrss = run_process(
                [sys.executable, "-c", CLI] + list(cmd.argv), env, err_file)
            gate.check(cmd, code, out, err)
            latencies[cmd.key].append(elapsed)
            rss = max(rss, maxrss)
            count += 1
            if count % PROBE_EVERY == 0:
                probes.run()
        now = perf_counter()
        if count >= wl.min_commands and now + (now - t_pass) - t_start > seconds:
            return latencies, rss


def in_process_pass(wl, gate, cli, tracer=None):
    t0 = perf_counter()
    for i, cmd in enumerate(wl.commands):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        gate.check(cmd, code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))
    return perf_counter() - t0


def traced_run(wl, gate, seconds, spans_path, probes):
    sys.path.insert(0, str(SRC))
    import monograde.cli as cli

    untraced, traced, layers = [], [], []
    t_start = perf_counter()
    while True:
        t_pair = perf_counter()
        probes.run()
        untraced.append(in_process_pass(wl, gate, cli))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(in_process_pass(wl, gate, cli, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        tracer.write_spans(spans_path, [c.key for c in wl.commands])
        now = perf_counter()
        if now + (now - t_pair) - t_start > seconds:
            break
    # median_low keeps every value one a traced pass measured, so counts stay whole
    metrics = {name: statistics.median_low(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monograde" / "cli.py").is_file():
        print("error: no monograde source at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    out_dir = OUT / ("%s-%d" % (args.workload, args.seed))
    wl = workloads.build(args.workload, args.seed, out_dir.relative_to(ROOT))
    with open(expected_path(args.workload), encoding="utf-8") as fh:
        expected = json.load(fh)["outputs"]
    gate = Gate(expected, args.seed)
    env = child_env()

    with open(out_dir / "stderr.bin", "w+b") as err_file:
        probes = Probes(wl, env, err_file)
        if args.trace:
            metrics, passes = traced_run(wl, gate, args.seconds, out_dir / "spans.bin", probes)
            metrics["cli.import_s"] = probes.medians()[0]
            units = dict(tracing.METRICS)
            report = {name: (metrics[name], units[name]) for name, _ in tracing.METRICS}
            print("workload %s seed %d: %d traced passes of %d commands"
                  % (wl.name, args.seed, passes, len(wl.commands)))
        else:
            latencies, rss = closed_loop(wl, gate, args.seconds, env, err_file, probes)
            flat = [t for ts in latencies.values() for t in ts]
            report = {
                "wall_s": (sum(statistics.median(ts) for ts in latencies.values()), "s"),
                "cmd_p50_ms": (statistics.median(flat) * 1e3, "ms"),
                "cmd_tail_ms": (percentile(flat, wl.tail_pct) * 1e3, "ms"),
                "setup_s": (probes.medians()[1], "s"),
                "peak_rss_mb": (rss / 1024, "MB"),
            }
            (out_dir / "latencies.json").write_text(json.dumps(latencies, indent=1) + "\n")
            print("workload %s seed %d: %d passes of %d commands, %d set-up probes; "
                  "wall_s sums each command's median latency; cmd_tail_ms is p%d of %d samples"
                  % (wl.name, args.seed, len(flat) // len(latencies), len(latencies),
                     len(probes.setups), wl.tail_pct, len(flat)))

    for problem in gate.problems[:20]:
        print("FAIL %s" % problem, file=sys.stderr)
    fail_ratio = gate.failed / gate.attempted
    for name, (value, unit) in list(report.items()) + [("fail_ratio", (fail_ratio, "ratio"))]:
        shown = "%d" % value if isinstance(value, int) else "%.6f" % value
        print("%-36s %14s %s" % (name, shown, unit))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
