"""The benchmark's in-process tracer still finds every layer it wraps.

`perfbench/tracing.py` wraps public functions and methods by module and
name; a rename in the library would break `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib.util
from pathlib import Path

from monograde import cli

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer(capsys):
    tracing = load_tracing()
    original_main = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify-atlas", "sign_bundle", "--session",
                         str(SESSIONS / "two_charts.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert cli.main is original_main
    metrics = tracer.layer_metrics()
    names = {name for name, _unit in tracing.METRICS}
    assert set(metrics) | set(tracing.MEASURED_OUTSIDE) == names
    # one session load parses the base and generator image of four transitions
    assert metrics["session.load_session.calls"] == 1
    assert metrics["expr.parse_element.calls"] == 8
    assert metrics["morphism.Morphism_init.calls"] >= 2
    assert metrics["cli.main.self_s"] > 0
    assert metrics["morphism.check_cocycle.self_s"] > 0


REPEAT_RUNS = [
    ["check-hom", "shift", "--session", str(SESSIONS / "morphisms.json")],
    ["pullback", "square", "x1^2*eta*xi + xi", "--session", str(SESSIONS / "morphisms.json")],
    ["compose", "shift", "square", "--session", str(SESSIONS / "morphisms.json")],
    ["verify-atlas", "sign_bundle", "--session", str(SESSIONS / "two_charts.json")],
]


def test_a_traced_run_prints_what_untraced_runs_print(capsys):
    # untraced, traced, then untraced again, all in one process: installing
    # and removing the tracer's wrappers changes no exit code and no output
    tracing = load_tracing()
    for argv in REPEAT_RUNS:
        results = []
        for traced in (False, True, False):
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
            try:
                code = cli.main(list(argv))
            finally:
                if traced:
                    tracer.uninstall()
            results.append((code, capsys.readouterr().out))
        assert results[0][0] == 0 and results[0][1], argv
        assert results[1] == results[0] and results[2] == results[0], argv
