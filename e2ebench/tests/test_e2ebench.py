"""Tests of the end-to-end benchmark itself.

Run them explicitly (tier-1 does not collect this directory)::

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import suite
import tracer
from probes import Patches, ProbeError, resolve

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) in the program bound to ``original``."""
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro")
        for name, value in list(vars(module).items())
        if value is original
    ]


def _import_program() -> None:
    import repro.cli  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.serving  # noqa: F401


def test_every_probe_target_resolves():
    _import_program()
    for _, target in tracer.PROBES:
        resolve(target)


def test_unknown_probe_target_is_an_error():
    with pytest.raises(ProbeError):
        resolve("repro.experiments.runner:SweepRunner.no_such_method")
    with pytest.raises(ProbeError):
        resolve("repro.experiments.runner")


def test_tracing_wrappers_restore_the_original_functions():
    _import_program()
    before = {}
    for _, target in tracer.PROBES:
        owner, name, original = resolve(target)
        before[target] = (owner, name, original, _bindings(original))

    patches = Patches()
    assert tracer.Tracer().install(patches) == []
    for target, (owner, name, original, bindings) in before.items():
        assert vars(owner)[name] is not original, target
        for module, attribute in bindings:
            assert getattr(module, attribute) is not original, (target, attribute)

    patches.restore()
    for target, (owner, name, original, bindings) in before.items():
        assert vars(owner)[name] is original, target
        assert _bindings(original) == bindings, target


def test_self_time_excludes_child_spans():
    trace = tracer.Tracer()

    def inner():
        time.sleep(0.05)

    traced_inner = trace.wrapper_factory("inner", None)(inner)

    def outer():
        time.sleep(0.02)
        traced_inner()
        traced_inner()

    trace.wrapper_factory("outer", None)(outer)()
    assert trace.counters["inner"]["calls"] == 2
    assert trace.counters["outer"]["self_s"] == pytest.approx(0.02, abs=0.015)
    assert trace.counters["inner"]["self_s"] == pytest.approx(0.10, abs=0.03)
    parents = {layer: parent for layer, _, _, parent in trace.spans}
    assert parents["outer"] == -1 and parents["inner"] >= 0


def test_traced_and_untraced_commands_write_identical_outputs(tmp_path):
    """Tracing changes no result: the same command's output digests match."""
    grid = ["-w", "llama3-8b-decode", "-w", "dlrm-s", "--chip", "NPU-C",
            "--chip", "NPU-D", "--batch-size", "1", "--batch-size", "8"]
    digests = []
    for traced in (False, True):
        work = tmp_path / f"traced-{traced}"
        work.mkdir()
        out = work / "sweep.csv"
        command = suite.Command("repro", ["sweep", *grid, "--csv", str(out)],
                                suite.SWEEP_FIRST, out, work)
        layers = work / "layers.json" if traced else None
        sample = run.run_command(command, layers)
        assert sample.code == 0, (work / "stderr.txt").read_text()
        if traced:
            payload = json.loads(layers.read_text())
            assert payload["missing_probes"] == []
            assert payload["metrics"]["simulator.simulate_calls"]["value"] > 0
        else:
            assert 0 < sample.setup_s < sample.wall_s
        digests.append(suite.sha256(out))
    assert digests[0] == digests[1]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_emitted_metric_is_declared():
    declared = _declared()
    sample = run.Sample(None, 0, wall_s=2.0, setup_s=0.5, peak_rss_mb=90.0)
    sample.items = 100
    emitted = run.end_to_end([sample], err_pp=5.9)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: entry["unit"] for name, entry in emitted.items()
    }
    assert all(entry["value"] != 0 for entry in emitted.values())

    payload = {"metrics": tracer.Tracer().layer_metrics(), "missing_probes": []}
    layered = run.per_layer([(sample, payload)], [sample],
                            {name: [0.5] for name in run.IMPORTED_MODULES})
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: entry["unit"] for name, entry in layered.items()
    }


def test_declared_workloads_exist():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(suite.WORKLOADS)
    assert declared["paths"] == ["e2ebench"]


def test_param_grid_spec_depends_only_on_the_seed():
    import param_grid

    def grid(seed):
        spec = param_grid.build_spec(seed)
        return spec.num_points, [
            (label, p.leakage, dict(p.timings)) for label, p in spec.gating_parameters
        ]

    (points, first), (_, again), (_, other) = grid(3), grid(3), grid(4)
    assert points == 11 * 2 * (param_grid.DRAWN_POINTS + 1)
    assert points * 5 == suite.PARAM_GRID_ROWS
    assert first == again
    assert first[0] == other[0]  # the paper's default point
    assert first[1:] != other[1:]


def test_run_fails_without_the_program(tmp_path):
    """Given only the benchmark's files, it exits nonzero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "param_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
