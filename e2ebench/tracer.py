"""Traced fresh-process run of one benchmark command.

Usage::

    python e2ebench/tracer.py --layers OUT.json [--journal LAUNCH_DIR] -- repro sweep ...

Wraps the public functions listed in :data:`PROBES` (see
:mod:`probes`), runs the command in-process exactly as ``entry.py``
would, restores every original function, and writes the per-layer
metrics to ``OUT.json``.  A span records its layer name, start, end and
the span that was open when it began (per thread); a layer's self time
is its spans' durations minus the time of their child spans.  For a
``repro launch`` the shard workers are other processes, so their side
comes from the launch journal in ``--journal``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from entry import program_main, split_argv
from probes import Patches, ProbeError

#: (layer, probe target).  Several targets may share one layer name.
PROBES: tuple[tuple[str, str], ...] = (
    ("workloads.build", "repro.workloads.registry:WorkloadSpec.build_table"),
    ("compiler.fusion", "repro.compiler.fusion:FusionPass.run_table"),
    ("compiler.tiling", "repro.compiler.tiling:TilingPass.tile_table"),
    ("simulator.simulate", "repro.simulator.engine:NPUSimulator.simulate"),
    ("gating.batch_evaluate", "repro.gating.policies:PowerGatingPolicy.batch_evaluate"),
    ("gating.grid_evaluate", "repro.gating.policies:PowerGatingPolicy.grid_evaluate"),
    ("core.simulate_workload", "repro.core.regate:simulate_workload"),
    ("experiments.keys.hash", "repro.experiments.keys:stable_hash"),
    ("experiments.cache.price", "repro.experiments.cache:simulate_cached_cells"),
    ("experiments.cache.read", "repro.experiments.cache:SharedCacheDir.get_json"),
    ("experiments.cache.read", "repro.experiments.cache:SharedCacheDir.get_profile"),
    ("experiments.cache.write", "repro.experiments.cache:SharedCacheDir.put_json"),
    ("experiments.cache.write", "repro.experiments.cache:SharedCacheDir.put_profile"),
    ("experiments.runner.assemble", "repro.experiments.runner:assemble_packed_cells"),
    ("experiments.runner.assemble", "repro.experiments.runner:assemble_packed_rows"),
    ("experiments.result.write_csv", "repro.experiments.result:SweepResult.write_csv"),
    ("experiments.sharding.artifact_write", "repro.experiments.sharding:ShardArtifact.write"),
    ("experiments.sharding.merge", "repro.experiments.sharding:merge_artifacts"),
    ("experiments.scheduler.run", "repro.experiments.scheduler:LaunchScheduler.run"),
    ("serving.arrivals.trace", "repro.serving.arrivals:poisson_trace"),
    ("serving.autoscale.plan", "repro.serving.autoscale:Autoscaler.plan_fleet"),
    ("serving.batching.form", "repro.serving.batching:form_batches"),
    ("serving.queueing.queue", "repro.serving.queueing:queue_batches"),
    ("serving.queueing.queue", "repro.serving.queueing:request_latencies"),
    ("serving.metrics.compute", "repro.serving.metrics:compute_workload_metrics"),
    ("serving.metrics.compute", "repro.serving.metrics:aggregate_fleet"),
    ("serving.simulate.self", "repro.serving.simulate:simulate_serving"),
    ("serving.simulate.curve", "repro.serving.simulate:utilization_curve"),
    ("carbon.rollup", "repro.serving.rollup:rollup_carbon"),
)

#: Per-layer metrics this module reports: name -> (layer, statistic, unit).
#: ``self_s`` is summed self time, ``calls`` the span count, anything else
#: a counter recorded by a probe's hook (see ``_HOOKS``).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "workloads.build_s": ("workloads.build", "self_s", "s"),
    "workloads.build_calls": ("workloads.build", "calls", "count"),
    "compiler.fusion_s": ("compiler.fusion", "self_s", "s"),
    "compiler.tiling_s": ("compiler.tiling", "self_s", "s"),
    "simulator.simulate_s": ("simulator.simulate", "self_s", "s"),
    "simulator.simulate_calls": ("simulator.simulate", "calls", "count"),
    "gating.batch_evaluate_s": ("gating.batch_evaluate", "self_s", "s"),
    "gating.grid_evaluate_s": ("gating.grid_evaluate", "self_s", "s"),
    "gating.cells": ("gating.grid_evaluate", "cells", "count"),
    "core.simulate_workload_s": ("core.simulate_workload", "self_s", "s"),
    "core.simulate_workload_calls": ("core.simulate_workload", "calls", "count"),
    "experiments.keys.hash_s": ("experiments.keys.hash", "self_s", "s"),
    "experiments.keys.hash_calls": ("experiments.keys.hash", "calls", "count"),
    "experiments.cache.price_s": ("experiments.cache.price", "self_s", "s"),
    "experiments.cache.hits": ("experiments.cache.read", "hits", "count"),
    "experiments.cache.misses": ("experiments.cache.read", "misses", "count"),
    "experiments.cache.read_s": ("experiments.cache.read", "self_s", "s"),
    "experiments.cache.write_s": ("experiments.cache.write", "self_s", "s"),
    "experiments.cache.files_written": ("experiments.cache.write", "calls", "count"),
    "experiments.runner.assemble_s": ("experiments.runner.assemble", "self_s", "s"),
    "experiments.result.write_csv_s": ("experiments.result.write_csv", "self_s", "s"),
    "experiments.result.csv_bytes": ("experiments.result.write_csv", "bytes", "bytes"),
    "experiments.sharding.artifact_write_s": (
        "experiments.sharding.artifact_write", "self_s", "s"),
    "experiments.sharding.merge_s": ("experiments.sharding.merge", "self_s", "s"),
    "experiments.sharding.merge_calls": ("experiments.sharding.merge", "calls", "count"),
    "experiments.sharding.merged_bytes_written": (
        "experiments.sharding.artifact_write", "bytes", "bytes"),
    "serving.arrivals.trace_s": ("serving.arrivals.trace", "self_s", "s"),
    "serving.autoscale.plan_s": ("serving.autoscale.plan", "self_s", "s"),
    "serving.batching.form_s": ("serving.batching.form", "self_s", "s"),
    "serving.batching.batches": ("serving.batching.form", "batches", "count"),
    "serving.queueing.queue_s": ("serving.queueing.queue", "self_s", "s"),
    "serving.metrics.compute_s": ("serving.metrics.compute", "self_s", "s"),
    "serving.simulate.self_s": ("serving.simulate.self", "self_s", "s"),
    "serving.simulate.curve_s": ("serving.simulate.curve", "self_s", "s"),
    "carbon.rollup_s": ("carbon.rollup", "self_s", "s"),
}

#: Metrics derived after the run (cache hit ratio, launch journal).
DERIVED_METRICS: dict[str, str] = {
    "experiments.cache.hit_ratio": "ratio",
    "experiments.scheduler.dispatches": "count",
    "experiments.scheduler.retries": "count",
    "experiments.scheduler.failed_attempts": "count",
    "experiments.scheduler.shard_busy_s": "s",
    "experiments.scheduler.max_shard_s": "s",
    "experiments.scheduler.wait_s": "s",
}


def _path_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(child.stat().st_size for child in path.rglob("*") if child.is_file())
    return path.stat().st_size


def _count_cells(counts, args, kwargs, result) -> None:
    counts["cells"] += result.baseline_time_s.size


def _count_lookup(counts, args, kwargs, result) -> None:
    counts["misses" if result is None else "hits"] += 1


def _count_csv_bytes(counts, args, kwargs, result) -> None:
    counts["bytes"] += _path_bytes(Path(args[1] if len(args) > 1 else kwargs["path"]))


def _count_artifact_bytes(counts, args, kwargs, result) -> None:
    counts["bytes"] += _path_bytes(Path(result))


def _count_batches(counts, args, kwargs, result) -> None:
    counts["batches"] += len(result)


def _note_workers(counts, args, kwargs, result) -> None:
    counts["workers"] = args[0].max_workers


#: Counter hooks, run after a probed call returns: target -> hook.
_HOOKS: dict[str, Callable] = {
    "repro.gating.policies:PowerGatingPolicy.grid_evaluate": _count_cells,
    "repro.experiments.cache:SharedCacheDir.get_json": _count_lookup,
    "repro.experiments.cache:SharedCacheDir.get_profile": _count_lookup,
    "repro.experiments.result:SweepResult.write_csv": _count_csv_bytes,
    "repro.experiments.sharding:ShardArtifact.write": _count_artifact_bytes,
    "repro.serving.batching:form_batches": _count_batches,
    "repro.experiments.scheduler:LaunchScheduler.run": _note_workers,
}


class Tracer:
    """In-memory spans and per-layer counters of one process."""

    def __init__(self) -> None:
        #: (layer, start, end, parent span id or -1), in end order; span
        #: ids number the spans in start order.
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper_factory(self, layer: str, hook: Callable | None):
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                stack = self._stack()
                with self._lock:
                    span_id = self._next_id
                    self._next_id += 1
                parent = stack[-1][0] if stack else -1
                stack.append([span_id, 0.0])
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _, child_s = stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    with self._lock:
                        self.spans.append((layer, start, end, parent))
                        counts = self.counters[layer]
                        counts["calls"] += 1
                        counts["total_s"] += end - start
                        counts["self_s"] += (end - start) - child_s
                if hook is not None:
                    with self._lock:
                        hook(self.counters[layer], args, kwargs, result)
                return result

            return wrapper

        return make_wrapper

    def install(self, patches: Patches) -> list[str]:
        """Install every probe; returns the targets that could not be found."""
        missing = []
        for layer, target in PROBES:
            try:
                patches.install(target, self.wrapper_factory(layer, _HOOKS.get(target)))
            except ProbeError:
                missing.append(target)
        return missing

    def layer_metrics(self, journal_dir: Path | None = None) -> dict[str, dict[str, Any]]:
        """Every per-layer metric of this module, zero for untouched layers."""
        metrics = {
            name: {"value": float(self.counters[layer][stat]), "unit": unit}
            for name, (layer, stat, unit) in LAYER_METRICS.items()
        }
        read = self.counters["experiments.cache.read"]
        lookups = read["hits"] + read["misses"]
        values = {"experiments.cache.hit_ratio": read["hits"] / lookups if lookups else 0.0}
        values.update(self._scheduler_metrics(journal_dir))
        for name, unit in DERIVED_METRICS.items():
            metrics[name] = {"value": float(values[name]), "unit": unit}
        return metrics

    def _scheduler_metrics(self, journal_dir: Path | None) -> dict[str, float]:
        events = read_journal(journal_dir) if journal_dir is not None else []
        landed = [float(e.get("duration_s") or 0.0) for e in events if e["event"] == "land"]
        busy = sum(landed)
        run = self.counters["experiments.scheduler.run"]
        workers = run["workers"] or 1
        return {
            "experiments.scheduler.dispatches": sum(e["event"] == "dispatch" for e in events),
            "experiments.scheduler.retries": sum(e["event"] == "retry" for e in events),
            "experiments.scheduler.failed_attempts": sum(
                e["event"] in ("fail", "orphan") for e in events
            ),
            "experiments.scheduler.shard_busy_s": busy,
            "experiments.scheduler.max_shard_s": max(landed, default=0.0),
            "experiments.scheduler.wait_s": (
                run["total_s"] - busy / workers if run["calls"] else 0.0
            ),
        }


def read_journal(directory: Path) -> list[dict[str, Any]]:
    """Launch journal events, archived generation first."""
    events = []
    for name in ("journal-archive.jsonl", "journal.jsonl"):
        path = directory / name
        if not path.exists():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                event = json.loads(line)
            except ValueError:
                continue  # a torn final line
            if isinstance(event, dict) and "event" in event:
                events.append(event)
    return events


def main(argv: list[str]) -> int:
    options, program, rest = split_argv(argv)
    run_program = program_main(program)
    tracer = Tracer()
    patches = Patches()
    missing = tracer.install(patches)
    try:
        code = run_program(rest)
    finally:
        patches.restore()
    journal = options.get("--journal")
    payload = {
        "metrics": tracer.layer_metrics(Path(journal) if journal else None),
        "missing_probes": missing,
        "spans": len(tracer.spans),
    }
    Path(options["--layers"]).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
