"""End-to-end benchmark of real ``repro`` commands.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload param_grid --seed 1 --seconds 24 --trace 0

``--trace 0`` times fresh-process commands in a closed loop for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` instead
alternates untraced commands with traced ones (``tracer.py``) and
reports the per-layer metrics plus the tracing overhead.  Every command's
output is checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``record: {...}``, holds the environment, output digests and samples.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from suite import CheckError, Command  # noqa: E402

#: A timed command is killed (and counted failed) after this long.
COMMAND_TIMEOUT_S = 60.0
#: Fewest timed commands per run, however long they take.
MIN_COMMANDS = 3
#: Fresh-interpreter import timings per traced run, per module.
IMPORT_REPEATS = 3
IMPORTED_MODULES = {
    "cli.import_s": "repro.cli",
    "experiments.worker.import_s": "repro.experiments.worker",
}


@dataclass
class Sample:
    """One finished timed command."""

    command: Command
    code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    error: str | None = None
    digest: str | None = None
    items: int = 0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group has already exited


def _end_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Kill whatever is left of a command's process group and wait until
    it is gone (a killed ``repro launch`` can leave shard workers)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.05)


def spawn(argv: list[str], workdir: Path, timeout_s: float = COMMAND_TIMEOUT_S):
    """Run ``argv`` to completion; returns (exit code, wall s, usage, t0).

    The command gets its own session, so a timeout kills its whole
    process tree.  The ``wait4`` resource usage covers the child and
    every descendant it waited for (shard workers included).
    """
    with (workdir / "stdout.txt").open("wb") as out, \
            (workdir / "stderr.txt").open("wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            _end_group(proc.pid)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, t0


def run_command(command: Command, traced_layers: Path | None = None) -> Sample:
    """Spawn one command (untraced through entry.py, or traced)."""
    mark = command.workdir / "first-call.mark"
    if traced_layers is None:
        argv = [sys.executable, str(HERE / "entry.py"), "--mark", str(mark),
                "--first", command.first, "--", command.program, *command.args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), "--layers", str(traced_layers)]
        if command.journal is not None:
            argv += ["--journal", str(command.journal)]
        argv += ["--", command.program, *command.args]
    code, wall, usage, t0 = spawn(argv, command.workdir)
    setup = float(mark.read_text()) - t0 if mark.is_file() else None
    return Sample(command, code, wall, setup, usage.ru_maxrss / 1024.0)


def finish(workload: suite.Workload, sample: Sample, traced: bool) -> Sample:
    """Check a finished command's exit code, set-up mark and output."""
    command = sample.command
    try:
        if sample.code != 0:
            tail = (command.workdir / "stderr.txt").read_text(errors="replace")[-400:]
            raise CheckError(f"exit code {sample.code}: {tail.strip()}")
        if sample.setup_s is None and not traced:
            raise CheckError(f"the command never called {command.first}")
        outcome = workload.verify(command)
        sample.digest, sample.items = outcome.digest, outcome.items
    except (CheckError, OSError, ValueError, KeyError) as error:
        sample.error = f"{type(error).__name__}: {error}"
    return sample


def run_checked(command: Command) -> None:
    """Run an untimed set-up command; any failure aborts the run."""
    sample = run_command(command)
    if sample.code != 0:
        tail = (command.workdir / "stderr.txt").read_text(errors="replace")[-800:]
        raise CheckError(f"set-up command failed ({sample.code}): {tail.strip()}")


def fidelity(workload: suite.Workload, scratch: Path) -> float:
    """|Fig. 17 mean ReGate-Full savings - the paper's 15.5%|, in pp."""
    command = suite.fidelity_command(scratch)
    run_checked(command)
    mean = suite.fig17_mean_savings_pct(command.output)
    grid_mean = getattr(workload, "default_mean_pct", None)
    if grid_mean is not None and grid_mean != mean:
        raise CheckError(
            f"param_grid default rows give {grid_mean!r}% but repro sweep gives {mean!r}%"
        )
    return abs(mean - suite.PAPER_MEAN_SAVINGS_PCT)


def import_seconds(module: str, scratch: Path) -> float:
    """Fresh-interpreter ``import module`` time, measured in the child."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    status, _, _, _ = spawn([sys.executable, "-c", code], scratch)
    if status != 0:
        raise CheckError(f"import {module} failed ({status})")
    return float((scratch / "stdout.txt").read_text().split()[-1])


def environment() -> dict:
    init = (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "package_version": version.group(1) if version else None,
        "platform": platform.platform(),
    }


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: suite.Workload, seconds: float, traced: bool):
    """The closed loop: one command at a time for ``seconds``.

    A command starts only if a typical iteration still ends before the
    deadline, so a run lasts about ``seconds`` whatever a command takes;
    at least MIN_COMMANDS untraced commands run regardless.
    """
    untraced: list[Sample] = []
    traced_runs: list[tuple[Sample, dict]] = []
    iterations: list[float] = []
    deadline = time.monotonic() + seconds
    while len(untraced) < MIN_COMMANDS or (
        time.monotonic() + statistics.median(iterations) <= deadline
    ):
        started = time.monotonic()
        for is_traced in ((False, True) if traced else (False,)):
            command = workload.command()
            workload.before(command)
            layers = command.workdir / "layers.json" if is_traced else None
            sample = finish(workload, run_command(command, layers), is_traced)
            if is_traced:
                payload = (json.loads(layers.read_text())
                           if sample.error is None and layers.is_file() else None)
                if payload is None and sample.error is None:
                    sample.error = "traced run wrote no layer metrics"
                traced_runs.append((sample, payload))
            else:
                untraced.append(sample)
            shutil.rmtree(command.workdir, ignore_errors=True)
        iterations.append(time.monotonic() - started)
    return untraced, traced_runs


def end_to_end(ok: list[Sample], err_pp: float) -> dict:
    return {
        "wall_s": metric(median(s.wall_s for s in ok), "s"),
        "setup_s": metric(median(s.setup_s for s in ok), "s"),
        "items_per_s": metric(
            median(s.items / (s.wall_s - s.setup_s) for s in ok), "1/s"),
        "peak_rss_mb": metric(median(s.peak_rss_mb for s in ok), "MB"),
        "savings_err_pp": metric(err_pp, "pp"),
    }


def per_layer(traced_runs, untraced_ok: list[Sample], imports: dict) -> dict:
    ok = [(sample, payload) for sample, payload in traced_runs if sample.error is None]
    names = ok[0][1]["metrics"] if ok else {}
    metrics = {
        name: metric(median(p["metrics"][name]["value"] for _, p in ok),
                     names[name]["unit"])
        for name in names
    }
    for name, seconds in imports.items():
        metrics[name] = metric(median(seconds), "s")
    metrics["trace.overhead_s"] = metric(
        median(s.wall_s for s, _ in ok) - median(s.wall_s for s in untraced_ok), "s")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process; the last line sums them up,
    with each metric named ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in suite.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        *lines, last = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines), flush=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric_name}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its command and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    scratch = ROOT / ".e2ebench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = environment()
    load_before = os.getloadavg()[0]
    workload = suite.make_workload(args.workload, args.seed, scratch)
    try:
        workload.prepare(run_checked)
        untraced, traced_runs = measure(workload, args.seconds, bool(args.trace))
        err_pp = fidelity(workload, scratch)
        imports = {}
        if args.trace:
            for name, module in IMPORTED_MODULES.items():
                imports[name] = [import_seconds(module, scratch)
                                 for _ in range(IMPORT_REPEATS)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    load_after = os.getloadavg()[0]

    samples = untraced + [sample for sample, _ in traced_runs]
    failed = [sample for sample in samples if sample.error is not None]
    digests = sorted({sample.digest for sample in samples if sample.digest})
    ok = [sample for sample in untraced if sample.error is None]
    if args.trace:
        metrics = per_layer(traced_runs, ok, imports)
    else:
        metrics = end_to_end(ok, err_pp)

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "load_1m_before": load_before,
        "load_1m_after": load_after,
        "started_busy": load_before > (env["nproc"] or 1),
        "output_sha256": digests,
        "reference_sha256": workload.reference,
        "error_rate": len(failed) / len(samples),
        "errors": [sample.error for sample in failed],
        "wall_s": [round(sample.wall_s, 6) for sample in untraced],
        "setup_s": [sample.setup_s for sample in untraced],
        "traced_wall_s": [round(sample.wall_s, 6) for sample, _ in traced_runs],
        "missing_probes": sorted({
            target for _, payload in traced_runs if payload
            for target in payload["missing_probes"]
        }),
    }
    if record["missing_probes"]:
        print("warning: probe targets not found, their layers read 0: "
              + ", ".join(record["missing_probes"]))
    if record["started_busy"]:
        print(f"warning: 1-minute load {load_before:.2f} exceeded nproc at start; "
              "timings may be inflated")
    print(f"workload {args.workload} (seed {args.seed}): {len(samples)} command(s), "
          f"{len(failed)} failed, error_rate {record['error_rate']:.3f}")
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not failed and len(digests) == 1,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
