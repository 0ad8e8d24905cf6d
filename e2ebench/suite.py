"""The benchmark's workloads: the commands they time and the checks on them.

Every workload is one command at a time from one client (a closed
loop), each a fresh process of the kind a user runs.  README.md says
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from param_grid import CHIPS as PARAM_GRID_CHIPS
from param_grid import DRAWN_POINTS, FIG17_WORKLOADS

#: The 17 workloads of the registry (Table 1), a fixed user grid.
REGISTRY_WORKLOADS = (
    "llama3-8b-training", "llama3-8b-prefill", "llama3-8b-decode",
    "llama2-13b-training", "llama2-13b-prefill", "llama2-13b-decode",
    "llama3-70b-training", "llama3-70b-prefill", "llama3-70b-decode",
    "llama3.1-405b-training", "llama3.1-405b-prefill", "llama3.1-405b-decode",
    "dlrm-s-inference", "dlrm-m-inference", "dlrm-l-inference",
    "dit-xl-inference", "gligen-inference",
)
WIDE_CHIPS = ("NPU-A", "NPU-B", "NPU-C", "NPU-D", "NPU-E")
WIDE_BATCHES = (1, 8, 64, 512)
WIDE_PODS = (1, 16)
#: Policies of every sweep row block (NoPG + the four gating designs).
POLICIES_PER_POINT = 5
LAUNCH_SHARDS = 8
SERVE_POOLS = ("llama3-8b-decode", "dlrm-m-inference", "llama3-70b-prefill")
SERVE_RATE_QPS = 50.0
SERVE_DURATION_S = 1500.0

#: The paper's abstract: ReGate-Full saves 15.5% energy on average.
PAPER_MEAN_SAVINGS_PCT = 15.5

SWEEP_FIRST = "repro.experiments.runner:SweepRunner.run"
LAUNCH_FIRST = "repro.experiments.scheduler:LaunchScheduler.run"
SERVE_FIRST = "repro.serving.arrivals:poisson_trace"


def _flags(flag: str, values) -> list[str]:
    return [item for value in values for item in (flag, str(value))]


def wide_grid(batches=WIDE_BATCHES) -> list[str]:
    return (
        _flags("-w", REGISTRY_WORKLOADS)
        + _flags("--chip", WIDE_CHIPS)
        + _flags("--batch-size", batches)
        + _flags("--num-chips", WIDE_PODS)
    )


WIDE_ROWS = (
    len(REGISTRY_WORKLOADS) * len(WIDE_CHIPS) * len(WIDE_BATCHES) * len(WIDE_PODS)
    * POLICIES_PER_POINT
)
PARAM_GRID_ROWS = (
    len(FIG17_WORKLOADS) * len(PARAM_GRID_CHIPS) * (DRAWN_POINTS + 1) * POLICIES_PER_POINT
)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class CheckError(AssertionError):
    """A command's output failed one of the benchmark's checks."""


@dataclass
class Command:
    """One run of a program under ``entry.py`` (or ``tracer.py``)."""

    program: str  # "repro" or "param_grid"
    args: list[str]
    first: str  # probe target of the command's first layer call
    output: Path  # file whose sha256 is the command's output digest
    workdir: Path  # scratch owned by this command, removed after it
    journal: Path | None = None  # launch directory, for the tracer


@dataclass
class Outcome:
    """What the checks took from one finished command."""

    digest: str
    items: int


def csv_rows(path: Path) -> int:
    with path.open(newline="") as handle:
        return sum(1 for _ in handle) - 1


@dataclass
class Workload:
    """Base workload: one timed command shape plus its output checks."""

    name: str
    why: str
    seed: int
    scratch: Path
    reference: str | None = None  # digest every timed output must match
    _count: int = field(default=0, repr=False)

    def _fresh_dir(self, tag: str) -> Path:
        self._count += 1
        path = self.scratch / f"{tag}-{self._count}"
        path.mkdir(parents=True)
        return path

    # -- hooks ------------------------------------------------------------ #
    def command(self) -> Command:
        raise NotImplementedError

    def reference_command(self) -> Command:
        """The untimed command whose output every timed output must equal."""
        return self.command()

    def prepare(self, run) -> None:
        """Untimed set-up: run the reference once (it also warms the
        interpreter's byte-code and the page cache)."""
        command = self.reference_command()
        run(command)
        self.reference = self.check(command).digest
        shutil.rmtree(command.workdir, ignore_errors=True)

    def before(self, command: Command) -> None:
        """Untimed per-command preparation."""

    def check(self, command: Command) -> Outcome:
        raise NotImplementedError

    def verify(self, command: Command) -> Outcome:
        """Check a timed command, including that its output digest
        equals the reference's."""
        outcome = self.check(command)
        if outcome.digest != self.reference:
            raise CheckError(
                f"{self.name}: output sha256 {outcome.digest[:16]} differs from "
                f"the reference {str(self.reference)[:16]}"
            )
        return outcome


def _check_rows(path: Path, expected: int, name: str) -> Outcome:
    if not path.is_file():
        raise CheckError(f"{name}: no output {path.name}")
    rows = csv_rows(path)
    if rows != expected:
        raise CheckError(f"{name}: {rows} rows, expected {expected}")
    return Outcome(sha256(path), rows)


class WideGrid(Workload):
    """Base of the workloads that run the wide grid.  Their reference is
    the plain ``repro sweep`` of that grid, so every output must equal
    the monolithic sweep's CSV byte for byte."""

    def reference_command(self) -> Command:
        work = self._fresh_dir("sweep")
        out = work / "sweep.csv"
        return Command("repro", ["sweep", *wide_grid(), "--csv", str(out)],
                       SWEEP_FIRST, out, work)

    def check(self, command: Command) -> Outcome:
        return _check_rows(command.output, WIDE_ROWS, self.name)


class LaunchSharded(WideGrid):
    """The wide grid through ``repro launch`` with the process backend."""

    def command(self) -> Command:
        work = self._fresh_dir("launch")
        out = work / "launch.csv"
        launch_dir = work / "launch"
        return Command(
            "repro",
            ["launch", *wide_grid(), "--shards", str(LAUNCH_SHARDS),
             "--dir", str(launch_dir), "--csv", str(out)],
            LAUNCH_FIRST, out, work, journal=launch_dir,
        )


class SweepExtend(WideGrid):
    """The wide grid against a shared cache already holding every point
    but batch 512: 3/4 of the points are cache reads, 1/4 computed and
    written.  Each timed command starts from a fresh copy of that cache."""

    @property
    def seed_cache(self) -> Path:
        return self.scratch / "seed-cache"

    def prepare(self, run) -> None:
        super().prepare(run)
        fill = self._fresh_dir("fill")
        run(Command(
            "repro",
            ["sweep", *wide_grid(WIDE_BATCHES[:-1]), "--shared-cache",
             str(self.seed_cache), "--csv", str(fill / "fill.csv")],
            SWEEP_FIRST, fill / "fill.csv", fill,
        ))
        shutil.rmtree(fill, ignore_errors=True)

    def command(self) -> Command:
        work = self._fresh_dir("extend")
        out = work / "extend.csv"
        return Command(
            "repro",
            ["sweep", *wide_grid(), "--shared-cache", str(work / "cache"),
             "--csv", str(out)],
            SWEEP_FIRST, out, work,
        )

    def before(self, command: Command) -> None:
        # Hard links: the cache publishes entries by atomic rename and
        # never writes into an existing file, so the seed stays intact.
        shutil.copytree(self.seed_cache, command.workdir / "cache", copy_function=os.link)


class ParamGrid(Workload):
    def command(self) -> Command:
        work = self._fresh_dir("grid")
        out = work / "grid.csv"
        return Command("param_grid", ["--seed", str(self.seed), "--csv", str(out)],
                       SWEEP_FIRST, out, work)

    def check(self, command: Command) -> Outcome:
        outcome = _check_rows(command.output, PARAM_GRID_ROWS, self.name)
        self.default_mean_pct = fig17_mean_savings_pct(command.output)
        return outcome


class ServeTrace(Workload):
    def command(self) -> Command:
        work = self._fresh_dir("serve")
        out = work / "serve.json"
        args = ["serve", *_flags("-w", SERVE_POOLS), "--rate", str(SERVE_RATE_QPS),
                "--duration", str(SERVE_DURATION_S), "--seed", str(self.seed),
                "--curve", "--carbon", "--json", str(out)]
        return Command("repro", args, SERVE_FIRST, out, work)

    def check(self, command: Command) -> Outcome:
        stdout = (command.workdir / "stdout.txt").read_text(encoding="utf-8")
        match = re.search(r"^trace\s*:\s*(\d+) request", stdout, re.MULTILINE)
        if match is None or not command.output.is_file():
            raise CheckError(f"{self.name}: no trace summary or no JSON report")
        offered = int(match.group(1))
        report = json.loads(command.output.read_text(encoding="utf-8"))
        served = sum(pool["requests"] for pool in report["per_workload"])
        if served != offered or offered == 0:
            raise CheckError(f"{self.name}: served {served} of {offered} requests")
        curve = report.get("curve") or []
        if not curve or "carbon" not in report:
            raise CheckError(f"{self.name}: report lacks the curve or carbon rollup")
        # The curve replays the whole trace once per load level.
        return Outcome(sha256(command.output), offered * (1 + len(curve)))


WORKLOADS = {
    "param_grid": (ParamGrid, "22 profiles x 129 gating points: the grid policy "
                   "kernel, pricing bookkeeping and row assembly dominate"),
    "launch_sharded": (LaunchSharded, "the wide grid as an 8-shard process launch: "
                       "spawn, worker import, scheduler wait and merge"),
    "sweep_extend": (SweepExtend, "the wide grid on a shared disk cache holding 3/4 "
                     "of it: cache reads, plus 170 points built, compiled, "
                     "simulated and written"),
    "serve_trace": (ServeTrace, "225k Poisson requests over three pools: batching, "
                    "queueing and serving metrics, not the sweep engine"),
}


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    cls, why = WORKLOADS[name]
    return cls(name=name, why=why, seed=seed, scratch=scratch)


# ---------------------------------------------------------------------- #
# Paper fidelity
# ---------------------------------------------------------------------- #
def fidelity_command(scratch: Path) -> Command:
    """Fig. 17 at default gating parameters: 11 workloads on NPU-D."""
    work = scratch / "fidelity"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "fig17.csv"
    args = ["sweep", *_flags("-w", FIG17_WORKLOADS), "--chip", "NPU-D",
            "--policy", "ReGate-Full", "--csv", str(out)]
    return Command("repro", args, SWEEP_FIRST, out, work)


def fig17_mean_savings_pct(path: Path) -> float:
    """Mean ReGate-Full ``savings_vs_nopg`` of Fig. 17's workloads on NPU-D
    at the default gating parameters, in %."""
    savings = {}
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            if (
                row["chip"] == "NPU-D"
                and row["policy"] == "ReGate-Full"
                and row["workload"] in FIG17_WORKLOADS
                and row["gating_label"] == "default"
            ):
                savings[row["workload"]] = float(row["savings_vs_nopg"])
    if sorted(savings) != sorted(FIG17_WORKLOADS):
        raise CheckError(f"{path.name}: Fig. 17 rows missing ({len(savings)} of 11)")
    return 100.0 * sum(savings[name] for name in FIG17_WORKLOADS) / len(FIG17_WORKLOADS)
