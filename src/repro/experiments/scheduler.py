"""Fault-tolerant shard scheduler: ``repro launch``.

PR 5/6 made sweeps shardable — deterministic :class:`ShardPlan`s,
``.repro-shard`` artifacts with an associative, idempotent,
byte-identical merge — but launching and merging the shards was still a
hand-driven loop: one hung worker or a killed process lost the run.
This module is the orchestration layer on top of that substrate.

:class:`LaunchScheduler` takes a :class:`~repro.experiments.spec.SweepSpec`
and a shard count, dispatches shards to a pluggable **worker backend**
(:class:`ThreadBackend` in-process, :class:`ProcessBackend` one forked
child of a warm fork server per attempt, so a worker can be SIGKILLed
without taking the scheduler down), and drives every shard through a
typed lifecycle::

    PENDING ──dispatch──▶ RUNNING ──artifact validated──▶ LANDED
                             │
                             ├─ worker exited nonzero / corrupt artifact
                             │        └─▶ FAILED ── retries left? ─▶ PENDING
                             └─ heartbeat stale / shard timeout
                                      └─▶ ORPHANED ─ retries left? ─▶ PENDING

Robustness mechanisms, each independently switchable:

* **Retries with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`): a failed or orphaned shard is re-dispatched up
  to ``max_attempts`` times, waiting ``base * backoff**(n-1)`` (capped,
  jittered) between attempts.
* **Heartbeat liveness**: every worker touches a per-attempt heartbeat
  file; a worker whose heartbeat goes stale past ``heartbeat_timeout``
  is declared dead (``ORPHANED``), killed, and its shard re-dispatched.
  This catches *silent* failures — a hung worker never exits.
* **Straggler speculation**: once more than ``speculation_threshold``
  (default 80%) of shards have landed, the slowest still-running shard
  is speculatively re-issued; the first attempt to land an artifact
  wins.  Safe because every attempt writes to its own staging directory
  and shard artifacts are deterministic — the merge is idempotent.
* **Streaming merge, published once**: landed artifacts are folded
  into an in-memory merge as they arrive (what ``/status`` reports),
  reusing :func:`~repro.experiments.sharding.merge_artifacts`'
  associativity, and ``merged.repro-shard`` is written once when the
  run ends, complete or partial.  A killed run leaves its landed shard
  artifacts under ``shards/``, which ``--resume`` restores and
  ``repro merge-shards`` merges.
* **Crash-safe journal** (``journal.jsonl``): every lifecycle event is
  appended as one fsync'd JSON line.  The reader tolerates a torn tail
  (a line cut short by a crash is skipped), so
  ``LaunchScheduler(..., resume=True)`` — ``repro launch --resume`` —
  restores landed shards from their validated on-disk artifacts,
  restores attempt counters from the journal, and continues the run
  after the *scheduler itself* was killed.
* **Graceful degradation**: when a shard exhausts its retries the rest
  of the grid still finishes; the scheduler emits the partial merge
  plus a machine-readable ``failure-report.json`` and exits with a
  distinct code (:data:`EXIT_COMPLETE` 0 / :data:`EXIT_PARTIAL` 3).
* **Reproducible fault injection** (:class:`FaultInjector`, env-driven
  via ``REPRO_FAULT_SPEC=crash:0.3,hang:0.1,corrupt:0.1``): worker
  crashes, hangs and corrupt-artifact writes are drawn deterministically
  per (shard, attempt), so chaos tests and the CI chaos-smoke job replay
  exactly.

The end-to-end guarantee is inherited from the sharding substrate and
asserted by ``tests/test_scheduler.py`` and the CI chaos job: whatever
faults are injected, a run that completes produces a merged CSV
**byte-identical** to the monolithic
:class:`~repro.experiments.runner.SweepRunner` run.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pickle
import random
import select
import shutil
import signal
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from repro import __version__
from repro.experiments.cache import SharedCacheDir, SimulationCache
from repro.experiments.catalog import ExperimentCatalog
from repro.experiments.sharding import (
    MANIFEST_NAME,
    NUMERIC_NAME,
    SHARD_SUFFIX,
    Shard,
    ShardArtifact,
    ShardError,
    ShardPlan,
    ShardRunner,
    merge_artifacts,
    spec_digest,
    verify_artifact_files,
)
from repro.experiments.spec import SweepSpec

_LOG = logging.getLogger(__name__)

#: Scheduler exit codes (``repro launch`` exits with these).
EXIT_COMPLETE = 0
#: Some shards exhausted their retries; the partial merge and a
#: failure report were still written.
EXIT_PARTIAL = 3
#: Worker self-exit code of an injected crash (distinguishable from a
#: real bug's traceback exit 1 in the journal).
EXIT_INJECTED_CRASH = 70
#: Worker exit code when an injected hang was interrupted by a kill.
EXIT_KILLED = 71
#: Attempt exit code when the fork server died with the attempt in
#: flight, or could not start it (cause ``fork-server``).
EXIT_FORK_SERVER_LOST = 74

#: Environment variable holding the fault-injection spec.
FAULT_ENV = "REPRO_FAULT_SPEC"

SPEC_FILENAME = "spec.pkl"
JOURNAL_FILENAME = "journal.jsonl"
SNAPSHOT_FILENAME = "journal-snapshot.json"
ARCHIVE_FILENAME = "journal-archive.jsonl"
MERGED_NAME = "merged" + SHARD_SUFFIX
FAILURE_REPORT_FILENAME = "failure-report.json"


class LaunchError(RuntimeError):
    """The launch directory or arguments are unusable (not a shard fault)."""


# ---------------------------------------------------------------------- #
# Lifecycle, retry policy, fault injection
# ---------------------------------------------------------------------- #
class ShardState(str, Enum):
    """Typed lifecycle of one shard inside a launch."""

    PENDING = "pending"
    RUNNING = "running"
    LANDED = "landed"
    FAILED = "failed"
    ORPHANED = "orphaned"

    @property
    def terminal(self) -> bool:
        return self in (ShardState.LANDED, ShardState.FAILED)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts *dispatches consuming retry budget* per
    shard and per scheduler process (speculative duplicates are free).
    The jitter is drawn from a :class:`random.Random` seeded by the
    shard token and attempt number, so two runs of the same plan wait
    the same amount — reproducibility extends to the retry schedule.
    """

    max_attempts: int = 6
    base_delay_s: float = 0.25
    backoff: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay_s(self, failures: int, token: str = "") -> float:
        """Seconds to wait before the dispatch following ``failures`` failures."""
        base = min(
            self.base_delay_s * self.backoff ** max(0, failures - 1),
            self.max_delay_s,
        )
        if not self.jitter:
            return base
        rng = random.Random(f"repro-retry:{token}:{failures}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault mix, e.g. ``crash:0.3,hang:0.1,corrupt:0.1``.

    Two independent fault categories share the spec:

    * **worker faults** (``crash``, ``hang``, ``corrupt``) — drawn once
      per shard attempt inside the worker body;
    * **network faults** (``drop``, ``stall``, ``tear``) — drawn per
      remote transport operation (stage/run/fetch) by the remote
      backends: a *drop* makes the operation fail immediately, a
      *stall* parks it until cancelled (modelling a dead connection the
      liveness relay must catch), and a *tear* lets a fetch complete
      with corrupted bytes (caught by the artifact's content digests).

    ``until`` restricts injection to the first N attempts of each shard
    (``until:1`` makes every first attempt eligible and every retry
    clean — handy for deterministic CI chaos steps); ``seed`` varies
    the deterministic draw stream.
    """

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    drop: float = 0.0
    stall: float = 0.0
    tear: float = 0.0
    seed: int = 0
    until: int | None = None

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        fields: dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                name, value = part.split(":", 1)
            except ValueError:
                raise LaunchError(
                    f"bad fault spec entry {part!r} (expected name:value)"
                ) from None
            name = name.strip()
            if name in ("crash", "hang", "corrupt", "drop", "stall", "tear"):
                fields[name] = float(value)
            elif name in ("seed", "until"):
                fields[name] = int(value)
            else:
                raise LaunchError(
                    f"unknown fault kind {name!r} "
                    "(have crash, hang, corrupt, drop, stall, tear, "
                    "seed, until)"
                )
        spec = cls(**fields)
        if not 0.0 <= spec.crash + spec.hang + spec.corrupt <= 1.0:
            raise LaunchError(
                "worker fault probabilities must sum to a value in [0, 1], "
                f"got {spec.crash + spec.hang + spec.corrupt}"
            )
        if not 0.0 <= spec.drop + spec.stall + spec.tear <= 1.0:
            raise LaunchError(
                "network fault probabilities must sum to a value in [0, 1], "
                f"got {spec.drop + spec.stall + spec.tear}"
            )
        return spec

    def describe(self) -> str:
        parts = [
            f"{name}:{value}"
            for name, value in (
                ("crash", self.crash),
                ("hang", self.hang),
                ("corrupt", self.corrupt),
                ("drop", self.drop),
                ("stall", self.stall),
                ("tear", self.tear),
            )
            if value
        ]
        if self.seed:
            parts.append(f"seed:{self.seed}")
        if self.until is not None:
            parts.append(f"until:{self.until}")
        return ",".join(parts) or "none"


class FaultInjector:
    """Draws a fault (or none) deterministically per (shard, attempt).

    The draw depends only on ``(spec.seed, shard_index, attempt)`` — not
    on scheduling order, machine, or process — so a chaos run replays
    identically: the same attempts crash, hang or corrupt every time.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec

    @classmethod
    def from_env(
        cls, env: Mapping[str, str] | None = None
    ) -> "FaultInjector | None":
        env = os.environ if env is None else env
        text = env.get(FAULT_ENV)
        if not text:
            return None
        return cls(FaultSpec.parse(text))

    def draw(self, shard_index: int, attempt: int) -> str | None:
        """``"crash"`` / ``"hang"`` / ``"corrupt"`` / ``None`` for one attempt."""
        spec = self.spec
        if spec.until is not None and attempt > spec.until:
            return None
        rng = random.Random(f"repro-fault:{spec.seed}:{shard_index}:{attempt}")
        roll = rng.random()
        for name, probability in (
            ("crash", spec.crash),
            ("hang", spec.hang),
            ("corrupt", spec.corrupt),
        ):
            if roll < probability:
                return name
            roll -= probability
        return None

    def draw_network(
        self, shard_index: int, attempt: int, op: str, try_number: int = 1
    ) -> str | None:
        """``"drop"`` / ``"stall"`` / ``"tear"`` / ``None`` for one
        transport operation.

        Like :meth:`draw`, a pure function of the identifying tuple —
        here ``(seed, shard, attempt, op, try)`` where ``op`` names the
        network step (``"stage"``, ``"run"``, ``"fetch"``) and ``try``
        counts the transport-level retries of that step — so a chaos
        run's network weather replays exactly, and a dropped operation
        may deterministically clear on its next retry.
        """
        spec = self.spec
        if spec.until is not None and attempt > spec.until:
            return None
        rng = random.Random(
            f"repro-netfault:{spec.seed}:{shard_index}:{attempt}:{op}:{try_number}"
        )
        roll = rng.random()
        for name, probability in (
            ("drop", spec.drop),
            ("stall", spec.stall),
            ("tear", spec.tear),
        ):
            if roll < probability:
                return name
            roll -= probability
        return None


# ---------------------------------------------------------------------- #
# The append-only journal
# ---------------------------------------------------------------------- #
class Journal:
    """Crash-safe append-only event log (``journal.jsonl``).

    Each event is one JSON line written with ``O_APPEND`` + flush +
    ``fsync`` — on POSIX a single short append is atomic, and the
    fsync bounds what a power cut can lose to the final line.  The
    reader (:meth:`read_events`) skips any line that does not parse,
    so a tail torn by a crashed scheduler degrades to one lost event,
    never an unreadable journal.  (Artifacts — the expensive state —
    are published by atomic rename exactly like the shard writer; the
    journal only has to *survive* crashes, not replace them.)

    Left alone, the log grows without bound across retries and resume
    cycles, so every graceful exit **compacts** it (:meth:`compact`):
    the state a resume needs — attempt high-water marks, landed/failed
    shards — is folded into an atomically published
    ``journal-snapshot.json`` and the log restarts near-empty.  Readers
    replay snapshot *plus* tail; a crash between the two writes leaves
    either the old log or the new snapshot + fresh log, never neither.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @property
    def snapshot_path(self) -> Path:
        return self.path.with_name(SNAPSHOT_FILENAME)

    def append(self, event: str, **fields: Any) -> dict[str, Any]:
        entry = {"ts": time.time(), "event": event, **fields}
        line = json.dumps(entry) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        return entry

    @classmethod
    def read_events(cls, path: str | Path) -> list[dict[str, Any]]:
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            return []
        events: list[dict[str, Any]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail from a crashed writer
            if isinstance(entry, dict):
                events.append(entry)
        return events

    @property
    def archive_path(self) -> Path:
        return self.path.with_name(ARCHIVE_FILENAME)

    def compact(self, state: Mapping[str, Any]) -> Path:
        """Fold the log into ``journal-snapshot.json`` and restart it.

        ``state`` is whatever a future resume needs (attempt counters,
        landed/failed shards); the snapshot also records how many events
        it folded.  The snapshot is published by atomic rename *before*
        the log is rotated, so a crash mid-compaction can only leave
        extra (still replayable) events behind, never lose state.  The
        raw event lines move to ``journal-archive.jsonl`` (previous
        generation only) for post-mortems; resume never replays them —
        it reads the snapshot plus whatever tail accrued afterwards.
        """
        folded = len(self.read_events(self.path))
        payload = {
            "kind": "repro-launch-journal-snapshot",
            "ts": time.time(),
            "folded_events": folded,
            **state,
        }
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        os.replace(tmp, self.snapshot_path)
        try:
            os.replace(self.path, self.archive_path)
        except OSError:
            pass  # nothing to archive (journal never written)
        self.append("compact", snapshot=SNAPSHOT_FILENAME, folded_events=folded)
        return self.snapshot_path

    @classmethod
    def read_snapshot(cls, path: str | Path) -> dict[str, Any] | None:
        """The compacted snapshot next to journal ``path``, if one exists."""
        snapshot_path = Path(path).with_name(SNAPSHOT_FILENAME)
        try:
            payload = json.loads(snapshot_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "repro-launch-journal-snapshot"
        ):
            return None
        return payload


# ---------------------------------------------------------------------- #
# Worker execution (shared by the thread backend and repro.experiments.worker)
# ---------------------------------------------------------------------- #
class _HeartbeatWriter(threading.Thread):
    """Touches a heartbeat file every ``interval`` seconds until stopped."""

    def __init__(self, path: Path, interval: float):
        super().__init__(name=f"heartbeat:{path.name}", daemon=True)
        self.path = path
        self.interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while True:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.touch()
            except OSError:
                pass  # a vanished launch dir must not crash the worker
            if self._stop.wait(self.interval):
                return

    def stop(self) -> None:
        self._stop.set()


def _corrupt_artifact(path: Path) -> None:
    """Injected fault: scribble garbage over the artifact's column store
    (or its manifest for empty shards), modelling a worker that crashed
    mid-write on a filesystem without atomic publish."""
    numeric = path / NUMERIC_NAME
    target = numeric if numeric.exists() else path / MANIFEST_NAME
    target.write_bytes(b"\x00injected corrupt artifact write\x00")


def execute_shard_attempt(
    spec: SweepSpec,
    shard_index: int,
    shard_count: int,
    staging_path: Path,
    heartbeat_path: Path,
    heartbeat_interval: float,
    shared_cache: str | Path | None = None,
    fault: FaultInjector | None = None,
    attempt: int = 1,
    stop_event: threading.Event | None = None,
    hard_crash: bool = False,
) -> int:
    """One worker attempt: heartbeat, (injected faults,) run, write.

    The single worker body shared by :class:`ThreadBackend` (in-process)
    and :mod:`repro.experiments.worker` (a forked or remote process).
    Returns a worker exit code; ``hard_crash`` makes an injected crash
    ``os._exit`` so the process dies without running any cleanup — the
    closest portable stand-in for a segfault.
    """
    stop_event = stop_event if stop_event is not None else threading.Event()
    heartbeat = _HeartbeatWriter(heartbeat_path, heartbeat_interval)
    heartbeat.start()
    try:
        mode = fault.draw(shard_index, attempt) if fault is not None else None
        if mode == "crash":
            if hard_crash:
                os._exit(EXIT_INJECTED_CRASH)
            return EXIT_INJECTED_CRASH
        if mode == "hang":
            # The silent-failure scenario: the worker stays alive but
            # stops pulsing; only the scheduler's liveness check (or a
            # kill) ends it.
            heartbeat.stop()
            while not stop_event.wait(0.1):
                pass
            return EXIT_KILLED
        cache = (
            SimulationCache(shared_dir=shared_cache)
            if shared_cache is not None
            else None
        )
        artifact = ShardRunner(spec, shard_count, cache=cache).run(shard_index)
        artifact.write(staging_path)
        # Write-side validation hook: prove the bytes on disk match the
        # manifest's content digests before the artifact is offered for
        # transfer.  Runs *before* the injected corruption below — that
        # fault models corruption the writer itself cannot see, and must
        # reach the scheduler's (or the transfer's) validation instead.
        verify_artifact_files(staging_path)
        if mode == "corrupt":
            _corrupt_artifact(staging_path)
        return 0
    finally:
        heartbeat.stop()


# ---------------------------------------------------------------------- #
# Worker backends
# ---------------------------------------------------------------------- #
@dataclass
class DispatchContext:
    """Everything a backend needs to start one shard attempt."""

    spec: SweepSpec
    spec_path: Path
    shard_index: int
    shard_count: int
    attempt: int
    staging_path: Path
    heartbeat_path: Path
    heartbeat_interval: float
    log_path: Path
    shared_cache: str | None
    fault_text: str | None
    speculative: bool

    def worker_args(
        self,
        *,
        spec: str | None = None,
        staging: str | None = None,
        heartbeat: str | None = None,
        shared_cache: bool = True,
    ) -> list[str]:
        """Arguments of ``python -m repro.experiments.worker`` for this
        attempt.  Paths default to the local ones; a remote backend
        passes the host's paths and drops the shared cache unless the
        host shares this filesystem."""
        args = [
            "--spec", spec or str(self.spec_path),
            "--index", str(self.shard_index),
            "--count", str(self.shard_count),
            "--staging", staging or str(self.staging_path),
            "--heartbeat", heartbeat or str(self.heartbeat_path),
            "--interval", str(self.heartbeat_interval),
            "--attempt", str(self.attempt),
        ]
        if shared_cache and self.shared_cache:
            args += ["--shared-cache", str(self.shared_cache)]
        if self.fault_text:
            args += ["--fault-spec", self.fault_text]
        return args


def worker_env(pythonpath: str | None = None) -> dict[str, str]:
    """Environment of a local worker process.

    This package goes first on ``PYTHONPATH``.  The fault spec is
    dropped: faults travel by argv (attempt-numbered, scheduler-owned)
    and must never apply twice inside the worker.
    """
    env = dict(os.environ)
    env.pop(FAULT_ENV, None)
    package_root = pythonpath or str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class WorkerHandle:
    """One in-flight attempt, pollable and killable by the scheduler."""

    def __init__(self, ctx: DispatchContext):
        self.shard_index = ctx.shard_index
        self.attempt = ctx.attempt
        self.staging_path = ctx.staging_path
        self.heartbeat_path = ctx.heartbeat_path
        self.speculative = ctx.speculative
        self.started = time.time()
        self.pid: int | None = None

    def poll(self) -> int | None:  # pragma: no cover - abstract
        raise NotImplementedError

    def kill(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _ThreadWorkerHandle(WorkerHandle):
    def __init__(
        self,
        ctx: DispatchContext,
        injector: FaultInjector | None,
        finished: threading.Event,
    ):
        super().__init__(ctx)
        self._stop = threading.Event()
        self._result: list[int] = []

        def _body() -> None:
            code = 1
            try:
                code = execute_shard_attempt(
                    ctx.spec,
                    ctx.shard_index,
                    ctx.shard_count,
                    ctx.staging_path,
                    ctx.heartbeat_path,
                    ctx.heartbeat_interval,
                    shared_cache=ctx.shared_cache,
                    fault=injector,
                    attempt=ctx.attempt,
                    stop_event=self._stop,
                )
            except BaseException:  # noqa: BLE001 - worker crash == exit 1
                _LOG.exception(
                    "in-process worker for shard %d crashed", ctx.shard_index
                )
            finally:
                self._result.append(code)
                finished.set()

        self._thread = threading.Thread(
            target=_body,
            name=f"shard-worker:{ctx.shard_index}.{ctx.attempt}",
            daemon=True,
        )
        self._thread.start()

    def poll(self) -> int | None:
        if self._result:
            return self._result[0]
        return None if self._thread.is_alive() else 1

    def kill(self) -> None:
        self._stop.set()


class _ForkServer:
    """The scheduler's end of one fork server (:func:`repro.experiments.worker.serve`).

    The server is forked from the scheduler process, so it starts with
    every module the scheduler has imported and costs no interpreter
    start.  Requests go down one pipe and events come back on another
    (the protocol is in :mod:`repro.experiments.worker`).  The server
    leads its own session, so the attempts it forks share its process
    group: if the server dies, one ``killpg`` ends the orphans.
    """

    #: Seconds to wait for a request's reply.
    REPLY_TIMEOUT_S = 60.0

    #: The scheduler's pipe ends of every server this process runs.  A
    #: server forked later must not hold them: a server sees its
    #: request EOF only once every copy of the write end is closed.
    _scheduler_fds: set[int] = set()

    def __init__(self) -> None:
        from repro.experiments.worker import serve

        request_r, request_w = os.pipe()
        event_r, event_w = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork() in a process with another
            # thread.  The scheduler forks its first server before it
            # starts any; the child below takes no lock another thread
            # could hold.
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:
                for fd in (request_r, request_w, event_r, event_w):
                    os.close(fd)
                raise
        if pid == 0:
            code = 1
            try:
                os.setsid()
                os.dup2(request_r, 0)
                os.dup2(event_w, 1)
                for fd in {request_r, request_w, event_r, event_w} - {0, 1}:
                    os.close(fd)
                for fd in self._scheduler_fds:
                    os.close(fd)
                # Fresh stdio objects: an inherited one may be locked by
                # a scheduler thread that does not exist here.
                sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
                sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
                # Faults travel by argv and must never apply twice.
                os.environ.pop(FAULT_ENV, None)
                code = serve()
            finally:
                # Never back into the scheduler: no finally, atexit or
                # finalizer of the parent may run here.
                os._exit(code)
        os.close(request_r)
        os.close(event_w)
        self.pid = pid
        self.returncode: int | None = None
        self._requests = os.fdopen(request_w, "wb")
        self._events = event_r
        self._scheduler_fds.update((request_w, event_r))
        self.alive = True
        self.pids: dict[int, int] = {}
        self.exits: dict[int, int] = {}
        self.errors: dict[int, str] = {}
        #: An exit or error event arrived since the last :meth:`wait`.
        self.news = False
        self._pending = b""
        self._next_id = 0

    def _send(self, request: dict[str, Any]) -> None:
        if not self.alive:
            return
        try:
            self._requests.write(json.dumps(request).encode() + b"\n")
            self._requests.flush()
        except OSError:
            self._lost()

    def start(self, argv: list[str], log: Path) -> int:
        """Fork one attempt; returns its request id once the server has
        answered (``pids`` or ``errors`` then holds the answer, unless
        the server died)."""
        ident = self._next_id
        self._next_id += 1
        self._send({"op": "run", "id": ident, "argv": argv, "log": str(log)})
        deadline = time.monotonic() + self.REPLY_TIMEOUT_S
        while self.alive and ident not in self.pids and ident not in self.errors:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                _LOG.error("fork server gave no reply in %.0fs", self.REPLY_TIMEOUT_S)
                self._lost()
                break
            self.pump(remaining)
        return ident

    def kill(self, ident: int) -> None:
        self._send({"op": "kill", "id": ident})

    def pump(self, timeout: float = 0.0) -> None:
        """Read the events that arrive within ``timeout`` seconds."""
        if not self.alive:
            return
        if not select.select([self._events], [], [], timeout)[0]:
            return
        chunk = os.read(self._events, 1 << 16)
        if not chunk:
            self._lost()
            return
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        for line in lines:
            try:
                event = json.loads(line)
                ident = int(event["id"])
                if "pid" in event:
                    self.pids[ident] = event["pid"]
                elif "exit" in event:
                    self.exits[ident] = event["exit"]
                    self.news = True
                else:
                    self.errors[ident] = f"{event['error']}: {event['detail']}"
                    self.news = True
            except (ValueError, TypeError, KeyError):
                _LOG.error("unexpected fork server event: %r", line)

    def _lost(self) -> None:
        _LOG.warning("fork server %d lost", self.pid)
        self.close()

    def close(self) -> None:
        """Stop the server and reap it, leaving no attempt running.

        Closing the request pipe asks the server to SIGKILL and reap its
        in-flight attempts, then exit; EOF on the event pipe says it is
        gone.  The server is waited for *without* being reaped, so its
        pid, and so its process-group id, stays reserved while the group
        gets a final SIGKILL.  That ends the attempts of a server that
        died before it could clean up.
        """
        if self.returncode is not None:
            return  # already reaped: the group id may belong to others now
        self.alive = False
        self._scheduler_fds.difference_update((self._requests.fileno(), self._events))
        try:
            self._requests.close()
        except OSError:
            pass
        gone = False
        deadline = time.monotonic() + 10.0
        while not gone and (remaining := deadline - time.monotonic()) > 0:
            if select.select([self._events], [], [], remaining)[0]:
                gone = not os.read(self._events, 1 << 16)
        os.close(self._events)
        if gone and hasattr(os, "waitid"):
            # Its fds are closed, so the exit is moments away.
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        _, status = os.waitpid(self.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)


class _ForkedWorkerHandle(WorkerHandle):
    """One attempt forked by the fork server."""

    def __init__(self, ctx: DispatchContext, server: _ForkServer):
        super().__init__(ctx)
        self.failure_cause: str | None = None
        self.failure_detail: str | None = None
        self._server = server
        self._id = server.start(ctx.worker_args(), ctx.log_path)
        self.pid = server.pids.pop(self._id, None)
        self._code: int | None = None

    def poll(self) -> int | None:
        if self._code is None:
            server = self._server
            server.pump()
            if self._id in server.exits:
                self._code = server.exits.pop(self._id)
            elif self._id in server.errors or not server.alive:
                self.failure_cause = "fork-server"
                self.failure_detail = server.errors.pop(
                    self._id, "fork server died with the attempt in flight"
                )
                self._code = EXIT_FORK_SERVER_LOST
        return self._code

    def kill(self) -> None:
        if self.poll() is not None:
            return
        self._server.kill(self._id)
        deadline = time.monotonic() + 10.0
        while self.poll() is None and time.monotonic() < deadline:
            self._server.pump(max(0.0, deadline - time.monotonic()))


class ThreadBackend:
    """Runs shard attempts on daemon threads inside the scheduler process.

    Cheap (no interpreter start per shard) but shares the scheduler's
    fate and GIL; a *hung* attempt can be abandoned (its thread parks on
    a stop event) but a thread stuck in native code cannot be killed.
    The default for tests and small grids.  :meth:`wait` returns as
    soon as an attempt thread finishes.
    """

    name = "thread"

    def __init__(self, injector: FaultInjector | None = None):
        self._injector = injector
        self._finished = threading.Event()

    def dispatch(self, ctx: DispatchContext) -> WorkerHandle:
        return _ThreadWorkerHandle(ctx, self._injector, self._finished)

    def wait(self, timeout: float) -> None:
        """Return when an attempt finished since the last call, or after
        ``timeout`` seconds."""
        self._finished.wait(timeout)
        self._finished.clear()


class ProcessBackend:
    """Runs each shard attempt as a child of one warm fork server.

    :meth:`start` forks the server from the scheduler process itself,
    which has already imported the worker stack; the server then forks
    one child per attempt.  So a launch starts no Python interpreter
    and imports nothing again, and keeps full fault isolation: an
    attempt can crash, leak, or be SIGKILLed without touching the
    scheduler, and the scheduler's kill is a real ``SIGKILL``.
    Artifacts are deterministic functions of the plan slice, so a child
    of a warm process writes the same bytes a fresh interpreter would.
    Worker stdout/stderr go to per-attempt log files under ``logs/``.

    If the server dies, its in-flight attempts fail with cause
    ``fork-server`` and retry normally; the next dispatch forks a new
    server.  :meth:`close` (the scheduler calls it when :meth:`run
    <LaunchScheduler.run>` ends, on every path) stops the server and
    every attempt still running.  :meth:`wait` lets the scheduler sleep
    on the server's event pipe, so a finished attempt is reaped as soon
    as it exits.  The ssh and loopback backends still run the worker
    CLI once per attempt over their transport.
    """

    name = "process"

    def __init__(self) -> None:
        self._server: _ForkServer | None = None

    def start(self) -> None:
        """Fork the server unless a live one is running.  The scheduler
        calls this before it starts any thread, so the fork copies a
        single-threaded process."""
        if self._server is None or not self._server.alive:
            self._server = _ForkServer()

    def dispatch(self, ctx: DispatchContext) -> WorkerHandle:
        self.start()
        ctx.log_path.parent.mkdir(parents=True, exist_ok=True)
        return _ForkedWorkerHandle(ctx, self._server)

    def wait(self, timeout: float) -> None:
        """Return when the server has news (an attempt exited, or the
        server died) or after ``timeout`` seconds."""
        server = self._server
        if server is None or not server.alive:
            time.sleep(timeout)
            return
        if not server.news:
            server.pump(timeout)
        server.news = False

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None


BACKENDS = {"thread": ThreadBackend, "process": ProcessBackend}


# ---------------------------------------------------------------------- #
# The scheduler
# ---------------------------------------------------------------------- #
@dataclass
class _ShardTask:
    shard: Shard
    state: ShardState = ShardState.PENDING
    #: Dispatches so far (global attempt numbering — continues across
    #: resumes so fault draws and heartbeat paths never collide).
    attempt_counter: int = 0
    #: Dispatches that consumed retry budget *in this scheduler process*.
    budget_spent: int = 0
    failures: list[str] = field(default_factory=list)
    not_before: float = 0.0
    handles: list[WorkerHandle] = field(default_factory=list)
    speculated: bool = False
    restored: bool = False
    #: Landed without computing: copied from a prior run via the catalog.
    adopted: bool = False
    landed_attempt: int | None = None
    duration_s: float | None = None
    #: One record per dispatch — host, backend, exit code, failure
    #: cause, duration — the post-mortem trail ``failure-report.json``
    #: and the progress API expose.
    history: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class LaunchReport:
    """Machine-readable outcome of one :meth:`LaunchScheduler.run`."""

    digest: str
    shard_count: int
    backend: str
    exit_code: int
    landed: list[int]
    failed: list[int]
    restored: list[int]
    adopted: list[int]
    dispatches: int
    orphaned_events: int
    speculative_dispatches: int
    merged_path: Path | None
    csv_path: Path | None
    failure_report_path: Path | None
    duration_s: float
    artifact: ShardArtifact | None

    @property
    def complete(self) -> bool:
        return self.exit_code == EXIT_COMPLETE

    def describe(self) -> str:
        lines = [
            f"plan          : {self.digest} ({self.shard_count} shard(s), "
            f"backend={self.backend})",
            f"landed        : {len(self.landed)}/{self.shard_count}"
            + (f" ({len(self.restored)} restored on resume)" if self.restored else "")
            + (
                f" ({len(self.adopted)} adopted from catalog)"
                if self.adopted
                else ""
            ),
            f"dispatches    : {self.dispatches}"
            + (
                f" ({self.speculative_dispatches} speculative)"
                if self.speculative_dispatches
                else ""
            ),
        ]
        if self.orphaned_events:
            lines.append(
                f"orphaned      : {self.orphaned_events} dead-worker event(s)"
            )
        if self.merged_path is not None:
            lines.append(f"merged        : {self.merged_path}")
        if self.csv_path is not None:
            lines.append(f"csv written   : {self.csv_path}")
        if self.failed:
            lines.append(f"failed shards : {self.failed}")
        if self.failure_report_path is not None:
            lines.append(f"failure report: {self.failure_report_path}")
        lines.append(
            "exit          : "
            + ("complete (0)" if self.complete else f"partial ({self.exit_code})")
        )
        return "\n".join(lines)


class LaunchScheduler:
    """Drives a full sharded sweep to completion despite worker faults.

    Parameters
    ----------
    directory:
        The launch directory.  Everything the run needs to survive a
        scheduler crash lives here: ``spec.pkl``, ``journal.jsonl``,
        ``shards/`` (landed artifacts), ``staging/`` (per-attempt
        scratch), ``heartbeats/``, ``logs/`` and, once the run ends,
        ``merged.repro-shard``.
    spec, shard_count:
        The grid and its partition.  Optional with ``resume=True`` —
        both are then restored from the launch directory (and verified
        against it when given).
    backend:
        ``"process"`` (default; one killable forked child of a warm fork
        server per attempt) or ``"thread"``, or a backend instance with a
        ``dispatch`` method (and optionally ``wait(timeout)`` to end the
        scheduler's wait early, and ``close()``, which :meth:`run` calls
        however it ends).
    max_workers:
        Concurrent attempts (default: ``min(shard_count, cpu_count, 8)``).
    retry, heartbeat_interval, heartbeat_timeout, shard_timeout:
        Robustness knobs; ``shard_timeout`` (wall-clock cap per attempt)
        is off by default.
    speculate / speculation_threshold / speculation_factor:
        Straggler re-issue: once ``threshold`` of shards have landed, a
        lone attempt running longer than ``factor ×`` the median landed
        duration is duplicated; first artifact wins.
    injector:
        A :class:`FaultInjector` (defaults to ``REPRO_FAULT_SPEC`` from
        the environment; pass ``injector=None, use_env_faults=False``
        to force clean runs).
    shared_cache, gc_max_age_days, gc_max_bytes:
        Workers share a :class:`~repro.experiments.cache.SharedCacheDir`
        (a root that is not a directory raises ``CacheRootError`` here);
        teardown garbage-collects it when either GC knob is set.
    catalog:
        An :class:`~repro.experiments.catalog.ExperimentCatalog` (or its
        database path) — ``repro launch --catalog``.  Every landed and
        merged artifact is registered at promotion time, and before
        dispatching, shards a *prior* run already landed anywhere are
        adopted (copied, digest-verified, re-validated against this
        plan) instead of recomputed.  Byte-identical by construction:
        shard artifacts are deterministic functions of their plan slice.
    """

    def __init__(
        self,
        directory: str | Path,
        spec: SweepSpec | None = None,
        shard_count: int | None = None,
        *,
        backend: str | Any = "process",
        max_workers: int | None = None,
        retry: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 30.0,
        shard_timeout: float | None = None,
        speculate: bool = True,
        speculation_threshold: float = 0.8,
        speculation_factor: float = 2.0,
        poll_interval: float = 0.05,
        injector: FaultInjector | None = None,
        use_env_faults: bool = True,
        shared_cache: str | Path | None = None,
        gc_max_age_days: float | None = None,
        gc_max_bytes: int | None = None,
        csv_path: str | Path | None = None,
        resume: bool = False,
        serve: str | None = None,
        catalog: str | Path | ExperimentCatalog | None = None,
    ):
        self.directory = Path(directory)
        self.retry = retry if retry is not None else RetryPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.shard_timeout = shard_timeout
        self.speculate = speculate
        self.speculation_threshold = speculation_threshold
        self.speculation_factor = speculation_factor
        self.poll_interval = poll_interval
        # Validated once here (CacheRootError), not in every worker attempt.
        self.shared_cache = SharedCacheDir(shared_cache).root if shared_cache else None
        self.gc_max_age_days = gc_max_age_days
        self.gc_max_bytes = gc_max_bytes
        self.resume = resume
        self.serve = serve
        # The cross-run experiment catalog (``repro launch --catalog``):
        # landed artifacts are registered at promotion, and shards some
        # prior run already landed are adopted instead of re-dispatched.
        self.catalog: ExperimentCatalog | None = (
            catalog
            if catalog is None or isinstance(catalog, ExperimentCatalog)
            else ExperimentCatalog(catalog)
        )
        #: The live progress HTTP server (``--serve``), set by :meth:`run`.
        self.status_server: Any = None
        self._started: float | None = None
        self._finished: float | None = None

        if injector is None and use_env_faults:
            injector = FaultInjector.from_env()
        self.injector = injector

        spec, shard_count = self._resolve_spec(spec, shard_count)
        self.spec = spec
        self.plan = ShardPlan(spec, shard_count)
        if max_workers is None:
            max_workers = min(shard_count, os.cpu_count() or 1, 8)
        self.max_workers = max(1, max_workers)

        if isinstance(backend, str):
            try:
                backend_cls = BACKENDS[backend]
            except KeyError:
                raise LaunchError(
                    f"unknown backend {backend!r} (have {sorted(BACKENDS)})"
                ) from None
            backend = (
                backend_cls(injector=self.injector)
                if backend_cls is ThreadBackend
                else backend_cls()
            )
        self.backend = backend

        self.journal = Journal(self.journal_path)
        self.csv_path = Path(csv_path) if csv_path else None
        self._tasks: dict[int, _ShardTask] = {
            shard.index: _ShardTask(shard) for shard in self.plan
        }
        self._merged: ShardArtifact | None = None
        self._dispatches = 0
        self._speculative_dispatches = 0
        self._orphaned_events = 0

    # -- paths ---------------------------------------------------------- #
    @property
    def spec_path(self) -> Path:
        return self.directory / SPEC_FILENAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_FILENAME

    @property
    def shards_dir(self) -> Path:
        return self.directory / "shards"

    @property
    def staging_dir(self) -> Path:
        return self.directory / "staging"

    @property
    def heartbeats_dir(self) -> Path:
        return self.directory / "heartbeats"

    @property
    def logs_dir(self) -> Path:
        return self.directory / "logs"

    @property
    def merged_path(self) -> Path:
        return self.directory / MERGED_NAME

    @property
    def failure_report_path(self) -> Path:
        return self.directory / FAILURE_REPORT_FILENAME

    # -- setup ---------------------------------------------------------- #
    def _resolve_spec(
        self, spec: SweepSpec | None, shard_count: int | None
    ) -> tuple[SweepSpec, int]:
        spec_path = Path(self.directory) / SPEC_FILENAME
        if spec is None or shard_count is None:
            if not self.resume:
                raise LaunchError(
                    "spec and shard_count are required unless resume=True"
                )
            try:
                payload = pickle.loads(spec_path.read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError) as error:
                raise LaunchError(
                    f"cannot resume from {self.directory}: unreadable "
                    f"{SPEC_FILENAME} ({error})"
                ) from error
            stored_spec, stored_count = payload
            if spec is not None and spec_digest(spec) != spec_digest(stored_spec):
                raise LaunchError(
                    f"--resume grid does not match {spec_path}: digests "
                    f"{spec_digest(spec)} vs {spec_digest(stored_spec)}"
                )
            if shard_count is not None and shard_count != stored_count:
                raise LaunchError(
                    f"--resume shard count {shard_count} does not match the "
                    f"launch directory's {stored_count}"
                )
            return stored_spec, stored_count
        if self.resume and spec_path.exists():
            stored_spec, stored_count = pickle.loads(spec_path.read_bytes())
            if spec_digest(stored_spec) != spec_digest(spec):
                raise LaunchError(
                    f"--resume grid does not match {spec_path}: digests "
                    f"{spec_digest(spec)} vs {spec_digest(stored_spec)}"
                )
            if stored_count != shard_count:
                raise LaunchError(
                    f"--resume shard count {shard_count} does not match the "
                    f"launch directory's {stored_count}"
                )
        return spec, shard_count

    def _prepare(self) -> None:
        for path in (
            self.directory,
            self.shards_dir,
            self.staging_dir,
            self.heartbeats_dir,
            self.logs_dir,
        ):
            path.mkdir(parents=True, exist_ok=True)
        if not self.resume:
            # A compacted run's landed shards live in the snapshot, not
            # the (truncated) log — check both before clobbering.
            snapshot = Journal.read_snapshot(self.journal_path)
            landed = bool(snapshot and snapshot.get("landed")) or any(
                event.get("event") in ("land", "restore")
                for event in Journal.read_events(self.journal_path)
            )
            if landed:
                raise LaunchError(
                    f"{self.directory} already holds a journal with landed "
                    "shards; pass resume=True (repro launch --resume) to "
                    "continue it, or use a fresh directory"
                )
        if not self.spec_path.exists():
            self.spec_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.spec_path.with_suffix(".pkl.tmp")
            tmp.write_bytes(
                pickle.dumps((self.spec, self.plan.count), pickle.HIGHEST_PROTOCOL)
            )
            os.replace(tmp, self.spec_path)
        self.journal.append(
            "resume" if self.resume else "launch",
            digest=self.plan.digest,
            shard_count=self.plan.count,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            version=__version__,
            max_workers=self.max_workers,
            retry=dataclasses.asdict(self.retry),
            faults=self.injector.spec.describe() if self.injector else None,
        )
        # Remote backends journal their own events (host quarantine and
        # recovery) through this sink; local backends have none to emit.
        sink = getattr(self.backend, "set_event_sink", None)
        if sink is not None:
            sink(self.journal.append)

    def _restore(self) -> None:
        """Rebuild state from the launch directory (crash-safe resume).

        Landed shards are restored from their *validated* on-disk
        artifacts — the artifact, not the journal, is the ground truth
        (the journal may have lost its final line to the crash).  An
        artifact that fails validation (a half-written directory from a
        killed worker predating staging promotion, or bit rot) is
        removed and its shard re-run.  Attempt counters continue from
        the journal's high-water mark so heartbeat/staging names and
        fault draws never collide with the previous run's.
        """
        attempts_seen: dict[int, int] = {}
        # Replay = snapshot (compacted history) + tail (events since):
        # the snapshot holds the attempt high-water marks of everything
        # the last graceful exit folded away.
        snapshot = Journal.read_snapshot(self.journal_path)
        if snapshot:
            for shard_text, attempt in (snapshot.get("attempts") or {}).items():
                try:
                    attempts_seen[int(shard_text)] = int(attempt)
                except (TypeError, ValueError):
                    continue
        for event in Journal.read_events(self.journal_path):
            shard = event.get("shard")
            attempt = event.get("attempt")
            if isinstance(shard, int) and isinstance(attempt, int):
                attempts_seen[shard] = max(attempts_seen.get(shard, 0), attempt)
        for task in self._tasks.values():
            task.attempt_counter = attempts_seen.get(task.shard.index, 0)
            final = self.shards_dir / task.shard.artifact_name
            if not (final / MANIFEST_NAME).exists():
                if final.exists():
                    shutil.rmtree(final, ignore_errors=True)
                continue
            try:
                artifact = self._validated_artifact(final, task.shard)
            except ShardError as error:
                _LOG.warning(
                    "discarding invalid landed artifact %s: %s", final, error
                )
                shutil.rmtree(final, ignore_errors=True)
                continue
            task.state = ShardState.LANDED
            task.restored = True
            task.landed_attempt = task.attempt_counter or None
            self._merge_in(artifact)
            self._register_artifact(final)
            self.journal.append(
                "restore", shard=task.shard.index, rows=artifact.row_count
            )

    # -- lifecycle steps ------------------------------------------------ #
    def _validated_artifact(self, path: Path, shard: Shard) -> ShardArtifact:
        artifact = ShardArtifact.read(path)
        if artifact.spec_digest != self.plan.digest:
            raise ShardError(
                f"{path}: foreign spec digest {artifact.spec_digest} "
                f"(plan is {self.plan.digest})"
            )
        if artifact.shard_count != self.plan.count:
            raise ShardError(
                f"{path}: planned for {artifact.shard_count} shard(s), "
                f"expected {self.plan.count}"
            )
        if artifact.shard_indices != (shard.index,):
            raise ShardError(
                f"{path}: covers shards {artifact.shard_indices}, "
                f"expected ({shard.index},)"
            )
        return artifact

    def _merge_in(self, artifact: ShardArtifact) -> None:
        """Fold one landed artifact into the running in-memory merge
        (what ``/status`` reports).  Associativity of
        :func:`merge_artifacts` makes the left fold equal to the
        one-shot merge of everything; :meth:`_finalize` publishes it
        as ``merged.repro-shard`` once."""
        self._merged = (
            artifact
            if self._merged is None
            else merge_artifacts([self._merged, artifact])
        )

    def _register_artifact(self, path: Path, kind: str | None = None) -> None:
        """Index one promoted artifact in the cross-run catalog.

        Best-effort by design: the artifact on disk is the ground truth
        and a lost registration only costs a future cache miss, so a
        catalog hiccup (contended database on a dying disk, say) is
        logged and the run continues.
        """
        if self.catalog is None:
            return
        try:
            entry = self.catalog.register(path, kind=kind)
        except Exception:  # noqa: BLE001 - cataloging must never kill a run
            _LOG.exception("catalog registration failed for %s", path)
            return
        self.journal.append(
            "catalog-register",
            shard_key=entry.shard_key,
            kind=entry.kind,
            path=str(entry.path),
        )

    def _adopt_from_catalog(self) -> None:
        """Land pending shards some prior run already computed.

        For every still-pending shard, the catalog is asked for an
        ``ok``-status artifact under the shard's content-addressed key
        (which covers spec digest, shard count, index sets and code
        version, so foreign specs and stale versions cannot answer).
        A hit is copied into staging, its per-file digests re-verified,
        re-validated against *this* plan, and promoted exactly like a
        worker-produced artifact — so a rotten catalog entry degrades
        to a normal dispatch, never a wrong merge.
        """
        if self.catalog is None:
            return
        for task in sorted(self._tasks.values(), key=lambda t: t.shard.index):
            if task.state is not ShardState.PENDING:
                continue
            try:
                entry = self.catalog.lookup(task.shard.key)
            except Exception:  # noqa: BLE001 - catalog loss != launch loss
                _LOG.exception("catalog lookup failed; dispatching normally")
                return
            if entry is None:
                continue
            final = self.shards_dir / task.shard.artifact_name
            staging = (
                self.staging_dir
                / f"adopt-{task.shard.index:04d}{SHARD_SUFFIX}"
            )
            shutil.rmtree(staging, ignore_errors=True)
            try:
                shutil.copytree(entry.path, staging)
                verify_artifact_files(staging)
                artifact = self._validated_artifact(staging, task.shard)
            except (OSError, ShardError) as error:
                _LOG.warning(
                    "refusing catalog entry %s for shard %d: %s",
                    entry.path,
                    task.shard.index,
                    error,
                )
                shutil.rmtree(staging, ignore_errors=True)
                self.journal.append(
                    "adopt-reject",
                    shard=task.shard.index,
                    source=str(entry.path),
                    reason=str(error),
                )
                continue
            if final.exists():
                shutil.rmtree(final, ignore_errors=True)
            os.replace(staging, final)
            task.state = ShardState.LANDED
            task.adopted = True
            self._merge_in(artifact)
            self.journal.append(
                "adopt",
                shard=task.shard.index,
                source=str(entry.path),
                rows=artifact.row_count,
            )

    def _dispatch(self, task: _ShardTask, speculative: bool = False) -> None:
        task.attempt_counter += 1
        attempt = task.attempt_counter
        index = task.shard.index
        tag = f"shard-{index:04d}.attempt-{attempt:04d}"
        heartbeat_path = self.heartbeats_dir / f"{tag}.hb"
        heartbeat_path.parent.mkdir(parents=True, exist_ok=True)
        heartbeat_path.touch()  # dispatch counts as the first pulse
        ctx = DispatchContext(
            spec=self.spec,
            spec_path=self.spec_path,
            shard_index=index,
            shard_count=self.plan.count,
            attempt=attempt,
            staging_path=self.staging_dir / f"{tag}{SHARD_SUFFIX}",
            heartbeat_path=heartbeat_path,
            heartbeat_interval=self.heartbeat_interval,
            log_path=self.logs_dir / f"{tag}.log",
            shared_cache=str(self.shared_cache) if self.shared_cache else None,
            fault_text=self.injector.spec.describe() if self.injector else None,
            speculative=speculative,
        )
        handle = self.backend.dispatch(ctx)
        task.state = ShardState.RUNNING
        task.handles.append(handle)
        if speculative:
            task.speculated = True
            self._speculative_dispatches += 1
        else:
            task.budget_spent += 1
        self._dispatches += 1
        host = getattr(handle, "host", None)
        task.history.append(
            {
                "attempt": attempt,
                "host": host,
                "backend": getattr(
                    self.backend, "name", type(self.backend).__name__
                ),
                "speculative": speculative,
                "started": round(handle.started, 3),
            }
        )
        self.journal.append(
            "dispatch",
            shard=index,
            attempt=attempt,
            speculative=speculative,
            pid=handle.pid,
            host=host,
        )

    def _discard_staging(self, handle: WorkerHandle) -> None:
        shutil.rmtree(handle.staging_path, ignore_errors=True)

    def _record_outcome(
        self,
        task: _ShardTask,
        handle: WorkerHandle,
        outcome: str,
        cause: str | None = None,
        exit_code: int | None = None,
    ) -> None:
        """Close out the attempt-history record this handle opened."""
        for entry in reversed(task.history):
            if entry["attempt"] == handle.attempt:
                entry["outcome"] = outcome
                entry["duration_s"] = round(time.time() - handle.started, 6)
                if cause is not None:
                    entry["cause"] = cause
                if exit_code is not None:
                    entry["exit_code"] = exit_code
                break

    def _notify_backend(self, handle: WorkerHandle, ok: bool) -> None:
        """Feed per-host health tracking in backends that keep any."""
        record = getattr(self.backend, "record_attempt", None)
        if record is None:
            return
        try:
            record(handle, ok)
        except Exception:  # noqa: BLE001 - health tracking must not kill a run
            _LOG.exception("backend attempt-health callback failed")

    def _land(self, task: _ShardTask, handle: WorkerHandle, artifact: ShardArtifact) -> None:
        final = self.shards_dir / task.shard.artifact_name
        if (final / MANIFEST_NAME).exists():
            # A duplicate (speculative) attempt landed second; artifacts
            # are deterministic, so the copy is redundant, not a conflict.
            self._discard_staging(handle)
        else:
            if final.exists():
                shutil.rmtree(final, ignore_errors=True)
            os.replace(handle.staging_path, final)
            # The rename keeps the validated artifact's mapped column
            # store valid, so it is merged as read, not read again.
            artifact.path = final
        self._notify_backend(handle, ok=True)
        if task.state is ShardState.LANDED:
            return
        task.state = ShardState.LANDED
        task.landed_attempt = handle.attempt
        task.duration_s = time.time() - handle.started
        self._record_outcome(task, handle, "landed", exit_code=0)
        for other in task.handles:
            other.kill()
            self._discard_staging(other)
        task.handles.clear()
        self._merge_in(artifact)
        self._register_artifact(final)
        self.journal.append(
            "land",
            shard=task.shard.index,
            attempt=handle.attempt,
            rows=artifact.row_count,
            duration_s=round(task.duration_s, 6),
            speculative=handle.speculative,
            host=getattr(handle, "host", None),
        )

    def _attempt_failed(
        self,
        task: _ShardTask,
        handle: WorkerHandle,
        reason: str,
        orphaned: bool = False,
        cause: str | None = None,
        exit_code: int | None = None,
    ) -> None:
        self._discard_staging(handle)
        self._notify_backend(handle, ok=False)
        task.failures.append(f"attempt {handle.attempt}: {reason}")
        self._record_outcome(
            task,
            handle,
            "orphaned" if orphaned else "failed",
            cause=cause,
            exit_code=exit_code,
        )
        if orphaned:
            task.state = ShardState.ORPHANED
            self._orphaned_events += 1
        self.journal.append(
            "orphan" if orphaned else "fail",
            shard=task.shard.index,
            attempt=handle.attempt,
            reason=reason,
            cause=cause,
            speculative=handle.speculative,
            host=getattr(handle, "host", None),
        )
        if task.handles:
            # A duplicate attempt is still in flight; let it race on.
            task.state = ShardState.RUNNING
            return
        if task.budget_spent < self.retry.max_attempts:
            delay = self.retry.delay_s(
                task.budget_spent, token=f"{self.plan.digest}:{task.shard.index}"
            )
            task.not_before = time.monotonic() + delay
            task.state = ShardState.PENDING
            self.journal.append(
                "retry",
                shard=task.shard.index,
                next_attempt=task.attempt_counter + 1,
                delay_s=round(delay, 6),
            )
        else:
            task.state = ShardState.FAILED
            self.journal.append(
                "give-up",
                shard=task.shard.index,
                attempts=task.budget_spent,
                reasons=task.failures[-self.retry.max_attempts :],
            )

    def _reap(self) -> None:
        for task in self._tasks.values():
            for handle in list(task.handles):
                code = handle.poll()
                if code is None:
                    continue
                task.handles.remove(handle)
                if code == 0:
                    try:
                        artifact = self._validated_artifact(
                            handle.staging_path, task.shard
                        )
                    except ShardError as error:
                        self._attempt_failed(
                            task,
                            handle,
                            f"corrupt artifact: {error}",
                            cause="corrupt-artifact",
                            exit_code=code,
                        )
                        continue
                    self._land(task, handle, artifact)
                elif task.state is ShardState.LANDED:
                    self._discard_staging(handle)
                else:
                    detail = getattr(handle, "failure_detail", None)
                    reason = f"worker exited with code {code}"
                    if detail:
                        reason += f" ({detail})"
                    self._attempt_failed(
                        task,
                        handle,
                        reason,
                        cause=getattr(handle, "failure_cause", None) or "exit",
                        exit_code=code,
                    )

    def _check_liveness(self) -> None:
        now = time.time()
        for task in self._tasks.values():
            for handle in list(task.handles):
                try:
                    pulse = os.stat(handle.heartbeat_path).st_mtime
                except OSError:
                    pulse = handle.started
                stale = now - max(pulse, handle.started)
                reason = None
                cause = None
                if getattr(handle, "unreachable", False):
                    # Remote handles flag the host as unreachable after
                    # consecutive transport failures in their heartbeat
                    # relay — a distinct cause (the *network* died, not
                    # the worker), declared dead without waiting out the
                    # heartbeat timeout.
                    reason = (
                        f"host {getattr(handle, 'host', '?')} unreachable "
                        "(transport failures during heartbeat relay)"
                    )
                    cause = "unreachable"
                elif self.heartbeat_timeout and stale > self.heartbeat_timeout:
                    reason = (
                        f"heartbeat stale for {stale:.1f}s "
                        f"(timeout {self.heartbeat_timeout}s)"
                    )
                    cause = "heartbeat"
                elif (
                    self.shard_timeout
                    and now - handle.started > self.shard_timeout
                ):
                    reason = (
                        f"attempt exceeded shard timeout {self.shard_timeout}s"
                    )
                    cause = "timeout"
                if reason is None:
                    continue
                handle.kill()
                task.handles.remove(handle)
                self._attempt_failed(
                    task, handle, reason, orphaned=True, cause=cause
                )

    def _active_handles(self) -> int:
        return sum(len(task.handles) for task in self._tasks.values())

    def _dispatch_ready(self) -> None:
        free = self.max_workers - self._active_handles()
        if free <= 0:
            return
        now = time.monotonic()
        for task in sorted(self._tasks.values(), key=lambda t: t.shard.index):
            if free <= 0:
                break
            if task.state is not ShardState.PENDING or now < task.not_before:
                continue
            self._dispatch(task)
            free -= 1

    def _maybe_speculate(self) -> None:
        if not self.speculate:
            return
        free = self.max_workers - self._active_handles()
        if free <= 0:
            return
        landed = [t for t in self._tasks.values() if t.state is ShardState.LANDED]
        if len(landed) < self.speculation_threshold * self.plan.count:
            return
        if any(t.state is ShardState.PENDING for t in self._tasks.values()):
            return  # real work first
        durations = sorted(t.duration_s for t in landed if t.duration_s is not None)
        if not durations:
            return
        median = durations[len(durations) // 2]
        floor = max(median * self.speculation_factor, 4 * self.poll_interval)
        now = time.time()
        for task in self._tasks.values():
            if free <= 0:
                break
            if (
                task.state is not ShardState.RUNNING
                or task.speculated
                or len(task.handles) != 1
            ):
                continue
            if now - task.handles[0].started <= floor:
                continue
            self.journal.append("speculate", shard=task.shard.index)
            self._dispatch(task, speculative=True)
            free -= 1

    # -- teardown ------------------------------------------------------- #
    def _teardown_gc(self) -> None:
        if self.shared_cache is None:
            return
        if self.gc_max_age_days is None and self.gc_max_bytes is None:
            return
        report = SharedCacheDir(self.shared_cache).gc(
            max_age_days=self.gc_max_age_days, max_bytes=self.gc_max_bytes
        )
        self.journal.append(
            "cache-gc",
            removed_files=report.removed_files,
            removed_bytes=report.removed_bytes,
            kept_files=report.kept_files,
            kept_bytes=report.kept_bytes,
        )

    def _finalize(self, started: float) -> LaunchReport:
        landed = sorted(
            index
            for index, task in self._tasks.items()
            if task.state is ShardState.LANDED
        )
        failed = sorted(
            index
            for index, task in self._tasks.items()
            if task.state is ShardState.FAILED
        )
        restored = sorted(
            index for index, task in self._tasks.items() if task.restored
        )
        adopted = sorted(
            index for index, task in self._tasks.items() if task.adopted
        )
        exit_code = EXIT_COMPLETE if not failed else EXIT_PARTIAL
        failure_report_path = None
        if failed:
            points = self.spec.points()
            report_payload = {
                "kind": "repro-launch-failure-report",
                "version": __version__,
                "digest": self.plan.digest,
                "shard_count": self.plan.count,
                "landed_shards": landed,
                "failed_shards": [
                    {
                        "shard": index,
                        "attempts": self._tasks[index].budget_spent,
                        "reasons": self._tasks[index].failures,
                        # The full dispatch trail — which host ran each
                        # attempt, on which backend, how it ended and how
                        # long it took — so remote flakiness (one bad
                        # machine, a lossy link) is diagnosable from the
                        # report alone.
                        "attempt_history": self._tasks[index].history,
                        "point_indices": list(
                            self._tasks[index].shard.point_indices
                        ),
                        "point_cache_keys": [
                            points[i].cache_key
                            for i in self._tasks[index].shard.point_indices
                        ],
                        "relaunch": (
                            f"repro launch --resume --dir {self.directory}"
                        ),
                    }
                    for index in failed
                ],
            }
            describe_hosts = getattr(self.backend, "describe_hosts", None)
            if describe_hosts is not None:
                report_payload["hosts"] = describe_hosts()
            failure_report_path = self.failure_report_path
            tmp = failure_report_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(report_payload, indent=2))
            os.replace(tmp, failure_report_path)
        csv_path = None
        if self._merged is not None:
            self._merged.write(self.merged_path)
            if self.csv_path is not None:
                self._merged.result().write_csv(self.csv_path)
                csv_path = self.csv_path
        if self._merged is not None and not failed:
            # A complete merge is itself a reusable content-addressed
            # artifact (its shard key covers the full index union).
            self._register_artifact(self.merged_path, kind="merged")
        shutil.rmtree(self.staging_dir, ignore_errors=True)
        self._teardown_gc()
        # Graceful exit (complete or partial): fold the event log into a
        # snapshot so journals stay bounded across retry/resume cycles.
        # A later --resume replays snapshot + tail.
        self.journal.compact(
            {
                "digest": self.plan.digest,
                "shard_count": self.plan.count,
                "exit_code": exit_code,
                "attempts": {
                    str(index): task.attempt_counter
                    for index, task in sorted(self._tasks.items())
                    if task.attempt_counter
                },
                "landed": landed,
                "failed": failed,
            }
        )
        # Freeze the run clock: a finished run's /status payload must
        # report the final elapsed time, not keep counting wall-clock.
        self._finished = time.time()
        self.journal.append(
            "complete",
            exit_code=exit_code,
            landed=len(landed),
            failed=failed,
            duration_s=round(self._finished - started, 6),
        )
        return LaunchReport(
            digest=self.plan.digest,
            shard_count=self.plan.count,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            exit_code=exit_code,
            landed=landed,
            failed=failed,
            restored=restored,
            adopted=adopted,
            dispatches=self._dispatches,
            orphaned_events=self._orphaned_events,
            speculative_dispatches=self._speculative_dispatches,
            merged_path=self.merged_path if self._merged is not None else None,
            csv_path=csv_path,
            failure_report_path=failure_report_path,
            duration_s=self._finished - started,
            artifact=self._merged,
        )

    # -- live progress -------------------------------------------------- #
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of the run for the progress API (read-only)."""
        shards = []
        counts: dict[str, int] = {state.value: 0 for state in ShardState}
        for index in sorted(self._tasks):
            task = self._tasks[index]
            counts[task.state.value] += 1
            last = task.history[-1] if task.history else {}
            shards.append(
                {
                    "index": index,
                    "state": task.state.value,
                    "attempts": task.attempt_counter,
                    "points": len(task.shard.point_indices),
                    "host": last.get("host"),
                    "speculated": task.speculated,
                    "restored": task.restored,
                    "adopted": task.adopted,
                    "duration_s": task.duration_s,
                }
            )
        merged = self._merged
        payload: dict[str, Any] = {
            "kind": "repro-launch-status",
            "version": __version__,
            "digest": self.plan.digest,
            "shard_count": self.plan.count,
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "elapsed_s": (
                round((self._finished or time.time()) - self._started, 3)
                if self._started is not None
                else None
            ),
            "dispatches": self._dispatches,
            "speculative_dispatches": self._speculative_dispatches,
            "orphaned_events": self._orphaned_events,
            "states": counts,
            "shards": shards,
            "merge": (
                {
                    "covered_shards": list(merged.shard_indices),
                    "rows": merged.row_count,
                    "points": len(merged.points),
                }
                if merged is not None
                else None
            ),
        }
        describe_hosts = getattr(self.backend, "describe_hosts", None)
        if describe_hosts is not None:
            payload["hosts"] = describe_hosts()
        return payload

    # ------------------------------------------------------------------ #
    def run(self) -> LaunchReport:
        """Drive every shard to a terminal state and merge the results."""
        started = time.time()
        self._started = started
        self._prepare()
        try:
            start = getattr(self.backend, "start", None)
            if start is not None:
                # Before the status thread starts and before any artifact
                # is loaded: a fork copies only the imports and the spec.
                start()
            if self.serve is not None:
                from repro.experiments.status import StatusServer

                self.status_server = StatusServer(
                    self.snapshot,
                    self.journal_path,
                    address=self.serve,
                    catalog=(
                        (lambda: self.catalog.summary(self.plan.digest))
                        if self.catalog is not None
                        else None
                    ),
                )
                self.journal.append("serve", url=self.status_server.url)
            if self.resume:
                self._restore()
            self._adopt_from_catalog()
            while any(not task.state.terminal for task in self._tasks.values()):
                self._reap()
                self._check_liveness()
                self._dispatch_ready()
                self._maybe_speculate()
                if any(
                    not task.state.terminal for task in self._tasks.values()
                ):
                    self._wait()
            self._reap()  # collect any attempt finished during the last wait
            return self._finalize(started)
        finally:
            # Complete, partial or raising: no worker outlives the run.
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()
            if self.status_server is not None:
                self.status_server.close()

    def _wait(self) -> None:
        """Wait for the next scheduler tick.  A backend with ``wait``
        (the thread and process backends) ends the wait as soon as an
        attempt exits; the remote ones sleep.  Either way liveness and
        speculation checks run at least every ``poll_interval``."""
        wait = getattr(self.backend, "wait", None)
        if wait is None:
            time.sleep(self.poll_interval)
        else:
            wait(self.poll_interval)


def launch_sweep(
    spec: SweepSpec,
    shard_count: int,
    directory: str | Path,
    **kwargs: Any,
) -> LaunchReport:
    """Convenience wrapper: ``LaunchScheduler(directory, spec, count).run()``."""
    return LaunchScheduler(directory, spec, shard_count, **kwargs).run()


__all__ = [
    "BACKENDS",
    "EXIT_COMPLETE",
    "EXIT_FORK_SERVER_LOST",
    "EXIT_INJECTED_CRASH",
    "EXIT_KILLED",
    "EXIT_PARTIAL",
    "FAULT_ENV",
    "FaultInjector",
    "FaultSpec",
    "Journal",
    "LaunchError",
    "LaunchReport",
    "LaunchScheduler",
    "ProcessBackend",
    "RetryPolicy",
    "ShardState",
    "ThreadBackend",
    "execute_shard_attempt",
    "launch_sweep",
    "worker_env",
]
