"""Fault-tolerant scheduler: chaos coverage for ``repro launch``.

The contract under test is the robustness headline of the scheduler:
whatever faults the workers suffer — injected crashes, silent hangs,
corrupt artifact writes, a SIGKILLed subprocess, even the scheduler
itself being killed and resumed — a launch that completes produces a
merged CSV **byte-identical** to the monolithic
:class:`~repro.experiments.runner.SweepRunner` run.

Most scenarios run on the thread backend (no interpreter start per
attempt) with a deterministic :class:`FaultInjector`; the subprocess
backend is exercised where process isolation is the point (a real
SIGKILL, resuming after the scheduler dies).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    ShardRunner,
    SweepRunner,
    SweepSpec,
)
from repro.experiments.cache import CacheRootError, SharedCacheDir
from repro.experiments.scheduler import (
    EXIT_COMPLETE,
    EXIT_FORK_SERVER_LOST,
    EXIT_INJECTED_CRASH,
    EXIT_PARTIAL,
    FaultInjector,
    FaultSpec,
    Journal,
    LaunchError,
    LaunchScheduler,
    ProcessBackend,
    RetryPolicy,
    ThreadBackend,
    WorkerHandle,
    _ForkServer,
)
from repro.experiments.sharding import (
    ShardArtifact,
    ShardError,
    merge_shard_paths,
    read_artifacts,
)

#: Two points (one workload x two chips) — over 3 shards, one shard is
#: empty and must still land/merge cleanly.
SPEC = SweepSpec(
    workloads=("dlrm-s-inference",),
    chips=("NPU-C", "NPU-D"),
    batch_sizes=(1,),
)
SHARDS = 3


@pytest.fixture(scope="module")
def monolithic_csv(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("mono") / "mono.csv"
    SweepRunner(SPEC).run().write_csv(path)
    return path.read_bytes()


def fast_scheduler(directory, **overrides) -> LaunchScheduler:
    """A scheduler tuned for test wall-clock: tight polling, fast retries."""
    kwargs = dict(
        backend="thread",
        poll_interval=0.01,
        heartbeat_interval=0.05,
        heartbeat_timeout=30.0,
        retry=RetryPolicy(
            max_attempts=4, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0
        ),
        speculate=False,
        use_env_faults=False,
    )
    shard_count = overrides.pop("shard_count", SHARDS)
    # One slot per shard regardless of the host's core count: the
    # speculation/straggler scenarios need a free slot while a shard
    # stalls, and thread workers are cheap.
    kwargs["max_workers"] = shard_count
    kwargs.update(overrides)
    return LaunchScheduler(directory, SPEC, shard_count, **kwargs)


def assert_csv_identical(report, monolithic_csv: bytes) -> None:
    assert report.csv_path is not None
    assert report.csv_path.read_bytes() == monolithic_csv


def journal_events(directory, kind: str | None = None) -> list[dict]:
    """Events from the live journal plus the compaction archive."""
    events = Journal.read_events(
        Path(directory) / "journal-archive.jsonl"
    ) + Journal.read_events(Path(directory) / "journal.jsonl")
    if kind is None:
        return events
    return [event for event in events if event.get("event") == kind]


# ---------------------------------------------------------------------- #
# Unit: retry policy, fault spec/injector, journal
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay_s=1.0, backoff=2.0, max_delay_s=4.0, jitter=0.0)
        assert [policy.delay_s(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 4, 4]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, backoff=1.0, jitter=0.5)
        first = policy.delay_s(1, token="shard-a")
        assert first == policy.delay_s(1, token="shard-a")  # replayable
        assert 0.5 <= first <= 1.5
        assert first != policy.delay_s(1, token="shard-b")

    def test_attempt_budget_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestFaultSpec:
    def test_parse_round_trips_through_describe(self):
        spec = FaultSpec.parse("crash:0.3,hang:0.1,corrupt:0.05,seed:7,until:2")
        assert (spec.crash, spec.hang, spec.corrupt) == (0.3, 0.1, 0.05)
        assert (spec.seed, spec.until) == (7, 2)
        assert FaultSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bogus:1", "unknown fault kind"),
            ("crash", "expected name:value"),
            ("crash:0.9,hang:0.9", "must sum"),
        ],
    )
    def test_bad_specs_rejected(self, text, message):
        with pytest.raises(LaunchError, match=message):
            FaultSpec.parse(text)

    def test_injector_draws_are_reproducible(self):
        spec = FaultSpec(crash=0.3, hang=0.2, corrupt=0.1, seed=3)
        a, b = FaultInjector(spec), FaultInjector(spec)
        draws = [a.draw(shard, attempt) for shard in range(16) for attempt in (1, 2)]
        assert draws == [
            b.draw(shard, attempt) for shard in range(16) for attempt in (1, 2)
        ]
        assert {"crash", None} <= set(draws)  # the mix actually fires

    def test_until_limits_injection_to_early_attempts(self):
        injector = FaultInjector(FaultSpec(crash=1.0, until=2))
        assert injector.draw(0, 1) == "crash"
        assert injector.draw(0, 2) == "crash"
        assert injector.draw(0, 3) is None

    def test_from_env(self):
        assert FaultInjector.from_env({}) is None
        injector = FaultInjector.from_env({"REPRO_FAULT_SPEC": "crash:0.5"})
        assert injector is not None and injector.spec.crash == 0.5


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("launch", digest="abc")
        journal.append("land", shard=1)
        events = Journal.read_events(journal.path)
        assert [event["event"] for event in events] == ["launch", "land"]
        assert all("ts" in event for event in events)

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("launch")
        journal.append("land", shard=0)
        with open(journal.path, "ab") as handle:
            handle.write(b'{"event": "land", "shard')  # crash mid-append
        events = Journal.read_events(journal.path)
        assert [event["event"] for event in events] == ["launch", "land"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert Journal.read_events(tmp_path / "nope.jsonl") == []


# ---------------------------------------------------------------------- #
# Integration: fault scenarios on the thread backend
# ---------------------------------------------------------------------- #
class TestLaunchScenarios:
    def test_clean_launch_is_byte_identical(self, tmp_path, monolithic_csv):
        report = fast_scheduler(
            tmp_path / "run", csv_path=tmp_path / "out.csv"
        ).run()
        assert report.exit_code == EXIT_COMPLETE and report.complete
        assert report.landed == list(range(SHARDS)) and not report.failed
        assert report.dispatches == SHARDS
        assert_csv_identical(report, monolithic_csv)
        # The merged artifact written at the end is the full merge.
        merged = ShardArtifact.read(report.merged_path)
        assert merged.shard_indices == tuple(range(SHARDS))
        # A clean exit compacts the journal: the per-shard event log is
        # rotated to journal-archive.jsonl, state folds into
        # journal-snapshot.json, and the live log keeps only the
        # compaction marker plus the terminal event.
        events = [event["event"] for event in journal_events(tmp_path / "run")]
        assert events[0] == "launch" and events[-1] == "complete"
        assert events.count("land") == SHARDS
        live = [
            event["event"]
            for event in Journal.read_events(tmp_path / "run" / "journal.jsonl")
        ]
        assert live == ["compact", "complete"]
        snapshot = Journal.read_snapshot(tmp_path / "run" / "journal.jsonl")
        assert snapshot is not None
        assert snapshot["landed"] == list(range(SHARDS))
        assert snapshot["folded_events"] >= SHARDS  # launch + dispatch/land

    def test_injected_crashes_are_retried_to_completion(
        self, tmp_path, monolithic_csv
    ):
        injector = FaultInjector(FaultSpec(crash=1.0, until=1))
        report = fast_scheduler(
            tmp_path / "run", injector=injector, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        assert report.dispatches == 2 * SHARDS  # every first attempt crashed
        fails = journal_events(tmp_path / "run", "fail")
        assert len(fails) == SHARDS
        assert all(str(EXIT_INJECTED_CRASH) in f["reason"] for f in fails)
        assert_csv_identical(report, monolithic_csv)

    def test_hung_worker_is_declared_dead_and_redispatched(
        self, tmp_path, monolithic_csv
    ):
        injector = FaultInjector(FaultSpec(hang=1.0, until=1))
        report = fast_scheduler(
            tmp_path / "run",
            injector=injector,
            heartbeat_timeout=0.3,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete
        assert report.orphaned_events == SHARDS
        orphans = journal_events(tmp_path / "run", "orphan")
        assert all("heartbeat stale" in event["reason"] for event in orphans)
        assert_csv_identical(report, monolithic_csv)

    def test_corrupt_artifact_write_is_rejected_and_retried(
        self, tmp_path, monolithic_csv
    ):
        injector = FaultInjector(FaultSpec(corrupt=1.0, until=1))
        report = fast_scheduler(
            tmp_path / "run", injector=injector, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        fails = journal_events(tmp_path / "run", "fail")
        # Only non-empty shards produce a corruptible column store that
        # fails validation; all of those must have been caught.
        assert fails and all("corrupt artifact" in f["reason"] for f in fails)
        # No corrupt artifact ever reached the landed area.
        landed_dir = Path(tmp_path / "run") / "shards"
        artifacts, skipped = read_artifacts([landed_dir], strict=True)
        assert len(artifacts) == SHARDS and not skipped
        assert_csv_identical(report, monolithic_csv)

    def test_exhausted_retries_degrade_to_partial(self, tmp_path, monolithic_csv):
        class CrashOneShard(FaultInjector):
            def __init__(self, target: int):
                super().__init__(FaultSpec())
                self.target = target

            def draw(self, shard_index: int, attempt: int) -> str | None:
                return "crash" if shard_index == self.target else None

        scheduler = fast_scheduler(
            tmp_path / "run",
            injector=CrashOneShard(0),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0),
            csv_path=tmp_path / "out.csv",
        )
        report = scheduler.run()
        assert report.exit_code == EXIT_PARTIAL and not report.complete
        assert report.failed == [0]
        assert report.landed == [1, 2]
        # The machine-readable failure report names the shard, its
        # attempts, and the cache keys of the points to re-launch.
        payload = json.loads(report.failure_report_path.read_text())
        assert payload["kind"] == "repro-launch-failure-report"
        [failed] = payload["failed_shards"]
        assert failed["shard"] == 0 and failed["attempts"] == 2
        assert failed["point_indices"] and failed["point_cache_keys"]
        # Per-attempt history makes remote flakiness diagnosable
        # post-mortem: every attempt records where it ran and how it died.
        history = failed["attempt_history"]
        assert [entry["attempt"] for entry in history] == [1, 2]
        for entry in history:
            assert entry["outcome"] == "failed"
            assert entry["exit_code"] == EXIT_INJECTED_CRASH
            assert entry["backend"] == "thread"
            assert entry["duration_s"] >= 0.0
        # The partial merge covers exactly the landed shards and merges
        # again later (associativity) once shard 0 is re-run.
        partial = ShardArtifact.read(report.merged_path)
        assert partial.shard_indices == (1, 2)
        rerun = ShardRunner(SPEC, SHARDS).run(0)
        rerun_path = rerun.write(tmp_path / "rerun")
        completed = merge_shard_paths([report.merged_path, rerun_path])
        (tmp_path / "completed.csv").write_text(completed.result().to_csv())
        assert (tmp_path / "completed.csv").read_bytes() == monolithic_csv

    @pytest.mark.parametrize("crash_shard", [None, 0])
    def test_merged_artifact_is_written_once(
        self, tmp_path, monkeypatch, crash_shard
    ):
        written = []
        write = ShardArtifact.write

        def recording_write(artifact, path, *args, **kwargs):
            written.append(Path(path))
            return write(artifact, path, *args, **kwargs)

        monkeypatch.setattr(ShardArtifact, "write", recording_write)
        injector = None
        if crash_shard is not None:
            # Shard 0 exhausts its one attempt: a partial run.
            injector = FaultInjector(FaultSpec(crash=1.0))
            injector.draw = lambda shard, attempt: (
                "crash" if shard == crash_shard else None
            )
        report = fast_scheduler(
            tmp_path / "run",
            injector=injector,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.01, jitter=0.0),
        ).run()
        assert report.complete is (crash_shard is None)
        assert written.count(report.merged_path) == 1

    def test_straggler_speculation_first_artifact_wins(
        self, tmp_path, monolithic_csv
    ):
        class StalledHandle(WorkerHandle):
            """Alive (fresh heartbeat at dispatch) but never finishes."""

            def poll(self):
                return None

            def kill(self):
                pass

        class StallFirstAttempt:
            name = "stall-first"

            def __init__(self, injector=None):
                self.inner = ThreadBackend()

            def dispatch(self, ctx):
                if ctx.shard_index == 0 and not ctx.speculative:
                    return StalledHandle(ctx)
                return self.inner.dispatch(ctx)

        report = fast_scheduler(
            tmp_path / "run",
            backend=StallFirstAttempt(),
            speculate=True,
            speculation_threshold=0.5,
            speculation_factor=1.0,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete
        assert report.speculative_dispatches == 1
        assert journal_events(tmp_path / "run", "speculate")
        [land] = [
            event
            for event in journal_events(tmp_path / "run", "land")
            if event["shard"] == 0
        ]
        assert land["speculative"] is True
        assert_csv_identical(report, monolithic_csv)

    def test_each_landed_artifact_is_read_once(
        self, tmp_path, monkeypatch, monolithic_csv
    ):
        reads = []
        read = ShardArtifact.read.__func__

        def counting(cls, path):
            reads.append(Path(path))
            return read(cls, path)

        monkeypatch.setattr(ShardArtifact, "read", classmethod(counting))
        report = fast_scheduler(
            tmp_path / "run", shard_count=4, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        assert len(reads) == 4  # the validation in _reap, nothing more
        assert_csv_identical(report, monolithic_csv)

    def test_thread_backend_wait_ends_when_an_attempt_exits(
        self, tmp_path, monolithic_csv
    ):
        # Four shards one after another: a scheduler that slept out its
        # poll interval between them would take 15 s or more.
        started = time.monotonic()
        report = fast_scheduler(
            tmp_path / "run",
            shard_count=4,
            max_workers=1,
            poll_interval=5.0,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete and report.dispatches == 4
        assert time.monotonic() - started < 5.0
        assert_csv_identical(report, monolithic_csv)


# ---------------------------------------------------------------------- #
# Integration: process backend (real kills) and crash-safe resume
# ---------------------------------------------------------------------- #
def _repro_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_SPEC", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class TestProcessBackendAndResume:
    def test_sigkilled_worker_is_redispatched(self, tmp_path, monolithic_csv):
        class KillFirstAttempt(ProcessBackend):
            name = "kill-first"

            def dispatch(self, ctx):
                handle = super().dispatch(ctx)
                if ctx.shard_index == 0 and ctx.attempt == 1:
                    os.kill(handle.pid, signal.SIGKILL)
                return handle

        report = fast_scheduler(
            tmp_path / "run",
            backend=KillFirstAttempt(),
            shard_count=2,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete
        [fail] = journal_events(tmp_path / "run", "fail")
        assert fail["shard"] == 0 and str(-signal.SIGKILL) in fail["reason"]
        assert_csv_identical(report, monolithic_csv)

    def test_resume_after_scheduler_sigkill_skips_landed_shards(
        self, tmp_path, monolithic_csv
    ):
        launch_dir = tmp_path / "run"
        argv = [
            sys.executable, "-m", "repro", "launch",
            "-w", "dlrm-s-inference", "--chip", "NPU-C", "--chip", "NPU-D",
            "--batch-size", "1",
            "--shards", str(SHARDS), "--dir", str(launch_dir),
            "--max-workers", "1", "--heartbeat-interval", "0.2",
            "--csv", str(tmp_path / "out.csv"),
        ]
        process = subprocess.Popen(
            argv, env=_repro_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if journal_events(launch_dir, "land"):
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.05)
        finally:
            # SIGKILL: the scheduler gets no chance to clean up — only
            # the journal and the landed artifacts survive.
            process.kill()
            process.wait()
        landed_before = {e["shard"] for e in journal_events(launch_dir, "land")}
        assert landed_before, "scheduler was killed before any shard landed"
        report = fast_scheduler(
            launch_dir, resume=True, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        assert set(report.restored) >= landed_before
        # Restored shards were NOT re-run.
        assert report.dispatches == SHARDS - len(report.restored)
        assert_csv_identical(report, monolithic_csv)

    def test_resume_discards_invalid_landed_artifact(
        self, tmp_path, monolithic_csv
    ):
        launch_dir = tmp_path / "run"
        first = fast_scheduler(launch_dir).run()
        assert first.complete
        # Bit rot (or a pre-promotion crash) on one landed artifact: the
        # artifact, not the journal, is the restore ground truth.
        victim = launch_dir / "shards" / "shard-0000-of-0003.repro-shard"
        (victim / "columns.json").write_text("{ truncated")
        report = fast_scheduler(
            launch_dir, resume=True, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        assert 0 not in report.restored
        assert report.dispatches == 1  # only the damaged shard re-ran
        assert_csv_identical(report, monolithic_csv)

    def test_resume_refuses_a_different_grid(self, tmp_path):
        launch_dir = tmp_path / "run"
        fast_scheduler(launch_dir).run()
        other = SweepSpec(
            workloads=("dlrm-s-inference",), chips=("NPU-C",), batch_sizes=(1,)
        )
        with pytest.raises(LaunchError, match="does not match"):
            LaunchScheduler(launch_dir, other, SHARDS, resume=True)
        with pytest.raises(LaunchError, match="shard count"):
            LaunchScheduler(launch_dir, SPEC, SHARDS + 1, resume=True)

    def test_fresh_launch_refuses_a_used_directory(self, tmp_path):
        launch_dir = tmp_path / "run"
        fast_scheduler(launch_dir).run()
        with pytest.raises(LaunchError, match="resume"):
            fast_scheduler(launch_dir).run()

    def test_compaction_bounds_journal_and_resume_replays_snapshot(
        self, tmp_path, monolithic_csv
    ):
        class CrashOneShard(FaultInjector):
            def __init__(self, target: int):
                super().__init__(FaultSpec())
                self.target = target

            def draw(self, shard_index: int, attempt: int) -> str | None:
                return "crash" if shard_index == self.target else None

        launch_dir = tmp_path / "run"
        first = fast_scheduler(
            launch_dir,
            injector=CrashOneShard(0),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0),
        ).run()
        assert first.exit_code == EXIT_PARTIAL
        # A graceful partial exit compacts too — that is exactly the
        # journal a --resume will read.  The live log is O(1), not
        # O(attempts); history is archived, state is in the snapshot.
        live = Journal.read_events(launch_dir / "journal.jsonl")
        assert [e["event"] for e in live] == ["compact", "complete"]
        snapshot = Journal.read_snapshot(launch_dir / "journal.jsonl")
        assert snapshot["exit_code"] == EXIT_PARTIAL
        assert snapshot["failed"] == [0]
        assert snapshot["attempts"]["0"] == 3
        # Resume replays snapshot + tail: the retry budget and attempt
        # numbering continue where the first scheduler stopped.
        report = fast_scheduler(
            launch_dir, resume=True, csv_path=tmp_path / "out.csv"
        ).run()
        assert report.complete
        dispatches = [
            e
            for e in Journal.read_events(launch_dir / "journal-archive.jsonl")
            if e["event"] == "dispatch" and e["shard"] == 0
        ]
        assert dispatches and dispatches[-1]["attempt"] == 4
        assert_csv_identical(report, monolithic_csv)


# ---------------------------------------------------------------------- #
# The process backend's fork server
# ---------------------------------------------------------------------- #
#: Runs in a fresh interpreter, so that no other test's children can
#: show up: after each way ``run()`` can end, the scheduler process
#: must have no child left, live or zombie.
_NO_CHILD_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    from repro.experiments import SweepRunner, SweepSpec
    from repro.experiments.scheduler import (
        FaultInjector, FaultSpec, LaunchScheduler, ProcessBackend,
        RetryPolicy,
    )

    SPEC = SweepSpec(
        workloads=("dlrm-s-inference",), chips=("NPU-C", "NPU-D"),
        batch_sizes=(1,),
    )

    class Boom(RuntimeError):
        pass

    class RaiseOnLanding(LaunchScheduler):
        def _land(self, *args):
            raise Boom("scheduler bug")

    class KillServerOnce(ProcessBackend):
        killed = False

        def dispatch(self, ctx):
            handle = super().dispatch(ctx)
            if not self.killed:
                self.killed = True
                os.kill(self._server.pid, signal.SIGKILL)
            return handle

    def no_child():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    def launch(cls, name, **kwargs):
        options = dict(
            backend="process", max_workers=4, poll_interval=0.01,
            speculate=False, use_env_faults=False,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.01, jitter=0.0),
        )
        options.update(kwargs)
        return cls(os.path.join(sys.argv[1], name), SPEC, 4, **options).run()

    complete = launch(LaunchScheduler, "complete")
    print("complete", complete.exit_code, no_child())
    partial = launch(
        LaunchScheduler, "partial", injector=FaultInjector(FaultSpec(crash=1.0))
    )
    print("partial", partial.exit_code, no_child())
    try:
        launch(RaiseOnLanding, "raising")
    except Boom:
        print("raising", "raised", no_child())
    # The respawn forks while the status server's thread is alive.
    mono = os.path.join(sys.argv[1], "mono.csv")
    SweepRunner(SPEC).run().write_csv(mono)
    respawned = launch(
        LaunchScheduler, "respawned", backend=KillServerOnce(),
        serve="127.0.0.1:0", csv_path=os.path.join(sys.argv[1], "out.csv"),
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.0),
    )
    with open(mono, "rb") as handle:
        same = handle.read() == respawned.csv_path.read_bytes()
    print("respawned", respawned.exit_code, same, no_child())
    """
)


class TestForkServer:
    def test_a_launch_starts_no_interpreter(
        self, tmp_path, monkeypatch, monolithic_csv
    ):
        spawned = []

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                spawned.append(args)
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountingPopen)
        report = fast_scheduler(
            tmp_path / "run",
            backend="process",
            shard_count=4,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete and report.dispatches == 4
        assert spawned == []  # the server is forked from this process
        assert_csv_identical(report, monolithic_csv)

    def test_no_child_survives_run_on_any_path(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", _NO_CHILD_SCRIPT, str(tmp_path)],
            env=_repro_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:4] == [
            f"complete {EXIT_COMPLETE} True",
            f"partial {EXIT_PARTIAL} True",
            "raising raised True",
            f"respawned {EXIT_COMPLETE} True True",
        ]

    def test_injected_hard_crash_is_journalled_as_exit_70(
        self, tmp_path, monolithic_csv
    ):
        report = fast_scheduler(
            tmp_path / "run",
            backend="process",
            shard_count=2,
            injector=FaultInjector(FaultSpec(crash=1.0, until=1)),
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete and report.dispatches == 4
        fails = journal_events(tmp_path / "run", "fail")
        assert len(fails) == 2
        for fail in fails:
            assert fail["cause"] == "exit"
            assert f"code {EXIT_INJECTED_CRASH}" in fail["reason"]
        assert_csv_identical(report, monolithic_csv)

    def test_sigkilled_server_is_restarted_and_attempts_retried(
        self, tmp_path, monolithic_csv
    ):
        class KillServerOnce(ProcessBackend):
            name = "kill-server"
            killed = False

            def dispatch(self, ctx):
                handle = super().dispatch(ctx)
                if not self.killed:
                    self.killed = True
                    os.kill(self._server.pid, signal.SIGKILL)
                return handle

        report = fast_scheduler(
            tmp_path / "run",
            backend=KillServerOnce(),
            shard_count=2,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete
        lost = [
            fail
            for fail in journal_events(tmp_path / "run", "fail")
            if fail["cause"] == "fork-server"
        ]
        assert lost and report.dispatches == 2 + len(lost)
        assert all(f"code {EXIT_FORK_SERVER_LOST}" in f["reason"] for f in lost)
        assert_csv_identical(report, monolithic_csv)

    def test_malformed_request_gets_a_typed_error_reply(self):
        server = _ForkServer()
        try:
            server._requests.write(b'not json\n{"op": "run", "id": 7}\n')
            server._requests.flush()
            with os.fdopen(os.dup(server._events), "rb") as events:
                first = json.loads(events.readline())
                second = json.loads(events.readline())
            assert os.waitpid(server.pid, os.WNOHANG) == (0, 0)  # still serving
        finally:
            server.close()
        assert (first["id"], first["error"]) == (None, "bad-request")
        assert "not JSON" in first["detail"]
        assert (second["id"], second["error"]) == (7, "bad-request")
        assert "argv" in second["detail"]
        assert server.returncode == 0

    def test_attempts_do_not_see_the_fault_env(
        self, tmp_path, monkeypatch, monolithic_csv
    ):
        from repro.experiments import worker

        real = worker.execute_shard_attempt

        def recording(*args, **kwargs):
            print("fault-env", os.environ.get("REPRO_FAULT_SPEC"), flush=True)
            return real(*args, **kwargs)

        # Patched before the server is forked, so its children run it.
        monkeypatch.setattr(worker, "execute_shard_attempt", recording)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:1.0")
        report = fast_scheduler(
            tmp_path / "run",
            backend="process",
            shard_count=2,
            csv_path=tmp_path / "out.csv",
        ).run()
        assert report.complete and report.dispatches == 2
        assert os.environ["REPRO_FAULT_SPEC"] == "crash:1.0"
        logs = sorted((tmp_path / "run" / "logs").glob("*.log"))
        assert len(logs) == 2
        for log in logs:
            assert "fault-env None" in log.read_text()
        assert_csv_identical(report, monolithic_csv)


# ---------------------------------------------------------------------- #
# Satellites: lenient merge, cache gc (+ scheduler teardown hook)
# ---------------------------------------------------------------------- #
@pytest.fixture()
def shard_paths(tmp_path) -> list[Path]:
    runner = ShardRunner(SPEC, SHARDS)
    return [runner.write(index, tmp_path / "shards") for index in range(SHARDS)]


class TestLenientMerge:
    def test_strict_aborts_on_first_unreadable(self, shard_paths):
        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        with pytest.raises(ShardError, match="not a readable"):
            read_artifacts(shard_paths, strict=True)

    def test_lenient_skips_with_reasons_and_merges_the_rest(self, shard_paths):
        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        artifacts, skipped = read_artifacts(shard_paths, strict=False)
        assert len(artifacts) == SHARDS - 1
        [(skipped_path, reason)] = skipped
        assert skipped_path == shard_paths[1] and "not a readable" in reason
        partial = merge_shard_paths(
            shard_paths, strict=False, require_complete=False
        )
        assert partial.shard_indices == (0, 2)

    def test_lenient_mode_keeps_resolution_failures_fatal(self, tmp_path):
        with pytest.raises(ShardError, match="neither a shard artifact"):
            read_artifacts([tmp_path / "does-not-exist"], strict=False)

    def test_merge_cli_reports_missing_indices_and_skips(
        self, shard_paths, tmp_path, capsys
    ):
        from repro.cli import main

        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        code = main(
            [
                "merge-shards",
                *map(str, shard_paths),
                "--output",
                str(tmp_path / "partial.repro-shard"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "missing shards: [1]" in output
        assert "skipped" in output
        with pytest.raises(SystemExit, match="not a readable"):
            main(["merge-shards", *map(str, shard_paths), "--strict"])


class TestCacheGc:
    @staticmethod
    def _seed(root: Path, name: str, age_days: float, size: int = 4) -> Path:
        path = root / "rows" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * size)
        stamp = time.time() - age_days * 86400
        os.utime(path, (stamp, stamp))
        return path

    def test_age_eviction_and_tmp_ghosts(self, tmp_path):
        old = self._seed(tmp_path, "old.json", age_days=10)
        new = self._seed(tmp_path, "new.json", age_days=0)
        ghost = tmp_path / "profiles" / "x.pkl.tmp"
        ghost.parent.mkdir(parents=True)
        ghost.write_bytes(b"zz")
        shared = SharedCacheDir(tmp_path)
        dry = shared.gc(max_age_days=7, dry_run=True)
        assert dry.removed_files == 2 and old.exists() and ghost.exists()
        wet = shared.gc(max_age_days=7)
        assert wet.removed_files == 2 and wet.kept_files == 1
        assert not old.exists() and not ghost.exists() and new.exists()

    def test_size_eviction_is_lru_by_mtime(self, tmp_path):
        oldest = self._seed(tmp_path, "a.json", age_days=3, size=10)
        middle = self._seed(tmp_path, "b.json", age_days=2, size=10)
        newest = self._seed(tmp_path, "c.json", age_days=1, size=10)
        report = SharedCacheDir(tmp_path).gc(max_bytes=20)
        assert report.removed_files == 1 and report.kept_bytes == 20
        assert not oldest.exists() and middle.exists() and newest.exists()

    def test_scheduler_teardown_calls_gc(self, tmp_path):
        shared = tmp_path / "shared-cache"
        stale = self._seed(shared, "stale.json", age_days=30)
        report = fast_scheduler(
            tmp_path / "run", shared_cache=shared, gc_max_age_days=7
        ).run()
        assert report.complete
        assert not stale.exists()
        [event] = journal_events(tmp_path / "run", "cache-gc")
        assert event["removed_files"] >= 1
        # The run's own freshly written entries survived the sweep.
        assert event["kept_files"] > 0

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path, "old.json", age_days=10)
        code = main(
            ["cache", "gc", str(tmp_path), "--max-age-days", "7", "--dry-run"]
        )
        assert code == 0
        assert "would remove 1" in capsys.readouterr().out
        assert (tmp_path / "rows" / "old.json").exists()

    def test_cache_gc_cli_refuses_a_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "sweep-cache.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="not a directory"):
            main(["cache", "gc", str(path), "--dry-run"])

    def test_launch_refuses_a_cache_root_that_is_a_file(self, tmp_path):
        """Checked once up front, before the launch directory exists —
        not once per failed worker attempt."""
        from repro.cli import main

        path = tmp_path / "sweep-cache.json"
        path.write_text("{}")
        with pytest.raises(CacheRootError, match="not a directory"):
            fast_scheduler(tmp_path / "run", shared_cache=path)
        with pytest.raises(SystemExit, match="not a directory"):
            main(
                [
                    "launch", "-w", "dlrm-s-inference", "--shards", "2",
                    "--dir", str(tmp_path / "run"), "--backend", "thread",
                    "--shared-cache", str(path),
                ]
            )
        assert not (tmp_path / "run").exists()


class TestLaunchCli:
    def test_launch_needs_a_grid_or_resume(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="needs a grid"):
            main(["launch", "--dir", str(tmp_path / "run")])
        with pytest.raises(SystemExit, match="--shards"):
            main(
                [
                    "launch", "-w", "dlrm-s-inference",
                    "--dir", str(tmp_path / "run"),
                ]
            )

    def test_launch_cli_round_trip(self, tmp_path, capsys, monolithic_csv):
        from repro.cli import main

        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "launch",
                "-w", "dlrm-s-inference", "--chip", "NPU-C", "--chip", "NPU-D",
                "--batch-size", "1",
                "--shards", str(SHARDS), "--dir", str(tmp_path / "run"),
                "--backend", "thread", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"landed        : {SHARDS}/{SHARDS}" in output
        assert csv_path.read_bytes() == monolithic_csv
