"""Experiment-catalog suite: content-addressed cross-run reuse.

Asserts the catalog contract end to end:

* register/lookup round-trips through SQLite, with stale-version and
  foreign-spec entries refused by the content-addressed key;
* ``verify`` detects corrupt/missing/outdated artifacts against the
  recorded digests and ``repair`` evicts them, naming exactly which
  shards need re-running;
* a re-launched overlapping spec adopts every previously-landed shard
  (zero recomputation) and its merged CSV is byte-identical to the
  cold monolithic run;
* two processes registering/verifying the same artifacts race-free
  (WAL + retried transactions), mirroring the shared-cache race tests;
* hypothesis round-trips of the catalog's query keys.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.experiments import (
    ExperimentCatalog,
    ShardRunner,
    SimulationCache,
    SweepRunner,
    SweepSpec,
)
from repro.experiments.catalog import (
    CATALOG_DB_NAME,
    CatalogError,
    resolve_catalog_path,
)
from repro.experiments.keys import shard_key
from repro.experiments.scheduler import Journal, LaunchScheduler, RetryPolicy
from repro.experiments.sharding import (
    MANIFEST_NAME,
    NUMERIC_NAME,
    SHARD_SCHEMA,
    ShardArtifact,
    load_manifest,
)

SPEC = SweepSpec(
    workloads=("dlrm-s-inference",), chips=("NPU-C", "NPU-D"), batch_sizes=(1,)
)
SHARDS = 3


@pytest.fixture(scope="module")
def monolithic_csv(tmp_path_factory) -> bytes:
    """The cold monolithic oracle's CSV bytes."""
    path = tmp_path_factory.mktemp("oracle") / "oracle.csv"
    SweepRunner(SPEC).run().write_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def shard_artifact(tmp_path_factory):
    """One real landed shard artifact (module-shared, read-only)."""
    directory = tmp_path_factory.mktemp("artifact")
    return ShardRunner(SPEC, SHARDS, cache=SimulationCache()).write(0, directory)


def fast_scheduler(directory, **overrides) -> LaunchScheduler:
    options = dict(
        backend="thread",
        poll_interval=0.01,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.0),
        speculate=False,
        use_env_faults=False,
        max_workers=SHARDS,
    )
    options.update(overrides)
    return LaunchScheduler(directory, SPEC, SHARDS, **options)


def shard_victim(catalog: ExperimentCatalog):
    """A landed shard entry that has a column file to corrupt.

    The 2-point grid over 3 shards has an empty shard with no column
    file, and it may be the first to register."""
    return next(
        entry for entry in catalog.query(kind="shard") if NUMERIC_NAME in entry.files
    )


def journal_events(directory, kind):
    events = Journal.read_events(directory / "journal-archive.jsonl")
    events += Journal.read_events(directory / "journal.jsonl")
    return [event for event in events if event.get("event") == kind]


class TestRegisterLookup:
    def test_round_trip(self, shard_artifact, tmp_path):
        catalog = ExperimentCatalog(tmp_path / "cat.sqlite")
        manifest = load_manifest(shard_artifact)
        entry = catalog.register(shard_artifact)
        assert entry.shard_key == manifest["shard_key"]
        assert entry.kind == "shard"
        assert entry.status == "ok"
        assert entry.files == manifest["files"]
        hit = catalog.lookup(entry.shard_key)
        assert hit is not None
        assert hit == entry
        assert catalog.lookup("no-such-key") is None

    def test_reregistration_is_idempotent(self, shard_artifact, tmp_path):
        catalog = ExperimentCatalog(tmp_path / "cat.sqlite")
        first = catalog.register(shard_artifact)
        second = catalog.register(shard_artifact)
        assert second.shard_key == first.shard_key
        assert len(catalog.entries()) == 1

    def test_stale_version_entry_is_refused(self, tmp_path):
        """An artifact written by another release never answers a lookup."""
        stale = ShardArtifact(
            spec_digest="d" * 32,
            shard_count=1,
            shard_indices=(0,),
            columns=(),
            points=[],
            series={},
            version="0.0.1",
        )
        path = stale.write(tmp_path / "stale.repro-shard")
        catalog = ExperimentCatalog(tmp_path / "cat.sqlite")
        entry = catalog.register(path)
        assert entry.version == "0.0.1"
        assert catalog.lookup(entry.shard_key) is None
        report = catalog.verify()
        assert [e.shard_key for e in report.outdated] == [entry.shard_key]

    def test_directory_argument_gets_default_db_name(self, tmp_path):
        assert resolve_catalog_path(tmp_path) == tmp_path / CATALOG_DB_NAME
        catalog = ExperimentCatalog(tmp_path)
        assert catalog.path.name == CATALOG_DB_NAME

    def test_unregisterable_manifest_raises(self, tmp_path):
        catalog = ExperimentCatalog(tmp_path / "cat.sqlite")
        broken = tmp_path / "broken.repro-shard"
        broken.mkdir()
        (broken / MANIFEST_NAME).write_text(
            json.dumps({"kind": "repro-shard", "schema": SHARD_SCHEMA})
        )
        with pytest.raises(CatalogError, match="missing catalog fields"):
            catalog.register(broken)


class TestVerifyRepair:
    def _landed_catalog(self, tmp_path):
        """A catalog over one real launch's landed artifacts."""
        catalog_path = tmp_path / "cat.sqlite"
        report = fast_scheduler(tmp_path / "run", catalog=catalog_path).run()
        assert report.complete
        return ExperimentCatalog(catalog_path)

    def test_corrupt_artifact_is_flagged_and_evicted(self, tmp_path):
        catalog = self._landed_catalog(tmp_path)
        victim = shard_victim(catalog)
        (victim.path / NUMERIC_NAME).write_bytes(b"\x00 rotted \x00")
        report = catalog.verify()
        assert [e.shard_key for e in report.corrupt] == [victim.shard_key]
        assert report.ok == report.checked - 1
        # Flagged entries stop answering lookups even before repair.
        assert catalog.lookup(victim.shard_key) is None
        repair = catalog.repair()
        assert [e.shard_key for e in repair.evicted] == [victim.shard_key]
        assert repair.rerun_shards() == {
            victim.spec_digest: list(victim.shard_indices)
        }
        assert set(repair.rerun_points()[victim.spec_digest]) == set(
            victim.point_indices
        )
        assert catalog.query(kind="shard", status="ok")
        assert all(
            entry.shard_key != victim.shard_key for entry in catalog.entries()
        )

    def test_rewritten_manifest_cannot_vouch_for_new_bytes(self, tmp_path):
        """Digest-consistent tampering: the artifact is rewritten wholesale
        (manifest and bytes agree with each other) but no longer matches
        the digests recorded at registration."""
        catalog = self._landed_catalog(tmp_path)
        victim = shard_victim(catalog)
        manifest = load_manifest(victim.path)
        tampered = dict(manifest)
        tampered["files"] = dict(manifest["files"])
        (victim.path / NUMERIC_NAME).write_bytes(b"new bytes")
        from repro.experiments.keys import file_digest

        tampered["files"][NUMERIC_NAME] = file_digest(victim.path / NUMERIC_NAME)
        (victim.path / MANIFEST_NAME).write_text(json.dumps(tampered))
        report = catalog.verify()
        assert victim.shard_key in {e.shard_key for e in report.corrupt}

    def test_missing_artifact_is_flagged_and_gc_drops_it(self, tmp_path):
        import shutil

        catalog = self._landed_catalog(tmp_path)
        victim = catalog.query(kind="shard")[-1]
        shutil.rmtree(victim.path)
        report = catalog.verify()
        assert [e.shard_key for e in report.missing] == [victim.shard_key]
        evicted = catalog.gc()
        assert [e.shard_key for e in evicted] == [victim.shard_key]
        assert all(
            entry.shard_key != victim.shard_key for entry in catalog.entries()
        )


class TestCrossRunAdoption:
    def test_overlapping_relaunch_recomputes_nothing(
        self, tmp_path, monolithic_csv
    ):
        catalog = tmp_path / "cat.sqlite"
        cold = fast_scheduler(
            tmp_path / "a", catalog=catalog, csv_path=tmp_path / "a.csv"
        ).run()
        assert cold.complete and cold.dispatches == SHARDS
        assert cold.adopted == []
        warm = fast_scheduler(
            tmp_path / "b", catalog=catalog, csv_path=tmp_path / "b.csv"
        ).run()
        assert warm.complete
        assert warm.dispatches == 0
        assert warm.adopted == list(range(SHARDS))
        assert len(journal_events(tmp_path / "b", "adopt")) == SHARDS
        assert journal_events(tmp_path / "b", "dispatch") == []
        assert (tmp_path / "a.csv").read_bytes() == monolithic_csv
        assert (tmp_path / "b.csv").read_bytes() == monolithic_csv

    def test_repair_then_relaunch_reruns_only_affected_shards(
        self, tmp_path, monolithic_csv
    ):
        catalog_path = tmp_path / "cat.sqlite"
        fast_scheduler(tmp_path / "a", catalog=catalog_path).run()
        catalog = ExperimentCatalog(catalog_path)
        victim = shard_victim(catalog)
        (victim.path / NUMERIC_NAME).write_bytes(b"truncated")
        repair = catalog.repair()
        rerun = repair.rerun_shards()[victim.spec_digest]
        healed = fast_scheduler(
            tmp_path / "b", catalog=catalog_path, csv_path=tmp_path / "b.csv"
        ).run()
        assert healed.complete
        assert sorted(healed.landed) == list(range(SHARDS))
        # Only the evicted shard was recomputed; the rest were adopted.
        assert healed.dispatches == len(rerun)
        assert healed.adopted == sorted(set(range(SHARDS)) - set(rerun))
        assert (tmp_path / "b.csv").read_bytes() == monolithic_csv

    def test_rotten_entry_degrades_to_dispatch_not_wrong_merge(
        self, tmp_path, monolithic_csv
    ):
        """An entry corrupted *after* registration (no verify pass run)
        is refused at adoption time by the digest re-check and the shard
        is recomputed — the merge stays byte-identical."""
        catalog_path = tmp_path / "cat.sqlite"
        fast_scheduler(tmp_path / "a", catalog=catalog_path).run()
        catalog = ExperimentCatalog(catalog_path)
        victim = shard_victim(catalog)
        (victim.path / NUMERIC_NAME).write_bytes(b"rot after registration")
        report = fast_scheduler(
            tmp_path / "b", catalog=catalog_path, csv_path=tmp_path / "b.csv"
        ).run()
        assert report.complete
        assert report.dispatches == len(victim.shard_indices)
        assert len(journal_events(tmp_path / "b", "adopt-reject")) == 1
        assert (tmp_path / "b.csv").read_bytes() == monolithic_csv

    def test_adoption_requires_matching_plan(self, tmp_path):
        """A catalog warmed at one shard count contributes nothing to a
        differently-sharded plan of the same grid (shard keys cover the
        partition, not just the spec)."""
        catalog = tmp_path / "cat.sqlite"
        fast_scheduler(tmp_path / "a", catalog=catalog).run()
        other = LaunchScheduler(
            tmp_path / "b",
            SPEC,
            2,
            backend="thread",
            poll_interval=0.01,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.0),
            speculate=False,
            use_env_faults=False,
            max_workers=2,
            catalog=catalog,
        ).run()
        assert other.complete
        assert other.adopted == []
        assert other.dispatches == 2

    def test_resume_registers_restored_artifacts(self, tmp_path):
        """A --resume over a finished directory back-fills the catalog."""
        fast_scheduler(tmp_path / "a").run()  # no catalog on the first run
        catalog_path = tmp_path / "cat.sqlite"
        resumed = LaunchScheduler(
            tmp_path / "a",
            resume=True,
            backend="thread",
            poll_interval=0.01,
            use_env_faults=False,
            catalog=catalog_path,
        ).run()
        assert resumed.complete
        assert resumed.restored == list(range(SHARDS))
        catalog = ExperimentCatalog(catalog_path)
        assert len(catalog.query(kind="shard")) == SHARDS


# ---------------------------------------------------------------------- #
# Concurrency: two processes on one catalog
# ---------------------------------------------------------------------- #
def _spam_register_verify(db_path, artifact_path, repeats):
    """Worker: hammer one catalog with register+verify cycles."""
    catalog = ExperimentCatalog(db_path)
    for _ in range(repeats):
        catalog.register(artifact_path)
        catalog.verify()


class TestConcurrentWriters:
    def test_two_processes_register_and_verify_race_free(
        self, shard_artifact, tmp_path
    ):
        """Mirrors the shared-cache race test: concurrent registrations
        of the same content-addressed artifact are idempotent upserts,
        and interleaved verify passes never corrupt the database or
        flag a healthy artifact."""
        db_path = tmp_path / "cat.sqlite"
        ExperimentCatalog(db_path)  # schema exists before the race
        workers = [
            multiprocessing.Process(
                target=_spam_register_verify,
                args=(db_path, shard_artifact, 25),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)
        catalog = ExperimentCatalog(db_path)
        entries = catalog.entries()
        assert len(entries) == 1
        assert entries[0].status == "ok"
        assert catalog.lookup(entries[0].shard_key) is not None


# ---------------------------------------------------------------------- #
# Hypothesis: query-key round-trips
# ---------------------------------------------------------------------- #
indices = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=6, unique=True
)


class TestQueryKeyRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        digest=st.text(
            alphabet="0123456789abcdef", min_size=8, max_size=32
        ),
        shard_count=st.integers(min_value=1, max_value=64),
        shard_indices=indices,
        point_indices=indices,
        row_count=st.integers(min_value=0, max_value=10_000),
    )
    def test_registered_fields_survive_the_database(
        self,
        tmp_path,
        digest,
        shard_count,
        shard_indices,
        point_indices,
        row_count,
    ):
        """Every key field round-trips through SQLite exactly: the JSON
        index tuples, the content-addressed shard key, and the
        spec-digest query axis."""
        key = shard_key(digest, shard_count, shard_indices, point_indices)
        manifest = {
            "kind": "repro-shard",
            "schema": SHARD_SCHEMA,
            "version": __version__,
            "spec_digest": digest,
            "shard_count": shard_count,
            "shard_indices": sorted(shard_indices),
            "shard_key": key,
            "row_count": row_count,
            "files": {"columns.npy": "sha256:" + "0" * 64},
            "points": [{"index": i} for i in sorted(point_indices)],
        }
        # One database per hypothesis example: shrunk examples reuse
        # digests, and accumulated rows would alias the query below.
        import tempfile
        from pathlib import Path

        root = Path(tempfile.mkdtemp(dir=tmp_path))
        catalog = ExperimentCatalog(root / "cat.sqlite")
        registered = catalog.register(
            root / "virtual.repro-shard", manifest=manifest
        )
        (found,) = catalog.query(spec_digest=digest)
        assert found == registered
        assert found.shard_key == key
        assert found.shard_indices == tuple(sorted(shard_indices))
        assert found.point_indices == tuple(sorted(point_indices))
        assert found.row_count == row_count
        # Still a lookup hit (ok status, current version) — until the
        # verify pass notices the artifact does not actually exist.
        assert catalog.lookup(key) == found
        report = catalog.verify(spec_digest=digest)
        assert [e.shard_key for e in report.missing] == [key]
        assert catalog.lookup(key) is None
