"""Parallel experiment sweeps with simulation memoization.

The experiments subsystem turns the one-off simulation loops scattered
through the benchmarks and analyses into declarative, cached, optionally
parallel parameter studies:

* :class:`SweepSpec` — declares a grid over workloads, chips, batch
  sizes, pod sizes, policies and gating parameters.
* :class:`SweepRunner` / :func:`run_sweep` — executes the grid serially
  or on a process pool, with bit-identical results either way.
* :class:`SimulationCache` / :func:`simulate_cached` — content-addressed
  memoization of workload profiles, per-policy energy reports and
  finished sweep rows, optionally written through to a
  :class:`SharedCacheDir` on disk.
* :class:`SweepResult` — a flat table with CSV/JSON export and
  filter/group-by/pivot helpers.
* :class:`LaunchScheduler` / :func:`launch_sweep` — fault-tolerant
  sharded execution (``repro launch``): retries with backoff, heartbeat
  liveness, straggler speculation, a crash-safe journal with
  ``--resume``, and reproducible fault injection.
* :class:`SshBackend` / :class:`LoopbackBackend` — remote shard
  dispatch over a retrying, digest-verified transport with per-host
  quarantine, plus :class:`StatusServer` — the live ``--serve``
  progress API.
* :class:`ExperimentCatalog` — a durable, content-addressed index over
  shard and merged artifacts (``repro launch --catalog`` / ``repro
  catalog``): cross-run adoption of already-computed shards, digest
  re-verification, and self-healing eviction of corrupt entries.

See ``docs/experiments.md`` for a guide and the cache-invalidation rules.
"""

from repro.experiments.cache import (
    CacheGcReport,
    PackedRows,
    SharedCacheDir,
    SimulationCache,
    pack_rows,
    portable_profile,
    simulate_cached,
    simulate_cached_many,
    unpack_rows,
)
from repro.experiments.catalog import (
    CatalogEntry,
    CatalogError,
    CatalogRepairReport,
    CatalogVerifyReport,
    ExperimentCatalog,
    resolve_catalog_path,
)
from repro.experiments.keys import (
    canonical,
    file_digest,
    point_key,
    profile_key,
    report_key,
    shard_key,
    stable_hash,
)
from repro.experiments.result import SweepResult
from repro.experiments.runner import (
    ROW_COLUMNS,
    SweepRunner,
    assemble_packed_rows,
    rows_from_result,
    run_point,
    run_points_packed,
    run_sweep,
)
from repro.experiments.remote import (
    HostPool,
    LocalLoopbackTransport,
    LoopbackBackend,
    RemoteBackend,
    RemoteHost,
    SshBackend,
    SshTransport,
    TransportError,
)
from repro.experiments.scheduler import (
    FaultInjector,
    FaultSpec,
    LaunchError,
    LaunchReport,
    LaunchScheduler,
    RetryPolicy,
    ShardState,
    launch_sweep,
)
from repro.experiments.sharding import (
    Shard,
    ShardArtifact,
    ShardError,
    ShardPlan,
    ShardRunner,
    load_manifest,
    merge_artifacts,
    merge_shard_paths,
    read_artifacts,
    spec_digest,
)
from repro.experiments.spec import DEFAULT_GATING_LABEL, SweepPoint, SweepSpec
from repro.experiments.status import StatusServer

__all__ = [
    "CacheGcReport",
    "CatalogEntry",
    "CatalogError",
    "CatalogRepairReport",
    "CatalogVerifyReport",
    "DEFAULT_GATING_LABEL",
    "ExperimentCatalog",
    "FaultInjector",
    "FaultSpec",
    "HostPool",
    "LaunchError",
    "LaunchReport",
    "LaunchScheduler",
    "LocalLoopbackTransport",
    "LoopbackBackend",
    "PackedRows",
    "ROW_COLUMNS",
    "RemoteBackend",
    "RemoteHost",
    "RetryPolicy",
    "Shard",
    "ShardArtifact",
    "ShardError",
    "ShardPlan",
    "ShardRunner",
    "ShardState",
    "SharedCacheDir",
    "SimulationCache",
    "SshBackend",
    "SshTransport",
    "StatusServer",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "TransportError",
    "assemble_packed_rows",
    "canonical",
    "file_digest",
    "launch_sweep",
    "load_manifest",
    "merge_artifacts",
    "merge_shard_paths",
    "pack_rows",
    "point_key",
    "portable_profile",
    "profile_key",
    "read_artifacts",
    "report_key",
    "resolve_catalog_path",
    "rows_from_result",
    "run_point",
    "run_points_packed",
    "run_sweep",
    "shard_key",
    "simulate_cached",
    "simulate_cached_many",
    "spec_digest",
    "unpack_rows",
]
