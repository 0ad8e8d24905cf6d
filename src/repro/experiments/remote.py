"""Remote worker backends for :class:`~repro.experiments.scheduler.LaunchScheduler`.

The scheduler dispatches shard attempts through a *backend*; PR 7's
backends (thread, process) both run on the scheduler's machine.  This
module adds the network layer:

* a small **transport** interface (:class:`SshTransport`,
  :class:`LocalLoopbackTransport`) covering the five operations a remote
  attempt needs — stage a file, make a directory, start the worker,
  stat the remote heartbeat, fetch the artifact back;
* :class:`RemoteBackend` / :class:`SshBackend` / :class:`LoopbackBackend`
  which drive one shard attempt per remote host: stage ``spec.pkl``
  (once per host), run ``python -m repro.experiments.worker`` there,
  relay the remote heartbeat to the local file the scheduler watches,
  fetch the ``.repro-shard`` artifact, and verify it against the
  manifest's content digests before offering it for promotion;
* :class:`HostPool` per-host health tracking: a host is quarantined
  after ``quarantine_after`` consecutive failed attempts and its shards
  rebalance onto the surviving hosts through the scheduler's ordinary
  ORPHANED/FAILED → re-dispatch path (the merged output stays
  byte-identical — shard artifacts are deterministic, so it never
  matters *where* a shard ran).

Every network step is wrapped in :func:`with_retry` (capped-exponential
:class:`~repro.experiments.scheduler.RetryPolicy` at the transport
level) and is subject to the injected network faults
(``drop``/``stall``/``tear`` in ``REPRO_FAULT_SPEC``) so the whole
path is exercised hermetically over the loopback transport in tests and
CI — no real SSH required.

Failure taxonomy, mapped onto the scheduler's existing machinery:

==================  =====================================================
symptom             degradation
==================  =====================================================
dropped operation   transport retry; exhausted → attempt fails
                    (``EXIT_TRANSPORT``, cause ``transport``) →
                    shard re-dispatches
stalled operation   same, after a bounded ``stall_s`` wait
torn/corrupt fetch  content-digest verification fails → re-pull; a
                    persistently corrupt remote artifact exhausts the
                    retries (cause ``corrupt-transfer``) → re-dispatch
host unreachable    heartbeat relay fails ``unreachable_after`` times
                    in a row → ``handle.unreachable`` → scheduler
                    ORPHANs the attempt (cause ``unreachable``) and
                    re-dispatches; the host pool quarantines the host
                    after ``quarantine_after`` consecutive failures
==================  =====================================================
"""

from __future__ import annotations

import logging
import shlex
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Sequence

from repro.experiments.scheduler import (
    EXIT_KILLED,
    DispatchContext,
    FaultInjector,
    LaunchError,
    RetryPolicy,
    WorkerHandle,
    worker_env,
)
from repro.experiments.sharding import (
    MANIFEST_NAME,
    NUMERIC_NAME,
    ShardError,
    spec_digest,
    verify_artifact_files,
)

_LOG = logging.getLogger("repro.experiments.remote")

#: Attempt exit code: a transport operation failed after all retries.
EXIT_TRANSPORT = 72
#: Attempt exit code: the host stopped answering the heartbeat relay.
EXIT_UNREACHABLE = 73


class TransportError(RuntimeError):
    """A network/transport operation failed (retryable)."""


# ---------------------------------------------------------------------- #
# Transport-level retry
# ---------------------------------------------------------------------- #
def with_retry(
    policy: RetryPolicy,
    fn: Callable[[int], Any],
    *,
    token: str = "",
    cancel: threading.Event | None = None,
    description: str = "transport operation",
) -> Any:
    """Run ``fn(try_number)`` under ``policy``'s capped-exponential backoff.

    ``fn`` receives the 1-based try number (the injected-fault draw and
    the deterministic jitter both key on it).  Only
    :class:`TransportError` is retried — anything else is a bug and
    propagates.  ``cancel`` aborts both the waits and further tries.
    """
    last: TransportError | None = None
    for try_number in range(1, policy.max_attempts + 1):
        if cancel is not None and cancel.is_set():
            raise TransportError(f"{description} cancelled")
        try:
            return fn(try_number)
        except TransportError as error:
            last = error
            if try_number == policy.max_attempts:
                break
            delay = policy.delay_s(try_number, token)
            if cancel is not None:
                if cancel.wait(delay):
                    raise TransportError(f"{description} cancelled") from error
            else:
                time.sleep(delay)
    raise TransportError(
        f"{description} failed after {policy.max_attempts} tries: {last}"
    ) from last


# ---------------------------------------------------------------------- #
# Transports
# ---------------------------------------------------------------------- #
class SshTransport:
    """OpenSSH transport: ``scp`` for files, ``ssh`` for everything else.

    Non-interactive by construction (``BatchMode=yes`` — a host that
    would prompt for a password fails fast instead of hanging the
    fleet), with ``ConnectTimeout`` bounding every connection attempt
    and ``command_timeout`` bounding every helper command.  All
    failures surface as :class:`TransportError` so the caller's retry
    policy applies uniformly.
    """

    #: Shard workers cannot share an on-disk cache across machines.
    local_fs = False

    def __init__(
        self,
        host: str,
        *,
        connect_timeout: float = 10.0,
        command_timeout: float = 60.0,
        ssh_options: Sequence[str] = (),
    ):
        self.host = host
        self.connect_timeout = connect_timeout
        self.command_timeout = command_timeout
        self.ssh_options = tuple(ssh_options)

    def _base_options(self) -> list[str]:
        return [
            "-o",
            "BatchMode=yes",
            "-o",
            f"ConnectTimeout={int(self.connect_timeout)}",
            *self.ssh_options,
        ]

    def _check(self, argv: list[str], description: str) -> str:
        try:
            result = subprocess.run(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=self.command_timeout,
                text=True,
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            raise TransportError(f"{description} on {self.host}: {error}") from error
        if result.returncode != 0:
            detail = (result.stderr or result.stdout or "").strip()[-200:]
            raise TransportError(
                f"{description} on {self.host} exited "
                f"{result.returncode}: {detail}"
            )
        return result.stdout

    def resolve(self, remote: str) -> str:
        """The path as the *remote* process sees it (identity for SSH)."""
        return remote

    def ensure_dir(self, remote: str) -> None:
        self._check(
            ["ssh", *self._base_options(), self.host, f"mkdir -p {shlex.quote(remote)}"],
            f"mkdir -p {remote}",
        )

    def push(self, local: Path, remote: str) -> None:
        self._check(
            ["scp", *self._base_options(), "-r", "-q", str(local), f"{self.host}:{remote}"],
            f"push {local.name}",
        )

    def pull(self, remote: str, local: Path) -> None:
        local.parent.mkdir(parents=True, exist_ok=True)
        self._check(
            ["scp", *self._base_options(), "-r", "-q", f"{self.host}:{remote}", str(local)],
            f"pull {remote}",
        )

    def stat_mtime(self, remote: str) -> float | None:
        """Remote mtime in seconds, or ``None`` if the file is absent."""
        argv = [
            "ssh",
            *self._base_options(),
            self.host,
            f"stat -c %Y {shlex.quote(remote)} 2>&1 || echo REPRO-ENOENT",
        ]
        out = self._check(argv, f"stat {remote}").strip()
        if "REPRO-ENOENT" in out:
            return None
        try:
            return float(out.splitlines()[-1])
        except ValueError as error:
            raise TransportError(
                f"stat {remote} on {self.host}: unparsable {out!r}"
            ) from error

    def remove(self, remote: str) -> None:
        self._check(
            ["ssh", *self._base_options(), self.host, f"rm -rf {shlex.quote(remote)}"],
            f"rm -rf {remote}",
        )

    def run(
        self, argv: Sequence[str], log: IO, pythonpath: str | None = None
    ) -> subprocess.Popen:
        """Start the worker on the remote host; stdout/stderr → ``log``."""
        command = " ".join(shlex.quote(part) for part in argv)
        if pythonpath:
            command = f"PYTHONPATH={shlex.quote(pythonpath)} {command}"
        try:
            return subprocess.Popen(
                ["ssh", *self._base_options(), self.host, command],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        except OSError as error:
            raise TransportError(f"ssh spawn on {self.host}: {error}") from error


class LocalLoopbackTransport:
    """The transport interface over a local directory posing as a host.

    ``root`` is the fake remote filesystem; every remote path resolves
    under it.  Workers run as local subprocesses (same isolation as
    :class:`~repro.experiments.scheduler.ProcessBackend`), so the whole
    remote code path — stage → run → relay → fetch → digest-verify —
    is exercised hermetically in tests and CI without SSH.

    The transport can *die* (``die()``, or automatically after
    ``die_after_ops`` operations): every subsequent operation raises
    :class:`TransportError` and its running workers are killed —
    modelling a machine that drops off the network mid-run.
    """

    #: Same filesystem as the scheduler → shared cache passthrough is safe.
    local_fs = True

    def __init__(
        self, root: str | Path, *, name: str = "loopback", die_after_ops: int | None = None
    ):
        self.root = Path(root)
        self.name = name
        self.alive = True
        self.ops = 0
        self.die_after_ops = die_after_ops
        self._processes: list[subprocess.Popen] = []
        self._lock = threading.Lock()

    def die(self) -> None:
        """Simulate the host vanishing: fail all future ops, kill workers."""
        self.alive = False
        with self._lock:
            processes, self._processes = list(self._processes), []
        for process in processes:
            try:
                process.kill()
            except OSError:
                pass

    def _op(self) -> None:
        with self._lock:
            self.ops += 1
            if self.die_after_ops is not None and self.ops > self.die_after_ops:
                self.alive = False
        if not self.alive:
            self.die()
            raise TransportError(f"host {self.name} is unreachable (simulated)")

    def resolve(self, remote: str) -> str:
        return str(self.root / remote)

    def ensure_dir(self, remote: str) -> None:
        self._op()
        (self.root / remote).mkdir(parents=True, exist_ok=True)

    def push(self, local: Path, remote: str) -> None:
        self._op()
        target = self.root / remote
        target.parent.mkdir(parents=True, exist_ok=True)
        if Path(local).is_dir():
            if target.exists():
                shutil.rmtree(target)
            shutil.copytree(local, target)
        else:
            shutil.copy2(local, target)

    def pull(self, remote: str, local: Path) -> None:
        self._op()
        source = self.root / remote
        if not source.exists():
            raise TransportError(f"{self.name}: no such remote path {remote}")
        local.parent.mkdir(parents=True, exist_ok=True)
        if source.is_dir():
            if local.exists():
                shutil.rmtree(local)
            shutil.copytree(source, local)
        else:
            shutil.copy2(source, local)

    def stat_mtime(self, remote: str) -> float | None:
        self._op()
        try:
            return (self.root / remote).stat().st_mtime
        except FileNotFoundError:
            return None
        except OSError as error:
            raise TransportError(f"{self.name}: stat {remote}: {error}") from error

    def remove(self, remote: str) -> None:
        self._op()
        shutil.rmtree(self.root / remote, ignore_errors=True)

    def run(
        self, argv: Sequence[str], log: IO, pythonpath: str | None = None
    ) -> subprocess.Popen:
        self._op()
        try:
            process = subprocess.Popen(
                list(argv),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=worker_env(pythonpath),
            )
        except OSError as error:
            raise TransportError(f"{self.name}: spawn failed: {error}") from error
        with self._lock:
            self._processes.append(process)
        return process


# ---------------------------------------------------------------------- #
# Host health
# ---------------------------------------------------------------------- #
@dataclass
class RemoteHost:
    """One machine in the fleet plus its health counters."""

    name: str
    transport: Any
    inflight: int = 0
    dispatches: int = 0
    landed: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "inflight": self.inflight,
            "dispatches": self.dispatches,
            "landed": self.landed,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "quarantined": self.quarantined,
        }


class HostPool:
    """Least-loaded host selection with quarantine on repeated failure.

    A host accumulating ``quarantine_after`` *consecutive* failed
    attempts stops receiving new dispatches; its shards rebalance onto
    the surviving hosts via the scheduler's normal re-dispatch path.  A
    later success (e.g. an attempt that was already in flight when the
    quarantine tripped) recovers the host.  If *every* host is
    quarantined the pool degrades to the least-bad host rather than
    deadlocking — a fully-partitioned fleet still makes progress
    attempts (and keeps failing fast) instead of hanging.
    """

    def __init__(
        self,
        hosts: Sequence[RemoteHost],
        *,
        quarantine_after: int = 3,
    ):
        if not hosts:
            raise LaunchError("remote backend needs at least one host")
        names = [host.name for host in hosts]
        if len(set(names)) != len(names):
            raise LaunchError(f"duplicate host names in fleet: {names}")
        self.hosts = {host.name: host for host in hosts}
        self.quarantine_after = quarantine_after
        self.event_sink: Callable[..., Any] | None = None

    def _emit(self, event: str, **fields: Any) -> None:
        if self.event_sink is not None:
            try:
                self.event_sink(event, **fields)
            except Exception:  # noqa: BLE001 - telemetry must not kill dispatch
                _LOG.exception("host event sink failed for %r", event)

    def pick(self) -> RemoteHost:
        healthy = [h for h in self.hosts.values() if not h.quarantined]
        if not healthy:
            healthy = list(self.hosts.values())
            self._emit(
                "host-pool-degraded",
                reason="all hosts quarantined; dispatching to least-bad host",
            )
        host = min(
            healthy,
            key=lambda h: (
                h.inflight,
                h.dispatches,
                h.consecutive_failures,
                h.name,
            ),
        )
        host.inflight += 1
        host.dispatches += 1
        return host

    def record(self, name: str, ok: bool) -> None:
        host = self.hosts.get(name)
        if host is None:
            return
        host.inflight = max(0, host.inflight - 1)
        if ok:
            host.landed += 1
            host.consecutive_failures = 0
            if host.quarantined:
                host.quarantined = False
                self._emit("host-recover", host=name)
        else:
            host.failures += 1
            host.consecutive_failures += 1
            if (
                not host.quarantined
                and host.consecutive_failures >= self.quarantine_after
            ):
                host.quarantined = True
                self._emit(
                    "host-quarantine",
                    host=name,
                    consecutive_failures=host.consecutive_failures,
                )

    def describe(self) -> list[dict[str, Any]]:
        return [self.hosts[name].describe() for name in sorted(self.hosts)]


# ---------------------------------------------------------------------- #
# The remote attempt
# ---------------------------------------------------------------------- #
def _tear_artifact(path: Path) -> None:
    """Injected ``tear`` fault: scribble over the fetched bytes, modelling
    a transfer that completed short/garbled without an error status."""
    numeric = path / NUMERIC_NAME
    target = numeric if numeric.exists() else path / MANIFEST_NAME
    if target.exists():
        target.write_bytes(b"\x00injected torn transfer\x00")


class _RemoteWorkerHandle(WorkerHandle):
    """One shard attempt on one remote host, driven by a local thread.

    The thread stages, runs, relays the heartbeat, fetches and
    verifies; the scheduler polls/kills the handle exactly like any
    local one.  Extra attributes the scheduler reads duck-typed:
    ``host``, ``unreachable``, ``failure_cause``, ``failure_detail``.
    """

    def __init__(self, backend: "RemoteBackend", host: RemoteHost, ctx: DispatchContext):
        super().__init__(ctx)
        self.host = host.name
        self.unreachable = False
        self.failure_cause: str | None = None
        self.failure_detail: str | None = None
        self._backend = backend
        self._host = host
        self._ctx = ctx
        self._stop = threading.Event()
        self._code: int | None = None
        self._process: subprocess.Popen | None = None
        self._log: IO | None = None
        self._tear_pending = False
        self._thread = threading.Thread(
            target=self._main,
            name=f"remote-shard:{ctx.shard_index}.{ctx.attempt}@{host.name}",
            daemon=True,
        )
        self._thread.start()

    # -- scheduler interface ------------------------------------------- #
    def poll(self) -> int | None:
        if self._thread.is_alive():
            return None
        return self._code if self._code is not None else 1

    def kill(self) -> None:
        self._stop.set()
        self._kill_process()

    def _kill_process(self) -> None:
        process = self._process
        if process is not None:
            try:
                process.kill()
                process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass

    # -- fault + retry plumbing ---------------------------------------- #
    def _network_fault(self, op: str, try_number: int) -> None:
        injector = self._backend.injector
        if injector is None:
            return
        mode = injector.draw_network(
            self.shard_index, self.attempt, op, try_number
        )
        if mode == "drop":
            raise TransportError(f"injected drop on {op} (try {try_number})")
        if mode == "stall":
            # A dead connection: no bytes move until the read timeout.
            if self._stop.wait(self._backend.stall_s):
                raise TransportError(f"{op} cancelled mid-stall")
            raise TransportError(
                f"injected stall on {op}: no data for {self._backend.stall_s}s"
            )
        if mode == "tear" and op == "fetch":
            # Only a transfer can tear; the draw is a no-op elsewhere.
            self._tear_pending = True

    def _transport_op(self, op: str, fn: Callable[[], Any]) -> Any:
        token = f"{self.host}:{self.shard_index}:{self.attempt}:{op}"

        def call(try_number: int) -> Any:
            self._network_fault(op, try_number)
            return fn()

        result = with_retry(
            self._backend.transport_retry,
            call,
            token=token,
            cancel=self._stop,
            description=f"{op} (shard {self.shard_index} on {self.host})",
        )
        # Transport liveness doubles as scheduler liveness while we are
        # between worker heartbeats (e.g. still staging).
        self._touch_local_heartbeat()
        return result

    def _touch_local_heartbeat(self) -> None:
        try:
            self.heartbeat_path.parent.mkdir(parents=True, exist_ok=True)
            self.heartbeat_path.touch()
        except OSError:
            pass

    # -- the attempt ---------------------------------------------------- #
    def _main(self) -> None:
        transport = self._host.transport
        attempt_dir = self._backend.attempt_dir(self._ctx)
        try:
            self._code = self._run_attempt(transport, attempt_dir)
        except TransportError as error:
            self.failure_cause = self.failure_cause or "transport"
            self.failure_detail = self.failure_detail or str(error)
            self._code = EXIT_TRANSPORT
        except Exception as error:  # noqa: BLE001 - attempt crash == exit 1
            _LOG.exception(
                "remote attempt for shard %d on %s crashed",
                self.shard_index,
                self.host,
            )
            self.failure_cause = "backend-crash"
            self.failure_detail = str(error)
            self._code = 1
        finally:
            self._kill_process()
            if self._log is not None:
                self._log.close()
                self._log = None
            if self._code == 0:
                # Only a landed attempt cleans up eagerly; failed
                # attempt dirs stay behind for post-mortems until the
                # host is reused for the same shard.
                try:
                    transport.remove(attempt_dir)
                except TransportError:
                    pass

    def _run_attempt(self, transport: Any, attempt_dir: str) -> int:
        ctx = self._ctx
        self._touch_local_heartbeat()
        self._backend.ensure_spec_staged(self._host, ctx, self)
        self._transport_op("stage", lambda: transport.ensure_dir(attempt_dir))

        artifact_remote = f"{attempt_dir}/artifact.repro-shard"
        heartbeat_remote = f"{attempt_dir}/heartbeat.hb"
        argv = self._backend.worker_argv(
            ctx, transport, artifact_remote, heartbeat_remote
        )
        ctx.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(ctx.log_path, "ab")

        def _start() -> subprocess.Popen:
            return transport.run(
                argv, self._log, pythonpath=self._backend.pythonpath
            )

        self._process = self._transport_op("run", _start)
        self.pid = self._process.pid
        code = self._relay_until_exit(transport, heartbeat_remote)
        if code != 0:
            return code
        self._fetch_artifact(transport, artifact_remote)
        return 0

    def _relay_until_exit(self, transport: Any, heartbeat_remote: str) -> int:
        """Poll the worker while relaying its remote heartbeat locally.

        Consecutive relay failures (injected or real) mean the *host*
        has gone dark even though the worker may be fine — after
        ``unreachable_after`` of them the handle flags itself
        ``unreachable`` so the scheduler's liveness check ORPHANs the
        attempt and re-dispatches elsewhere.
        """
        last_mtime: float | None = None
        relay_failures = 0
        tick = 0
        while True:
            code = self._process.poll() if self._process is not None else 1
            if code is not None:
                return code
            if self._stop.wait(self._backend.relay_interval):
                self._kill_process()
                return EXIT_KILLED
            tick += 1
            try:
                self._network_fault("relay", tick)
                mtime = transport.stat_mtime(heartbeat_remote)
            except TransportError as error:
                relay_failures += 1
                if relay_failures >= self._backend.unreachable_after:
                    self.failure_cause = "unreachable"
                    self.failure_detail = (
                        f"{relay_failures} consecutive heartbeat-relay "
                        f"failures (last: {error})"
                    )
                    self._kill_process()
                    # Flag it and *park*: the scheduler's liveness check
                    # owns the UNREACHABLE → ORPHANED transition (so the
                    # re-dispatch takes the orphan path, not the plain
                    # failed-exit path) and kills this handle, which
                    # releases the wait below.
                    self.unreachable = True
                    self._stop.wait()
                    return EXIT_UNREACHABLE
                continue
            relay_failures = 0
            if mtime is not None and (last_mtime is None or mtime > last_mtime):
                last_mtime = mtime
                self._touch_local_heartbeat()

    def _fetch_artifact(self, transport: Any, artifact_remote: str) -> None:
        """Pull the artifact and verify it against its content digests.

        A torn transfer (injected or real) fails verification and is
        re-pulled under the transport retry policy; bytes that are
        corrupt *at the source* keep failing until the retries exhaust,
        which fails the attempt (cause ``corrupt-transfer``) and lets
        the scheduler re-dispatch the shard — exactly the degradation a
        local corrupt write gets.
        """

        def pull() -> None:
            if self.staging_path.exists():
                shutil.rmtree(self.staging_path)
            transport.pull(artifact_remote, self.staging_path)
            if self._tear_pending:
                self._tear_pending = False
                _tear_artifact(self.staging_path)
            try:
                verify_artifact_files(self.staging_path)
            except ShardError as error:
                self.failure_cause = "corrupt-transfer"
                raise TransportError(
                    f"fetched artifact failed digest verification: {error}"
                ) from error

        try:
            self._transport_op("fetch", pull)
        except TransportError:
            # Never leave a half-fetched artifact where the scheduler
            # could mistake it for a worker-produced one.
            shutil.rmtree(self.staging_path, ignore_errors=True)
            raise
        self.failure_cause = None  # verification retries that later passed


# ---------------------------------------------------------------------- #
# Backends
# ---------------------------------------------------------------------- #
class RemoteBackend:
    """Dispatches shard attempts to a fleet of hosts over a transport.

    The scheduler talks to it through the same duck-typed surface as
    the local backends (``dispatch`` → handle with ``poll``/``kill``)
    plus three optional hooks it already probes for:
    ``set_event_sink`` (journal access for host events),
    ``record_attempt`` (per-host health accounting) and
    ``describe_hosts`` (failure report / progress API).
    """

    name = "remote"

    def __init__(
        self,
        hosts: Sequence[RemoteHost],
        *,
        remote_root: str = ".repro-remote",
        python: str = "python3",
        pythonpath: str | None = None,
        transport_retry: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        quarantine_after: int = 3,
        relay_interval: float = 0.5,
        unreachable_after: int = 4,
        stall_s: float = 5.0,
    ):
        self.pool = HostPool(hosts, quarantine_after=quarantine_after)
        self.remote_root = remote_root.rstrip("/")
        self.python = python
        self.pythonpath = pythonpath
        self.transport_retry = (
            transport_retry
            if transport_retry is not None
            else RetryPolicy(max_attempts=3, base_delay_s=0.1, max_delay_s=2.0)
        )
        self.injector = injector
        self.relay_interval = relay_interval
        self.unreachable_after = unreachable_after
        self.stall_s = stall_s
        self._staged: set[tuple[str, str]] = set()
        self._stage_locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._digest: str | None = None

    # -- scheduler hooks ------------------------------------------------ #
    def dispatch(self, ctx: DispatchContext) -> WorkerHandle:
        host = self.pool.pick()
        return _RemoteWorkerHandle(self, host, ctx)

    def record_attempt(self, handle: WorkerHandle, ok: bool) -> None:
        host = getattr(handle, "host", None)
        if host is not None:
            self.pool.record(host, ok)

    def set_event_sink(self, sink: Callable[..., Any]) -> None:
        self.pool.event_sink = sink

    def describe_hosts(self) -> list[dict[str, Any]]:
        return self.pool.describe()

    # -- remote layout --------------------------------------------------- #
    def _plan_digest(self, ctx: DispatchContext) -> str:
        with self._lock:
            if self._digest is None:
                self._digest = spec_digest(ctx.spec)
            return self._digest

    def remote_base(self, ctx: DispatchContext) -> str:
        return f"{self.remote_root}/{self._plan_digest(ctx)[:16]}"

    def attempt_dir(self, ctx: DispatchContext) -> str:
        return (
            f"{self.remote_base(ctx)}/"
            f"shard-{ctx.shard_index}.attempt-{ctx.attempt}"
        )

    def spec_remote(self, ctx: DispatchContext) -> str:
        return f"{self.remote_base(ctx)}/spec.pkl"

    def ensure_spec_staged(
        self, host: RemoteHost, ctx: DispatchContext, handle: _RemoteWorkerHandle
    ) -> None:
        """Stage ``spec.pkl`` once per (host, plan); concurrent attempts
        on the same host serialize on a per-host lock so only one pays."""
        key = (host.name, self._plan_digest(ctx))
        with self._lock:
            if key in self._staged:
                return
            lock = self._stage_locks.setdefault(host.name, threading.Lock())
        with lock:
            with self._lock:
                if key in self._staged:
                    return
            base = self.remote_base(ctx)

            def stage() -> None:
                host.transport.ensure_dir(base)
                host.transport.push(ctx.spec_path, self.spec_remote(ctx))

            handle._transport_op("stage", stage)
            with self._lock:
                self._staged.add(key)

    def worker_argv(
        self,
        ctx: DispatchContext,
        transport: Any,
        artifact_remote: str,
        heartbeat_remote: str,
    ) -> list[str]:
        # A shared on-disk cache only makes sense when the "remote" host
        # really shares our filesystem (loopback).
        return [
            self.python,
            "-m",
            "repro.experiments.worker",
            *ctx.worker_args(
                spec=transport.resolve(self.spec_remote(ctx)),
                staging=transport.resolve(artifact_remote),
                heartbeat=transport.resolve(heartbeat_remote),
                shared_cache=getattr(transport, "local_fs", False),
            ),
        ]


def parse_hosts(text: str) -> list[str]:
    """Hosts from ``a,b`` / one-per-line text; ``#`` starts a comment."""
    hosts: list[str] = []
    for chunk in text.replace(",", "\n").splitlines():
        entry = chunk.split("#", 1)[0].strip()
        if entry:
            hosts.append(entry)
    return hosts


class SshBackend(RemoteBackend):
    """Real fleet dispatch over OpenSSH.

    ``hosts`` accepts ``user@host`` strings (from ``--hosts`` or a
    hosts file via :func:`parse_hosts`).  The remote machines need a
    Python with ``repro`` importable — either installed, or a checkout
    whose ``src`` is passed as ``pythonpath`` (exported into the worker
    command's environment).
    """

    name = "ssh"

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        connect_timeout: float = 10.0,
        command_timeout: float = 60.0,
        ssh_options: Sequence[str] = (),
        **kwargs: Any,
    ):
        entries = [
            RemoteHost(
                name=host,
                transport=SshTransport(
                    host,
                    connect_timeout=connect_timeout,
                    command_timeout=command_timeout,
                    ssh_options=ssh_options,
                ),
            )
            for host in hosts
        ]
        super().__init__(entries, **kwargs)


class LoopbackBackend(RemoteBackend):
    """A hermetic fleet of :class:`LocalLoopbackTransport` "hosts".

    Each named host gets its own fake remote filesystem under
    ``root/<name>`` and runs workers as local subprocesses.  Used by
    tests and the CI remote-smoke job to exercise the full remote path
    (including injected network faults and host death) with zero
    network dependencies.
    """

    name = "loopback"

    def __init__(
        self,
        root: str | Path,
        host_names: Sequence[str] = ("loop-a", "loop-b"),
        *,
        die_after_ops: dict[str, int] | None = None,
        **kwargs: Any,
    ):
        root = Path(root)
        kwargs.setdefault("python", sys.executable)
        entries = [
            RemoteHost(
                name=name,
                transport=LocalLoopbackTransport(
                    root / name,
                    name=name,
                    die_after_ops=(die_after_ops or {}).get(name),
                ),
            )
            for name in host_names
        ]
        super().__init__(entries, **kwargs)


__all__ = [
    "EXIT_TRANSPORT",
    "EXIT_UNREACHABLE",
    "HostPool",
    "LocalLoopbackTransport",
    "LoopbackBackend",
    "RemoteBackend",
    "RemoteHost",
    "SshBackend",
    "SshTransport",
    "TransportError",
    "parse_hosts",
    "with_retry",
]
