"""Shard-attempt worker: the per-attempt CLI and the fork server.

Two entry points share this module:

* ``python -m repro.experiments.worker --spec spec.pkl --index I --count N
  --staging PATH --heartbeat PATH ...`` runs exactly one shard attempt
  via :func:`~repro.experiments.scheduler.execute_shard_attempt` and
  exits with the attempt's code (0 landed, 70 injected crash, nonzero
  failure).  The ssh and loopback backends
  (:mod:`repro.experiments.remote`) run this CLI once per attempt over
  their transport.
* :func:`serve` is the warm process pool behind
  :class:`~repro.experiments.scheduler.ProcessBackend`.  The scheduler
  forks it from its own process, with every module it needs already
  imported, and talks to it over two pipes on the server's fds 0 and 1.
  The server runs no sweep work itself and stays single-threaded.  For
  each attempt it forks a child, which points stdout and stderr at the
  attempt log, runs the same :func:`main` on the request's arguments
  and leaves through ``os._exit`` with its code.  So an attempt starts
  from the scheduler's imports and pays no interpreter start and no
  import of its own.

The fork server speaks JSON lines.  Requests arrive on fd 0::

    {"op": "run", "id": 3, "argv": ["--spec", "...", ...], "log": "/path/attempt.log"}
    {"op": "kill", "id": 3}                 SIGKILL attempt 3 if still running

and events leave on fd 1::

    {"id": 3, "pid": 4242}                  the child was forked
    {"id": 3, "exit": -9}                   it exited (``subprocess`` codes:
                                            ``-signum`` for a signal)
    {"id": 3, "error": "fork-failed", "detail": "..."}
                                            nothing was forked
    {"id": null, "error": "bad-request", "detail": "..."}
                                            a malformed request (its id, if
                                            one could be read); nothing forked

On request EOF (the scheduler closed its end, or died) the server
SIGKILLs and reaps every child still in flight, then returns 0.  Living
in its own process means the scheduler can SIGKILL any attempt, an
attempt can ``os._exit`` on an injected crash, and a hang never blocks
the scheduler loop.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import signal
import sys
import traceback
import warnings
from pathlib import Path
from typing import Any, NoReturn

from repro.experiments.scheduler import (
    FaultInjector,
    FaultSpec,
    execute_shard_attempt,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.worker",
        description="Run one shard attempt for the repro launch scheduler.",
    )
    parser.add_argument("--spec", required=True, help="pickled (spec, count) file")
    parser.add_argument("--index", required=True, type=int)
    parser.add_argument("--count", required=True, type=int)
    parser.add_argument("--staging", required=True, help="artifact output path")
    parser.add_argument("--heartbeat", required=True, help="heartbeat file path")
    parser.add_argument("--interval", type=float, default=1.0)
    parser.add_argument("--attempt", type=int, default=1)
    parser.add_argument("--shared-cache", default=None)
    parser.add_argument("--fault-spec", default=None)
    return parser


#: Last log line of a worker that ran to an orderly exit.  Remote
#: backends use it to tell a worker's own exit status apart from the
#: transport's (``ssh`` reports 255 for connection failures *and*
#: forwards a worker's 255): transport codes never come with a sentinel.
EXIT_SENTINEL = "REPRO-WORKER-EXIT"

def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    spec, stored_count = pickle.loads(Path(args.spec).read_bytes())
    if stored_count != args.count:
        raise SystemExit(
            f"spec file plans {stored_count} shard(s), worker asked for "
            f"{args.count}"
        )
    injector = (
        FaultInjector(FaultSpec.parse(args.fault_spec)) if args.fault_spec else None
    )
    code = execute_shard_attempt(
        spec,
        args.index,
        args.count,
        Path(args.staging),
        Path(args.heartbeat),
        args.interval,
        shared_cache=args.shared_cache,
        fault=injector,
        attempt=args.attempt,
        hard_crash=True,
    )
    # (An injected hard crash os._exit()s above and skips the sentinel —
    # exactly what a real segfault would do.)
    print(
        f"{EXIT_SENTINEL} code={code} shard={args.index} attempt={args.attempt}",
        flush=True,
    )
    return code


# ---------------------------------------------------------------------- #
# The fork server
# ---------------------------------------------------------------------- #
class BadRequest(ValueError):
    """A fork-server request line that is not a well-formed request."""

    def __init__(self, detail: str, ident: int | None = None):
        super().__init__(detail)
        self.ident = ident


def parse_request(line: bytes) -> tuple[str, int, list[str], str]:
    """``(op, id, argv, log path)`` of one request line.

    ``op`` is ``"run"`` (fork an attempt) or ``"kill"`` (SIGKILL the
    attempt ``id`` if it is still running; ``argv`` and ``log`` are
    then empty).  Anything else raises :class:`BadRequest`.
    """
    try:
        request = json.loads(line)
    except ValueError as error:
        raise BadRequest(f"not JSON: {error}") from None
    if not isinstance(request, dict):
        raise BadRequest("a request must be a JSON object")
    ident = request.get("id")
    if not isinstance(ident, int) or isinstance(ident, bool):
        raise BadRequest("'id' must be an integer")
    op = request.get("op")
    if op == "kill":
        return op, ident, [], ""
    if op != "run":
        raise BadRequest(f"unknown op {op!r} (have run, kill)", ident)
    argv, log = request.get("argv"), request.get("log")
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise BadRequest("'argv' must be a list of strings", ident)
    if not isinstance(log, str) or not log:
        raise BadRequest("'log' must be a non-empty path", ident)
    return op, ident, argv, log


def _exit_code(exit: SystemExit) -> int:
    """The process exit code the interpreter would give ``exit``."""
    if exit.code is None:
        return 0
    if isinstance(exit.code, int):
        return exit.code
    print(exit.code, file=sys.stderr)
    return 1


def _run_child(argv: list[str], log: str, server_fds: tuple[int, ...]) -> NoReturn:
    """Body of a forked attempt: never returns to the server loop."""
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        for fd in server_fds:
            os.close(fd)
        log_fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        null_fd = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null_fd, 0)
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.close(log_fd)
        os.close(null_fd)
        code = main(argv)
    except SystemExit as exit:
        code = _exit_code(exit)
    except BaseException:  # noqa: BLE001 - a worker crash is exit 1
        traceback.print_exc()
        code = 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def serve() -> int:
    """Run the fork server until fd 0 closes (see the module docstring)."""
    events = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    # Stray output of the server must never corrupt the event stream.
    os.dup2(2, 1)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    signal.set_wakeup_fd(wake_w)
    server_fds = (events.fileno(), wake_r, wake_w)
    children: dict[int, int] = {}  # pid -> request id

    def emit(**event: Any) -> None:
        events.write(json.dumps(event) + "\n")

    def reap(block: bool = False) -> None:
        while children:
            try:
                pid, status = os.waitpid(-1, 0 if block else os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            ident = children.pop(pid, None)
            if ident is not None and not block:
                emit(id=ident, exit=os.waitstatus_to_exitcode(status))

    def handle(line: bytes) -> None:
        try:
            op, ident, argv, log = parse_request(line)
        except BadRequest as error:
            emit(id=error.ident, error="bad-request", detail=str(error))
            return
        if op == "kill":
            # Only an unreaped child can be signalled: its pid cannot
            # have been reused yet.
            for pid, child in children.items():
                if child == ident:
                    os.kill(pid, signal.SIGKILL)
            return
        sys.stdout.flush()
        sys.stderr.flush()
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork() in a process with another
            # thread.  The only one here is numpy's BLAS pool: idle,
            # holding no Python lock, and reset by its own fork hooks.
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                pid = os.fork()
            except OSError as error:
                emit(id=ident, error="fork-failed", detail=str(error))
                return
        if pid == 0:
            _run_child(argv, log, server_fds)
        children[pid] = ident
        emit(id=ident, pid=pid)

    pending = b""
    try:
        while True:
            ready, _, _ = select.select([0, wake_r], [], [])
            if wake_r in ready:
                try:
                    while os.read(wake_r, 512):
                        pass
                except BlockingIOError:
                    pass
                reap()
            if 0 in ready:
                chunk = os.read(0, 1 << 16)
                if not chunk:
                    return 0
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    if line.strip():
                        handle(line)
    except BrokenPipeError:
        return 0  # the scheduler is gone; nobody is left to tell
    finally:
        # Request EOF, or the scheduler's end of the event pipe is gone:
        # no attempt may outlive the server.
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap(block=True)


if __name__ == "__main__":
    sys.exit(main())
