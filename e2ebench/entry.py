"""Fresh-process entry point of every timed benchmark command.

Usage::

    python e2ebench/entry.py --mark FILE --first module:Qual.name -- repro sweep ...
    python e2ebench/entry.py --mark FILE --first module:Qual.name -- param_grid --seed 1 --csv out.csv

``repro ARGS`` runs exactly what the ``repro`` console script runs
(``repro.cli.main``); ``param_grid ARGS`` runs the benchmark's
library-driver script.  Before handing over, one probe goes around the
command's first layer call (``--first``): the first time it is entered
the probe writes ``time.monotonic()`` to ``--mark``.  The parent
process reads the same system-wide monotonic clock before it spawns the
child, so the difference is the command's set-up time: interpreter
start plus the imports it needs before its first layer call.  The probe
costs one function call, so the command is otherwise untraced.
"""

from __future__ import annotations

import sys
import time

from probes import Patches


def _install_mark(target: str, mark_path: str) -> None:
    def make_wrapper(original):
        marked = []

        def wrapper(*args, **kwargs):
            if not marked:
                marked.append(True)
                with open(mark_path, "w") as handle:
                    handle.write(repr(time.monotonic()))
            return original(*args, **kwargs)

        return wrapper

    Patches().install(target, make_wrapper)


def split_argv(argv: list[str]) -> tuple[dict[str, str], str, list[str]]:
    """``--opt VALUE ... -- PROGRAM ARGS`` -> (options, program, args)."""
    if "--" not in argv:
        raise SystemExit(f"usage: {sys.argv[0]} --option VALUE ... -- PROGRAM ARGS")
    split = argv.index("--")
    program, *rest = argv[split + 1 :]
    return dict(zip(argv[:split:2], argv[1:split:2])), program, rest


def program_main(program: str):
    """The ``main(argv)`` of ``repro`` or of the ``param_grid`` driver."""
    if program == "repro":
        from repro.cli import main
    elif program == "param_grid":
        from param_grid import main
    else:
        raise SystemExit(f"unknown program {program!r}")
    return main


def main(argv: list[str]) -> int:
    options, program, rest = split_argv(argv)
    _install_mark(options["--first"], options["--mark"])
    return program_main(program)(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
