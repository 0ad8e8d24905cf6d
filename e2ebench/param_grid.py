"""The ``param_grid`` workload's driver: a Fig. 21/22 sensitivity study.

Usage::

    python e2ebench/param_grid.py --seed 7 --csv grid.csv

It is the script a user writes against the library:
``SweepRunner(spec, cache=None).run()`` followed by ``write_csv``.  The
grid is Fig. 17's 11 workloads x {NPU-C, NPU-D} x 129 gating points:
the paper's ``default`` parameters plus 128 points drawn from the seed,
each scaling every wake-up delay/BET (Fig. 22) and the three gated
leakage ratios (Fig. 21) by its own log-uniform multiplier.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

#: Figure 17's workloads, in the paper's order.
FIG17_WORKLOADS = (
    "llama3-8b-training",
    "llama3-70b-training",
    "llama3-8b-prefill",
    "llama3-70b-prefill",
    "llama3-8b-decode",
    "llama3-70b-decode",
    "dlrm-s-inference",
    "dlrm-m-inference",
    "dlrm-l-inference",
    "dit-xl-inference",
    "gligen-inference",
)
CHIPS = ("NPU-C", "NPU-D")
DRAWN_POINTS = 128
#: Multiplier ranges: Fig. 22 sweeps delays over 0.25-4x, Fig. 21 the
#: leakage ratios over roughly half to double the defaults.
DELAY_RANGE = (0.25, 4.0)
LEAKAGE_RANGE = (0.5, 2.0)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def build_spec(seed: int):
    """The sweep spec of one seed (deterministic in ``seed``)."""
    from repro.experiments import DEFAULT_GATING_LABEL, SweepSpec
    from repro.gating.bet import DEFAULT_PARAMETERS

    rng = random.Random(seed)
    base = DEFAULT_PARAMETERS.leakage
    points = [(DEFAULT_GATING_LABEL, DEFAULT_PARAMETERS)]
    for index in range(DRAWN_POINTS):
        delay = _log_uniform(rng, *DELAY_RANGE)
        logic, sleep, off = (
            min(1.0, ratio * _log_uniform(rng, *LEAKAGE_RANGE))
            for ratio in (base.logic_off, base.sram_sleep, base.sram_off)
        )
        parameters = DEFAULT_PARAMETERS.with_delay_multiplier(delay).with_leakage(
            logic, sleep, off
        )
        points.append((f"p{index:03d}", parameters))
    return SweepSpec(workloads=FIG17_WORKLOADS, chips=CHIPS, gating_parameters=points)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", required=True, metavar="PATH")
    args = parser.parse_args(argv)

    from repro.experiments import SweepRunner

    spec = build_spec(args.seed)
    result = SweepRunner(spec, cache=None).run()
    rows = result.write_csv(args.csv)
    print(f"param grid: {spec.num_points} points, {rows} rows -> {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
