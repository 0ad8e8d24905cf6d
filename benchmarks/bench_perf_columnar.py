"""Perf benchmarks: columnar fast path vs the object-path oracle.

Unlike the figure-regeneration benchmarks (which run once and print
tables), these measure wall time of the hot simulation paths under
pytest-benchmark, pairing each columnar benchmark with its object-path
twin so a local ``pytest benchmarks/bench_perf_columnar.py`` run shows
the speedups directly.  The ``repro perf`` CLI runs the same pairs and
writes ``BENCH_perf.json``; CI gates on that payload.

The suite stays on the small configs so the tier-1 run remains fast.
"""

from __future__ import annotations

import pytest

from repro.analysis.perf import PERF_CHIP, PERF_WORKLOAD, perf_sweep_spec
from repro.core.config import SimulationConfig
from repro.core.regate import resolve_execution
from repro.experiments import SweepRunner
from repro.gating.idle_detection import IdleDetector, run_length_idle_stats
from repro.gating.policies import get_policy
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.engine import NPUSimulator
from repro.workloads.registry import get_workload

_ROUNDS = 3


@pytest.fixture(scope="module")
def perf_graph():
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    chip, batch, parallelism = resolve_execution(spec, config)
    return spec.build_graph(batch_size=batch, parallelism=parallelism), chip


def _simulate(graph_chip):
    graph, chip = graph_chip
    return NPUSimulator(chip).simulate(graph)


def _evaluate_policies(graph_chip):
    graph, chip = graph_chip
    config = SimulationConfig(chip=PERF_CHIP)
    profile = NPUSimulator(chip).simulate(graph)
    power_model = ChipPowerModel.for_chip(chip)
    for policy_name in config.policies:
        get_policy(policy_name, config.gating_parameters).evaluate(
            profile, power_model
        )


def _bench(benchmark, fn, fast: bool):
    def run():
        with columnar.use_fast_path(fast):
            fn()

    run()  # warm-up outside the measured rounds
    benchmark.pedantic(run, rounds=_ROUNDS, iterations=1, warmup_rounds=0)


# -- graph construction -------------------------------------------------- #
def test_perf_graph_construction_columnar(benchmark):
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    _chip, batch, parallelism = resolve_execution(spec, config)
    _bench(
        benchmark,
        lambda: spec.build_table(batch_size=batch, parallelism=parallelism),
        fast=True,
    )


def test_perf_graph_construction_object(benchmark):
    spec = get_workload(PERF_WORKLOAD)
    config = SimulationConfig(chip=PERF_CHIP)
    _chip, batch, parallelism = resolve_execution(spec, config)
    _bench(
        benchmark,
        lambda: spec.build_graph(batch_size=batch, parallelism=parallelism),
        fast=False,
    )


# -- cold simulate ------------------------------------------------------- #
def test_perf_cold_simulate_columnar(benchmark, perf_graph):
    _bench(benchmark, lambda: _simulate(perf_graph), fast=True)


def test_perf_cold_simulate_object(benchmark, perf_graph):
    _bench(benchmark, lambda: _simulate(perf_graph), fast=False)


# -- batched multi-profile policy evaluation ------------------------------ #
@pytest.fixture(scope="module")
def fleet_profiles():
    from repro.analysis.perf import BATCH_EVAL_FLEET

    spec = perf_sweep_spec("full")
    config = SimulationConfig(chip=PERF_CHIP)
    chip = config.resolve_chip()
    profiles = []
    for name in spec.workloads[:BATCH_EVAL_FLEET]:
        workload = get_workload(name)
        _chip, batch, parallelism = resolve_execution(workload, config)
        table = workload.build_table(batch_size=batch, parallelism=parallelism)
        profiles.append(NPUSimulator(chip).simulate(table))
    return profiles, chip


def test_perf_batch_policy_evaluation_columnar(benchmark, fleet_profiles):
    from repro.gating.policies import PackedProfiles

    profiles, chip = fleet_profiles
    config = SimulationConfig(chip=PERF_CHIP)
    power_model = ChipPowerModel.for_chip(chip)
    policies = [get_policy(name, config.gating_parameters) for name in config.policies]

    def run():
        for profile in profiles:
            profile.table.reset_caches()
        packed = PackedProfiles.pack(profiles)
        for policy in policies:
            policy.batch_evaluate(packed, power_model)

    _bench(benchmark, run, fast=True)


def test_perf_batch_policy_evaluation_object(benchmark, fleet_profiles):
    profiles, chip = fleet_profiles
    config = SimulationConfig(chip=PERF_CHIP)
    power_model = ChipPowerModel.for_chip(chip)
    policies = [get_policy(name, config.gating_parameters) for name in config.policies]

    def run():
        for policy in policies:
            for profile in profiles:
                policy.evaluate(profile, power_model)

    _bench(benchmark, run, fast=False)


# -- grid-batched sensitivity evaluation ---------------------------------- #
@pytest.fixture(scope="module")
def sensitivity_profiles():
    from repro.analysis.sensitivity import SENSITIVITY_WORKLOADS

    config = SimulationConfig(chip=PERF_CHIP)
    chip = config.resolve_chip()
    profiles = []
    with columnar.use_fast_path(True):
        for name in SENSITIVITY_WORKLOADS:
            workload = get_workload(name)
            _chip, batch, parallelism = resolve_execution(workload, config)
            table = workload.build_table(batch_size=batch, parallelism=parallelism)
            profiles.append(NPUSimulator(chip).simulate(table))
    return profiles, chip


def test_perf_sensitivity_grid_batched(benchmark, sensitivity_profiles):
    """One grid_evaluate per policy across profiles × 25 parameter points."""
    from repro.analysis.perf import SENSITIVITY_GRID_PARAMETERS
    from repro.gating.bet import ParameterTable
    from repro.gating.policies import PackedProfiles

    profiles, chip = sensitivity_profiles
    config = SimulationConfig(chip=PERF_CHIP)
    power_model = ChipPowerModel.for_chip(chip)

    def run():
        for profile in profiles:
            profile.table.reset_caches()
        packed = PackedProfiles.pack(profiles)
        ptable = ParameterTable(SENSITIVITY_GRID_PARAMETERS)
        for policy_name in config.policies:
            get_policy(policy_name).grid_evaluate(packed, ptable, power_model)

    _bench(benchmark, run, fast=True)


def test_perf_sensitivity_grid_per_point(benchmark, sensitivity_profiles):
    """The same kernel one parameter point at a time (n×1 calls)."""
    from repro.analysis.perf import SENSITIVITY_GRID_PARAMETERS
    from repro.gating.policies import PackedProfiles

    profiles, chip = sensitivity_profiles
    config = SimulationConfig(chip=PERF_CHIP)
    power_model = ChipPowerModel.for_chip(chip)

    def run():
        for profile in profiles:
            profile.table.reset_caches()
        packed = PackedProfiles.pack(profiles)
        for policy_name in config.policies:
            for parameters in SENSITIVITY_GRID_PARAMETERS:
                get_policy(policy_name, parameters).batch_evaluate(
                    packed, power_model
                )

    _bench(benchmark, run, fast=True)


# -- policy evaluation --------------------------------------------------- #
def test_perf_policy_evaluation_columnar(benchmark, perf_graph):
    _bench(benchmark, lambda: _evaluate_policies(perf_graph), fast=True)


def test_perf_policy_evaluation_object(benchmark, perf_graph):
    _bench(benchmark, lambda: _evaluate_policies(perf_graph), fast=False)


# -- idle detector ------------------------------------------------------- #
_TRACE = ([True] * 7 + [False] * 40) * 2000


def test_perf_idle_detector_vectorized(benchmark):
    stats = benchmark.pedantic(
        lambda: run_length_idle_stats(_TRACE, 16, 4),
        rounds=_ROUNDS, iterations=1, warmup_rounds=0,
    )
    assert stats == IdleDetector(16, 4).run(_TRACE)


def test_perf_idle_detector_stepwise(benchmark):
    benchmark.pedantic(
        lambda: IdleDetector(16, 4).run(_TRACE),
        rounds=_ROUNDS, iterations=1, warmup_rounds=0,
    )


# -- cold sweep (small grid) --------------------------------------------- #
def test_perf_cold_sweep_small_columnar(benchmark):
    spec = perf_sweep_spec("small")
    _bench(benchmark, lambda: SweepRunner(spec, cache=None).run(), fast=True)


def test_perf_cold_sweep_small_object(benchmark):
    spec = perf_sweep_spec("small")
    _bench(benchmark, lambda: SweepRunner(spec, cache=None).run(), fast=False)
