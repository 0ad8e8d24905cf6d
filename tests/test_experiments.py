"""Unit tests for the experiments subsystem: keys, spec, cache layers."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SimulationConfig
from repro.experiments import (
    ROW_COLUMNS,
    SimulationCache,
    SweepSpec,
    canonical,
    point_key,
    simulate_cached,
    stable_hash,
)
from repro.experiments.cache import report_from_dict, report_to_dict
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip


class TestStableHash:
    def test_deterministic(self):
        config = SimulationConfig(chip="NPU-C", batch_size=8)
        assert stable_hash(config) == stable_hash(config)
        assert stable_hash(config) == stable_hash(
            SimulationConfig(chip="NPU-C", batch_size=8)
        )

    def test_sensitive_to_any_field(self):
        base = SimulationConfig()
        assert stable_hash(base) != stable_hash(SimulationConfig(batch_size=2))
        assert stable_hash(base) != stable_hash(SimulationConfig(duty_cycle=0.5))
        assert stable_hash(base) != stable_hash(
            SimulationConfig(gating_parameters=DEFAULT_PARAMETERS.with_leakage(0.1, 0.3, 0.01))
        )

    def test_chip_name_and_spec_address_same_point(self):
        by_name = point_key("llama3-8b-prefill", SimulationConfig(chip="NPU-D"))
        by_spec = point_key(
            "llama3-8b-prefill", SimulationConfig(chip=get_chip("NPU-D"))
        )
        assert by_name == by_spec

    def test_canonical_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_canonical_enum_and_float_forms(self):
        rendered = canonical(
            {"policy": PolicyName.IDEAL, "value": 0.1, "flag": True}
        )
        assert rendered["policy"] == {"__enum__": "PolicyName", "value": "Ideal"}
        assert rendered["value"] == repr(0.1)
        assert rendered["flag"] is True


class TestReportSerialization:
    def test_roundtrip(self, prefill_profile_small, power_model_d):
        from repro.gating.policies import get_policy

        report = get_policy(PolicyName.REGATE_FULL).evaluate(
            prefill_profile_small, power_model_d
        )
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert clone.policy is report.policy
        assert clone.total_energy_j == report.total_energy_j
        assert clone.static_energy_j == report.static_energy_j
        assert clone.dynamic_energy_j == report.dynamic_energy_j
        assert clone.gating_events == report.gating_events
        assert clone.peak_power_w == report.peak_power_w
        assert clone.total_time_s == report.total_time_s


class TestSweepSpecNormalization:
    def test_single_values_become_axes(self):
        spec = SweepSpec(workloads="llama3-8b-prefill", chips="NPU-C")
        assert spec.workloads == ("llama3-8b-prefill",)
        assert spec.chips == ("NPU-C",)
        assert spec.num_points == 1

    def test_nopg_always_included(self):
        spec = SweepSpec(workloads=("dlrm-s-inference",), policies=("ReGate-Full",))
        assert spec.policies[0] is PolicyName.NOPG
        assert PolicyName.REGATE_FULL in spec.policies

    def test_policies_accept_strings(self):
        spec = SweepSpec(workloads=("dlrm-s-inference",), policies=("ideal", "NoPG"))
        assert spec.policies == (PolicyName.IDEAL, PolicyName.NOPG)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            SweepSpec(workloads=("dlrm-s-inference",), policies=("dvfs",))

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(workloads=())

    def test_bare_labeled_pair_is_one_entry(self):
        spec = SweepSpec(
            workloads=("dlrm-s-inference",),
            gating_parameters=("my-point", DEFAULT_PARAMETERS),
        )
        assert spec.gating_parameters == (("my-point", DEFAULT_PARAMETERS),)

    def test_invalid_gating_parameter_entry_rejected(self):
        with pytest.raises(TypeError, match="gating_parameters"):
            SweepSpec(workloads=("dlrm-s-inference",), gating_parameters=("oops",))

    def test_unlabeled_gating_parameters_get_labels(self):
        spec = SweepSpec(
            workloads=("dlrm-s-inference",),
            gating_parameters=(
                DEFAULT_PARAMETERS,
                DEFAULT_PARAMETERS.with_delay_multiplier(2.0),
            ),
        )
        assert [label for label, _ in spec.gating_parameters] == ["g0", "g1"]

    def test_points_are_indexed_in_grid_order(self):
        spec = SweepSpec(
            workloads=("llama3-8b-prefill", "llama3-8b-decode"), chips=("NPU-C", "NPU-D")
        )
        points = spec.points()
        assert [point.index for point in points] == [0, 1, 2, 3]
        assert points[0].workload == points[1].workload == "llama3-8b-prefill"
        assert points[0].config.chip == "NPU-C"
        keys = {point.cache_key for point in points}
        assert len(keys) == 4

    def test_describe_mentions_axes(self):
        spec = SweepSpec(
            workloads=("a", "b", "c"), chips=("NPU-C", "NPU-D"), batch_sizes=(1, 2)
        )
        assert "3 workload(s)" in spec.describe()
        assert "2 chip(s)" in spec.describe()
        assert "2 batch size(s)" in spec.describe()


class TestSimulateCached:
    def test_matches_uncached_simulation(self):
        from repro.core.regate import simulate_workload

        config = SimulationConfig(chip="NPU-D", batch_size=1)
        cache = SimulationCache()
        cached = simulate_cached("llama3-8b-decode", config, cache)
        direct = simulate_workload("llama3-8b-decode", config)
        assert cached.workload == direct.workload
        assert cached.num_chips == direct.num_chips
        assert cached.batch_size == direct.batch_size
        for policy in config.policies:
            assert cached.report(policy).total_energy_j == pytest.approx(
                direct.report(policy).total_energy_j, rel=1e-12
            )

    def test_without_cache_is_passthrough(self):
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        result = simulate_cached("llama3-8b-decode", config, cache=None)
        assert result.report(PolicyName.NOPG).total_energy_j > 0

    def test_profile_reused_across_gating_parameters(self):
        from repro.simulator.engine import NPUSimulator

        cache = SimulationCache()
        base = SimulationConfig(chip="NPU-D", batch_size=1)
        NPUSimulator.reset_simulate_calls()
        simulate_cached("llama3-8b-decode", base, cache)
        assert NPUSimulator.simulate_calls == 1
        varied = base.with_gating_parameters(
            DEFAULT_PARAMETERS.with_delay_multiplier(2.0)
        )
        simulate_cached("llama3-8b-decode", varied, cache)
        assert NPUSimulator.simulate_calls == 1  # profile cache hit

    def test_custom_spec_bypasses_cache(self):
        """A hand-built WorkloadSpec must not collide with a registered
        workload's cache entries (profile keys identify specs by name)."""
        import dataclasses

        from repro.workloads.registry import get_workload

        custom = dataclasses.replace(
            get_workload("llama3-8b-decode"), default_batch_size=2
        )
        cache = SimulationCache()
        # Warm the cache with the registered workload first.
        simulate_cached("llama3-8b-decode", SimulationConfig(chip="NPU-D"), cache)
        cached = simulate_cached(custom, SimulationConfig(chip="NPU-D"), cache)
        from repro.core.regate import simulate_workload

        direct = simulate_workload(custom, SimulationConfig(chip="NPU-D"))
        assert cached.batch_size == direct.batch_size == 2
        assert cached.report(PolicyName.NOPG).total_energy_j == pytest.approx(
            direct.report(PolicyName.NOPG).total_energy_j, rel=1e-12
        )

    def test_cached_reports_are_isolated(self):
        """Mutating a returned report must not poison later cache hits."""
        from repro.hardware.components import Component

        cache = SimulationCache()
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        first = simulate_cached("llama3-8b-decode", config, cache)
        original = first.report(PolicyName.NOPG).static_energy_j[Component.SA]
        first.report(PolicyName.NOPG).static_energy_j[Component.SA] = 0.0
        second = simulate_cached("llama3-8b-decode", config, cache)
        assert second.report(PolicyName.NOPG).static_energy_j[Component.SA] == original

    def test_cache_stats_track_hits(self):
        cache = SimulationCache()
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        simulate_cached("llama3-8b-decode", config, cache)
        misses = cache.stats()["misses"]
        simulate_cached("llama3-8b-decode", config, cache)
        stats = cache.stats()
        assert stats["misses"] == misses  # warm pass adds no misses
        assert stats["hits"] > 0


class TestRowPayloads:
    """Disk row entries decode only from the packed dict form of the
    sweep row schema; anything else (a list, a scalar, a dict without
    the packed keys, non-string or foreign column names, a row without
    one value per column) is a corrupt miss, never an exception."""

    ROW = [f"cell{index}" for index in range(len(ROW_COLUMNS))]
    PACKED = {"columns": list(ROW_COLUMNS), "values": [ROW, ROW]}
    FOREIGN = (
        [dict(zip(ROW_COLUMNS, ROW))],
        7,
        {"columns": list(ROW_COLUMNS)},
        {"columns": ["a", 2], "values": [[1, 2.5]]},
        {"columns": ["a", "b"], "values": [[1, 2.5], [3, 4.5]]},
        {"columns": ["name", *ROW_COLUMNS[1:]], "values": [ROW]},
        {"columns": list(ROW_COLUMNS), "values": [ROW, ROW[:-1]]},
    )

    def test_shared_dir_layer(self, tmp_path):
        from repro.experiments.cache import SharedCacheDir

        shared = SharedCacheDir(tmp_path / "shared")
        shared.put_json("rows", "good", self.PACKED)
        for index, payload in enumerate(self.FOREIGN):
            shared.put_json("rows", f"bad{index}", payload)
        cache = SimulationCache(shared_dir=shared)
        assert cache.get_rows_packed("good") == (ROW_COLUMNS, [tuple(self.ROW)] * 2)
        for index in range(len(self.FOREIGN)):
            assert cache.get_rows_packed(f"bad{index}") is None
        assert cache.row_misses == len(self.FOREIGN)
        assert cache.stats()["shared_corrupt"] == len(self.FOREIGN)

    def test_gc_verify_flags_malformed_row_entries(self, tmp_path):
        from repro.experiments.cache import SharedCacheDir

        shared = SharedCacheDir(tmp_path)
        shared.put_json("rows", "good", self.PACKED)
        shared.put_json("rows", "short", self.FOREIGN[-1])
        report = shared.gc(dry_run=True, verify=True)
        assert report.corrupt_files == 1
        assert [(path.name, reason) for path, reason in report.removed] == [
            ("short.json", "malformed row entry")
        ]


class TestCacheRoot:
    """A cache root must be a directory or not exist yet: a regular file
    would make every write fail silently and cache nothing."""

    def test_existing_file_is_refused(self, tmp_path):
        from repro.experiments.cache import CacheRootError, SharedCacheDir

        path = tmp_path / "sweep-cache.json"
        path.write_text("{}")
        with pytest.raises(CacheRootError, match="not a directory"):
            SharedCacheDir(path)
        with pytest.raises(CacheRootError):
            SimulationCache(shared_dir=path)
