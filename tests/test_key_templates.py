"""Template-rendered cache keys against the generic ``stable_hash`` path.

``report_key``, ``point_key`` and ``SweepPoint.cache_key`` render their
canonical JSON from a fixed template and splice in only the varying
parts.  Each must equal ``stable_hash`` of its documented payload byte
for byte, or existing on-disk caches would stop hitting.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.experiments import (
    SimulationCache,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    keys,
)
from repro.experiments.keys import (
    CACHE_SCHEMA_VERSION,
    point_key,
    report_key,
    stable_hash,
)
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip
from repro.workloads.base import ParallelismConfig

#: Characters JSON escapes or that ``ensure_ascii`` turns into \u escapes.
ESCAPED = '"\\/\n\r\t\b\f\x00\x1f\x7féü 😀'
strings = st.text(alphabet=st.sampled_from("abc-_.09 " + ESCAPED), max_size=12)
multipliers = st.floats(min_value=0.25, max_value=4.0)


@st.composite
def gating_parameters(draw):
    """Defaults, or delay/leakage multipliers like ``param_grid``'s."""
    if draw(st.booleans()):
        return DEFAULT_PARAMETERS
    base = DEFAULT_PARAMETERS.leakage
    logic, sleep, off = (
        min(1.0, ratio * draw(st.floats(min_value=0.5, max_value=2.0)))
        for ratio in (base.logic_off, base.sram_sleep, base.sram_off)
    )
    return DEFAULT_PARAMETERS.with_delay_multiplier(draw(multipliers)).with_leakage(
        logic, sleep, off
    )


policy_names = st.one_of(st.sampled_from([name.value for name in PolicyName]), strings)


@st.composite
def configs(draw):
    chip = draw(st.sampled_from(["NPU-A", "NPU-C", "NPU-D", get_chip("NPU-E")]))
    return SimulationConfig(
        chip=chip,
        num_chips=draw(st.one_of(st.none(), st.integers(1, 4096))),
        batch_size=draw(st.one_of(st.none(), st.integers(1, 4096))),
        parallelism=draw(
            st.one_of(
                st.none(),
                st.builds(
                    ParallelismConfig,
                    st.integers(1, 8),
                    st.integers(1, 8),
                    st.integers(1, 8),
                ),
            )
        ),
        policies=tuple(draw(st.lists(st.sampled_from(list(PolicyName)), max_size=5))),
        gating_parameters=draw(gating_parameters()),
        duty_cycle=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        pue=draw(st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=3.0))),
        carbon_intensity_kg_per_kwh=draw(
            st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1.0))
        ),
        apply_fusion=draw(st.booleans()),
    )


def _point_payload(workload, config):
    return {
        "kind": "point",
        "version": CACHE_SCHEMA_VERSION,
        "workload": workload,
        "config": dataclasses.replace(config, chip=config.resolve_chip()),
    }


@settings(max_examples=150, deadline=None)
@given(profile=strings, policy=policy_names, parameters=gating_parameters())
def test_report_key_is_stable_hash_of_its_payload(profile, policy, parameters):
    payload = {
        "kind": "report",
        "version": CACHE_SCHEMA_VERSION,
        "profile": profile,
        "policy": policy,
        "parameters": parameters,
    }
    assert report_key(profile, policy, parameters) == stable_hash(payload)


@settings(max_examples=150, deadline=None)
@given(workload=strings, config=configs())
def test_point_key_is_stable_hash_of_its_payload(workload, config):
    assert point_key(workload, config) == stable_hash(_point_payload(workload, config))


@settings(max_examples=100, deadline=None)
@given(workload=strings, config=configs(), label=strings)
def test_sweep_point_cache_key_is_stable_hash_of_its_payload(workload, config, label):
    point = SweepPoint(index=0, workload=workload, config=config, gating_label=label)
    payload = {"point": stable_hash(_point_payload(workload, config)), "label": label}
    assert point.cache_key == stable_hash(payload)


def test_config_subclass_keys_through_the_generic_path():
    @dataclasses.dataclass(frozen=True)
    class TaggedConfig(SimulationConfig):
        tag: str = "x"

    config = TaggedConfig(chip="NPU-D")
    assert point_key("w", config) == stable_hash(_point_payload("w", config))


def _generic_template(template):
    """A stand-in template that hashes its payload through stable_hash."""

    class Generic:
        @staticmethod
        def hash(*values):
            return stable_hash(template.payload(*values))

    return Generic()


def _spec(label: str) -> SweepSpec:
    return SweepSpec(
        workloads=("llama3-8b-decode", "dlrm-s-inference"),
        chips=("NPU-C", "NPU-D"),
        batch_sizes=(1,),
        gating_parameters=(
            ("default", DEFAULT_PARAMETERS),
            (label, DEFAULT_PARAMETERS.with_delay_multiplier(2.0)),
        ),
    )


def _clear_key_memo() -> None:
    keys._DOMAIN_KEY_MEMO.clear()
    keys._DOMAIN_KEYS_BY_INSTANCE.clear()


def test_shared_cache_filled_by_generic_keys_hits_on_resweep(tmp_path, monkeypatch):
    """A cache directory written with the generic keys stays warm."""
    with monkeypatch.context() as patch:
        for name in ("_REPORT_KEY", "_POINT_KEY", "_LABELED_POINT_KEY"):
            patch.setattr(keys, name, _generic_template(getattr(keys, name)))
        _clear_key_memo()
        cold = SweepRunner(_spec("slow"), SimulationCache(shared_dir=tmp_path)).run()
    _clear_key_memo()

    warm_cache = SimulationCache(shared_dir=tmp_path)
    warm = SweepRunner(_spec("slow"), warm_cache).run()
    assert warm_cache.stats()["row_misses"] == 0
    assert warm_cache.stats()["row_hits"] == _spec("slow").num_points
    assert warm.to_csv() == cold.to_csv()

    # A new label misses the row layer only: every profile and report
    # those rows need is found under the generic-path keys.
    relabeled_cache = SimulationCache(shared_dir=tmp_path)
    SweepRunner(_spec("renamed"), relabeled_cache).run()
    stats = relabeled_cache.stats()
    assert stats["row_misses"] == _spec("renamed").num_points // 2
    assert stats["misses"] == stats["row_misses"]


def test_template_rejects_a_payload_that_drops_a_hole():
    with pytest.raises(ValueError):
        keys._KeyTemplate(lambda kept, dropped: {"kept": kept}, 2)
