"""Policies are frozen data rows priced by one kernel.

Non-default gating parameters reach every entry point the same way: the
object-path oracle, the fast ``evaluate`` (a 1×1 grid call),
``batch_evaluate`` (n×1) and ``grid_evaluate`` agree with ``==`` for all
five rows.  The rows themselves are immutable values.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.regate import simulate_workload
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.policies import get_policy, list_policies
from repro.simulator.columnar import use_fast_path

#: A wider hardware detection window and higher gated leakage.
VARIANTS = {
    "detection_window": dataclasses.replace(
        DEFAULT_PARAMETERS, detection_window_bet_fraction=3.0
    ),
    "leakage": DEFAULT_PARAMETERS.with_leakage(0.2, 0.4, 0.1),
}


@pytest.fixture(scope="module")
def profiles():
    with use_fast_path(True):
        return [
            simulate_workload(workload, chip="NPU-D").profile
            for workload in ("llama3-8b-decode", "dlrm-s-inference")
        ]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("policy_name", list_policies())
def test_parameters_move_every_entry_point_identically(profiles, policy_name, variant):
    parameters = VARIANTS[variant]
    row = get_policy(policy_name, parameters)
    with use_fast_path(False):
        oracle = [row.evaluate(profile) for profile in profiles]
    with use_fast_path(True):
        fast = [row.evaluate(profile) for profile in profiles]
        batch = row.batch_evaluate(profiles)
        grid = get_policy(policy_name).grid_evaluate(
            profiles, [DEFAULT_PARAMETERS, parameters]
        )
        default = get_policy(policy_name).batch_evaluate(profiles)
    assert fast == oracle
    assert batch == oracle
    assert grid.reports(1) == oracle
    assert grid.reports(0) == default
    # Only gating rows feel the parameters; the detection window does
    # not exist for the Ideal roofline.
    moved = row.gating_enabled and not (row.ideal and variant == "detection_window")
    assert (oracle != default) == moved


def test_rows_are_frozen_hashable_values():
    row = get_policy("ReGate-Full")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.software_managed = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.parameters = VARIANTS["leakage"]

    leaky = DEFAULT_PARAMETERS.with_leakage(0.2, 0.4, 0.1)
    same = get_policy("regate_full", DEFAULT_PARAMETERS.with_leakage(0.2, 0.4, 0.1))
    assert get_policy("ReGate-Full", leaky) == same
    assert hash(get_policy("ReGate-Full", leaky)) == hash(same)
    assert len({get_policy(name) for name in list_policies()} | {row}) == 5
    assert get_policy("ReGate-Full", leaky) != row
    assert dataclasses.replace(row, parameters=leaky) == same
