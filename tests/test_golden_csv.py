"""Golden CSV bytes: the sha256 of two sweep tables, pinned.

The sweep CSV is the artifact users diff, cache and merge, so its bytes
are a contract of their own, independent of how the writer renders
them.  Two grids are pinned in ``tests/golden/sweep_csv_sha256.json``:

* ``fig17_npu_d`` — ``repro sweep --csv`` over Fig. 17's eleven
  workloads on NPU-D with all five policies;
* ``gating_3pt_two_chips`` — a three-point gating-parameter grid (the
  defaults, slower wake-up, leakier gated blocks) on NPU-C and NPU-D,
  the shape of the Fig. 21/22 sensitivity sweeps.  It is written through
  each of the table's stores: the runner's packed rows, the merged
  column store of a two-shard run, and the row dicts.

After an *intentional* change of the table's content, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_csv.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ShardRunner, SweepResult, SweepRunner, SweepSpec
from repro.gating.bet import DEFAULT_PARAMETERS

GOLDEN_PATH = Path(__file__).parent / "golden" / "sweep_csv_sha256.json"

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


def _gating_spec() -> SweepSpec:
    leakage = DEFAULT_PARAMETERS.leakage
    return SweepSpec(
        workloads=("llama3-8b-prefill", "llama3-8b-decode", "dlrm-s-inference"),
        chips=("NPU-C", "NPU-D"),
        gating_parameters=(
            ("default", DEFAULT_PARAMETERS),
            ("slow-wake", DEFAULT_PARAMETERS.with_delay_multiplier(2.5)),
            (
                "leaky",
                DEFAULT_PARAMETERS.with_leakage(
                    leakage.logic_off * 1.5, leakage.sram_sleep * 1.5, leakage.sram_off * 1.5
                ),
            ),
        ),
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(name: str, digest: str, update_golden: bool) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if update_golden:
        golden[name] = digest
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden digest {name!r} regenerated")
    assert digest == golden[name], f"CSV bytes of {name!r} changed"


def test_fig17_npu_d_sweep_csv(tmp_path, capsys, update_golden):
    path = tmp_path / "fig17.csv"
    argv = ["sweep", "--chip", "NPU-D", "--csv", str(path)]
    for workload in FIG17_WORKLOADS:
        argv += ["-w", workload]
    assert main(argv) == 0
    capsys.readouterr()
    assert path.read_text().count("\n") == 1 + len(FIG17_WORKLOADS) * 5
    _check("fig17_npu_d", _sha256(path), update_golden)


def test_gating_grid_csv_on_every_store(tmp_path, update_golden):
    spec = _gating_spec()
    packed = SweepRunner(spec).run()
    assert len(packed) == spec.num_points * 5
    digests = {}
    packed.write_csv(tmp_path / "packed.csv")
    digests["packed"] = _sha256(tmp_path / "packed.csv")

    runner = ShardRunner(spec, 2)
    paths = [runner.write(index, tmp_path / "shards") for index in range(2)]
    SweepResult.merge_shards(paths).write_csv(tmp_path / "merged.csv")
    digests["columns"] = _sha256(tmp_path / "merged.csv")

    SweepResult.from_rows(packed.rows).write_csv(tmp_path / "rows.csv")
    digests["rows"] = _sha256(tmp_path / "rows.csv")

    assert len(set(digests.values())) == 1, digests
    _check("gating_3pt_two_chips", digests["packed"], update_golden)
