"""Golden shard-artifact bytes: the sha256 of every file of a 2-shard run.

A ``.repro-shard`` directory travels between machines and merges with
artifacts written by other processes, so its bytes are a contract of
their own.  ``tests/golden/shard_artifact_sha256.json`` pins, for each
shard of a two-shard run of a small gating grid and for the artifact
their merge writes (what ``repro merge-shards --output`` and a launch's
``merged.repro-shard`` hold), the sha256 of ``columns.json``,
``columns.npy`` and of the manifest without its ``version`` field.
Both settings of the columnar fast path must write the same bytes.

After an *intentional* change of the artifact layout, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_shard_artifact.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import ShardArtifact, ShardRunner, SweepSpec, merge_artifacts
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.simulator.columnar import use_fast_path

GOLDEN_PATH = Path(__file__).parent / "golden" / "shard_artifact_sha256.json"

SPEC = SweepSpec(
    workloads=("llama3-8b-decode", "dlrm-s-inference"),
    chips=("NPU-C", "NPU-D"),
    gating_parameters=(
        ("default", DEFAULT_PARAMETERS),
        ("slow-wake", DEFAULT_PARAMETERS.with_delay_multiplier(2.5)),
    ),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(path: Path) -> dict[str, str]:
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.pop("version")
    return {
        "columns.json": _sha256((path / "columns.json").read_bytes()),
        "columns.npy": _sha256((path / "columns.npy").read_bytes()),
        "manifest-without-version": _sha256(
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        ),
    }


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "oracle"])
def test_two_shard_artifacts_and_their_merge(fast_path, tmp_path, update_golden):
    with use_fast_path(fast_path):
        runner = ShardRunner(SPEC, 2)
        paths = [runner.write(index, tmp_path / "shards") for index in range(2)]
    merged = merge_artifacts([ShardArtifact.read(path) for path in paths])
    merged_path = merged.write(tmp_path / "merged")
    digests = {path.name: _digests(path) for path in paths}
    digests["merged"] = _digests(merged_path)
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden shard-artifact digests regenerated")
    assert digests == json.loads(GOLDEN_PATH.read_text())
