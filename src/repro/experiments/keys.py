"""Stable content-addressed keys for simulation memoization.

Every cacheable artifact (a :class:`~repro.simulator.engine.WorkloadProfile`,
a per-policy :class:`~repro.gating.report.EnergyReport`, a finished sweep
row) is addressed by a SHA-256 hash of a canonical JSON rendering of the
inputs that determine it.  Canonicalization recurses through dataclasses,
enums, mappings and sequences, so hashing a
:class:`~repro.core.config.SimulationConfig` (which nests chip specs,
gating parameters and policy tuples) is deterministic across processes
and Python invocations — a requirement for the on-disk cache and for the
parallel sweep runner, whose workers hash in separate interpreters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import weakref
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

from repro import __version__
from repro.core.config import SimulationConfig
from repro.gating.bet import GatingParameters
from repro.hardware.chips import NPUChipSpec
from repro.workloads.base import ParallelismConfig

#: Hex digest prefix length used as a key: 32 chars = 128 bits, which
#: makes accidental collisions negligible at any realistic cache size.
KEY_HEX_CHARS = 32

#: Stamped into every domain key.  The hash covers the *inputs* of a
#: simulation, not the simulator code; tying keys to the release version
#: at least invalidates on-disk caches across upgrades.  (Same-version
#: source edits still require deleting the cache directory — see
#: docs/experiments.md.)
CACHE_SCHEMA_VERSION = __version__


#: Immutable spec types that appear, unchanged, in thousands of keys per
#: sweep (every point hashes the same chip spec and gating parameters).
#: They collapse to a content digest computed once per instance, so the
#: hot key path serializes a 32-char string instead of re-walking (and
#: re-JSON-encoding) a deeply nested dataclass.  Digests are themselves
#: canonical hashes, so they stay deterministic across processes — a
#: requirement for the parallel runner and the on-disk cache.
_DIGESTED_TYPES = (NPUChipSpec, GatingParameters)

#: id(instance) -> (digest dict, its canonical JSON text), evicted by
#: weakref.finalize when the instance is collected (before its id can
#: be reused).
_DIGEST_MEMO: dict[int, tuple[dict[str, str], str]] = {}


def _digested(value: Any) -> tuple[dict[str, str], str]:
    key = id(value)
    hit = _DIGEST_MEMO.get(key)
    if hit is None:
        digest = {
            "__type__": type(value).__name__,
            "__digest__": stable_hash(_canonical_dataclass(value)),
        }
        hit = (digest, _dumps(digest))
        _DIGEST_MEMO[key] = hit
        weakref.finalize(value, _DIGEST_MEMO.pop, key, None)
    return hit


def _canonical_dataclass(value: Any) -> dict[str, Any]:
    rendered: dict[str, Any] = {"__type__": type(value).__name__}
    for field in dataclasses.fields(value):
        rendered[field.name] = canonical(getattr(value, field.name))
    return rendered


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical structure.

    Dataclasses become ``{"__type__": name, fields...}`` so two different
    dataclass types with identical fields cannot collide; enums collapse
    to their value; mappings are key-sorted; sequences become lists.
    Shared immutable specs (chips, gating parameters) collapse to a
    memoized content digest — see :data:`_DIGESTED_TYPES`.
    """
    if isinstance(value, Enum):
        # Checked before the plain types: the project's enums subclass str.
        return {"__enum__": type(value).__name__, "value": value.value}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() is the shortest round-trip representation; it keeps the
        # canonical form bit-faithful to the double.
        return repr(value)
    if isinstance(value, _DIGESTED_TYPES):
        return _digested(value)[0]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical_dataclass(value)
    if isinstance(value, dict):
        return {str(key): canonical(val) for key, val in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for hashing")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _hash_text(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_HEX_CHARS]


def stable_hash(value: Any) -> str:
    """Hex digest of the canonical JSON rendering of ``value``."""
    return _hash_text(_dumps(canonical(value)))


#: (enum type, member) -> canonical JSON text of the member.
_ENUM_JSON: dict[tuple[type, Enum], str] = {}


def _canonical_json(value: Any) -> str:
    """``_dumps(canonical(value))``, short-cut for the parts of a key.

    Exact ``str``/``int``/``bool``/``float``/``None`` values, enum
    members, tuples and lists of those, and the digested specs are
    rendered directly; anything else takes the generic walk.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        return f'"{value!r}"'
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "true" if value is True else "false" if value is False else "null"
    if kind is tuple or kind is list:
        return "[" + ",".join(map(_canonical_json, value)) + "]"
    if isinstance(value, Enum):
        text = _ENUM_JSON.get((kind, value))
        if text is None:
            text = _ENUM_JSON[kind, value] = _dumps(canonical(value))
        return text
    if isinstance(value, _DIGESTED_TYPES):
        return _digested(value)[1]
    return _dumps(canonical(value))


class _KeyTemplate:
    """The canonical JSON of one payload shape, with holes to splice into.

    ``payload(*holes)`` builds the documented payload of a key.  The
    template renders it once through the generic path (:func:`canonical`
    + sorted-key :func:`json.dumps`) with a marker in every hole, so the
    text between the holes (key order, separators, the fixed values) is
    the oracle's own.  :meth:`hash` fills the holes with the canonical
    JSON of the varying values and hashes the text exactly as
    :func:`stable_hash` would hash ``payload(*values)``.
    """

    def __init__(self, payload: Callable[..., dict[str, Any]], holes: int):
        markers = [f"\x00{index}\x00" for index in range(holes)]
        pieces = re.split(
            "(" + "|".join(re.escape(json.dumps(marker)) for marker in markers) + ")",
            _dumps(canonical(payload(*markers))),
        )
        literals = pieces[0::2]
        order = [markers.index(json.loads(marker)) for marker in pieces[1::2]]
        if sorted(order) != list(range(holes)):
            raise ValueError("every hole must appear exactly once in the payload")
        self.payload = payload
        self.head = literals[0]
        self.tail = list(zip(order, literals[1:]))

    def hash(self, *values: Any) -> str:
        """Key of the payload with ``values`` in its holes."""
        texts = list(map(_canonical_json, values))
        return _hash_text(
            self.head + "".join([texts[index] + literal for index, literal in self.tail])
        )


def file_digest(path: str | Path) -> str:
    """Streaming SHA-256 of one file (``sha256:<hex>``), O(1) memory.

    The content digest recorded per column store in every shard
    manifest, re-checked by
    :func:`~repro.experiments.sharding.verify_artifact_files` and the
    experiment catalog's integrity pass.  Full-width (not truncated to
    :data:`KEY_HEX_CHARS`): these digests guard against corruption, not
    just collisions, and the on-disk format already shipped them at
    full width.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


# ---------------------------------------------------------------------- #
# Domain-specific keys
# ---------------------------------------------------------------------- #
# Steady-state memo for the two hottest domain keys: a sweep hashes the
# same (workload, chip, ...) tuples on every run, and the shared chip /
# parameter instances make an identity-based lookup key cheap.  Values
# are full stable hashes, so the memo changes nothing content-wise.
# When an instance whose id anchors memo entries is collected, those
# entries are evicted before the id can be reused.
_DOMAIN_KEY_MEMO: dict[tuple, str] = {}
_DOMAIN_KEYS_BY_INSTANCE: dict[int, list[tuple]] = {}


def _evict_domain_keys_for(instance_id: int) -> None:
    for key in _DOMAIN_KEYS_BY_INSTANCE.pop(instance_id, ()):
        _DOMAIN_KEY_MEMO.pop(key, None)


def _remember_domain_key(anchor: Any, memo_key: tuple, value: str) -> None:
    _DOMAIN_KEY_MEMO[memo_key] = value
    anchor_id = id(anchor)
    keys = _DOMAIN_KEYS_BY_INSTANCE.get(anchor_id)
    if keys is None:
        keys = []
        _DOMAIN_KEYS_BY_INSTANCE[anchor_id] = keys
        weakref.finalize(anchor, _evict_domain_keys_for, anchor_id)
    keys.append(memo_key)


def profile_key(
    workload: str,
    chip: NPUChipSpec,
    batch_size: int,
    parallelism: ParallelismConfig,
    apply_fusion: bool,
) -> str:
    """Key of a :class:`WorkloadProfile` (independent of policies/gating)."""
    memo_key = ("profile", workload, id(chip), batch_size, parallelism, apply_fusion)
    cached = _DOMAIN_KEY_MEMO.get(memo_key)
    if cached is None:
        cached = stable_hash(
            {
                "kind": "profile",
                "version": CACHE_SCHEMA_VERSION,
                "workload": workload,
                "chip": chip,
                "batch_size": batch_size,
                "parallelism": parallelism,
                "apply_fusion": apply_fusion,
            }
        )
        _remember_domain_key(chip, memo_key, cached)
    return cached


def _report_payload(
    version: Any, profile: Any, policy: Any, parameters: Any
) -> dict[str, Any]:
    return {
        "kind": "report",
        "version": version,
        "profile": profile,
        "policy": policy,
        "parameters": parameters,
    }


_REPORT_KEY = _KeyTemplate(_report_payload, 4)


def report_key(profile: str, policy: str, parameters: GatingParameters) -> str:
    """Key of one policy's :class:`EnergyReport` on one profile.

    ``stable_hash({"kind": "report", "version": CACHE_SCHEMA_VERSION,
    "profile": profile, "policy": policy, "parameters": parameters})``,
    rendered from a template (see :class:`_KeyTemplate`).
    """
    memo_key = ("report", profile, policy, id(parameters))
    cached = _DOMAIN_KEY_MEMO.get(memo_key)
    if cached is None:
        cached = _REPORT_KEY.hash(CACHE_SCHEMA_VERSION, profile, policy, parameters)
        _remember_domain_key(parameters, memo_key, cached)
    return cached


def shard_key(
    spec_digest: str,
    shard_count: int,
    shard_indices: Any,
    point_indices: Any,
) -> str:
    """Key of one shard artifact (single shard or a merged union).

    Content-addressed over the spec digest, the plan's shard count and
    the covered shard/point index sets, so two artifacts carry the same
    key exactly when they cover the same slice of the same plan.  Order
    of the index sequences does not matter (they are sorted first).
    """
    return stable_hash(
        {
            "kind": "shard",
            "version": CACHE_SCHEMA_VERSION,
            "spec": spec_digest,
            "count": shard_count,
            "shards": sorted(shard_indices),
            "points": sorted(point_indices),
        }
    )


_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(SimulationConfig))


def _point_payload(version: Any, workload: Any, *config_fields: Any) -> dict[str, Any]:
    # The canonical form of a SimulationConfig, field by field.
    config = {"__type__": SimulationConfig.__name__}
    config.update(zip(_CONFIG_FIELDS, config_fields))
    return {
        "kind": "point",
        "version": version,
        "workload": workload,
        "config": config,
    }


_POINT_KEY = _KeyTemplate(_point_payload, 2 + len(_CONFIG_FIELDS))
_LABELED_POINT_KEY = _KeyTemplate(
    lambda point, label: {"point": point, "label": label}, 2
)


def point_key(workload: str, config: SimulationConfig) -> str:
    """Key of one fully-specified sweep point (workload + configuration).

    ``stable_hash({"kind": "point", "version": CACHE_SCHEMA_VERSION,
    "workload": workload, "config": config})`` with ``config.chip``
    resolved through the registry first, so that ``chip="NPU-D"`` and
    ``chip=get_chip("NPU-D")`` address the same cache entry.
    """
    chip = config.resolve_chip()
    if type(config) is not SimulationConfig:
        # A subclass may add fields the template does not know.
        return stable_hash(
            {
                "kind": "point",
                "version": CACHE_SCHEMA_VERSION,
                "workload": workload,
                "config": dataclasses.replace(config, chip=chip),
            }
        )
    fields = [getattr(config, name) for name in _CONFIG_FIELDS]
    fields[_CONFIG_FIELDS.index("chip")] = chip
    return _POINT_KEY.hash(CACHE_SCHEMA_VERSION, workload, *fields)


def labeled_point_key(workload: str, config: SimulationConfig, label: str) -> str:
    """Key of one labelled sweep point (the row cache's key).

    ``stable_hash({"point": point_key(workload, config), "label":
    label})``.
    """
    return _LABELED_POINT_KEY.hash(point_key(workload, config), label)


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "KEY_HEX_CHARS",
    "canonical",
    "file_digest",
    "labeled_point_key",
    "point_key",
    "profile_key",
    "report_key",
    "shard_key",
    "stable_hash",
]
