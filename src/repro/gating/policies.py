"""Power-gating policies: NoPG, ReGate-Base, ReGate-HW, ReGate-Full, Ideal.

Each policy takes the activity profile produced by the performance
simulator and accounts the static energy of every component, the dynamic
energy of power-state transitions, and the exposed wake-up delays:

* **NoPG** — every component leaks at full static power all the time.
* **ReGate-Base** — conventional hardware idle detection at component
  granularity: whole SAs, VUs, the HBM and ICI controllers are gated
  after an idle-detection window (1/3 of the break-even time); unused
  SRAM can only be put to sleep.
* **ReGate-HW** — adds ReGate's PE-granularity spatial SA gating and the
  cheap (1-cycle) PE wake-up that the diagonal ``PE_on`` wavefront
  provides.
* **ReGate-Full** — adds software-managed gating: the compiler gates VUs
  on exact idle intervals (no detection window, no missed wake-ups) and
  powers unused SRAM capacity fully off.
* **Ideal** — a roofline with zero leakage when gated, zero transition
  cost and perfect idleness knowledge.

The five designs differ only in which gating scheme each component
gets, so a policy is a frozen, hashable data row
(:class:`PowerGatingPolicy`): ``gating_enabled``, ``spatial_sa_gating``,
``software_managed`` and ``ideal`` select the scheme, and
``parameters`` the gating parameters it is priced at.
:func:`get_policy` looks the five rows up by name.

Every accounting hook exists twice: an object-path loop over the
profile's operators and gaps, and a ``*_grid`` form over packed
profile arrays with a gating-parameter axis.  The object path behind
:meth:`PowerGatingPolicy.evaluate` is the oracle.  The grid form is the
one kernel, :meth:`PowerGatingPolicy.grid_evaluate`: ``evaluate`` is a
1×1 call into it and ``batch_evaluate`` an n×1 call, and both reproduce
the oracle bit for bit.  The oracle runs when the columnar fast path is
off or a profile has no columnar table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    GatingParameters,
    IdleCoefficientColumns,
    IdleGatingCoefficients,
    ParameterTable,
    grid_idle_coefficient_columns,
    idle_gating_coefficients,
)
from repro.gating.report import EnergyReport, PolicyName
from repro.gating.sa_gating import SpatialGatingModel
from repro.gating.sram_gating import SramGatingModel
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.columnar import ProfileTable
from repro.simulator.engine import GapProfile, WorkloadProfile

# The hardware VU idle detector waits at least 8 cycles to avoid blocking
# the SA pipeline (§4.1 of the paper).
MIN_VU_DETECTION_WINDOW_CYCLES = 8.0


def _min_window_cycles(component: Component) -> float:
    """Floor of a component's hardware idle-detection window."""
    return MIN_VU_DETECTION_WINDOW_CYCLES if component is Component.VU else 0.0


@dataclass
class _IdleAccounting:
    """Static energy and bookkeeping for one component's idle time."""

    energy_j: float = 0.0
    gated_gaps: float = 0.0
    exposed_wake_cycles: float = 0.0


def _along_points(values: np.ndarray, n_points: int) -> np.ndarray:
    """A per-profile array repeated along the parameter axis (read-only)."""
    rows = values[None, :].repeat(n_points, axis=0)
    rows.setflags(write=False)
    return rows


def _memoized(store, key, compute, *args, readonly: bool = False):
    """``store.memo[key]``, computed by ``compute(*args)`` on first use.

    ``readonly`` marks the computed arrays read-only, for report arrays
    that every report priced from the memo exposes directly.
    """
    value = store.memo.get(key)
    if value is None:
        value = store.memo[key] = compute(*args)
        if readonly:
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
    return value


def _safe_latency(store) -> np.ndarray:
    """Memoized division-safe latency array of a pack."""
    return _memoized(
        store,
        "safe_latency",
        lambda: np.where(store.latency_s > 0.0, store.latency_s, 1.0),
    )


def _peak_dynamic_w(store) -> np.ndarray:
    """Memoized per-operator dynamic power array (peak-power accounting)."""

    def compute() -> np.ndarray:
        # Mirrors sum(op.dynamic_energy_j.values()) over the insertion
        # order SA, VU, SRAM, HBM, ICI, OTHER (that is, Component.all()).
        dynamic_j = store.dynamic[Component.SA]
        for component in Component.all()[1:]:
            dynamic_j = dynamic_j + store.dynamic[component]
        return dynamic_j / _safe_latency(store)

    return _memoized(store, "peak_dynamic_w", compute)


def _peak_active_fraction(store, component: Component) -> np.ndarray:
    """Memoized per-operator active-time fraction of one component."""
    return _memoized(
        store,
        ("active_fraction", component),
        lambda: np.minimum(1.0, store.active[component] / _safe_latency(store)),
    )


#: The components with idle-period accounting.
_IDLE_COMPONENTS = (Component.SA, Component.VU, Component.HBM, Component.ICI)

#: Per-operator arrays (and per-component maps of them) a pack joins
#: from its tables.
_PACKED_ARRAYS = (
    "active",
    "dynamic",
    "count",
    "latency_s",
    "sa_mapped",
    "sram_demand_bytes",
    "num_weight_tiles",
    "num_output_tiles",
    "num_dma_bursts",
    "dims_m",
    "dims_k",
    "dims_n",
    "has_dims",
)


class PackedProfiles:
    """A ragged batch of profile tables packed into offset-indexed arrays.

    The input of the grid kernel: ``n`` profiles of one chip are
    concatenated into single per-operator arrays so a policy can
    evaluate all of them with single NumPy calls
    (:meth:`PowerGatingPolicy.grid_evaluate`).  Derived arrays that do
    not depend on the policy (gap tables, active fractions, leakage
    factor arrays) are memoized on the pack and shared by every policy
    evaluated on it — pack once, evaluate many.

    Per-profile reductions slice the packed arrays at the segment
    offsets and accumulate each segment with ``cumsum``, keeping the
    strictly sequential accumulation the bit-exactness contract
    requires (``np.add.reduceat`` rounds differently).
    """

    def __init__(self, profiles: list[WorkloadProfile], tables: list[ProfileTable]):
        chips = {id(profile.chip) for profile in profiles}
        if len(chips) != 1:
            raise ValueError("PackedProfiles requires profiles of a single chip")
        self.profiles = profiles
        self.tables = tables
        self.chip = profiles[0].chip
        lengths = [table.n_ops for table in tables]
        ends = list(itertools.accumulate(lengths))
        #: ``(start, end)`` operator range of every profile.
        self.segments = list(zip([0] + ends[:-1], ends))
        self.n_profiles = len(tables)
        self.n_ops = np.asarray(lengths, dtype=np.float64)
        for name in _PACKED_ARRAYS:
            arrays = [getattr(table, name) for table in tables]
            if len(arrays) == 1:
                # A one-profile pack shares its table's (never mutated) arrays.
                joined = arrays[0]
            elif isinstance(arrays[0], dict):
                joined = {
                    c: np.concatenate([by_c[c] for by_c in arrays])
                    for c in Component.all()
                }
            else:
                joined = np.concatenate(arrays)
            setattr(self, name, joined)
        #: Cross-policy scratchpad (packed analogue of ``ProfileTable.memo``).
        self.memo: dict = {}

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "PackedProfiles | None":
        """Pack profiles for batch evaluation, or ``None`` off the fast path.

        Returns ``None`` when the columnar fast path is disabled or any
        profile cannot produce a table (duck-typed stand-ins) — callers
        fall back to the object path.  A one-profile pack is memoized on
        the profile's table, so every policy evaluated on one profile
        shares the pack and everything memoized on it.
        """
        if not columnar.fast_path_enabled():
            return None
        tables = [profile._fast_table() for profile in profiles]
        if None in tables:
            return None
        if len(tables) != 1:
            return cls(list(profiles), tables)
        packed = tables[0].memo.get("pack")
        if packed is None or packed.profiles[0] is not profiles[0]:
            packed = tables[0].memo["pack"] = cls(list(profiles), tables)
        return packed

    # ------------------------------------------------------------------ #
    def seg_sums_matrix(self, stacked: np.ndarray) -> np.ndarray:
        """Per-profile sequential sums of every row of a ``(R, n_ops)`` matrix.

        Each segment is accumulated with one ``cumsum(axis=1)`` —
        row-wise sequential, so every row reduces bit-identically to
        :func:`~repro.simulator.columnar.seq_sum`.  The grid kernel's
        parameter axis rides along as extra rows, so a whole grid
        reduces with one NumPy call per profile.  A 1-D array reduces to
        a 1-D per-profile array.
        """
        if stacked.ndim == 1:
            return self.seg_sums_matrix(stacked[None, :])[0]
        if self.n_profiles == 1 and stacked.shape[1]:
            return stacked.cumsum(axis=1)[:, -1:]
        out = np.empty((stacked.shape[0], self.n_profiles), dtype=np.float64)
        for index, (start, end) in enumerate(self.segments):
            if end > start:
                out[:, index] = stacked[:, start:end].cumsum(axis=1)[:, -1]
            else:
                out[:, index] = 0.0
        return out

    def seg_max_matrix(self, values: np.ndarray) -> np.ndarray:
        """Per-profile row-wise max of a ``(R, n_ops)`` matrix (0 floor).

        A 1-D array reduces to a 1-D per-profile array.
        """
        if values.ndim == 1:
            return self.seg_max_matrix(values[None, :])[0]
        out = np.empty((values.shape[0], self.n_profiles), dtype=np.float64)
        for index, (start, end) in enumerate(self.segments):
            out[:, index] = values[:, start:end].max(axis=1, initial=0.0)
        return out

    def totals(self) -> tuple[dict, np.ndarray]:
        """``(row index, matrix)`` of the policy-independent per-profile sums.

        Busy time, every component's dynamic energy, and the active
        seconds, idle seconds and gap count of each idle-accounted
        component reduce together in one fused pass; a last row holds
        the operator counts.  Every policy priced on the pack reads the
        same rows.
        """
        cached = self.memo.get("totals")
        if cached is not None:
            return cached
        rows = {"total_time_s": self.weighted_latency()}
        for c in Component.all():
            rows[("dynamic", c)] = self.dynamic[c] * self.count
        for c in _IDLE_COMPONENTS:
            gap_s, num_gaps = self.gap_table(c)
            rows[("active", c)] = self.weighted_active(c)
            rows[("idle_s", c)] = gap_s * num_gaps
            rows[("gaps", c)] = num_gaps
        sums = self.seg_sums_matrix(np.array(list(rows.values())))
        matrix = np.concatenate((sums, self.n_ops[None, :]))
        matrix.setflags(write=False)
        index = {key: row for row, key in enumerate(rows)}
        index["n_ops"] = len(rows)
        # Share the reductions with the per-table aggregate caches: the
        # sweep's row assembly reads the same totals per profile, and
        # the fused pass produced bit-identical doubles.
        for column, table in enumerate(self.tables):
            table._total_time_s = matrix.item(index["total_time_s"], column)
            for c in Component.all():
                table._dynamic_totals[c] = matrix.item(index["dynamic", c], column)
            for c in _IDLE_COMPONENTS:
                table._active_totals[c] = matrix.item(index["active", c], column)
        cached = self.memo["totals"] = (index, matrix)
        return cached

    def total(self, key, n_points: int | None = None) -> np.ndarray:
        """One row of :meth:`totals`, repeated along ``n_points`` if given."""
        index, matrix = self.totals()
        if n_points is None:
            return matrix[index[key]]
        return self.totals_along(n_points)[index[key]]

    def totals_along(self, n_points: int) -> np.ndarray:
        """The :meth:`totals` matrix repeated along the parameter axis:
        ``(rows, n_points, n_profiles)``."""
        matrix = self.totals()[1]
        return _memoized(
            self,
            ("totals_along", n_points),
            lambda: matrix[:, None, :].repeat(n_points, axis=1),
            readonly=True,
        )

    # -- packed analogues of the per-table derived arrays ---------------- #
    def weighted_latency(self) -> np.ndarray:
        return _memoized(self, "weighted_latency", lambda: self.latency_s * self.count)

    def weighted_active(self, component: Component) -> np.ndarray:
        return _memoized(
            self,
            ("weighted_active", component),
            lambda: self.active[component] * self.count,
        )

    def gap_table(self, component: Component) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(gap_s, num_gaps_total)`` of one component.

        Elementwise-identical to concatenating each table's
        :meth:`~repro.simulator.columnar.ProfileTable.gap_table` (the
        burst model lives in one shared helper,
        :func:`repro.simulator.columnar.gap_arrays`), and computed once
        per pack for all policies.
        """

        def compute() -> tuple[np.ndarray, np.ndarray]:
            family = columnar.gap_arrays(
                component,
                latency=self.latency_s,
                active=self.active[component],
                sa_mapped=self.sa_mapped,
                num_weight_tiles=self.num_weight_tiles,
                num_output_tiles=self.num_output_tiles,
                num_dma_bursts=self.num_dma_bursts,
            )
            if family is None:
                zeros = np.zeros_like(self.latency_s)
                return zeros, zeros
            gap_s, num_per_invocation = family
            return gap_s, num_per_invocation * self.count

        return _memoized(self, ("gap_table", component), compute)


class ChipMajorPacks:
    """A chip-heterogeneous profile batch packed chip-major.

    :class:`PackedProfiles` segments are single-chip (every per-gap
    coefficient is a per-chip scalar); a multi-chip sweep therefore
    packs its profiles *chip-major*: one contiguous
    :class:`PackedProfiles` per distinct chip, in first-appearance
    order, plus the index map back to the caller's profile order.  The
    whole batch is packed once per sweep and shared by every policy and
    every gating-parameter point evaluated on it.
    """

    def __init__(
        self,
        profiles: list[WorkloadProfile],
        packs: list[PackedProfiles],
        index_map: list[tuple[int, int]],
    ):
        self.profiles = profiles
        self.packs = packs
        #: Original profile index -> (pack index, position within pack).
        self.index_map = index_map
        self.n_profiles = len(profiles)
        #: Per pack, the original indices of its profiles (pack order).
        self.pack_indices: list[list[int]] = [[] for _ in packs]
        for original, (pack_index, position) in enumerate(index_map):
            columns = self.pack_indices[pack_index]
            assert position == len(columns)
            columns.append(original)

    @property
    def chips(self) -> list:
        """Distinct chips, in first-appearance (chip-major) order."""
        return [pack.chip for pack in self.packs]

    @staticmethod
    def partition_chip_major(chip_keys) -> list[list[int]]:
        """Group positions by chip key, in first-appearance (chip-major) order.

        The single definition of the chip-major partitioning rule: both
        :meth:`pack` (grouping live profiles by chip identity) and the
        shard planner (:class:`~repro.experiments.sharding.ShardPlan`,
        grouping sweep points by chip *name* so the partition is stable
        across processes) chunk work along these groups, which is what
        keeps every :class:`PackedProfiles` pack — and every shard —
        as close to single-chip as the input allows.
        """
        groups: dict = {}
        for index, key in enumerate(chip_keys):
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "ChipMajorPacks | None":
        """Pack a (possibly multi-chip) batch, or ``None`` off the fast path."""
        profiles = list(profiles)
        if not columnar.fast_path_enabled() or not profiles:
            return None
        groups = cls.partition_chip_major(
            [id(profile.chip) for profile in profiles]
        )
        packs: list[PackedProfiles] = []
        index_map: list[tuple[int, int] | None] = [None] * len(profiles)
        for pack_index, indices in enumerate(groups):
            packed = PackedProfiles.pack([profiles[i] for i in indices])
            if packed is None:
                return None
            packs.append(packed)
            for position, original in enumerate(indices):
                index_map[original] = (pack_index, position)
        return cls(profiles, packs, index_map)


#: Gating-event insertion order of one report (mirrors ``evaluate``):
#: the idle-accounted components, then the SRAM.
GATING_EVENT_ORDER = _IDLE_COMPONENTS + (Component.SRAM,)
#: Static-energy insertion order of one report (mirrors ``evaluate``).
#: Shared single definition: the runner's vectorized
#: ``sum(static_energy_j.values())`` replication imports this order —
#: reordering it here reorders the bit-exact accumulation everywhere.
STATIC_ENERGY_ORDER = (Component.OTHER,) + GATING_EVENT_ORDER


class GridEnergyReports:
    """Array-native energy reports of one policy over a points × profiles grid.

    The output of :meth:`PowerGatingPolicy.grid_evaluate`: every report
    quantity is one ``(n_points, n_profiles)`` ``float64`` array (the
    gating-parameter axis first), so a sweep can assemble its result
    columns without materializing per-report dictionaries.
    :meth:`report` lazily materializes a single
    :class:`~repro.gating.report.EnergyReport` — bit-identical to what
    per-point :meth:`~PowerGatingPolicy.batch_evaluate` returns — for
    consumers of the object API (e.g. the report cache).  Arrays may be
    shared with other reports priced on the same pack; treat them as
    read-only.
    """

    def __init__(
        self,
        policy: PolicyName,
        *,
        baseline_time_s: np.ndarray,
        overhead_time_s: np.ndarray,
        static_energy_j: dict[Component, np.ndarray],
        dynamic_energy_j: dict[Component, np.ndarray],
        gating_events: dict[Component, np.ndarray],
        peak_power_w: np.ndarray,
    ):
        self.policy = policy
        self.baseline_time_s = baseline_time_s
        self.overhead_time_s = overhead_time_s
        self.static_energy_j = static_energy_j
        self.dynamic_energy_j = dynamic_energy_j
        self.gating_events = gating_events
        self.peak_power_w = peak_power_w
        self.n_points, self.n_profiles = overhead_time_s.shape
        # Oracle-built reports (fallback path) returned verbatim.
        self._reports: list[list[EnergyReport]] | None = None

    # ------------------------------------------------------------------ #
    def report(self, point: int, profile: int) -> EnergyReport:
        """Materialize the report of one (parameter point, profile) cell."""
        if self._reports is not None:
            return self._reports[point][profile]

        def cells(source: dict, order) -> dict:
            return {c: source[c].item(point, profile) for c in order}

        return EnergyReport(
            policy=self.policy,
            baseline_time_s=self.baseline_time_s.item(point, profile),
            overhead_time_s=self.overhead_time_s.item(point, profile),
            static_energy_j=cells(self.static_energy_j, STATIC_ENERGY_ORDER),
            dynamic_energy_j=cells(self.dynamic_energy_j, Component.all()),
            gating_events=cells(self.gating_events, GATING_EVENT_ORDER),
            peak_power_w=self.peak_power_w.item(point, profile),
        )

    def reports(self, point: int) -> list[EnergyReport]:
        """All profile reports of one parameter point (oracle order)."""
        if self._reports is not None:
            return list(self._reports[point])
        return [self.report(point, profile) for profile in range(self.n_profiles)]

    @classmethod
    def from_reports(
        cls, policy: PolicyName, reports_per_point: list[list[EnergyReport]]
    ) -> "GridEnergyReports":
        """Wrap oracle-built per-point report lists in the grid API.

        :meth:`report` hands back the original objects, and the column
        arrays are gathered from their scalars, so array-native
        consumers see the same values either way.
        """
        rows = [list(row) for row in reports_per_point]

        def gather(read) -> np.ndarray:
            values = [[read(report) for report in row] for row in rows]
            return np.asarray(values, dtype=np.float64).reshape(len(rows), -1)

        def gather_map(name: str) -> dict[Component, np.ndarray]:
            return {
                c: gather(lambda report, c=c: getattr(report, name).get(c, 0.0))
                for c in Component.all()
            }

        grid = cls(
            policy,
            baseline_time_s=gather(lambda report: report.baseline_time_s),
            overhead_time_s=gather(lambda report: report.overhead_time_s),
            static_energy_j=gather_map("static_energy_j"),
            dynamic_energy_j=gather_map("dynamic_energy_j"),
            gating_events=gather_map("gating_events"),
            peak_power_w=gather(lambda report: report.peak_power_w),
        )
        grid._reports = rows
        return grid


@dataclass(frozen=True)
class PowerGatingPolicy:
    """One gating design as a frozen, hashable data row.

    The flags select the gating scheme of each component and every
    accounting hook branches on them; ``parameters`` are the gating
    parameters the row is priced at.  Rows compare and hash by value,
    and :func:`dataclasses.replace` derives variants (this is how the
    grid fallback re-prices one row at each parameter point).
    """

    name: PolicyName
    #: Whether any power gating happens at all.
    gating_enabled: bool = False
    #: Whether the SA is gated at PE granularity during active time.
    spatial_sa_gating: bool = False
    #: Whether VU / SRAM power gating is driven by the compiler.
    software_managed: bool = False
    #: The roofline: zero leakage when gated, zero transition cost and
    #: delay, and perfect idleness knowledge.
    ideal: bool = False
    parameters: GatingParameters = DEFAULT_PARAMETERS

    # ------------------------------------------------------------------ #
    # Idle-period accounting
    # ------------------------------------------------------------------ #
    def _timing_variant(self, component: Component) -> str | None:
        if component is Component.SA:
            return "sa_pe" if self.spatial_sa_gating else "sa_full"
        return None

    def _uses_software_gating(self, component: Component) -> bool:
        return self.software_managed and component is Component.VU

    def _idle_coefficients(
        self, component: Component, static_power_w: float, chip
    ) -> IdleGatingCoefficients:
        """Per-gap gating coefficients of one component (object path)."""
        return idle_gating_coefficients(
            self.parameters,
            component,
            self._timing_variant(component),
            static_power_w,
            chip,
            software=self._uses_software_gating(component),
            min_window_cycles=_min_window_cycles(component),
        )

    def _idle_energy(
        self,
        component: Component,
        gaps: list[GapProfile],
        static_power_w: float,
        chip,
    ) -> _IdleAccounting:
        """Static energy of a component's idle time (object path)."""
        accounting = _IdleAccounting()
        if self.ideal:
            accounting.gated_gaps = sum(g.num_gaps for g in gaps)
            return accounting
        if not self.gating_enabled:
            accounting.energy_j = static_power_w * sum(g.total_idle_s for g in gaps)
            return accounting

        coeff = self._idle_coefficients(component, static_power_w, chip)
        for gap in gaps:
            if gap.gap_s <= 0 or gap.num_gaps <= 0:
                continue
            if gap.gap_s <= coeff.threshold_s:
                accounting.energy_j += static_power_w * gap.total_idle_s
                continue
            gated_s = gap.gap_s - coeff.window_s
            per_gap = (
                static_power_w * coeff.window_s
                + static_power_w * coeff.off_leakage * gated_s
                + coeff.transition_j
            )
            accounting.energy_j += per_gap * gap.num_gaps
            accounting.gated_gaps += gap.num_gaps
            if not coeff.software:
                accounting.exposed_wake_cycles += coeff.delay_cycles * gap.num_gaps
        return accounting

    # ------------------------------------------------------------------ #
    # Active-period accounting
    # ------------------------------------------------------------------ #
    def _sa_active_energy(
        self, profile: WorkloadProfile, static_power_w: float
    ) -> float:
        """SA leakage while the SA is actively computing."""
        if not (self.ideal or self.spatial_sa_gating):
            return static_power_w * profile.active_s(Component.SA)
        model = SpatialGatingModel(profile.chip.sa_width, self.parameters)
        energy = 0.0
        for op_profile in profile.profiles:
            active = op_profile.active_s(Component.SA) * op_profile.count
            if active <= 0:
                continue
            dims = op_profile.operator.dims
            if self.ideal:
                factor = model.shares(dims).active
            else:
                factor = model.static_power_factor(dims)
            energy += static_power_w * active * factor
        return energy

    def _sram_energy(self, profile: WorkloadProfile, static_power_w: float) -> float:
        """SRAM leakage: used capacity stays on, unused is slept/gated."""
        if not (self.ideal or self.gating_enabled):
            return static_power_w * profile.total_time_s
        model = SramGatingModel(profile.chip, self.parameters)
        capacity = profile.chip.sram_bytes
        energy = 0.0
        for op_profile in profile.profiles:
            duration = op_profile.latency_s * op_profile.count
            if self.ideal:
                factor = min(1.0, op_profile.sram_demand_bytes / capacity)
            else:
                factor = model.leakage_factor_for_demand(
                    op_profile.sram_demand_bytes,
                    software_managed=self.software_managed,
                )
            energy += static_power_w * duration * factor
        return energy

    def _peak_power(
        self, profile: WorkloadProfile, power_model: ChipPowerModel
    ) -> float:
        """Average power of the most power-hungry operator (Figure 18)."""
        sram_model = SramGatingModel(profile.chip, self.parameters)
        spatial_model = SpatialGatingModel(profile.chip.sa_width, self.parameters)
        off_leak = self.parameters.leakage.logic_off
        peak = 0.0
        for op_profile in profile.profiles:
            latency = op_profile.latency_s
            if latency <= 0:
                continue
            dynamic_w = sum(op_profile.dynamic_energy_j.values()) / latency
            static_w = 0.0
            for component in Component.all():
                base = power_model.static_power_w(component)
                active_fraction = min(1.0, op_profile.active_s(component) / latency)
                if not self.gating_enabled:
                    static_w += base
                    continue
                if component is Component.OTHER:
                    static_w += base
                elif component is Component.SRAM:
                    static_w += base * sram_model.leakage_factor_for_demand(
                        op_profile.sram_demand_bytes, self.software_managed
                    )
                elif component is Component.SA and self.spatial_sa_gating:
                    factor = spatial_model.static_power_factor(op_profile.operator.dims)
                    static_w += base * (
                        active_fraction * factor + (1 - active_fraction) * off_leak
                    )
                else:
                    idle_leak = 0.0 if self.ideal else off_leak
                    static_w += base * (
                        active_fraction + (1 - active_fraction) * idle_leak
                    )
            peak = max(peak, dynamic_w + static_w)
        return peak

    # ------------------------------------------------------------------ #
    # Evaluation entry points
    # ------------------------------------------------------------------ #
    def evaluate(
        self, profile: WorkloadProfile, power_model: ChipPowerModel | None = None
    ) -> EnergyReport:
        """Compute the full energy report of this policy for one profile.

        A 1×1 call into :meth:`grid_evaluate` on the profile's memoized
        one-profile pack.  When the columnar fast path is off or the
        profile has no columnar table, the object-path loops run
        instead; they are the oracle the kernel reproduces bit for bit.
        """
        packed = PackedProfiles.pack([profile])
        if packed is None:
            return self._evaluate_oracle(
                profile, power_model or ChipPowerModel.for_chip(profile.chip)
            )
        grid = self.grid_evaluate(
            packed, ParameterTable.point(self.parameters), power_model
        )
        return grid.report(0, 0)

    def _evaluate_oracle(
        self, profile: WorkloadProfile, power_model: ChipPowerModel
    ) -> EnergyReport:
        """The object-path report: per-operator and per-gap loops."""
        chip = profile.chip
        total_time_s = profile.total_time_s
        report = EnergyReport(
            policy=self.name,
            baseline_time_s=total_time_s,
            overhead_time_s=0.0,
        )
        exposed_cycles = 0.0
        for component in Component.all():
            report.dynamic_energy_j[component] = profile.dynamic_energy_j(component)

        static = power_model.static_power_by_component()

        def idle_accounting(component: Component) -> _IdleAccounting:
            return self._idle_energy(
                component, profile.gap_profiles(component), static[component], chip
            )

        # Never-gated logic leaks for the whole execution.
        report.static_energy_j[Component.OTHER] = (
            static[Component.OTHER] * total_time_s
        )

        # Systolic arrays: active-time leakage (possibly spatially gated)
        # plus idle-time leakage under the temporal gating scheme.
        sa_idle = idle_accounting(Component.SA)
        sa_active_j = self._sa_active_energy(profile, static[Component.SA])
        report.static_energy_j[Component.SA] = sa_active_j + sa_idle.energy_j
        report.gating_events[Component.SA] = sa_idle.gated_gaps
        exposed_cycles += sa_idle.exposed_wake_cycles

        # Vector units, then the HBM and ICI controllers: hardware idle
        # detection in every ReGate variant, whose wake-up delay the DMA
        # latency amortizes, so it is no performance overhead.
        for component in (Component.VU, Component.HBM, Component.ICI):
            idle = idle_accounting(component)
            report.static_energy_j[component] = (
                static[component] * profile.active_s(component) + idle.energy_j
            )
            report.gating_events[component] = idle.gated_gaps
            if component is Component.VU:
                exposed_cycles += idle.exposed_wake_cycles

        # SRAM capacity gating.
        report.static_energy_j[Component.SRAM] = self._sram_energy(
            profile, static[Component.SRAM]
        )
        report.gating_events[Component.SRAM] = float(len(profile.profiles))

        report.overhead_time_s = chip.cycles_to_seconds(exposed_cycles)
        # The exposed wake-up delays keep the whole chip powered a little
        # longer; charge that time at the un-gated static power.
        if report.overhead_time_s > 0:
            total_static_power = sum(static.values())
            extra = total_static_power * report.overhead_time_s
            report.static_energy_j[Component.OTHER] += extra

        report.peak_power_w = self._peak_power(profile, power_model)
        return report

    def batch_evaluate(
        self,
        profiles: "list[WorkloadProfile] | PackedProfiles | ChipMajorPacks",
        power_model: ChipPowerModel | None = None,
    ) -> list[EnergyReport]:
        """Evaluate this policy across a batch of profiles at once.

        Bit-identical to ``[self.evaluate(p, power_model) for p in
        profiles]``: an n×1 call into :meth:`grid_evaluate`, the API a
        serving-style deployment uses to price one gating design across
        a fleet of workload profiles.  Accepts a pre-built
        :class:`PackedProfiles` or :class:`ChipMajorPacks` so several
        policies can share one packing.
        """
        grid = self.grid_evaluate(
            profiles, ParameterTable.point(self.parameters), power_model
        )
        return grid.reports(0)

    # ------------------------------------------------------------------ #
    # The grid kernel (profiles × gating-parameter points)
    # ------------------------------------------------------------------ #
    def grid_evaluate(
        self,
        profiles: "list[WorkloadProfile] | PackedProfiles | ChipMajorPacks",
        parameter_grid: "ParameterTable | list[GatingParameters]",
        power_model: ChipPowerModel | None = None,
    ) -> GridEnergyReports:
        """Evaluate this policy over all profiles × all parameter points.

        The one policy kernel: a call prices a whole (profile batch ×
        gating-parameter grid) in a handful of vectorized NumPy
        operations, with the parameter axis riding along as extra rows
        of the packed segment reductions.  Bit-identical to the
        per-point oracle ::

            [replace(self, parameters=parameters).batch_evaluate(
                profiles, power_model)
             for parameters in parameter_grid]

        ``self.parameters`` never influences the result — every point's
        coefficients come from the grid.  Accepts a pre-built
        :class:`PackedProfiles` (single chip), a :class:`ChipMajorPacks`
        (chip-heterogeneous batch) or a plain profile list, so one
        packing can be shared by every policy of a sweep.  A list that
        cannot be packed (fast path off, or a profile without a
        columnar table) is priced cell by cell through :meth:`evaluate`.
        """
        ptable = ParameterTable.of(parameter_grid)
        if isinstance(profiles, PackedProfiles):
            packs, pack_columns = [profiles], None
        elif isinstance(profiles, ChipMajorPacks):
            packs, pack_columns = profiles.packs, profiles.pack_indices
        else:
            profiles = list(profiles)
            multi = ChipMajorPacks.pack(profiles)
            if multi is None:
                per_point = [
                    [
                        replace(self, parameters=parameters).evaluate(
                            profile, power_model
                        )
                        for profile in profiles
                    ]
                    for parameters in ptable.parameters
                ]
                return GridEnergyReports.from_reports(self.name, per_point)
            packs, pack_columns = multi.packs, multi.pack_indices

        parts = [
            self._evaluate_grid_pack(
                pack,
                ptable,
                power_model or ChipPowerModel.for_chip(pack.chip),
            )
            for pack in packs
        ]
        if len(parts) == 1:
            return parts[0]
        return self._merge_grid_parts(parts, pack_columns, ptable)

    def _merge_grid_parts(
        self,
        parts: list[GridEnergyReports],
        pack_columns: list[list[int]],
        ptable: ParameterTable,
    ) -> GridEnergyReports:
        """Reassemble per-chip grid reports into the caller's profile order."""
        shape = (ptable.n_points, sum(len(columns) for columns in pack_columns))

        def merge(read) -> np.ndarray:
            out = np.empty(shape, dtype=np.float64)
            for part, columns in zip(parts, pack_columns):
                out[:, columns] = read(part)
            return out

        def merge_map(name: str, order) -> dict[Component, np.ndarray]:
            return {
                c: merge(lambda part, c=c: getattr(part, name)[c]) for c in order
            }

        return GridEnergyReports(
            self.name,
            baseline_time_s=merge(lambda part: part.baseline_time_s),
            overhead_time_s=merge(lambda part: part.overhead_time_s),
            static_energy_j=merge_map("static_energy_j", STATIC_ENERGY_ORDER),
            dynamic_energy_j=merge_map("dynamic_energy_j", Component.all()),
            gating_events=merge_map("gating_events", GATING_EVENT_ORDER),
            peak_power_w=merge(lambda part: part.peak_power_w),
        )

    def _evaluate_grid_pack(
        self, pack: PackedProfiles, ptable: ParameterTable, power_model: ChipPowerModel
    ) -> GridEnergyReports:
        """Grid counterpart of :meth:`_evaluate_oracle` (array assembly).

        Every scalar assembly step of the oracle reappears here as one
        elementwise operation over ``(n_points, n_profiles)`` arrays —
        same operations, same order, bit-identical doubles.
        """
        static = power_model.static_power_by_component()
        base = self._grid_base(pack, ptable.n_points, power_model)
        sa, vu, hbm, ici = [
            self._component_grid(c, pack, ptable, static[c]) for c in _IDLE_COMPONENTS
        ]
        # exposed_cycles = 0.0 + SA + VU, as in the scalar assembly.
        overhead_time_s = pack.chip.cycles_to_seconds(sa[2] + vu[2])
        # The oracle adds the extra leakage only when the overhead is
        # positive; adding the exact +0.0 of a zero overhead is the same.
        extra_j = base["total_static_power"] * overhead_time_s
        static_energy = {
            Component.OTHER: base["other_j"] + extra_j,
            Component.SA: sa[0],
            Component.VU: vu[0],
            Component.HBM: hbm[0],
            Component.ICI: ici[0],
            Component.SRAM: self._sram_energy_grid(
                pack, ptable, static[Component.SRAM]
            ),
        }
        gating_events = {
            Component.SA: sa[1],
            Component.VU: vu[1],
            Component.HBM: hbm[1],
            Component.ICI: ici[1],
            Component.SRAM: base["sram_events"],
        }
        return GridEnergyReports(
            self.name,
            baseline_time_s=base["baseline_time_s"],
            overhead_time_s=overhead_time_s,
            static_energy_j=static_energy,
            dynamic_energy_j=dict(base["dynamic_energy_j"]),
            gating_events=gating_events,
            peak_power_w=self._peak_power_grid(pack, ptable, power_model),
        )

    @staticmethod
    def _grid_base(
        pack: PackedProfiles, n_points: int, power_model: ChipPowerModel
    ) -> dict:
        """The policy-independent report terms of one pack.

        Memoized per parameter-axis length and power model, so every
        policy priced on the pack shares them.  The key holds the model
        itself, so its identity cannot be recycled while the entry lives.
        """

        def compute() -> dict:
            static = power_model.static_power_by_component()
            index, matrix = pack.totals()
            along = pack.totals_along(n_points)
            return {
                "baseline_time_s": along[index["total_time_s"]],
                "sram_events": along[index["n_ops"]],
                "dynamic_energy_j": {
                    c: along[index["dynamic", c]] for c in Component.all()
                },
                "other_j": static[Component.OTHER] * matrix[index["total_time_s"]],
                "total_static_power": sum(static.values()),
            }

        return _memoized(pack, ("grid_base", n_points, power_model), compute)

    def _component_grid(
        self,
        component: Component,
        pack: PackedProfiles,
        ptable: ParameterTable,
        static_power_w: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(static_energy_j, gating_events, exposed_wake_cycles)`` of one
        idle-accounted component, as ``(n_points, n_profiles)`` arrays.

        The static energy is the active-time leakage plus the idle
        accounting of :meth:`_idle_energy`, as :meth:`_evaluate_oracle`
        adds them.  Memoized on the pack by every input, so rows gating
        a component the same way (e.g. ReGate-Base/HW/Full on the HBM
        controller) share one computation.  Only the SA and VU wake-ups
        are exposed; the other components report zero exposed cycles.
        """
        key = (
            "component",
            component,
            static_power_w,
            self.ideal,
            self.gating_enabled,
            self._timing_variant(component),
            self._uses_software_gating(component),
            ptable.tokens,
        )
        args = (component, pack, ptable, static_power_w)
        return _memoized(pack, key, self._component_values, *args, readonly=True)

    def _component_values(
        self,
        component: Component,
        pack: PackedProfiles,
        ptable: ParameterTable,
        static_power_w: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if component is Component.SA:
            active_j = self._sa_active_energy_grid(pack, ptable, static_power_w)
        else:
            active_j = static_power_w * pack.total(("active", component))
        energy, gated, exposed = self._idle_energy_grid(
            component, pack, ptable, static_power_w
        )
        return active_j + energy, gated, exposed

    def _idle_energy_grid(
        self,
        component: Component,
        pack: PackedProfiles,
        ptable: ParameterTable,
        static_power_w: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid :meth:`_idle_energy`: ``(energy_j, gated_gaps,
        exposed_wake_cycles)``."""
        n_points = ptable.n_points
        zeros = np.zeros((n_points, pack.n_profiles))
        if self.ideal:
            return zeros, pack.total(("gaps", component), n_points), zeros
        if not self.gating_enabled:
            idle_s = pack.total(("idle_s", component), n_points)
            return static_power_w * idle_s, zeros, zeros
        coeff = self._idle_coefficient_columns(
            component, ptable, static_power_w, pack.chip
        )
        # The gated-gap expressions of _idle_energy, with the (n_points, 1)
        # coefficient columns broadcasting along the per-gap axis:
        # elementwise, every point sees exactly the scalar expressions.  A
        # zero-padded gap adds an exact +0.0 to every sequential sum, so
        # the sums equal the oracle's filtered loop.
        gap_s, num_gaps = pack.gap_table(component)
        valid = _memoized(
            pack,
            ("valid_gaps", component),
            lambda: (gap_s > 0.0) & (num_gaps > 0.0),
        )
        below = gap_s <= coeff.threshold_s
        gated_s = gap_s - coeff.window_s
        per_gap = (
            static_power_w * coeff.window_s
            + static_power_w * coeff.off_leakage * gated_s
            + coeff.transition_j
        )
        ungated_j = static_power_w * (gap_s * num_gaps)
        energy = np.where(valid, np.where(below, ungated_j, per_gap * num_gaps), 0.0)
        gated_mask = valid & ~below
        rows = [energy, np.where(gated_mask, num_gaps, 0.0)]
        exposed = not coeff.software and component in (Component.SA, Component.VU)
        if exposed:
            rows.append(np.where(gated_mask, coeff.delay_cycles * num_gaps, 0.0))
        sums = pack.seg_sums_matrix(np.concatenate(rows))
        if not exposed:
            return sums[:n_points], sums[n_points:], zeros
        return sums[:n_points], sums[n_points : 2 * n_points], sums[2 * n_points :]

    def _idle_coefficient_columns(
        self,
        component: Component,
        ptable: ParameterTable,
        static_power_w: float,
        chip,
    ) -> IdleCoefficientColumns:
        """Per-point idle coefficients as aligned ``(n_points, 1)`` columns.

        The vectorized derivation
        (:func:`~repro.gating.bet.grid_idle_coefficient_columns`) is
        elementwise-identical to :meth:`_idle_coefficients`.  The columns
        are memoized on the parameter table by every input of the
        derivation, and :meth:`ParameterTable.point` keeps one table per
        parameters instance, so 1×1 and n×1 calls derive them once.  The
        chip spec itself (frozen, hashable) is part of the key — an
        ``id()`` key could alias a recycled address to stale
        chip-frequency-dependent coefficients.
        """
        variant = self._timing_variant(component)
        software = self._uses_software_gating(component)
        return _memoized(
            ptable,
            ("idle_coeffs", component, variant, software, static_power_w, chip),
            lambda: grid_idle_coefficient_columns(
                ptable,
                component,
                variant,
                static_power_w,
                chip,
                software=software,
                min_window_cycles=_min_window_cycles(component),
            ),
        )

    def _spatial_shares(self, pack: PackedProfiles) -> tuple[np.ndarray, ...]:
        """Memoized per-operator ``(active, weight_only, off)`` PE shares.

        They depend only on the matmul shapes and the SA width, not on
        the gating parameters.
        """

        def compute() -> tuple[np.ndarray, ...]:
            model = SpatialGatingModel(pack.chip.sa_width, self.parameters)
            dims = (pack.dims_m, pack.dims_k, pack.dims_n, pack.has_dims)
            return model.shares_arrays(*dims)

        return _memoized(pack, "spatial_shares", compute)

    def _spatial_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Per-operator spatial static-power factor: ``(n_points, n_ops)``.

        Each point applies its own leakage scalars to the shared PE
        shares — the same left-to-right expression as the scalar factor.
        """

        def compute() -> np.ndarray:
            active, weight_only, off = self._spatial_shares(pack)
            off_leak = ptable.logic_off[:, None]
            weight_share = ptable.pe_weight_register_share[:, None]
            w_on_leak = weight_share + (1.0 - weight_share) * off_leak
            return active + weight_only * w_on_leak + off * off_leak

        return _memoized(pack, ("spatial_factor_grid", ptable.tokens), compute)

    def _sram_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Per-operator SRAM leakage factor: ``(n_points, n_ops)``."""
        used = _memoized(
            pack,
            "sram_used_fraction",
            lambda: np.minimum(
                1.0, np.maximum(0.0, pack.sram_demand_bytes / pack.chip.sram_bytes)
            ),
        )
        leak = ptable.sram_off if self.software_managed else ptable.sram_sleep
        return _memoized(
            pack,
            ("sram_factor_grid", self.software_managed, ptable.tokens),
            lambda: used + (1.0 - used) * leak[:, None],
        )

    def _sa_active_energy_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, static_power_w: float
    ) -> np.ndarray:
        """Grid :meth:`_sa_active_energy` (points × profiles)."""
        active = pack.weighted_active(Component.SA)
        if self.ideal:
            # The roofline leaks only in the active PEs, whatever the
            # gating parameters.
            share = self._spatial_shares(pack)[0]
            energy = pack.seg_sums_matrix(
                np.where(active > 0.0, static_power_w * active * share, 0.0)
            )
            return _along_points(energy, ptable.n_points)
        if not self.spatial_sa_gating:
            active_s = pack.total(("active", Component.SA), ptable.n_points)
            return static_power_w * active_s
        factor = self._spatial_factor_grid(pack, ptable)
        return pack.seg_sums_matrix(
            np.where(active > 0.0, static_power_w * active * factor, 0.0)
        )

    def _sram_energy_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, static_power_w: float
    ) -> np.ndarray:
        """Grid :meth:`_sram_energy` (points × profiles)."""
        n_points = ptable.n_points

        def compute() -> np.ndarray:
            duration = pack.weighted_latency()
            if self.ideal:
                # Only the used capacity leaks, whatever the parameters.
                used = np.minimum(1.0, pack.sram_demand_bytes / pack.chip.sram_bytes)
                energy = pack.seg_sums_matrix(static_power_w * duration * used)
                return _along_points(energy, n_points)
            if not self.gating_enabled:
                return static_power_w * pack.total("total_time_s", n_points)
            factor = self._sram_factor_grid(pack, ptable)
            return pack.seg_sums_matrix(static_power_w * duration * factor)

        key = ("sram", static_power_w, self.ideal, self.gating_enabled)
        key += (self.software_managed, ptable.tokens)
        return _memoized(pack, key, compute, readonly=True)

    def _peak_power_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, power_model: ChipPowerModel
    ) -> np.ndarray:
        """Grid :meth:`_peak_power` (points × profiles).

        The per-component static power arrays are memoized on the pack
        and shared by every policy that accounts a component the same way.
        """
        static_w = 0.0  # the oracle's running sum (exact: no term is negative)
        for component in Component.all():
            base = power_model.static_power_w(component)
            if self.gating_enabled and component is not Component.OTHER:
                if component is Component.SRAM:
                    scheme = self.software_managed
                elif component is Component.SA and self.spatial_sa_gating:
                    scheme = "spatial"
                else:
                    scheme = self.ideal
                key = ("peak_static_w", component, base, scheme, ptable.tokens)
                base = _memoized(
                    pack, key, self._peak_static_w, component, base, pack, ptable
                )
            static_w = static_w + base
        mask = _memoized(pack, "positive_latency", lambda: pack.latency_s > 0.0)
        values = np.where(mask, _peak_dynamic_w(pack) + static_w, 0.0)
        if values.ndim == 1:
            # Every contribution was parameter-independent (e.g. NoPG).
            return _along_points(pack.seg_max_matrix(values), ptable.n_points)
        return pack.seg_max_matrix(values)

    def _peak_static_w(
        self,
        component: Component,
        base: float,
        pack: PackedProfiles,
        ptable: ParameterTable,
    ) -> np.ndarray:
        """Per-operator static power of one gated component (grid form of
        the per-component branch of :meth:`_peak_power`)."""
        if component is Component.SRAM:
            return base * self._sram_factor_grid(pack, ptable)
        fraction = _peak_active_fraction(pack, component)
        off_leak = ptable.logic_off[:, None]
        if component is Component.SA and self.spatial_sa_gating:
            factor = self._spatial_factor_grid(pack, ptable)
            return base * (fraction * factor + (1 - fraction) * off_leak)
        idle_leak = 0.0 if self.ideal else off_leak
        return base * (fraction + (1 - fraction) * idle_leak)


#: The five designs of the paper's evaluation as data rows: which
#: gating scheme each component gets (§6.1).
_POLICIES: dict[PolicyName, PowerGatingPolicy] = {
    row.name: row
    for row in (
        PowerGatingPolicy(PolicyName.NOPG),
        PowerGatingPolicy(PolicyName.REGATE_BASE, gating_enabled=True),
        PowerGatingPolicy(
            PolicyName.REGATE_HW, gating_enabled=True, spatial_sa_gating=True
        ),
        PowerGatingPolicy(
            PolicyName.REGATE_FULL,
            gating_enabled=True,
            spatial_sa_gating=True,
            software_managed=True,
        ),
        PowerGatingPolicy(
            PolicyName.IDEAL,
            gating_enabled=True,
            spatial_sa_gating=True,
            software_managed=True,
            ideal=True,
        ),
    )
}


def list_policies() -> list[PolicyName]:
    """All policy names in the paper's presentation order."""
    return list(_POLICIES)


def get_policy(
    name: PolicyName | str, parameters: GatingParameters | None = None
) -> PowerGatingPolicy:
    """The policy row of ``name``, priced at ``parameters`` (default: §6.1)."""
    row = _POLICIES[PolicyName.parse(name)]
    if parameters is None or parameters is row.parameters:
        return row
    return replace(row, parameters=parameters)


__all__ = [
    "ChipMajorPacks",
    "GridEnergyReports",
    "PackedProfiles",
    "ParameterTable",
    "PolicyName",
    "PowerGatingPolicy",
    "get_policy",
    "list_policies",
]
