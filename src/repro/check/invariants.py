"""Runtime invariant sanitizer for the UVM simulator (``REPRO_SANITIZE``).

Modeled on the ASan/TSan wiring of compiled runtimes: the instrumented
binary is bit-identical in behaviour, but a shadow checker validates the
data structures the hot path mutates.  Here an :class:`InvariantChecker`
is attached to one :class:`~repro.sim.engine.UVMSimulator` and, every
``check_every`` faults plus at every HPE interval boundary, walks the
simulator's state and asserts the invariants the paper's correctness
rests on (frame table ↔ page table bijection, page-set chain integrity,
saturation caps, HIR bounds, …).

Any broken invariant raises :class:`InvariantViolation` carrying a
structured state snapshot, so a failure pinpoints *which* rule broke and
*what* the surrounding state looked like — instead of a wrong Fig. 11
bar three experiment layers later.

The checker is strictly read-only: it never calls an API that bumps a
statistic or moves state, so a sanitized run's ``key_metrics()`` is
bit-identical to an unsanitized one — the test suite and CI both
assert this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core import soa
from repro.core.hir import COUNTER_MAX as HIR_COUNTER_MAX
from repro.core.hpe import HPEPolicy
from repro.core.pageset import COUNTER_CAP, PageSetEntry, SetPart, primary_key

if TYPE_CHECKING:
    from repro.sim.engine import UVMSimulator

#: Default fault sampling period (one full sweep per ``check_every``
#: faults; interval boundaries are always checked in addition).
DEFAULT_CHECK_EVERY = 64

#: Fault cap for ``--fast`` smoke mode: sanitize only the first 2k
#: faults, then stand down (tier-1 tests stay quick; CI runs full mode).
FAST_MODE_MAX_FAULTS = 2000


class InvariantViolation(AssertionError):
    """One broken simulator invariant, with a structured state snapshot.

    Parameters
    ----------
    code:
        Stable rule identifier (e.g. ``chain-resident``), suitable for
        tests to assert on.
    message:
        Human-readable description of what broke.
    snapshot:
        Structured state captured at detection time (fault number,
        partition sizes, the offending entry, …).
    """

    def __init__(
        self, code: str, message: str, snapshot: Optional[dict] = None
    ) -> None:
        self.code = code
        self.snapshot = snapshot or {}
        super().__init__(f"[{code}] {message}")

    def render(self) -> str:
        """Multi-line report: the message plus the snapshot, sorted."""
        lines = [str(self)]
        for key in sorted(self.snapshot):
            lines.append(f"  {key} = {self.snapshot[key]!r}")
        return "\n".join(lines)


def _entry_summary(entry: PageSetEntry) -> dict:
    """Compact, JSON-able view of one chain entry for snapshots."""
    return {
        "tag": entry.tag,
        "part": entry.part.value,
        "counter": entry.counter,
        "bit_vector": entry.bit_vector,
        "resident_mask": entry.resident_mask,
        "member_mask": entry.member_mask,
        "divided": entry.divided,
    }


@dataclass
class CheckerStats:
    """How much sanitizing one run performed (reported by the CLI)."""

    sweeps: int = 0
    interval_sweeps: int = 0
    invariants_checked: int = 0
    faults_seen: int = 0
    #: ``True`` once a fast-mode cap stopped per-fault sweeps.
    capped: bool = False


@dataclass
class _MonotonicShadow:
    """Last-seen values for counters that must never decrease."""

    driver: dict = field(default_factory=dict)
    registry: dict = field(default_factory=dict)
    intervals: int = 0


class InvariantChecker:
    """Validates a simulator's cross-structure invariants on demand.

    Parameters
    ----------
    simulator:
        The :class:`~repro.sim.engine.UVMSimulator` under test; the
        checker reads its frame pool, page table, TLBs, policy and
        optional observation registry.
    check_every:
        Run a full sweep every N faults (default 64, one HPE interval).
    max_faults:
        Stop per-fault sweeps after this many faults (``--fast`` smoke
        mode); the end-of-run sweep still happens.  ``None`` = no cap.
    """

    def __init__(
        self,
        simulator: "UVMSimulator",
        check_every: int = DEFAULT_CHECK_EVERY,
        max_faults: Optional[int] = None,
    ) -> None:
        if check_every <= 0:
            raise ValueError(
                f"check_every must be positive, got {check_every}"
            )
        if max_faults is not None and max_faults <= 0:
            raise ValueError("max_faults must be positive or None")
        self.simulator = simulator
        self.check_every = check_every
        self.max_faults = max_faults
        self.stats = CheckerStats()
        self._shadow = _MonotonicShadow()

    # ------------------------------------------------------------------
    # Hook points (driver fault path + engine end-of-run)
    # ------------------------------------------------------------------

    def after_fault(self, page: int) -> None:
        """Driver hook: called once per serviced fault.

        Sweeps every ``check_every`` faults and at every interval
        boundary; in fast mode, stands down past ``max_faults``.
        """
        stats = self.stats
        stats.faults_seen += 1
        if self.max_faults is not None and stats.faults_seen > self.max_faults:
            stats.capped = True
            return
        policy = self.simulator.policy
        boundary = False
        if isinstance(policy, HPEPolicy):
            intervals = policy.chain.intervals
            if intervals != self._shadow.intervals:
                boundary = True
        if boundary or stats.faults_seen % self.check_every == 0:
            self.check_all()
            if boundary:
                stats.interval_sweeps += 1

    def final_check(self) -> None:
        """Engine hook: one unconditional full sweep at end of run."""
        self.check_all()

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def check_all(self) -> int:
        """Run every applicable invariant; return the number checked."""
        before = self.stats.invariants_checked
        self.stats.sweeps += 1
        self._check_frame_bijection()
        self._check_page_table_residency()
        self._check_residency_bitmap()
        self._check_capacity()
        self._check_tlb_subset()
        self._check_policy_residency()
        self._check_driver_monotonic()
        policy = self.simulator.policy
        if isinstance(policy, HPEPolicy):
            self._check_chain_partitions(policy)
            self._check_chain_interval_monotonic(policy)
            self._check_chain_entries(policy)
            self._check_divided_disjoint(policy)
            self._check_hpe_residency_map(policy)
            self._check_hir_bounds(policy)
            self._check_history(policy)
        obs = self.simulator.obs
        if obs is not None:
            self._check_registry_monotonic(obs.registry)
        return self.stats.invariants_checked - before

    def _fail(self, code: str, message: str, **snapshot: Any) -> None:
        snapshot.setdefault("fault_number", self.stats.faults_seen)
        raise InvariantViolation(code, message, snapshot)

    def _tick(self) -> None:
        self.stats.invariants_checked += 1

    # -- core (policy-agnostic) ----------------------------------------

    def _check_frame_bijection(self) -> None:
        """frame ↔ page maps are exact inverses and capacity-bounded."""
        self._tick()
        pool = self.simulator.frame_pool
        frame_of_page = pool._frame_of_page
        page_of_frame = pool._page_of_frame
        if len(frame_of_page) != len(page_of_frame):
            self._fail(
                "frame-bijection",
                "frame→page and page→frame maps have different sizes",
                pages=len(frame_of_page), frames=len(page_of_frame),
            )
        for page, frame in frame_of_page.items():
            if page_of_frame.get(frame) != page:
                self._fail(
                    "frame-bijection",
                    f"frame {frame} does not map back to page {page:#x}",
                    page=page, frame=frame,
                    reverse=page_of_frame.get(frame),
                )
            if not 0 <= frame < pool.capacity:
                self._fail(
                    "frame-bijection",
                    f"frame {frame} out of range [0, {pool.capacity})",
                    page=page, frame=frame,
                )
        free = set(pool._free)
        if len(free) != len(pool._free):
            self._fail(
                "frame-bijection", "free list contains duplicate frames",
                free_list_length=len(pool._free), distinct=len(free),
            )
        if free & set(page_of_frame):
            self._fail(
                "frame-bijection",
                "free list overlaps occupied frames",
                overlap=sorted(free & set(page_of_frame))[:8],
            )
        if len(free) + len(page_of_frame) != pool.capacity:
            self._fail(
                "frame-bijection",
                "free + occupied frames do not cover capacity",
                free=len(free), used=len(page_of_frame),
                capacity=pool.capacity,
            )

    def _check_residency_bitmap(self) -> None:
        """The pool's flat SoA residency view mirrors the frame map."""
        self._tick()
        pool = self.simulator.frame_pool
        bitmap_pages = set(pool.residency)
        map_pages = set(pool._frame_of_page)
        if bitmap_pages != map_pages:
            self._fail(
                "residency-bitmap",
                "flat residency bitmap disagrees with the frame map",
                only_in_bitmap=sorted(bitmap_pages - map_pages)[:8],
                only_in_map=sorted(map_pages - bitmap_pages)[:8],
            )

    def _check_page_table_residency(self) -> None:
        """Valid PTEs ↔ resident pages, with matching frame numbers."""
        self._tick()
        pool = self.simulator.frame_pool
        table = self.simulator.page_table
        valid = {
            page: entry
            for page, entry in table._entries.items()
            if entry.valid
        }
        resident = pool._frame_of_page
        if valid.keys() != resident.keys():
            only_table = sorted(valid.keys() - resident.keys())[:8]
            only_pool = sorted(resident.keys() - valid.keys())[:8]
            self._fail(
                "page-table-residency",
                "valid page-table entries and resident pages differ",
                only_in_page_table=only_table, only_in_frame_pool=only_pool,
            )
        for page, entry in valid.items():
            if entry.frame != resident[page]:
                self._fail(
                    "page-table-residency",
                    f"PTE frame for page {page:#x} disagrees with pool",
                    page=page, pte_frame=entry.frame,
                    pool_frame=resident[page],
                )

    def _check_capacity(self) -> None:
        """Resident-page count never exceeds GPU memory capacity."""
        self._tick()
        pool = self.simulator.frame_pool
        if pool.used > pool.capacity:
            self._fail(
                "capacity",
                f"{pool.used} resident pages exceed capacity {pool.capacity}",
                used=pool.used, capacity=pool.capacity,
            )

    def _check_tlb_subset(self) -> None:
        """No TLB holds a translation for an unmapped (evicted) page."""
        self._tick()
        table = self.simulator.page_table
        hierarchy = self.simulator.hierarchy
        entries_of = table._entries
        tlbs = [(f"l1[{sm}]", tlb)
                for sm, tlb in enumerate(hierarchy.l1_tlbs)]
        tlbs.append(("l2", hierarchy.l2_tlb))
        for label, tlb in tlbs:
            for tlb_set in tlb._sets:
                for page in tlb_set:
                    pte = entries_of.get(page)
                    if pte is None or not pte.valid:
                        self._fail(
                            "tlb-subset",
                            f"{label} TLB caches evicted page {page:#x} "
                            "(missed shootdown)",
                            tlb=label, page=page,
                        )

    def _check_policy_residency(self) -> None:
        """The policy's resident count agrees with the frame pool."""
        self._tick()
        policy = self.simulator.policy
        count = policy.resident_count()
        if count is None:
            return
        used = self.simulator.frame_pool.used
        if count != used:
            self._fail(
                "policy-residency",
                f"policy {policy.name!r} tracks {count} resident pages, "
                f"frame pool holds {used}",
                policy=policy.name, policy_count=count, pool_used=used,
            )

    def _check_driver_monotonic(self) -> None:
        """Driver counters only grow, and stay mutually consistent."""
        self._tick()
        stats = self.simulator.driver.stats
        current = {
            "faults": stats.faults,
            "compulsory_faults": stats.compulsory_faults,
            "capacity_faults": stats.capacity_faults,
            "evictions": stats.evictions,
            "bytes_migrated_in": stats.bytes_migrated_in,
            "bytes_evicted_out": stats.bytes_evicted_out,
            "prefetches": stats.prefetches,
        }
        shadow = self._shadow.driver
        for name, value in current.items():
            if value < shadow.get(name, 0):
                self._fail(
                    "counter-monotonic",
                    f"driver counter {name} decreased "
                    f"({shadow.get(name, 0)} -> {value})",
                    counter=name, previous=shadow.get(name, 0), now=value,
                )
        shadow.update(current)
        if stats.compulsory_faults + stats.capacity_faults != stats.faults:
            self._fail(
                "counter-monotonic",
                "compulsory + capacity faults do not sum to total faults",
                **current,
            )
        if stats.evictions > stats.faults + stats.prefetches:
            self._fail(
                "counter-monotonic",
                "more evictions than migrations could have forced",
                **current,
            )

    def _check_registry_monotonic(self, registry: Any) -> None:
        """Observability counters and histogram counts never decrease."""
        self._tick()
        shadow = self._shadow.registry
        for name, value in registry._counters.items():
            if value < shadow.get(("c", name), 0):
                self._fail(
                    "counter-monotonic",
                    f"obs counter {name!r} decreased",
                    counter=name,
                    previous=shadow.get(("c", name), 0), now=value,
                )
            shadow[("c", name)] = value
        for name, histogram in registry._histograms.items():
            if histogram.count < shadow.get(("h", name), 0):
                self._fail(
                    "counter-monotonic",
                    f"obs histogram {name!r} count decreased",
                    histogram=name,
                    previous=shadow.get(("h", name), 0),
                    now=histogram.count,
                )
            shadow[("h", name)] = histogram.count

    # -- HPE-specific ---------------------------------------------------

    def _check_chain_partitions(self, policy: HPEPolicy) -> None:
        """Each key lives in exactly one partition, under its own key."""
        self._tick()
        chain = policy.chain
        partitions = (
            ("old", soa.OLD), ("middle", soa.MIDDLE), ("new", soa.NEW),
        )
        seen: dict = {}
        for name, partition in partitions:
            for key, entry in chain.partition_items(partition):
                if entry.key != key:
                    self._fail(
                        "chain-partition",
                        f"entry filed under {key!r} reports key "
                        f"{entry.key!r} ({name} partition)",
                        partition=name, filed_key=str(key),
                        entry=_entry_summary(entry),
                    )
                if key in seen:
                    self._fail(
                        "chain-partition",
                        f"key {key!r} present in both {seen[key]} and "
                        f"{name} partitions (P1/P2 pointer corruption)",
                        partition=name, other_partition=seen[key],
                        entry=_entry_summary(entry),
                    )
                seen[key] = name
        if len(seen) != len(chain):
            self._fail(
                "chain-partition",
                "partition sizes disagree with chain length",
                distinct_keys=len(seen), chain_length=len(chain),
            )

    def _check_chain_interval_monotonic(self, policy: HPEPolicy) -> None:
        """P1/P2 advance monotonically: the interval count never rewinds."""
        self._tick()
        intervals = policy.chain.intervals
        if intervals < self._shadow.intervals:
            self._fail(
                "chain-interval",
                f"chain intervals went backwards "
                f"({self._shadow.intervals} -> {intervals})",
                previous=self._shadow.intervals, now=intervals,
            )
        self._shadow.intervals = intervals

    def _check_chain_entries(self, policy: HPEPolicy) -> None:
        """Per-entry invariants (Fig. 5/6): masks nested, counters capped,
        no fully-evicted entry left in the chain."""
        self._tick()
        size = policy.config.page_set_size
        full_mask = (1 << size) - 1
        for entry in policy.chain.iter_entries():
            if entry.resident_mask == 0:
                self._fail(
                    "chain-resident",
                    f"page set {entry.tag:#x}/{entry.part.value} has no "
                    "resident page but is still chained",
                    entry=_entry_summary(entry),
                )
            if entry.resident_mask & ~entry.bit_vector:
                self._fail(
                    "bitvector-subset",
                    f"page set {entry.tag:#x}/{entry.part.value} has "
                    "resident pages that never faulted "
                    "(resident_mask ⊄ bit_vector)",
                    entry=_entry_summary(entry),
                )
            if entry.bit_vector & ~entry.member_mask:
                self._fail(
                    "bitvector-subset",
                    f"page set {entry.tag:#x}/{entry.part.value} has "
                    "populated bits outside its member mask",
                    entry=_entry_summary(entry),
                )
            if entry.member_mask & ~full_mask:
                self._fail(
                    "bitvector-subset",
                    f"page set {entry.tag:#x}/{entry.part.value} member "
                    f"mask exceeds the {size}-page set width",
                    entry=_entry_summary(entry),
                )
            if not 0 <= entry.counter <= COUNTER_CAP:
                self._fail(
                    "counter-cap",
                    f"page set {entry.tag:#x}/{entry.part.value} counter "
                    f"{entry.counter} outside [0, {COUNTER_CAP}]",
                    entry=_entry_summary(entry),
                )

    def _check_divided_disjoint(self, policy: HPEPolicy) -> None:
        """Divided sets: primary and secondary halves never overlap."""
        self._tick()
        chain = policy.chain
        full_mask = policy._full_mask
        secondaries = [
            entry for entry in chain.iter_entries()
            if entry.part is SetPart.SECONDARY
        ]
        for secondary in secondaries:
            primary = chain.get(primary_key(secondary.tag))
            if primary is None:
                continue  # primary fully evicted; history keeps its mask
            if primary.member_mask & secondary.member_mask:
                self._fail(
                    "divided-disjoint",
                    f"divided page set {secondary.tag:#x}: primary and "
                    "secondary member masks overlap",
                    primary=_entry_summary(primary),
                    secondary=_entry_summary(secondary),
                )
            if not primary.divided:
                self._fail(
                    "divided-disjoint",
                    f"page set {secondary.tag:#x} has a secondary but its "
                    "primary is not marked divided",
                    primary=_entry_summary(primary),
                    secondary=_entry_summary(secondary),
                )
            if (primary.member_mask | secondary.member_mask) & ~full_mask:
                self._fail(
                    "divided-disjoint",
                    f"divided page set {secondary.tag:#x}: halves exceed "
                    "the page-set width",
                    primary=_entry_summary(primary),
                    secondary=_entry_summary(secondary),
                )

    def _check_hpe_residency_map(self, policy: HPEPolicy) -> None:
        """Chain resident bits ↔ frame-pool residency, page by page."""
        self._tick()
        pool = self.simulator.frame_pool
        geometry = policy.geometry
        chain_resident = 0
        seen_pages: set = set()
        for entry in policy.chain.iter_entries():
            first = geometry.first_page_of(entry.tag)
            mask = entry.resident_mask
            offset = 0
            while mask:
                if mask & 1:
                    page = first + offset
                    chain_resident += 1
                    if page in seen_pages:
                        self._fail(
                            "hpe-residency",
                            f"page {page:#x} marked resident by two chain "
                            "entries",
                            page=page, entry=_entry_summary(entry),
                        )
                    seen_pages.add(page)
                    if not pool.is_resident(page):
                        self._fail(
                            "hpe-residency",
                            f"chain marks page {page:#x} resident but the "
                            "frame pool does not hold it",
                            page=page, entry=_entry_summary(entry),
                        )
                mask >>= 1
                offset += 1
        if chain_resident != policy._resident_pages:
            self._fail(
                "hpe-residency",
                "HPE resident-page counter disagrees with chain bits",
                counter=policy._resident_pages, chain_bits=chain_resident,
            )
        if chain_resident != pool.used:
            self._fail(
                "hpe-residency",
                "chain resident bits disagree with frame-pool occupancy",
                chain_bits=chain_resident, pool_used=pool.used,
            )

    def _check_hir_bounds(self, policy: HPEPolicy) -> None:
        """HIR lines: 2-bit counter caps, way bounds, touch-order sync."""
        self._tick()
        hir = policy.hir
        touched = 0
        for index, lines in enumerate(hir._sets):
            if len(lines) > hir.associativity:
                self._fail(
                    "hir-bounds",
                    f"HIR set {index} holds {len(lines)} lines, over "
                    f"associativity {hir.associativity}",
                    set_index=index, lines=len(lines),
                    associativity=hir.associativity,
                )
            touched += len(lines)
            for tag, line in lines.items():
                if line.tag != tag:
                    self._fail(
                        "hir-bounds",
                        f"HIR line filed under tag {tag:#x} reports tag "
                        f"{line.tag:#x}",
                        set_index=index, filed_tag=tag, line_tag=line.tag,
                    )
                for offset, counter in enumerate(line.counters):
                    if not 0 <= counter <= HIR_COUNTER_MAX:
                        self._fail(
                            "hir-bounds",
                            f"HIR counter for tag {tag:#x} offset {offset} "
                            f"is {counter}, outside the 2-bit range "
                            f"[0, {HIR_COUNTER_MAX}]",
                            tag=tag, offset=offset, counter=counter,
                        )
        order = hir._touch_order
        if touched != len(order) or len(set(order)) != len(order):
            self._fail(
                "hir-bounds",
                "HIR touch order out of sync with populated lines",
                touched_lines=touched, touch_order=len(order),
                distinct=len(set(order)),
            )

    def _check_history(self, policy: HPEPolicy) -> None:
        """History records hold non-empty masks within the set width."""
        self._tick()
        full_mask = policy._full_mask
        # The buffer exposes no iteration; read its records directly.
        for tag, mask in policy.history._records.items():
            if mask == 0 or mask & ~full_mask:
                self._fail(
                    "history-mask",
                    f"history mask for tag {tag:#x} is empty or exceeds "
                    "the page-set width",
                    tag=tag, mask=mask, full_mask=full_mask,
                )
