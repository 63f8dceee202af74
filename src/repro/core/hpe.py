"""HPE — the hierarchical page eviction policy (Section IV).

This module assembles the paper's pieces into one
:class:`repro.policies.base.EvictionPolicy`:

* page-walk hits are recorded GPU-side in the :class:`~repro.core.hir.HIRCache`
  and ingested into the driver-side page set chain every
  ``transfer_interval``-th page fault (16 by default);
* page faults update the chain immediately (set the bit vector, bump the
  saturating counter, move the set to the MRU end of the *new* partition);
* every ``interval_length`` faults (64) the chain partitions advance;
* when GPU memory first fills, the chain's counters classify the
  application (Table III) and fix the starting strategy;
* victims are chosen page-set-first (MRU-C or LRU over the old
  partition), then page-by-page in address order;
* wrong evictions drive the dynamic adjustment of Algorithm 1.

Setting ``use_hir=False`` reproduces the paper's "ideal model where page
walk hit information is transferred to the GPU driver directly without
using HIR" (used in the Section V-A sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.adjustment import DynamicAdjustment
from repro.core.chain import PageSetChain
from repro.core.classifier import (
    DEFAULT_RATIO1_THRESHOLD,
    Category,
    Classification,
    classify,
)
from repro.core.hir import HIRCache
from repro.core.history import HistoryBuffer
from repro.core.pageset import PageSetEntry, SetKey, SetPart
from repro.core.strategies import (
    SearchResult,
    StrategyKind,
    mru_c_scan,
    select,
)
from repro.memory.addressing import PageSetGeometry
from repro.obs import finite_or_none as _finite_or_none

if TYPE_CHECKING:
    from repro.obs import Observation
    from repro.obs.registry import MetricsRegistry
from repro.policies.base import EvictionPolicy, PolicyError


@dataclass(frozen=True)
class HPEConfig:
    """All tunables of HPE, defaulting to the paper's chosen values."""

    page_set_size: int = 16
    interval_length: int = 64
    transfer_interval: int = 16
    ratio1_threshold: float = DEFAULT_RATIO1_THRESHOLD
    fifo_depth: int = 128
    jump_distance: int = 16
    hir_entries: int = 1024
    hir_associativity: int = 8
    #: ``False`` → the ideal hit-information model of Section V-A.
    use_hir: bool = True
    enable_adjustment: bool = True
    enable_division: bool = True
    #: Counter value at which a partially-populated set divides.  The
    #: paper divides at saturation (64) and notes that "if more page sets
    #: are divided by relaxing the division requirement, the performance
    #: of NW can be improved" — lower this to relax the requirement.
    division_threshold: int = 64
    allow_irregular1_switch: bool = True
    #: Override the classified category (sensitivity experiments).
    forced_category: Optional[Category] = None
    #: Pin the strategy, disabling classification-driven choice.
    forced_strategy: Optional[StrategyKind] = None

    def __post_init__(self) -> None:
        if self.page_set_size <= 0:
            raise ValueError("page_set_size must be positive")
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")
        if self.transfer_interval <= 0:
            raise ValueError("transfer_interval must be positive")
        if self.fifo_depth <= 0:
            raise ValueError("fifo_depth must be positive")
        if self.division_threshold <= 0:
            raise ValueError("division_threshold must be positive")


@dataclass
class HPEStats:
    """Observable internals used by the Section V evaluation."""

    faults: int = 0
    searches: int = 0
    comparisons_total: int = 0
    comparisons_max: int = 0
    divisions: int = 0
    hir_transfers: int = 0
    hir_bytes_transferred: int = 0

    @property
    def mean_comparisons(self) -> float:
        """Average comparisons per victim search (Fig. 14)."""
        if not self.searches:
            return 0.0
        return self.comparisons_total / self.searches


class HPEPolicy(EvictionPolicy):
    """Hierarchical page eviction, faithful to Section IV."""

    name = "hpe"
    uses_walk_hits = True

    def __init__(self, config: HPEConfig = HPEConfig()) -> None:
        self.config = config
        self.geometry = PageSetGeometry(config.page_set_size)
        self.chain = PageSetChain(config.page_set_size)
        self.hir = HIRCache(
            self.geometry,
            entries=config.hir_entries,
            associativity=config.hir_associativity,
        )
        self.history = HistoryBuffer()
        self.classification: Optional[Classification] = None
        self.adjustment: Optional[DynamicAdjustment] = None
        self.stats = HPEStats()
        self._full_mask = (1 << config.page_set_size) - 1
        self._resident_pages = 0
        self._pending_transfer_bytes = 0
        #: Optional :class:`repro.obs.Observation`; ``None`` keeps every
        #: hook a single pointer check on the fault path.
        self._obs = None
        # Per-fault hot-path copies of frozen config values (a chained
        # dataclass attribute read per fault is measurable on big runs).
        self._use_hir = config.use_hir
        self._transfer_interval = config.transfer_interval
        self._interval_length = config.interval_length
        self._page_set_size = config.page_set_size
        self._set_shift = self.geometry.shift
        self._offset_mask = self.geometry.offset_mask
        self._division_threshold = config.division_threshold
        #: The chain's plain-list backing store, called directly on the
        #: per-fault paths (one method hop instead of two).
        self._slots = self.chain.slots
        # Routing binds the two dict probes it makes per fault.
        self._history_get = self.history._records.get
        self._slot_get, self._payloads = self._slots.lookup_state()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observation(self, obs: Observation) -> None:
        """Wire an :class:`repro.obs.Observation` into HPE's internals.

        Interval advances then record time-series snapshots, HIR ingests
        and classification/adjustment actions emit trace events.  Called
        by the engine before replay; never during one.
        """
        self._obs = obs
        if self.adjustment is not None:
            self.adjustment.obs = obs

    def _snapshot_interval(self, obs: Observation) -> None:
        """One per-interval snapshot of the observable internals.

        ``obs`` is the caller's already-``is not None``-checked handle,
        so this helper never re-reads ``self._obs``.
        """
        chain = self.chain
        old, middle, new = chain.partition_sizes()
        adjustment = self.adjustment
        obs.timeseries.record({
            "interval": chain.intervals,
            "fault_number": self.stats.faults,
            "old": old,
            "middle": middle,
            "new": new,
            "chain_length": old + middle + new,
            "resident_pages": self._resident_pages,
            "strategy": (
                adjustment.strategy.value if adjustment is not None else None
            ),
            "jump": adjustment.jump if adjustment is not None else 0,
            "wrong_evictions": (
                adjustment.stats.wrong_evictions_total
                if adjustment is not None else 0
            ),
            "hir_populated": self.hir.populated,
        })
        obs.registry.observe("hpe.chain.length", old + middle + new)
        obs.registry.observe("hpe.chain.old_size", old)
        obs.emit(
            "interval",
            interval=chain.intervals,
            fault_number=self.stats.faults,
            old=old,
            middle=middle,
            new=new,
        )

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Fold HPE / HIR / adjustment whole-run tallies into a registry."""
        stats = self.stats
        registry.inc("hpe.faults", stats.faults)
        registry.inc("hpe.searches", stats.searches)
        registry.inc("hpe.comparisons", stats.comparisons_total)
        registry.inc("hpe.divisions", stats.divisions)
        registry.inc("hpe.hir_ingests", stats.hir_transfers)
        registry.inc("hpe.hir_bytes", stats.hir_bytes_transferred)
        registry.inc("hpe.intervals", self.chain.intervals)
        registry.set_gauge("hpe.resident_pages", self._resident_pages)
        registry.set_gauge(
            "hpe.category",
            self.classification.category.value
            if self.classification is not None else "unclassified",
        )
        self.hir.stats.observe_into(registry)
        if self.adjustment is not None:
            self.adjustment.stats.observe_into(registry)

    # ------------------------------------------------------------------
    # Routing (Fig. 6 steps 1–4)
    # ------------------------------------------------------------------

    def _route(
        self, tag: int, offset: int
    ) -> tuple[SetKey, Optional[int], int, bool]:
        """Return ``(chain key, live slot or None, member mask for
        creation, divided flag for creation)``.

        Consults the history buffer first (the page set was previously
        evicted), then any live divided primary, defaulting to the
        undivided primary: one history probe and — outside divided sets
        — one chain probe.  The divided flag is only ever set for a
        primary (a secondary is never itself divided).
        """
        slot_get = self._slot_get
        key = tag << 1
        hist = self._history_get(tag)
        if hist is not None:
            if (hist >> offset) & 1:
                return key, slot_get(key), hist, True
            key |= 1
            return key, slot_get(key), self._full_mask & ~hist, False
        slot = slot_get(key)
        if slot is not None:
            live = self._payloads[slot]
            if live.divided and not (live.member_mask >> offset) & 1:
                key |= 1
                return (
                    key,
                    slot_get(key),
                    self._full_mask & ~live.member_mask,
                    False,
                )
        return key, slot, self._full_mask, False

    def _maybe_divide(self, entry: PageSetEntry) -> None:
        if not self.config.enable_division:
            return
        if entry.part is SetPart.SECONDARY or entry.divided:
            return
        if (
            entry.counter >= self.config.division_threshold
            and not entry.fully_populated
        ):
            if not entry.bit_vector:
                return  # nothing faulted yet; nothing to keep as primary
            entry.member_mask = entry.bit_vector
            entry.divided = True
            self.stats.divisions += 1

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def on_walk_hit(self, page: int) -> None:
        if self._use_hir:
            self.hir.record_hit(page)
            return
        tag, offset = self.geometry.split(page)
        self._apply_hit_touch(tag, offset, 1)

    def walk_hit_listener(self) -> Callable[[int], None]:
        """The HIR recorder itself when HIR is on (one call per hit)."""
        if self._use_hir:
            return self.hir.record_hit
        return self.on_walk_hit

    def on_walk_hits(self, pages: Sequence[int]) -> None:
        if self._use_hir:
            self.hir.record_hits(list(pages))
            return
        split = self.geometry.split
        apply_touch = self._apply_hit_touch
        for page in pages:
            tag, offset = split(page)
            apply_touch(tag, offset, 1)

    def _apply_hit_touch(self, tag: int, offset: int, count: int) -> None:
        slot = self._route(tag, offset)[1]
        if slot is None:
            # Stale information: the set was fully evicted between the hit
            # being recorded and the transfer arriving.  Drop it.
            return
        entry = self._payloads[slot]
        entry.touch(count)
        self._slots.promote_slot(slot)
        if entry.counter >= self._division_threshold:
            self._maybe_divide(entry)

    def _ingest_hir(self) -> None:
        payload = self.hir.transfer()
        self.stats.hir_transfers += 1
        bytes_moved = self.hir.transfer_bytes(len(payload))
        self.stats.hir_bytes_transferred += bytes_moved
        self._pending_transfer_bytes += bytes_moved
        obs = self._obs
        if obs is not None:
            obs.registry.observe("hpe.hir.entries_per_transfer", len(payload))
            obs.emit(
                "hir_transfer",
                fault_number=self.stats.faults,
                entries=len(payload),
                bytes=bytes_moved,
            )
        for tag, counters in payload:
            for offset, count in enumerate(counters):
                if count:
                    self._apply_hit_touch(tag, offset, count)

    def on_page_in(self, page: int, fault_number: int) -> None:
        self.on_fault(page, fault_number, False)

    def on_fault(
        self, page: int, fault_number: int, evict: bool
    ) -> Optional[int]:
        """Fused :meth:`select_victim` (when ``evict``) + page-in.

        Victim first, then the Fig. 6 intake, exactly as the driver's
        ``select_victim`` / ``on_page_in`` pair orders them.
        """
        victim = self._evict_next() if evict else None
        stats = self.stats
        stats.faults += 1
        adjustment = self.adjustment
        if adjustment is not None:
            adjustment.on_fault(page)
        if self._use_hir and stats.faults % self._transfer_interval == 0:
            self._ingest_hir()
        tag = page >> self._set_shift
        offset = page & self._offset_mask
        key, slot, member_mask, divided = self._route(tag, offset)
        if slot is None:
            entry = PageSetEntry(
                tag=tag,
                page_set_size=self._page_set_size,
                part=SetPart.SECONDARY if key & 1 else SetPart.PRIMARY,
                member_mask=member_mask,
                divided=divided,
            )
            # A fresh entry lands at the MRU end of *new*: no promotion.
            self._slots.insert(key, entry)
        else:
            entry = self._payloads[slot]
            self._slots.promote_slot(slot)
        entry.record_fault(offset)
        self._resident_pages += 1
        # _maybe_divide acts only at or above the threshold.
        if entry.counter >= self._division_threshold:
            self._maybe_divide(entry)
        if stats.faults % self._interval_length == 0:
            self.chain.advance_interval()
            if adjustment is not None:
                adjustment.on_interval_end()
            obs = self._obs
            if obs is not None:
                self._snapshot_interval(obs)
        return victim

    # ------------------------------------------------------------------
    # Classification (lazy: runs when memory is first full)
    # ------------------------------------------------------------------

    def _classify_now(self) -> None:
        classification = classify(
            self.chain.counters(),
            self.config.page_set_size,
            self.config.ratio1_threshold,
        )
        if self.config.forced_category is not None:
            classification = Classification(
                category=self.config.forced_category,
                census=classification.census,
                comparisons=classification.comparisons,
            )
        self.classification = classification
        self.adjustment = DynamicAdjustment(
            category=classification.category,
            page_set_size=self.config.page_set_size,
            fifo_depth=self.config.fifo_depth,
            jump_distance=self.config.jump_distance,
            old_sets_at_first_full=self.chain.old_size,
            allow_irregular1_switch=self.config.allow_irregular1_switch,
            enabled=self.config.enable_adjustment,
        )
        obs = self._obs
        if obs is not None:
            self.adjustment.obs = obs
            census = classification.census
            obs.registry.set_gauge(
                "hpe.first_full.old_sets", self.chain.old_size
            )
            obs.emit(
                "classification",
                fault_number=self.stats.faults,
                category=classification.category.value,
                # inf (a zero denominator) is not valid JSON: send null.
                ratio1=_finite_or_none(census.ratio1),
                ratio2=_finite_or_none(census.ratio2),
            )

    @property
    def category(self) -> Optional[Category]:
        """The classified category, or ``None`` before memory first fills."""
        if self.classification is None:
            return None
        return self.classification.category

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _current_strategy(self) -> StrategyKind:
        if self.config.forced_strategy is not None:
            return self.config.forced_strategy
        assert self.adjustment is not None
        return self.adjustment.strategy

    def select_victim(self) -> int:
        return self._evict_next()

    def _evict_next(self) -> int:
        """Pick, forget and return the next victim (Section IV-D)."""
        if self.classification is None:
            self._classify_now()
        adjustment = self.adjustment
        strategy = self.config.forced_strategy
        if strategy is None:
            assert adjustment is not None
            strategy = adjustment.strategy
        if strategy is StrategyKind.MRU_C:
            entry, comparisons = mru_c_scan(
                self.chain,
                self._page_set_size,
                adjustment.jump if adjustment is not None else 0,
            )
        else:
            entry = self._slots.first_payload()
            comparisons = 1
        if entry is None:
            raise PolicyError("HPE chain is empty; nothing to evict")
        stats = self.stats
        stats.searches += 1
        stats.comparisons_total += comparisons
        if comparisons > stats.comparisons_max:
            stats.comparisons_max = comparisons
        offset = entry.lowest_resident_offset()
        page = (entry.tag << self._set_shift) + offset
        # Inlined mark_evicted: a resident offset is a member offset.
        entry.resident_mask &= ~(1 << offset)
        self._resident_pages -= 1
        if not entry.resident_mask:
            self._slots.remove(entry.key)
            if entry.divided and entry.part is SetPart.PRIMARY:
                self.history.record(entry.tag, entry.member_mask)
        if adjustment is not None:
            adjustment.on_eviction(page)
        return page

    def select_victims_batch(self, count: int) -> list[int]:
        """Drain-based batch victim selection (fastpath v3, DESIGN §13).

        One strategy search picks a page-set entry; the batch then
        drains that entry's resident pages in ``lowest_resident_offset``
        order before searching again.  With no interleaved page-ins the
        chain is static between searches, so LRU-style strategies would
        re-select the same entry anyway; MRU_C's jump distance can move
        mid-drain after ``adjustment.on_eviction``, which is the
        documented metric-level relaxation (R3/R4) — per-page
        bookkeeping (mark_evicted, resident count, adjustment, divided
        history) still matches the sequential path page for page.
        """
        if count <= 0:
            return []
        if self.classification is None:
            self._classify_now()
        stats = self.stats
        adjustment = self.adjustment
        victims: list[int] = []
        entry: Optional[PageSetEntry] = None
        while len(victims) < count:
            if entry is None:
                strategy = self._current_strategy()
                jump = 0
                if strategy is StrategyKind.MRU_C and adjustment is not None:
                    jump = adjustment.jump
                result: SearchResult = select(
                    strategy, self.chain, self.config.page_set_size, jump
                )
                if result.entry is None:
                    raise PolicyError("HPE chain is empty; nothing to evict")
                stats.searches += 1
                stats.comparisons_total += result.comparisons
                stats.comparisons_max = max(
                    stats.comparisons_max, result.comparisons
                )
                entry = result.entry
            offset = entry.lowest_resident_offset()
            page = self.geometry.first_page_of(entry.tag) + offset
            entry.mark_evicted(offset)
            self._resident_pages -= 1
            if entry.resident_count == 0:
                self.chain.remove(entry.key)
                if entry.divided and entry.part is SetPart.PRIMARY:
                    self.history.record(entry.tag, entry.member_mask)
                entry = None
            if adjustment is not None:
                adjustment.on_eviction(page)
            victims.append(page)
        return victims

    # ------------------------------------------------------------------
    # Timing hooks
    # ------------------------------------------------------------------

    def consume_transfer_bytes(self) -> int:
        """Bytes of HIR payload shipped since the last call (for PCIe cost)."""
        taken = self._pending_transfer_bytes
        self._pending_transfer_bytes = 0
        return taken

    def resident_count(self) -> int:
        return self._resident_pages
