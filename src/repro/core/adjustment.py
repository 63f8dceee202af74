"""Dynamic strategy adjustment (Section IV-E, Algorithm 1).

Classification can be wrong (the paper's example: *BFS* is classified
irregular, yet LRU thrashes on a thrashing phase hidden in its page-walk
trace), and access behaviour can change at runtime.  HPE therefore tracks
*wrong evictions* — pages that fault again shortly after being evicted —
with one FIFO buffer per strategy holding the page addresses evicted in
the last two intervals (depth 128 = 2 × interval length by default).

When the active strategy's wrong-eviction counter reaches the page-set
size (16) within one interval, HPE adjusts:

* **regular** applications keep MRU-C but jump the search point forward
  by 16 page sets — *only* when the old partition held at least
  4 × page-set-size sets when memory first filled (small-footprint apps
  are left alone, as jumping hurts them);
* **irregular** applications switch between LRU and MRU-C, choosing "the
  strategy that is used for a longer time" (``longer_interval`` in
  Algorithm 1).  We realise that as: switch to the untried strategy
  first; afterwards, compare how many intervals each strategy *lasted*
  in its most recent stint before triggering — if the other strategy's
  last stint outlived the current one, switch, otherwise stay and reset
  the counter.  This makes a strategy that survives long stretches
  sticky (BFS settles on MRU-C) while a quickly-refuted experiment rolls
  back (HIS returns to LRU).  Algorithm 1 writes the loop for
  irregular#2; the BFS narrative and the Fig. 13 breakdown show
  irregular#1 applications switching too, so both irregular categories
  run it (configurable).

The per-strategy wrong-eviction counters reset at the end of every
interval, which filters one-off bursts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.classifier import Category
from repro.core.strategies import StrategyKind

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry


class EvictionFIFO:
    """Bounded FIFO of recently evicted page addresses with O(1) lookup."""

    def __init__(self, depth: int) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.depth = depth
        self._pages: OrderedDict[int, None] = OrderedDict()

    def push(self, page: int) -> None:
        """Record an eviction, displacing the oldest record when full."""
        if page in self._pages:
            self._pages.move_to_end(page)
            return
        if len(self._pages) >= self.depth:
            self._pages.popitem(last=False)
        self._pages[page] = None

    def take(self, page: int) -> bool:
        """Return ``True`` (and consume the record) if ``page`` is held."""
        if page in self._pages:
            del self._pages[page]
            return True
        return False

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)


@dataclass
class StrategySegment:
    """One contiguous stretch of execution under a single strategy."""

    strategy: StrategyKind
    start_fault: int
    end_fault: int = -1  # -1 = still active
    #: Search-point jump in force during this segment (MRU-C only).
    jump: int = 0


@dataclass
class AdjustmentStats:
    """Counters summarising adjustment activity (feeds Fig. 13)."""

    wrong_evictions_total: int = 0
    strategy_switches: int = 0
    jump_adjustments: int = 0
    segments: list[StrategySegment] = field(default_factory=list)

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Fold the whole-run tallies into a ``MetricsRegistry``."""
        registry.inc("adjustment.wrong_evictions", self.wrong_evictions_total)
        registry.inc("adjustment.strategy_switches", self.strategy_switches)
        registry.inc("adjustment.jump_adjustments", self.jump_adjustments)
        registry.inc("adjustment.segments", len(self.segments))


class DynamicAdjustment:
    """Algorithm 1: per-category strategy selection and switching."""

    def __init__(
        self,
        category: Category,
        page_set_size: int = 16,
        fifo_depth: int = 128,
        jump_distance: int = 16,
        old_sets_at_first_full: int = 0,
        allow_irregular1_switch: bool = True,
        enabled: bool = True,
    ) -> None:
        self.category = category
        self.page_set_size = page_set_size
        self.wrong_eviction_threshold = page_set_size
        self.jump_distance = jump_distance
        self.enabled = enabled
        #: Gate for the regular-category jump adjustment (Section IV-E).
        self.jump_allowed = old_sets_at_first_full >= 4 * page_set_size
        self._switching_allowed = category is Category.IRREGULAR_2 or (
            category is Category.IRREGULAR_1 and allow_irregular1_switch
        )
        if category is Category.REGULAR:
            self._strategy = StrategyKind.MRU_C
        else:
            self._strategy = StrategyKind.LRU
        self.jump = 0
        self._fifos = {
            StrategyKind.LRU: EvictionFIFO(fifo_depth),
            StrategyKind.MRU_C: EvictionFIFO(fifo_depth),
        }
        # on_fault probes both FIFOs' page maps on every fault.
        self._lru_evicted = self._fifos[StrategyKind.LRU]._pages
        self._mru_c_evicted = self._fifos[StrategyKind.MRU_C]._pages
        self._wrong = {StrategyKind.LRU: 0, StrategyKind.MRU_C: 0}
        self._intervals_used = {StrategyKind.LRU: 0, StrategyKind.MRU_C: 0}
        #: Intervals survived by each strategy in its latest completed stint.
        self._last_stint = {StrategyKind.LRU: 0, StrategyKind.MRU_C: 0}
        self._current_stint = 0
        self._tried = {self._strategy}
        self._fault_count = 0
        #: Optional :class:`repro.obs.Observation` receiving switch/jump
        #: events; ``None`` (the default) keeps adjustment silent.
        self.obs = None
        self.stats = AdjustmentStats()
        self.stats.segments.append(
            StrategySegment(self._strategy, start_fault=0, jump=0)
        )

    @property
    def strategy(self) -> StrategyKind:
        """The strategy currently in force."""
        return self._strategy

    def on_eviction(self, page: int) -> None:
        """Record that the active strategy evicted ``page``."""
        self._fifos[self._strategy].push(page)

    def on_fault(self, page: int) -> None:
        """Check ``page`` against the wrong-eviction FIFOs; maybe adjust."""
        self._fault_count += 1
        # LRU's FIFO first, then MRU-C's: a page held by both counts once,
        # against LRU.
        if page in self._lru_evicted:
            del self._lru_evicted[page]
            self._wrong[StrategyKind.LRU] += 1
            self.stats.wrong_evictions_total += 1
        elif page in self._mru_c_evicted:
            del self._mru_c_evicted[page]
            self._wrong[StrategyKind.MRU_C] += 1
            self.stats.wrong_evictions_total += 1
        if not self.enabled:
            return
        if self._wrong[self._strategy] >= self.wrong_eviction_threshold:
            self._adjust()

    def on_interval_end(self) -> None:
        """Reset the per-interval wrong-eviction counters (Section IV-E)."""
        self._intervals_used[self._strategy] += 1
        self._current_stint += 1
        for kind in self._wrong:
            self._wrong[kind] = 0

    def _adjust(self) -> None:
        self._wrong[self._strategy] = 0
        if self.category is Category.REGULAR:
            if self.jump_allowed:
                self.jump += self.jump_distance
                self.stats.jump_adjustments += 1
                if self.obs is not None:
                    self.obs.emit(
                        "jump", fault_number=self._fault_count, jump=self.jump
                    )
                self._begin_segment(self._strategy)
            return
        if not self._switching_allowed:
            return
        other = (
            StrategyKind.MRU_C
            if self._strategy is StrategyKind.LRU
            else StrategyKind.LRU
        )
        if other not in self._tried:
            target = other
        elif self._last_stint[other] > self._current_stint:
            target = other
        else:
            target = self._strategy
        if target is not self._strategy:
            previous = self._strategy
            self._last_stint[previous] = self._current_stint
            self._current_stint = 0
            self._strategy = target
            self._tried.add(target)
            self.stats.strategy_switches += 1
            if self.obs is not None:
                self.obs.emit(
                    "strategy_switch",
                    fault_number=self._fault_count,
                    from_strategy=previous.value,
                    to_strategy=target.value,
                )
            self._begin_segment(target)

    def _begin_segment(self, strategy: StrategyKind) -> None:
        current = self.stats.segments[-1]
        current.end_fault = self._fault_count
        self.stats.segments.append(
            StrategySegment(strategy, start_fault=self._fault_count, jump=self.jump)
        )

    def timeline(self, total_faults: int) -> list[StrategySegment]:
        """Return closed segments covering ``[0, total_faults)``.

        A stale/small ``total_faults`` (e.g. a caller passing a count
        captured before the final adjustment) must never yield a segment
        with ``end_fault < start_fault``, so the final segment's end is
        clamped to its own start.
        """
        segments = [
            StrategySegment(s.strategy, s.start_fault, s.end_fault, s.jump)
            for s in self.stats.segments
        ]
        if segments and segments[-1].end_fault < 0:
            last = segments[-1]
            last.end_fault = max(total_faults, last.start_fault)
        return segments
