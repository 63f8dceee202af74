"""Page-table walker with a fixed walk latency and hit-notification hooks.

Section IV-A of the paper: "Once the walker knows that the request is a
hit, it notifies HIR with the page address."  The walker therefore exposes
an observer interface; the HIR cache (for HPE) and the ideal-model update
path (for LRU/RRIP/CLOCK-Pro) both subscribe to page-walk hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.memory.page_table import PageTable, PageTableEntry

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

#: Callback signature invoked with the page number of a page-walk hit.
WalkHitListener = Callable[[int], None]


@dataclass
class WalkOutcome:
    """Result of one page-table walk."""

    entry: Optional[PageTableEntry]
    latency_cycles: int

    @property
    def hit(self) -> bool:
        """``True`` when the walk found a valid translation."""
        return self.entry is not None


class PageTableWalker:
    """Walks the (single-level) page table at a fixed cycle cost.

    Parameters
    ----------
    page_table:
        The GPU page table to walk.
    walk_latency_cycles:
        Fixed cost of one walk; the paper uses 8 cycles by default and
        evaluates 20 cycles in a sensitivity study (Section V-B).
    """

    def __init__(self, page_table: PageTable, walk_latency_cycles: int = 8) -> None:
        if walk_latency_cycles < 0:
            raise ValueError("walk_latency_cycles must be non-negative")
        self.page_table = page_table
        self.walk_latency_cycles = walk_latency_cycles
        self._hit_listeners: list[WalkHitListener] = []
        self.walks = 0
        self.hits = 0
        self.faults = 0

    def add_batched_counts(self, walks: int, hits: int, faults: int) -> None:
        """Fold walk/hit/fault tallies accumulated by a fast path."""
        self.walks += walks
        self.hits += hits
        self.faults += faults

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Fold the walk/hit/fault tallies into a ``MetricsRegistry``."""
        registry.inc("walker.walks", self.walks)
        registry.inc("walker.hits", self.hits)
        registry.inc("walker.faults", self.faults)

    def add_hit_listener(self, listener: WalkHitListener) -> None:
        """Subscribe ``listener`` to page-walk hit notifications."""
        self._hit_listeners.append(listener)

    def remove_hit_listener(self, listener: WalkHitListener) -> None:
        """Unsubscribe ``listener``; raises ``ValueError`` if absent."""
        self._hit_listeners.remove(listener)

    def hit_sink(self) -> Optional[WalkHitListener]:
        """One callable that notifies the current listeners in order.

        ``None`` without listeners, the listener itself when there is
        one — the single bound call a loop inlining :meth:`walk` makes
        per hit.
        """
        listeners = tuple(self._hit_listeners)
        if not listeners:
            return None
        if len(listeners) == 1:
            return listeners[0]

        def notify_all(page: int) -> None:
            for listener in listeners:
                listener(page)

        return notify_all

    def walk(self, page: int) -> WalkOutcome:
        """Walk the page table for ``page``.

        On a hit, every subscribed listener is notified with the page
        number (recording hit information is off the critical path, so the
        notification adds no latency).  On a miss the caller raises a page
        fault with the GPU driver.
        """
        self.walks += 1
        entry = self.page_table.lookup(page)
        if entry is not None:
            self.hits += 1
            entry.walk_hits += 1
            for listener in self._hit_listeners:
                listener(page)
        else:
            self.faults += 1
        return WalkOutcome(entry=entry, latency_cycles=self.walk_latency_cycles)
