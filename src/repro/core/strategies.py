"""Eviction strategies over the page set chain (Section IV-D).

Two strategies select the *page set* to evict from:

* **MRU-C** (MRU-counter based) — used for *regular* applications.
  Searches from the MRU position of the **old** partition for a page set
  whose counter equals the page-set size (a fully-populated,
  never-re-referenced set); if every counter is larger, it takes the
  minimum-counter (least frequently used) set.  Dynamic adjustment may
  move the search start point forward (toward the LRU end) by a fixed
  jump distance to pick "colder" sets.
* **LRU** — used for *irregular* applications: take the chain's least
  recent entry (old partition head; middle, then new when old is empty).

Both strategies only pick sets with at least one resident page (a chain
invariant removes fully-evicted sets, so every entry qualifies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.chain import PageSetChain
from repro.core.pageset import PageSetEntry


class StrategyKind(enum.Enum):
    """The two page-set selection strategies HPE alternates between."""

    LRU = "lru"
    MRU_C = "mru-c"

    # DynamicAdjustment keys its per-strategy dicts by kind on every
    # eviction and fault; Enum.__hash__ is a Python-level call, and
    # members are singletons (also under pickle, which resolves them by
    # name), so the C-level identity hash is safe and much faster.
    __hash__ = object.__hash__


@dataclass
class SearchResult:
    """Outcome of one page-set selection."""

    entry: Optional[PageSetEntry]
    #: Number of chain entries examined (Fig. 14's search overhead).
    comparisons: int


def select_lru(chain: PageSetChain) -> SearchResult:
    """Pick the least-recent page set (old → middle → new priority)."""
    entry = chain.lru_entry()
    return SearchResult(entry=entry, comparisons=1 if entry else 0)


def mru_c_scan(
    chain: PageSetChain,
    page_set_size: int,
    jump: int = 0,
) -> tuple[Optional[PageSetEntry], int]:
    """MRU-C over the **old** partition; return ``(entry, comparisons)``.

    Walks the old partition's slot links in place, starting ``jump``
    sets in from the MRU end, and allocates nothing — HPE's per-eviction
    path calls this directly.  Falls back to the least-recent entry of
    the middle/new partitions when the old partition is empty (the
    paper: "If the old partition becomes empty, LRU is used to select
    eviction candidates in the middle partition or new partition").
    """
    slot, prev, payloads, old_size = chain.slots.old_mru_first_links()
    if old_size == 0:
        entry = chain.lru_entry()
        return entry, 0 if entry is None else 1
    # A jump past the end of the partition saturates at the LRU end
    # rather than wrapping back to the (hot) MRU end.
    for _ in range(min(jump, old_size - 1)):
        slot = prev[slot]
    comparisons = 0
    best: Optional[PageSetEntry] = None
    best_counter = 0
    while slot >= 0:
        entry = payloads[slot]
        comparisons += 1
        counter = entry.counter
        if counter == page_set_size:
            return entry, comparisons
        if best is None or counter < best_counter:
            best = entry
            best_counter = counter
        slot = prev[slot]
    return best, comparisons


def select_mru_c(
    chain: PageSetChain,
    page_set_size: int,
    jump: int = 0,
) -> SearchResult:
    """:func:`mru_c_scan` wrapped in a :class:`SearchResult`."""
    entry, comparisons = mru_c_scan(chain, page_set_size, jump)
    return SearchResult(entry=entry, comparisons=comparisons)


def select(
    kind: StrategyKind,
    chain: PageSetChain,
    page_set_size: int,
    jump: int = 0,
) -> SearchResult:
    """Dispatch to the requested strategy."""
    if kind is StrategyKind.MRU_C:
        return select_mru_c(chain, page_set_size, jump)
    return select_lru(chain)
