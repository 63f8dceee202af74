"""Eviction-policy interface shared by every replacement policy.

The GPU driver (:mod:`repro.uvm.driver`) is policy-agnostic: it feeds each
policy the events the paper says the driver can observe and asks for one
victim page whenever GPU memory is full.

Observable events
-----------------
* **page-in** — a page fault was serviced and the page migrated to the
  GPU.  Every policy sees faults: the driver is invoked on each one.
* **page-walk hit** — the page-table walker found a valid translation.
  The paper's "ideal model" lets LRU / RRIP / CLOCK-Pro update their
  chains on these in exact reference order; HPE instead receives batched
  counts via the HIR cache.  References that hit in the L1/L2 TLBs never
  reach the driver under any policy.
* **trace position** — only the offline Ideal (Belady MIN) policy uses
  this: it is primed with the full future reference trace.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence


class EvictionPolicy(abc.ABC):
    """Abstract replacement policy over resident GPU pages.

    Subclasses must keep their own view of the resident set, updated via
    :meth:`on_page_in` and the page returned from :meth:`select_victim`
    (the driver evicts exactly the returned page).
    """

    #: Human-readable policy name used in experiment reports.
    name: str = "base"

    #: ``True`` when the policy consumes page-walk hit notifications.
    uses_walk_hits: bool = False

    #: ``True`` when the policy must be primed with the future trace.
    requires_future: bool = False

    def on_fault_pending(self, page: int) -> None:
        """A fault for ``page`` is about to be serviced.

        Called before :meth:`select_victim`, so adaptive policies (ARC,
        CAR) can see which page is incoming — their replacement decision
        depends on which ghost list, if any, holds it.
        """

    @abc.abstractmethod
    def on_page_in(self, page: int, fault_number: int) -> None:
        """A fault for ``page`` was serviced; the page is now resident."""

    def on_fault(
        self, page: int, fault_number: int, evict: bool
    ) -> Optional[int]:
        """Service one fault's policy work; return the victim, if any.

        The tier-1 fused fault service's single policy entry per fault.
        ``evict`` is ``True`` when memory is full, and the returned page
        is then evicted by the caller.  The default runs the driver's
        three hooks in the driver's order — :meth:`on_fault_pending`,
        :meth:`select_victim` (only when ``evict``), :meth:`on_page_in`
        — and :meth:`UVMDriver.service_fault` keeps calling those hooks
        itself, so it is the oracle an override must match.
        """
        self.on_fault_pending(page)
        victim = self.select_victim() if evict else None
        self.on_page_in(page, fault_number)
        return victim

    def on_walk_hit(self, page: int) -> None:
        """The walker hit ``page``'s PTE (page is resident)."""

    def walk_hit_listener(self) -> Callable[[int], None]:
        """The callable the walker notifies on each page-walk hit.

        Defaults to :meth:`on_walk_hit`; a policy may hand out a cheaper
        callable with the same effect (HPE's HIR recorder).
        """
        return self.on_walk_hit

    def on_walk_hits(self, pages: Sequence[int]) -> None:
        """Batched equivalent of :meth:`on_walk_hit` over ``pages``.

        Must be observably identical to calling :meth:`on_walk_hit` once
        per page in order — the relaxed batch kernel relies on that
        equivalence.
        Subclasses may override to hoist per-call overhead out of the
        loop, never to change semantics.
        """
        on_walk_hit = self.on_walk_hit
        for page in pages:
            on_walk_hit(page)

    def on_trace_position(self, position: int) -> None:
        """Advance the global reference index (offline policies only)."""

    def prime_future(self, trace: Sequence[int]) -> None:
        """Provide the full future reference trace (offline policies only)."""

    @abc.abstractmethod
    def select_victim(self) -> int:
        """Return the resident page to evict next.

        Called only when GPU memory is full; the driver immediately evicts
        the returned page, so the policy must also forget it.
        """

    def select_victims_batch(self, count: int) -> list[int]:
        """Return ``count`` victims for one batched eviction burst.

        The relaxed batch kernel (fastpath v3) calls this once per fault
        run, with **no page-ins interleaved** between the selections.
        The default is the literal sequential loop, so every policy is
        batch-safe out of the box.  Overrides may amortize the
        per-victim search (HPE drains each selected page set) but must
        stay *metric-equivalent* to the sequential loop under the
        no-interleaved-page-ins premise — the v3 contract (DESIGN §13).
        """
        select_victim = self.select_victim
        return [select_victim() for _ in range(count)]

    def resident_count(self) -> Optional[int]:
        """Number of pages the policy believes are resident, if tracked."""
        return None


class PolicyError(RuntimeError):
    """Raised when a policy is asked for a victim but tracks no pages."""
