"""The GPU driver's demand-paging fault handler (Section II).

GPUs cannot run OS service routines, so page faults are handled by a
software runtime on the host CPU: the faulting SM's translation stalls, a
request crosses PCIe, the host resolves it, and — when GPU memory is full
— the driver first selects an eviction candidate, pages it out, then
migrates the faulted page in.  This class reproduces that control flow
against a pluggable :class:`~repro.policies.base.EvictionPolicy`.

The replayable far-fault mechanism [Zheng et al., HPCA 2016] means only
the faulting *warp* blocks; the timing engine models that — the driver
here is purely functional (what moved where), returning byte counts for
the engine to convert into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.soa import Bitmap
from repro.memory.addressing import PAGE_SIZE_BYTES
from repro.memory.frames import FramePool
from repro.memory.page_table import PageTable
from repro.policies.base import EvictionPolicy
from repro.tlb.hierarchy import TLBHierarchy

if TYPE_CHECKING:
    from repro.check.invariants import InvariantChecker
    from repro.obs import Observation
    from repro.obs.registry import MetricsRegistry


@dataclass
class DriverStats:
    """Fault/eviction accounting for one run."""

    faults: int = 0
    compulsory_faults: int = 0
    capacity_faults: int = 0
    evictions: int = 0
    bytes_migrated_in: int = 0
    bytes_evicted_out: int = 0
    #: Pages migrated speculatively by fault-around prefetching.
    prefetches: int = 0

    @property
    def refaults(self) -> int:
        """Faults on pages that were previously resident (thrashing)."""
        return self.capacity_faults

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Fold the whole-run tallies into a ``MetricsRegistry``."""
        registry.inc("driver.faults", self.faults)
        registry.inc("driver.compulsory_faults", self.compulsory_faults)
        registry.inc("driver.capacity_faults", self.capacity_faults)
        registry.inc("driver.evictions", self.evictions)
        registry.inc("driver.bytes_migrated_in", self.bytes_migrated_in)
        registry.inc("driver.bytes_evicted_out", self.bytes_evicted_out)
        registry.inc("driver.prefetches", self.prefetches)


@dataclass
class FaultOutcome:
    """What one fault handling did."""

    page: int
    frame: int
    evicted_page: Optional[int]
    #: Bytes moved over PCIe for this fault (page in + page out).
    bytes_transferred: int


class UVMDriver:
    """Host-side fault handler orchestrating eviction and migration."""

    def __init__(
        self,
        frame_pool: FramePool,
        page_table: PageTable,
        policy: EvictionPolicy,
        tlb_hierarchy: Optional[TLBHierarchy] = None,
        page_size_bytes: int = PAGE_SIZE_BYTES,
        prefetch_degree: int = 0,
        obs: Optional["Observation"] = None,
    ) -> None:
        if prefetch_degree < 0:
            raise ValueError("prefetch_degree must be non-negative")
        self.frame_pool = frame_pool
        self.page_table = page_table
        self.policy = policy
        self.tlb_hierarchy = tlb_hierarchy
        self.page_size_bytes = page_size_bytes
        #: Fault-around prefetching: on a fault for page *p*, also migrate
        #: the next ``prefetch_degree`` non-resident pages after *p* (real
        #: UVM runtimes migrate whole 64 KB chunks around the fault).
        self.prefetch_degree = prefetch_degree
        #: Optional :class:`repro.obs.Observation`; ``None`` (the default)
        #: keeps the fault path observation-free.
        self.obs = obs
        #: Optional :class:`repro.check.InvariantChecker` installed by the
        #: engine when sanitizing (``REPRO_SANITIZE=1``); ``None`` keeps
        #: the fault path at one pointer check.
        self.checker: Optional["InvariantChecker"] = None
        self.stats = DriverStats()
        #: First-touch set — a flat :class:`~repro.core.soa.Bitmap`
        #: (one byte per page) instead of a hash set since the SoA
        #: refactor; behaviour is set-identical.
        self._ever_touched: Bitmap = Bitmap()

    def fastpath_state(self) -> tuple[Bitmap, int]:
        """Internals for loops that service faults themselves (the
        tier-1 fused fault service, :mod:`repro.sim.fastpath3`).

        Returns ``(ever_touched, page_size_bytes)``.  The caller may
        replay faults itself — with exactly the :meth:`service_fault`
        update rules for an obs-free, checker-free, prefetch-free driver
        — provided it folds the fault/eviction/byte counters back into
        :attr:`stats` and brings ``ever_touched`` up to date before the
        replay returns.
        """
        return self._ever_touched, self.page_size_bytes

    def _evict_one(self) -> int:
        victim = self.policy.select_victim()
        self.page_table.invalidate(victim)
        self.frame_pool.unmap_page(victim)
        if self.tlb_hierarchy is not None:
            self.tlb_hierarchy.shootdown(victim)
        self.stats.evictions += 1
        self.stats.bytes_evicted_out += self.page_size_bytes
        if self.obs is not None:
            self.obs.emit(
                "eviction", page=victim, fault_number=self.stats.faults
            )
        return victim

    def _migrate_in(self, page: int) -> tuple[int, Optional[int]]:
        """Map ``page`` in (evicting first if needed); return (frame, victim)."""
        evicted = self._evict_one() if self.frame_pool.is_full() else None
        frame = self.frame_pool.map_page(page)
        self.page_table.install(page, frame, fault_number=self.stats.faults)
        self.stats.bytes_migrated_in += self.page_size_bytes
        self.policy.on_page_in(page, self.stats.faults)
        return frame, evicted

    def service_fault(self, page: int) -> tuple[int, Optional[int], int]:
        """Service a page fault; return ``(frame, evicted_page, bytes)``.

        The allocation-free core of :meth:`handle_fault` — the timing
        engine's hot path calls this directly so no :class:`FaultOutcome`
        is built per fault.  With ``prefetch_degree > 0`` the next
        sequential non-resident pages ride along on the same service.
        """
        stats = self.stats
        page_size = self.page_size_bytes
        policy = self.policy
        frame_pool = self.frame_pool
        page_table = self.page_table
        stats.faults += 1
        if page in self._ever_touched:
            stats.capacity_faults += 1
            compulsory = False
        else:
            self._ever_touched.add(page)
            stats.compulsory_faults += 1
            compulsory = True

        # Fault-around neighbours migrate BEFORE the faulting page.  A
        # prefetch eviction is free to pick any resident page — were the
        # demand page already mapped, an MRU-leaning policy (HPE's MRU-C)
        # could evict it mid-service, leaving the returned frame dangling
        # and the engine's TLB refill pointing at a non-resident page.
        bytes_moved = 0
        for ahead in range(1, self.prefetch_degree + 1):
            neighbour = page + ahead
            if frame_pool.is_resident(neighbour):
                continue
            _, prefetch_victim = self._migrate_in(neighbour)
            self._ever_touched.add(neighbour)
            stats.prefetches += 1
            bytes_moved += page_size
            if prefetch_victim is not None:
                bytes_moved += page_size

        policy.on_fault_pending(page)
        # Inlined _migrate_in/_evict_one: one fault means up to four
        # method calls through here, and this path dominates every
        # oversubscribed run.
        evicted = None
        if frame_pool.is_full():
            evicted = policy.select_victim()
            page_table.invalidate(evicted)
            frame_pool.unmap_page(evicted)
            if self.tlb_hierarchy is not None:
                self.tlb_hierarchy.shootdown(evicted)
            stats.evictions += 1
            stats.bytes_evicted_out += page_size
        frame = frame_pool.map_page(page)
        page_table.install(page, frame, fault_number=stats.faults)
        stats.bytes_migrated_in += page_size
        policy.on_page_in(page, stats.faults)
        bytes_moved += page_size
        if evicted is not None:
            bytes_moved += page_size  # the eviction writeback

        obs = self.obs
        if obs is not None:
            obs.emit(
                "fault",
                page=page,
                fault_number=stats.faults,
                kind="compulsory" if compulsory else "capacity",
            )
            if evicted is not None:
                obs.emit(
                    "eviction", page=evicted, fault_number=stats.faults
                )

        checker = self.checker
        if checker is not None:
            checker.after_fault(page)

        return frame, evicted, bytes_moved

    def handle_fault(self, page: int) -> FaultOutcome:
        """Like :meth:`service_fault`, wrapped in a :class:`FaultOutcome`."""
        frame, evicted, bytes_moved = self.service_fault(page)
        return FaultOutcome(
            page=page,
            frame=frame,
            evicted_page=evicted,
            bytes_transferred=bytes_moved,
        )
