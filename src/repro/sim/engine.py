"""Trace-driven UVM timing simulator.

The engine replays a page-touch trace through the full translation path
(per-SM L1 TLB → shared L2 TLB → page-table walker → fault handler) and
keeps a timing model calibrated to the paper's setup:

* trace events are dealt round-robin to ``num_sms × warps_per_sm`` warp
  slots; each SM issues at most one access per cycle;
* a TLB/walk hit costs its translation latency plus the DRAM round trip,
  blocking only the issuing warp (latency hiding across warps);
* a page fault is serviced by the host driver **serially** — the
  replayable far-fault mechanism lets other warps keep executing, but
  the single software runtime handles one fault at a time, each costing
  the 20 µs service latency plus the PCIe bytes actually moved (evicted
  page + migrated page + any HIR payload for HPE);
* total cycles = the time the last warp finishes; IPC = trace events ×
  ``instructions_per_access`` / cycles.

This reproduces the paper's first-order behaviour: with oversubscription,
runtime is dominated by (number of faults) × (20 µs), so policies win or
lose exactly through the evictions they cause.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro import check as check_module
from repro.check.invariants import InvariantChecker
from repro.core.soa import Bitmap
from repro.memory.frames import FramePool
from repro.memory.page_table import PageTable, PageTableEntry
from repro.policies.base import EvictionPolicy
from repro.policies.lru import LRUPolicy
from repro.sim.config import GPUConfig, resolve_fastpath_level
from repro.sim.results import SimulationResult
from repro.tlb.hierarchy import TLBHierarchy, TranslationLevel
from repro.tlb.walker import PageTableWalker
from repro.uvm.driver import UVMDriver

if TYPE_CHECKING:
    from repro.obs import Observation
    from repro.scenarios.spec import ScenarioSpec


class UVMSimulator:
    """One simulated GPU: translation path, driver, policy, and clock."""

    def __init__(
        self,
        policy: EvictionPolicy,
        capacity_pages: int,
        config: Optional[GPUConfig] = None,
        prefetch_degree: int = 0,
        obs: Optional["Observation"] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.config = config or GPUConfig()
        self.policy = policy
        self.capacity_pages = capacity_pages
        #: Optional :class:`repro.obs.Observation`; threaded into the
        #: driver (fault/eviction events) and the policy (interval
        #: snapshots).  ``None`` — the default — keeps the run silent.
        self.obs = obs
        self.page_table = PageTable()
        self.frame_pool = FramePool(capacity_pages)
        self.hierarchy = TLBHierarchy(
            num_sms=self.config.num_sms,
            l1_config=self.config.l1_tlb,
            l2_config=self.config.l2_tlb,
        )
        self.walker = PageTableWalker(
            self.page_table, self.config.walk_latency_cycles
        )
        if policy.uses_walk_hits:
            self.walker.add_hit_listener(policy.walk_hit_listener())
        self.driver = UVMDriver(
            frame_pool=self.frame_pool,
            page_table=self.page_table,
            policy=policy,
            tlb_hierarchy=self.hierarchy,
            prefetch_degree=prefetch_degree,
            obs=obs,
        )
        if obs is not None:
            attach = getattr(policy, "attach_observation", None)
            if attach is not None:
                attach(obs)
        #: Optional :class:`repro.check.InvariantChecker` — the runtime
        #: sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).  ``None``
        #: (the default) costs the driver one pointer check per fault.
        if sanitize is None:
            sanitize = check_module.sanitize_enabled()
        self.checker: Optional[InvariantChecker] = None
        if sanitize:
            self.checker = check_module.make_checker(self)
            self.driver.checker = self.checker

    @classmethod
    def for_scenario(
        cls,
        spec: "ScenarioSpec",
        policy: EvictionPolicy,
        capacity_pages: int,
        obs: Optional["Observation"] = None,
        sanitize: Optional[bool] = None,
    ) -> "UVMSimulator":
        """Build a simulator from a scenario spec's machine parameters.

        The spec contributes exactly the fields that shape the machine —
        ``effective_config`` (normalised, so ``None`` and the default
        ``GPUConfig()`` build identical simulators) and
        ``prefetch_degree``; policy construction stays with the caller
        because it needs the trace-derived capacity.
        """
        return cls(
            policy,
            capacity_pages,
            config=spec.effective_config,
            prefetch_degree=spec.prefetch_degree,
            obs=obs,
            sanitize=sanitize,
        )

    def run(
        self,
        trace: Sequence[int],
        workload_name: str = "trace",
        fast: Optional[bool] = None,
    ) -> SimulationResult:
        """Replay ``trace`` and return the collected metrics.

        Three inner loops exist: the relaxed metric-equivalent kernel
        (tier 3, explicit opt-in only — DESIGN §13), the flattened loop
        with its fused fault service (tier 1, the default), and the
        straightforward reference loop (tier 0).  Tiers 0 and 1 produce
        bit-identical results — ``tests/diff`` cross-checks them — and
        ``fast=False`` / ``REPRO_SIM_FASTPATH=0`` selects the reference
        loop for debugging.  A tier-2 request (the removed batch kernel,
        DESIGN §9) runs tier 1, and runs tier 3 cannot replay (observed,
        sanitized, offline policies, prefetching) fall back to tier 1;
        the tier that actually executed is recorded in
        ``result.extras["fastpath"]`` so callers (the diff harness, the
        CLI) can report fallbacks instead of silently comparing a tier
        against itself.
        """
        level = resolve_fastpath_level(fast)
        if self.policy.requires_future:
            self.policy.prime_future(trace)
        obs = self.obs
        if obs is not None:
            from repro.obs import TRACE_SCHEMA_VERSION

            obs.emit(
                "run_start",
                schema=TRACE_SCHEMA_VERSION,
                workload=workload_name,
                policy=self.policy.name,
                capacity_pages=self.capacity_pages,
                trace_length=len(trace),
            )
        started = time.monotonic()  # noqa: REP012 — extras-only timing
        executed = level
        if level >= 3:
            from repro.sim import fastpath3

            if fastpath3.eligible(self, trace):
                cycles = fastpath3.replay(self, trace)
            else:
                executed = 1
                cycles = self._replay_fast(trace)
        elif level >= 1:
            executed = 1
            cycles = self._replay_fast(trace)
        else:
            cycles = self._replay_reference(trace)
        result = self._collect(trace, workload_name, cycles)
        result.extras["fastpath"] = {"requested": level, "executed": executed}
        # Wall-clock spent replaying, for supervisor/journal accounting.
        # Lives in ``extras`` — key_metrics() stays wall-clock-free so
        # determinism digests are unaffected.
        result.extras["elapsed_s"] = time.monotonic() - started  # noqa: REP012
        return result

    def _replay_reference(self, trace: Sequence[int]) -> int:
        """The unflattened event loop (kept as the behavioural oracle)."""
        config = self.config
        num_sms = config.num_sms
        total_warps = config.total_warps
        mem_latency = config.memory_latency_cycles
        fault_cycles = config.pcie.fault_service_cycles
        pcie = config.pcie
        consume_bytes = getattr(self.policy, "consume_transfer_bytes", None)
        track_position = self.policy.requires_future

        sm_issue_time = [0] * num_sms
        warp_ready = [0] * total_warps
        fault_queue_free = 0

        hierarchy = self.hierarchy
        walker = self.walker
        driver = self.driver
        policy = self.policy

        for index, page in enumerate(trace):
            if track_position:
                policy.on_trace_position(index)
            warp = index % total_warps
            sm = warp % num_sms
            start = sm_issue_time[sm]
            ready = warp_ready[warp]
            if ready > start:
                start = ready
            sm_issue_time[sm] = start + 1

            result = hierarchy.lookup(sm, page)
            latency = result.latency_cycles
            if result.level is TranslationLevel.PAGE_TABLE:
                outcome = walker.walk(page)
                latency += outcome.latency_cycles
                if outcome.hit:
                    hierarchy.fill(sm, page, outcome.entry.frame)
                else:
                    fault = driver.handle_fault(page)
                    hierarchy.fill(sm, page, fault.frame)
                    service = fault_cycles + pcie.transfer_cycles(
                        fault.bytes_transferred
                    )
                    if consume_bytes is not None:
                        service += pcie.transfer_cycles(consume_bytes())
                    begin = start + latency
                    if fault_queue_free > begin:
                        begin = fault_queue_free
                    fault_queue_free = begin + service
                    warp_ready[warp] = fault_queue_free
                    continue
            warp_ready[warp] = start + latency + mem_latency

        return max(max(warp_ready, default=0), max(sm_issue_time, default=0))

    def _replay_fast(self, trace: Sequence[int]) -> int:
        """Flattened event loop with a fused fault service.

        Per event the reference loop pays two TLB method calls, a
        :class:`TranslationResult` allocation, an enum comparison and —
        on L2 misses — a :class:`WalkOutcome` allocation.  Here the TLB
        probes and the page-table walk are inlined over local bindings of
        the underlying set dictionaries, outcomes stay plain ints, and
        hit/miss/eviction counters are accumulated in locals and folded
        into the stats objects once at the end.

        When no observation, sanitizer or prefetching is attached, the
        loop also services each fault itself with exactly the
        :meth:`UVMDriver.service_fault` update rules: frame-pool dict
        pop/push, PTE invalidate + install (the victim's entry object is
        re-keyed to the incoming page), a first-touch test against a
        local set, a shootdown probing only the victim's set in each TLB,
        the stock :class:`LRUPolicy` chain inlined behind an exact-type
        check and every other policy through one
        :meth:`EvictionPolicy.on_fault` call per fault.  Driver
        and TLB counters, the pool's residency bitmap and the driver's
        first-touch set are resynchronised once after the loop.  Other
        runs call ``driver.service_fault`` per fault.
        """
        config = self.config
        num_sms = config.num_sms
        total_warps = config.total_warps
        mem_latency = config.memory_latency_cycles
        fault_cycles = config.pcie.fault_service_cycles
        pcie = config.pcie
        transfer_cycles = pcie.transfer_cycles
        policy = self.policy
        consume_bytes = getattr(policy, "consume_transfer_bytes", None)
        track_position = policy.requires_future
        on_trace_position = policy.on_trace_position
        driver = self.driver
        service_fault = driver.service_fault
        fused = (
            self.obs is None
            and self.checker is None
            and driver.prefetch_degree == 0
        )

        sm_issue_time = [0] * num_sms
        warp_ready = [0] * total_warps
        fault_queue_free = 0
        sm_of_warp = [w % num_sms for w in range(total_warps)]
        # transfer_cycles is pure and faults move page-sized byte counts,
        # so the (few) distinct values are worth memoising.
        transfer_memo: dict = {}

        # Local bindings of the translation-path state.  The OrderedDict
        # set objects are shared with the TLB instances, so shootdowns
        # issued by the driver during fault handling remain visible here.
        l1_states = [tlb.fastpath_state() for tlb in self.hierarchy.l1_tlbs]
        l1_sets = [state[0] for state in l1_states]
        l1_mask = l1_states[0][1]
        l1_assoc = l1_states[0][2]
        l1_latency = l1_states[0][3]
        l2_sets, l2_mask, l2_assoc, l2_latency = \
            self.hierarchy.l2_tlb.fastpath_state()
        miss_latency = l1_latency + l2_latency
        walker = self.walker
        walk_latency = walker.walk_latency_cycles
        # Pre-summed per-outcome latencies (one addition per event adds up).
        l1_hit_total = l1_latency + mem_latency
        l2_hit_total = miss_latency + mem_latency
        walk_hit_total = miss_latency + walk_latency + mem_latency
        fault_begin_latency = miss_latency + walk_latency
        hit_sink = walker.hit_sink()
        pt_entries = self.page_table._entries

        # Miss, walk and walk-fault counts are derived after the loop:
        # every L1 miss probes the L2 and every L2 miss walks.
        l1_hits = [0] * num_sms
        l1_evictions = [0] * num_sms
        l1_shootdowns = [0] * num_sms
        l2_hits = 0
        l2_evictions = 0
        l2_shootdowns = 0
        walk_hits = 0

        # Fused fault-service state (unused when ``fused`` is False).
        frame_pool = self.frame_pool
        frame_of_page = frame_pool._frame_of_page
        page_of_frame = frame_pool._page_of_frame
        free_frames = frame_pool._free
        stats = driver.stats
        ever_touched, page_size = driver.fastpath_state()
        service_in = fault_cycles + transfer_cycles(page_size)
        service_evict = fault_cycles + transfer_cycles(page_size + page_size)
        touched = set(ever_touched)
        first_touches: list[int] = []
        fault_no = stats.faults
        capacity_faults = 0
        evictions = 0
        on_fault = policy.on_fault
        # Exact-type check: a subclass could override any hook, so only
        # the stock LRU policy gets its chain updates inlined.
        lru_chain = policy._chain if type(policy) is LRUPolicy else None
        # The victim's TLB sets, grouped by set index: a shootdown probes
        # one set per SM plus one L2 set.
        l1_sets_by_index = [
            [sets[index] for sets in l1_sets] for index in range(l1_mask + 1)
        ]

        index = 0
        warp = total_warps - 1
        for page in trace:
            if track_position:
                on_trace_position(index)
            index += 1
            warp += 1
            if warp == total_warps:
                warp = 0
            sm = sm_of_warp[warp]
            start = sm_issue_time[sm]
            ready = warp_ready[warp]
            if ready > start:
                start = ready
            sm_issue_time[sm] = start + 1

            # L1 probe (inlined TLB.lookup).
            sets = l1_sets[sm]
            entries = sets[page & l1_mask]
            if page in entries:
                entries.move_to_end(page)
                l1_hits[sm] += 1
                warp_ready[warp] = start + l1_hit_total
                continue

            # L2 probe.
            l2_entries = l2_sets[page & l2_mask]
            if page in l2_entries:
                l2_entries.move_to_end(page)
                l2_hits += 1
                # Refill the requesting SM's L1 (inlined TLB.insert; the
                # page just missed there, so only the eviction check).
                if len(entries) >= l1_assoc:
                    entries.popitem(last=False)
                    l1_evictions[sm] += 1
                entries[page] = 0
                warp_ready[warp] = start + l2_hit_total
                continue

            # Page-table walk (inlined walker.walk).
            pte = pt_entries.get(page)
            if pte is not None and pte.valid:
                walk_hits += 1
                pte.walk_hits += 1
                if hit_sink is not None:
                    hit_sink(page)
                frame = pte.frame
                if len(entries) >= l1_assoc:
                    entries.popitem(last=False)
                    l1_evictions[sm] += 1
                entries[page] = frame
                if len(l2_entries) >= l2_assoc:
                    l2_entries.popitem(last=False)
                    l2_evictions += 1
                l2_entries[page] = frame
                warp_ready[warp] = start + walk_hit_total
                continue

            # Page fault: serviced serially.
            if not fused:
                frame, _evicted, moved = service_fault(page)
                service = transfer_memo.get(moved)
                if service is None:
                    service = fault_cycles + transfer_cycles(moved)
                    transfer_memo[moved] = service
            else:
                fault_no += 1
                if page in touched:
                    capacity_faults += 1
                else:
                    touched.add(page)
                    first_touches.append(page)
                # One policy call per fault; the policy is done with the
                # fault before the frame and page table change.
                if free_frames:
                    if lru_chain is not None:
                        lru_chain[page] = None
                    else:
                        on_fault(page, fault_no, False)
                    frame = free_frames.pop()
                    pt_entries[page] = PageTableEntry(
                        frame=frame, faulted_at=fault_no
                    )
                    service = service_in
                else:
                    if lru_chain:
                        victim = lru_chain.popitem(last=False)[0]
                        lru_chain[page] = None
                    else:
                        victim = on_fault(page, fault_no, True)
                    # Inlined page_table.invalidate (same exception).
                    victim_pte = pt_entries.pop(victim, None)
                    if victim_pte is None or not victim_pte.valid:
                        raise KeyError(
                            f"page {victim:#x} has no valid mapping"
                        )
                    # Inlined frame_pool.unmap_page; the freed frame is
                    # the one map_page would pop straight back.
                    try:
                        frame = frame_of_page.pop(victim)
                    except KeyError:
                        raise KeyError(
                            f"page {victim:#x} is not resident"
                        ) from None
                    # Inlined hierarchy.shootdown: a plain scan of the
                    # victim's L1 sets, then an indexed pass only when
                    # some SM holds it.
                    victim_sets = l1_sets_by_index[victim & l1_mask]
                    for held in victim_sets:
                        if victim in held:
                            for s in range(num_sms):
                                held = victim_sets[s]
                                if victim in held:
                                    del held[victim]
                                    l1_shootdowns[s] += 1
                            break
                    held = l2_sets[victim & l2_mask]
                    if victim in held:
                        del held[victim]
                        l2_shootdowns += 1
                    evictions += 1
                    # page_table.install: re-key the victim's entry — a
                    # tombstone plus a fresh entry is observably the same.
                    victim_pte.frame = frame
                    victim_pte.faulted_at = fault_no
                    victim_pte.walk_hits = 0
                    pt_entries[page] = victim_pte
                    service = service_evict
                frame_of_page[page] = frame
                page_of_frame[frame] = page
            # The shootdown of the victim may have shrunk these sets, so
            # re-check occupancy before inserting (inlined hierarchy.fill).
            if len(entries) >= l1_assoc:
                entries.popitem(last=False)
                l1_evictions[sm] += 1
            entries[page] = frame
            if len(l2_entries) >= l2_assoc:
                l2_entries.popitem(last=False)
                l2_evictions += 1
            l2_entries[page] = frame
            if consume_bytes is not None:
                extra = consume_bytes()
                if extra:  # transfer_cycles(0) == 0
                    service += transfer_cycles(extra)
            begin = start + fault_begin_latency
            if fault_queue_free > begin:
                begin = fault_queue_free
            fault_queue_free = begin + service
            warp_ready[warp] = fault_queue_free

        # ``index`` events went round-robin over the warps.
        accesses = [0] * num_sms
        full_rounds, rest = divmod(index, total_warps)
        for w in range(total_warps):
            accesses[sm_of_warp[w]] += full_rounds + (w < rest)
        l1_misses = [accesses[sm] - l1_hits[sm] for sm in range(num_sms)]
        l2_misses = sum(l1_misses) - l2_hits
        for sm, tlb in enumerate(self.hierarchy.l1_tlbs):
            tlb.add_batched_stats(l1_hits[sm], l1_misses[sm], l1_evictions[sm])
            tlb.stats.shootdowns += l1_shootdowns[sm]
        self.hierarchy.l2_tlb.add_batched_stats(l2_hits, l2_misses, l2_evictions)
        self.hierarchy.l2_tlb.stats.shootdowns += l2_shootdowns
        walker.walks += l2_misses
        walker.hits += walk_hits
        walker.faults += l2_misses - walk_hits
        if fused:
            compulsory = len(first_touches)
            stats.faults = fault_no
            stats.compulsory_faults += compulsory
            stats.capacity_faults += capacity_faults
            stats.evictions += evictions
            stats.bytes_migrated_in += (compulsory + capacity_faults) * page_size
            stats.bytes_evicted_out += evictions * page_size
            ever_touched.update(first_touches)
            frame_pool.residency = Bitmap()
            frame_pool.residency.update(list(frame_of_page))

        return max(max(warp_ready, default=0), max(sm_issue_time, default=0))

    def _collect(
        self, trace: Sequence[int], workload_name: str, cycles: int
    ) -> SimulationResult:
        """Assemble the :class:`SimulationResult` for one finished replay."""
        policy = self.policy
        hierarchy = self.hierarchy
        instructions = len(trace) * self.config.instructions_per_access
        extras: dict = {}
        if self.checker is not None:
            self.checker.final_check()
            extras["sanitizer"] = self.checker.stats
        stats = getattr(policy, "stats", None)
        if stats is not None:
            extras["policy_stats"] = stats
        footprint = len(set(trace))
        obs = self.obs
        if obs is not None:
            driver_stats = self.driver.stats
            obs.emit(
                "run_end",
                cycles=cycles,
                faults=driver_stats.faults,
                evictions=driver_stats.evictions,
            )
            registry = obs.registry
            self.driver.stats.observe_into(registry)
            self.hierarchy.observe_into(registry)
            self.walker.observe_into(registry)
            fold = getattr(policy, "observe_into", None)
            if fold is not None:
                fold(registry)
            registry.set_gauge("engine.cycles", cycles)
            registry.set_gauge("engine.instructions", instructions)
            registry.set_gauge("engine.trace_length", len(trace))
            extras["timeseries"] = obs.timeseries.as_list()
            extras["metrics"] = registry.to_dict()
        return SimulationResult(
            policy_name=policy.name,
            workload_name=workload_name,
            capacity_pages=self.capacity_pages,
            footprint_pages=footprint,
            trace_length=len(trace),
            cycles=cycles,
            instructions=instructions,
            driver=self.driver.stats,
            l1_tlb_hits=sum(t.stats.hits for t in hierarchy.l1_tlbs),
            l2_tlb_hits=hierarchy.l2_tlb.stats.hits,
            walker_hits=self.walker.hits,
            extras=extras,
        )


def simulate(
    trace: Sequence[int],
    policy: EvictionPolicy,
    capacity_pages: int,
    config: Optional[GPUConfig] = None,
    workload_name: str = "trace",
    prefetch_degree: int = 0,
    obs: Optional["Observation"] = None,
    sanitize: Optional[bool] = None,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run ``trace`` once."""
    simulator = UVMSimulator(
        policy, capacity_pages, config, prefetch_degree, obs=obs,
        sanitize=sanitize,
    )
    return simulator.run(trace, workload_name=workload_name)
