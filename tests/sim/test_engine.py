"""Tests for the trace-driven timing engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.difftraces import build
from repro.check.invariants import InvariantChecker
from repro.experiments.runner import POLICY_NAMES, make_policy
from repro.policies.fifo import FIFOPolicy
from repro.policies.ideal import IdealPolicy
from repro.policies.lru import LRUPolicy
from repro.sim.config import GPUConfig
from repro.sim.engine import UVMSimulator, simulate
from repro.tlb.tlb import TLBConfig


def small_config():
    return GPUConfig(
        num_sms=2, warps_per_sm=4,
        l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1),
        l2_tlb=TLBConfig(entries=16, associativity=4, latency_cycles=10),
    )


class TestFunctionalBehaviour:
    def test_compulsory_faults_only_when_memory_fits(self):
        trace = list(range(10)) * 3
        result = simulate(trace, LRUPolicy(), capacity_pages=10,
                          config=small_config())
        assert result.faults == 10
        assert result.evictions == 0

    def test_thrash_faults_every_access_under_lru(self):
        trace = list(range(8)) * 3
        result = simulate(trace, LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.faults == 24  # cyclic + LRU = total miss

    def test_evictions_equal_faults_minus_capacity(self):
        trace = list(range(20)) * 2
        result = simulate(trace, LRUPolicy(), capacity_pages=6,
                          config=small_config())
        assert result.evictions == result.faults - 6

    def test_footprint_and_trace_length(self):
        trace = [1, 2, 3, 1]
        result = simulate(trace, LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.footprint_pages == 3
        assert result.trace_length == 4

    def test_ideal_is_primed_automatically(self):
        trace = [1, 2, 3, 1, 2, 4] * 2
        result = simulate(trace, IdealPolicy(), capacity_pages=3,
                          config=small_config())
        assert result.faults >= 4

    def test_determinism(self):
        trace = list(range(32)) * 4
        results = [
            simulate(trace, LRUPolicy(), capacity_pages=16,
                     config=small_config())
            for _ in range(2)
        ]
        assert results[0].cycles == results[1].cycles
        assert results[0].faults == results[1].faults


class TestTimingModel:
    def test_cycles_positive(self):
        result = simulate([1, 2, 3], LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.cycles > 0

    def test_faults_dominate_cycles(self):
        config = small_config()
        fit = simulate(list(range(8)) * 4, LRUPolicy(), 8, config=config)
        thrash = simulate(list(range(8)) * 4, LRUPolicy(), 4,
                          config=small_config())
        assert thrash.cycles > fit.cycles
        assert thrash.ipc < fit.ipc

    def test_instructions_scale_with_trace(self):
        config = small_config()
        result = simulate([1, 2, 3, 4], LRUPolicy(), 8, config=config)
        assert result.instructions == 4 * config.instructions_per_access

    def test_fewer_faults_means_higher_ipc(self):
        trace = list(range(16)) * 4
        lru = simulate(trace, LRUPolicy(), 8, config=small_config())
        ideal = simulate(trace, IdealPolicy(), 8, config=small_config())
        assert ideal.faults < lru.faults
        assert ideal.ipc > lru.ipc

    def test_walk_latency_config_respected(self):
        trace = list(range(64)) * 2
        fast = simulate(trace, LRUPolicy(), 64,
                        config=small_config().with_walk_latency(8))
        slow = simulate(trace, LRUPolicy(), 64,
                        config=small_config().with_walk_latency(200))
        assert slow.cycles >= fast.cycles


class TestResultHelpers:
    def test_speedup_over(self):
        trace = list(range(8)) * 4
        a = simulate(trace, IdealPolicy(), 4, config=small_config())
        b = simulate(trace, LRUPolicy(), 4, config=small_config())
        assert a.speedup_over(b) == pytest.approx(a.ipc / b.ipc)

    def test_evictions_normalized(self):
        trace = list(range(8)) * 4
        a = simulate(trace, IdealPolicy(), 4, config=small_config())
        b = simulate(trace, LRUPolicy(), 4, config=small_config())
        assert b.evictions_normalized_to(a) >= 1.0

    def test_oversubscription_rate(self):
        trace = list(range(10))
        result = simulate(trace, LRUPolicy(), 5, config=small_config())
        assert result.oversubscription_rate == pytest.approx(0.5)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(trace=st.lists(st.integers(0, 30), min_size=1, max_size=300),
           capacity=st.integers(1, 16))
    def test_fault_accounting_invariants(self, trace, capacity):
        result = simulate(trace, LRUPolicy(), capacity, config=small_config())
        distinct = len(set(trace))
        assert result.driver.compulsory_faults == distinct
        assert result.faults >= distinct
        assert result.evictions == max(0, result.faults - capacity)

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 20), min_size=1, max_size=200),
           capacity=st.integers(2, 10))
    def test_ideal_never_faults_more_than_fifo(self, trace, capacity):
        ideal = simulate(trace, IdealPolicy(), capacity, config=small_config())
        fifo = simulate(trace, FIFOPolicy(), capacity, config=small_config())
        assert ideal.faults <= fifo.faults


def _run_both_paths(trace, make_policy_fn, capacity, prefetch_degree=0):
    fast = UVMSimulator(make_policy_fn(), capacity, small_config(),
                        prefetch_degree=prefetch_degree)
    reference = UVMSimulator(make_policy_fn(), capacity, small_config(),
                             prefetch_degree=prefetch_degree)
    return (
        fast.run(trace, fast=True),
        reference.run(trace, fast=False),
    )


class TestFastPathEquivalence:
    """The flattened replay loop must be bit-identical to the reference."""

    def test_lru_identical(self):
        trace = [x % 24 for x in range(600)]
        fast, reference = _run_both_paths(trace, LRUPolicy, 12)
        assert fast.key_metrics() == reference.key_metrics()

    def test_ideal_identical(self):
        # Exercises the requires_future / on_trace_position branch.
        trace = [x % 24 for x in range(600)]
        fast, reference = _run_both_paths(trace, IdealPolicy, 12)
        assert fast.key_metrics() == reference.key_metrics()

    def test_hpe_identical(self):
        from repro.core.hpe import HPEConfig, HPEPolicy
        trace = ([x % 40 for x in range(400)]
                 + [x % 17 for x in range(300)])
        fast, reference = _run_both_paths(
            trace, lambda: HPEPolicy(HPEConfig(page_set_size=4)), 20
        )
        assert fast.key_metrics() == reference.key_metrics()

    def test_prefetch_identical(self):
        trace = list(range(128)) + [x % 32 for x in range(200)]
        fast, reference = _run_both_paths(trace, LRUPolicy, 48,
                                          prefetch_degree=3)
        assert fast.key_metrics() == reference.key_metrics()

    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        trace = [x % 24 for x in range(300)]
        sim = UVMSimulator(LRUPolicy(), 12, small_config())
        result = sim.run(trace)  # fast=None → env decides
        reference = UVMSimulator(LRUPolicy(), 12, small_config()).run(
            trace, fast=False
        )
        assert result.key_metrics() == reference.key_metrics()

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 30), min_size=1, max_size=300),
           capacity=st.integers(1, 16))
    def test_property_identical(self, trace, capacity):
        fast, reference = _run_both_paths(trace, LRUPolicy, capacity)
        assert fast.key_metrics() == reference.key_metrics()


class TestPrefetchIntegration:
    def test_streaming_with_prefetch_has_fewer_faults(self):
        trace = list(range(256))
        plain = simulate(trace, LRUPolicy(), 512, config=small_config())
        fetched = simulate(trace, LRUPolicy(), 512, config=small_config(),
                           prefetch_degree=3)
        assert fetched.faults * 3 < plain.faults
        assert fetched.driver.prefetches > 0

    def test_prefetch_never_overflows_memory(self):
        trace = [x % 40 for x in range(400)]
        result = simulate(trace, LRUPolicy(), 16, config=small_config(),
                          prefetch_degree=7)
        assert result.driver.faults > 0  # ran to completion within capacity


class TestTierSelection:
    """Tier 1 is the default; a tier-2 request records that tier 1 ran."""

    TRACE = [x % 24 for x in range(300)]

    def test_default_run_executes_tier_1(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_FASTPATH", raising=False)
        result = simulate(self.TRACE, LRUPolicy(), 12, config=small_config())
        assert result.extras["fastpath"] == {"requested": 1, "executed": 1}

    def test_env_tier_2_request_runs_tier_1(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "2")
        result = simulate(self.TRACE, LRUPolicy(), 12, config=small_config())
        assert result.extras["fastpath"] == {"requested": 2, "executed": 1}

    def test_spec_tier_2_request_runs_tier_1(self):
        from repro.experiments.runner import run_spec
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(workload="STN", policy="hpe", rate=0.75,
                            scale=0.25, fastpath=2)
        result = run_spec(spec, use_cache=False)
        assert result.extras["fastpath"] == {"requested": 2, "executed": 1}


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_fused_fault_service_leaves_a_consistent_simulator(policy_name):
    """After an unsanitized tier-1 run the sanitizer's full sweep passes.

    The fused fault service updates the frame maps, page table, TLBs and
    counters itself and resyncs the residency bitmap and first-touch set
    once at the end; a missed resync fails the sweep or the first-touch
    check here.
    """
    trace = build("phased", 11, 1024)
    capacity = max(8, int(trace.footprint_pages * 0.5))
    sim = UVMSimulator(make_policy(policy_name, capacity), capacity,
                       sanitize=False)
    result = sim.run(list(trace.pages), fast=1)
    assert result.extras["fastpath"]["executed"] == 1
    assert result.evictions > 0
    assert InvariantChecker(sim).check_all() > 0
    assert set(sim.driver._ever_touched) == set(trace.pages)


@pytest.mark.parametrize("policy_name", ("lru", "hpe", "arc"))
def test_tier_1_reproduces_every_translation_counter(policy_name):
    """Tier 1 derives miss/walk counts after its loop and folds its
    eviction and shootdown counts once; every per-TLB, walker and driver
    counter must still equal the reference loop's."""
    import dataclasses

    config = GPUConfig(
        num_sms=3, warps_per_sm=4,
        l1_tlb=TLBConfig(entries=8, associativity=2, latency_cycles=1),
        l2_tlb=TLBConfig(entries=16, associativity=4, latency_cycles=10),
    )
    trace = build("strided", 5, 1500)
    capacity = max(8, int(trace.footprint_pages * 0.5))
    counters = []
    for level in (0, 1):
        sim = UVMSimulator(make_policy(policy_name, capacity), capacity,
                           config)
        sim.run(list(trace.pages), fast=level)
        tlbs = [*sim.hierarchy.l1_tlbs, sim.hierarchy.l2_tlb]
        counters.append((
            [dataclasses.asdict(tlb.stats) for tlb in tlbs],
            (sim.walker.walks, sim.walker.hits, sim.walker.faults),
            dataclasses.asdict(sim.driver.stats),
        ))
    assert counters[0] == counters[1]
    assert counters[1][2]["evictions"] > 0
    assert sum(stats["shootdowns"] for stats in counters[1][0]) > 0


@pytest.mark.parametrize("policy_name", ("hpe", "arc", "wsclock"))
def test_fused_fault_service_makes_one_policy_call_per_fault(policy_name):
    """Tier 1 reaches the policy once per fault, through ``on_fault``.

    The driver's hooks run only inside it: the default adapter calls
    them through the instance (so they count here), HPE's override not
    at all."""
    trace = build("phased", 23, 1024)
    capacity = max(8, int(trace.footprint_pages * 0.5))
    policy = make_policy(policy_name, capacity)
    calls = {"on_fault": 0, "select_victim": 0, "on_page_in": 0,
             "on_fault_pending": 0}

    def counting(name):
        method = getattr(policy, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in calls:
        setattr(policy, name, counting(name))
    sim = UVMSimulator(policy, capacity, sanitize=False)
    result = sim.run(list(trace.pages), fast=1)
    assert result.evictions > 0
    assert calls["on_fault"] == result.faults
    hooks = calls["select_victim"] + calls["on_page_in"]
    if policy_name == "hpe":
        assert hooks == 0
    else:
        assert calls["on_page_in"] == result.faults
        assert calls["select_victim"] == result.evictions
