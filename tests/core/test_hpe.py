"""Unit and behavioural tests for the assembled HPE policy."""

import random

import pytest

from repro.core.classifier import Category
from repro.core.hpe import HPEConfig, HPEPolicy
from repro.core.pageset import SetPart, primary_key, secondary_key
from repro.core.strategies import StrategyKind
from repro.policies.base import PolicyError


def fill(policy, pages, start_fault=1):
    fault = start_fault
    for page in pages:
        policy.on_page_in(page, fault)
        fault += 1
    return fault


class TestConfig:
    def test_paper_defaults(self):
        config = HPEConfig()
        assert config.page_set_size == 16
        assert config.interval_length == 64
        assert config.transfer_interval == 16
        assert config.ratio1_threshold == 0.3
        assert config.fifo_depth == 128
        assert config.jump_distance == 16
        assert config.hir_entries == 1024
        assert config.hir_associativity == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            HPEConfig(page_set_size=0)
        with pytest.raises(ValueError):
            HPEConfig(interval_length=0)
        with pytest.raises(ValueError):
            HPEConfig(transfer_interval=0)
        with pytest.raises(ValueError):
            HPEConfig(fifo_depth=0)


class TestChainUpdates:
    def test_fault_creates_entry_and_marks_bits(self):
        policy = HPEPolicy()
        policy.on_page_in(0x105, 1)
        entry = policy.chain.get(primary_key(0x10))
        assert entry is not None
        assert entry.counter == 1
        assert entry.bit_vector == 1 << 5
        assert entry.resident_mask == 1 << 5

    def test_walk_hits_buffered_in_hir_until_transfer(self):
        policy = HPEPolicy(HPEConfig(transfer_interval=4))
        policy.on_page_in(0, 1)
        policy.on_walk_hit(0)
        policy.on_walk_hit(0)
        entry = policy.chain.get(primary_key(0))
        assert entry.counter == 1  # hits not yet ingested
        fill(policy, [100, 200, 300], start_fault=2)  # fault 4 ingests
        assert entry.counter == 3

    def test_ideal_hit_model_updates_immediately(self):
        policy = HPEPolicy(HPEConfig(use_hir=False))
        policy.on_page_in(0, 1)
        policy.on_walk_hit(0)
        assert policy.chain.get(primary_key(0)).counter == 2

    def test_hit_only_bumps_counter_not_bits(self):
        # "only page faults update the bit vector"
        policy = HPEPolicy(HPEConfig(use_hir=False))
        policy.on_page_in(0, 1)
        policy.on_walk_hit(1)
        entry = policy.chain.get(primary_key(0))
        assert entry.counter == 2
        assert entry.bit_vector == 1

    def test_stale_hit_for_removed_set_dropped(self):
        policy = HPEPolicy(HPEConfig(use_hir=False))
        policy.on_walk_hit(0x500)  # no entry exists: must not create one
        assert policy.chain.get(primary_key(0x50)) is None

    def test_interval_advances_every_64_faults(self):
        policy = HPEPolicy()
        fill(policy, range(0, 64 * 16, 16))  # 64 faults
        assert policy.chain.intervals == 1


class TestClassificationAndVictims:
    def test_empty_chain_raises(self):
        with pytest.raises(PolicyError):
            HPEPolicy().select_victim()

    def test_classification_happens_at_first_victim(self):
        policy = HPEPolicy()
        fill(policy, range(256))
        assert policy.classification is None
        policy.select_victim()
        assert policy.classification is not None
        assert policy.adjustment is not None

    def test_streaming_classifies_regular(self):
        policy = HPEPolicy()
        fill(policy, range(512))
        policy.select_victim()
        assert policy.category is Category.REGULAR

    def test_forced_category_override(self):
        policy = HPEPolicy(HPEConfig(forced_category=Category.IRREGULAR_2))
        fill(policy, range(256))
        policy.select_victim()
        assert policy.category is Category.IRREGULAR_2
        assert policy.adjustment.strategy is StrategyKind.LRU

    def test_forced_strategy_override(self):
        policy = HPEPolicy(HPEConfig(forced_strategy=StrategyKind.LRU))
        fill(policy, range(256))
        victim = policy.select_victim()
        assert victim == 0  # LRU end of old partition, address order

    def test_victims_evict_set_in_address_order(self):
        policy = HPEPolicy(HPEConfig(forced_strategy=StrategyKind.LRU))
        fill(policy, range(256))
        victims = [policy.select_victim() for _ in range(16)]
        assert victims == list(range(16))

    def test_drained_set_leaves_chain(self):
        policy = HPEPolicy(HPEConfig(forced_strategy=StrategyKind.LRU))
        fill(policy, range(256))
        for _ in range(16):
            policy.select_victim()
        assert policy.chain.get(primary_key(0)) is None

    def test_resident_count_tracks(self):
        policy = HPEPolicy(HPEConfig(forced_strategy=StrategyKind.LRU))
        fill(policy, range(64))
        policy.select_victim()
        assert policy.resident_count() == 63

    def test_search_stats_recorded(self):
        policy = HPEPolicy()
        fill(policy, range(512))
        policy.select_victim()
        assert policy.stats.searches == 1
        assert policy.stats.comparisons_total >= 1


class TestDivision:
    def _even_saturated_policy(self):
        """Touch only even pages of set 0 until its counter saturates."""
        policy = HPEPolicy(HPEConfig(use_hir=False, enable_division=True))
        even = list(range(0, 16, 2))
        fault = fill(policy, even)
        # Walk hits push the counter to 64 (8 faults + 56 hits).
        for _ in range(7):
            for page in even:
                policy.on_walk_hit(page)
        return policy

    def test_division_on_saturation_with_gaps(self):
        policy = self._even_saturated_policy()
        entry = policy.chain.get(primary_key(0))
        assert entry.divided
        assert entry.member_mask == 0x5555
        assert policy.stats.divisions == 1

    def test_secondary_created_for_odd_pages(self):
        policy = self._even_saturated_policy()
        policy.on_page_in(1, 100)   # odd page: routes to secondary
        secondary = policy.chain.get(secondary_key(0))
        assert secondary is not None
        assert secondary.member_mask == 0xAAAA
        assert secondary.part is SetPart.SECONDARY

    def test_no_division_when_fully_populated(self):
        policy = HPEPolicy(HPEConfig(use_hir=False))
        fill(policy, range(16))
        for _ in range(4):
            for page in range(16):
                policy.on_walk_hit(page)
        entry = policy.chain.get(primary_key(0))
        assert entry.saturated
        assert not entry.divided

    def test_division_disabled_by_config(self):
        policy = HPEPolicy(HPEConfig(use_hir=False, enable_division=False))
        even = list(range(0, 16, 2))
        fill(policy, even)
        for _ in range(10):
            for page in even:
                policy.on_walk_hit(page)
        assert not policy.chain.get(primary_key(0)).divided

    def test_history_records_first_division_on_removal(self):
        policy = self._even_saturated_policy()
        # Force-drain the divided primary.
        policy.config = policy.config  # no-op; use forced LRU via select
        # Evict all 8 resident even pages.
        fill(policy, range(16, 16 + 256), start_fault=200)  # build pressure
        while policy.chain.get(primary_key(0)) is not None:
            victim = policy.select_victim()
            if victim >= 16:
                # Drained something else first; keep going.
                continue
        assert 0 in policy.history
        assert policy.history.primary_mask(0) == 0x5555

    def test_refault_after_division_routes_by_history(self):
        policy = self._even_saturated_policy()
        entry = policy.chain.get(primary_key(0))
        entry_mask = entry.member_mask
        # Simulate full eviction of the primary.
        for offset in range(0, 16, 2):
            entry.mark_evicted(offset)
        policy.chain.remove(primary_key(0))
        policy.history.record(0, entry_mask)
        # Even page re-faults -> primary; odd page -> secondary.
        policy.on_page_in(2, 500)
        policy.on_page_in(3, 501)
        assert policy.chain.get(primary_key(0)).resident_mask == 1 << 2
        assert policy.chain.get(secondary_key(0)).resident_mask == 1 << 3


class TestTransferAccounting:
    def test_transfer_bytes_consumed_once(self):
        policy = HPEPolicy(HPEConfig(transfer_interval=2))
        policy.on_page_in(0, 1)
        policy.on_walk_hit(0)
        policy.on_page_in(100, 2)  # triggers HIR transfer (1 entry, 10 B)
        assert policy.consume_transfer_bytes() == 10
        assert policy.consume_transfer_bytes() == 0

    def test_hir_stats_track_transfers(self):
        policy = HPEPolicy(HPEConfig(transfer_interval=1))
        policy.on_page_in(0, 1)
        policy.on_page_in(16, 2)
        assert policy.stats.hir_transfers == 2


class TestFusedFaultLockstep:
    """``on_fault`` == ``select_victim`` + ``on_page_in``, step by step.

    Twin policies replay one seeded event stream: one through the fused
    fault service's single entry (and its walk-hit sink), the other
    through the driver's hooks.  Every victim and, after every event,
    the chain, the history and all statistics must agree.
    """

    CAPACITY = 48
    STEPS = 2500

    @staticmethod
    def _events(seed, tags, sparse):
        """Seeded fault/walk-hit stream over ``tags`` page sets.

        ``sparse`` keeps most touches on even offsets so page sets
        saturate partly populated and divide.
        """
        rng = random.Random(seed)
        for _ in range(TestFusedFaultLockstep.STEPS):
            tag = rng.randrange(tags)
            if sparse and rng.random() < 0.85:
                offset = rng.randrange(0, 16, 2)
            else:
                offset = rng.randrange(16)
            yield tag * 16 + offset

    @staticmethod
    def _observe(policy):
        chain = policy.chain
        adjustment = policy.adjustment
        return (
            [
                (e.key, e.counter, e.bit_vector, e.resident_mask,
                 e.member_mask, e.divided)
                for e in chain.iter_lru_order()
            ],
            chain.partition_sizes(),
            chain.intervals,
            dict(policy.history._records),
            policy.stats,
            None if adjustment is None else adjustment.stats,
            None if adjustment is None else adjustment.jump,
            policy.hir.stats,
            policy.resident_count(),
            policy.consume_transfer_bytes(),
        )

    @pytest.mark.parametrize("seed", (3, 17, 101))
    @pytest.mark.parametrize("config", [
        HPEConfig(),
        HPEConfig(division_threshold=12, transfer_interval=4),
        HPEConfig(use_hir=False, division_threshold=12),
        HPEConfig(forced_strategy=StrategyKind.LRU),
        HPEConfig(forced_strategy=StrategyKind.MRU_C, jump_distance=2),
    ], ids=["default", "divided", "ideal-hits", "forced-lru",
            "forced-mru-c"])
    def test_on_fault_matches_driver_hooks(self, seed, config):
        fused = HPEPolicy(config)
        hooks = HPEPolicy(config)
        fused_hit = fused.walk_hit_listener()
        resident = set()
        fault = 0
        sparse = config.division_threshold < 64
        for page in self._events(seed, tags=12, sparse=sparse):
            if page in resident:
                fused_hit(page)
                hooks.on_walk_hit(page)
            else:
                fault += 1
                evict = len(resident) >= self.CAPACITY
                victim = fused.on_fault(page, fault, evict)
                expected = hooks.select_victim() if evict else None
                assert victim == expected, f"fault {fault}"
                hooks.on_page_in(page, fault)
                if victim is not None:
                    resident.discard(victim)
                resident.add(page)
            assert self._observe(fused) == self._observe(hooks), \
                f"diverged at fault {fault}"
        assert fused.stats.searches > 0
        if sparse:
            assert fused.stats.divisions > 0
            assert len(fused.history) > 0
