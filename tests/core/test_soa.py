"""Metamorphic equivalence for the struct-of-arrays hot structures.

:class:`repro.core.soa.ArrayChain` (via :class:`PageSetChain`) and
:class:`repro.core.soa.Bitmap` replaced the object-per-entry
implementations on the fault path; the originals are retained as
oracles (:class:`ReferencePageSetChain`, plain ``set``).  These tests
drive long seeded randomized op sequences through both implementations
in lockstep — no hypothesis dependency, just ``random.Random(seed)`` —
and assert every observable agrees after every single operation:
membership, sizes, partition split, full iteration order, and the LRU
election the HPE strategies depend on.
"""

from __future__ import annotations

import random
from typing import Union

import pytest

from repro.core.chain import PageSetChain, ReferencePageSetChain
from repro.core.pageset import (
    PageSetEntry,
    SetKey,
    SetPart,
    primary_key,
    secondary_key,
)
from repro.core.soa import DENSE_LIMIT, Bitmap, numpy_available

SEEDS = (1, 7, 42, 1337, 271828)
OPS_PER_RUN = 3000

ChainLike = Union[PageSetChain, ReferencePageSetChain]


def _observe(chain: ChainLike) -> tuple:
    """Every observable surface of a chain, in one comparable tuple."""
    return (
        len(chain),
        chain.partition_sizes(),
        (chain.old_size, chain.middle_size, chain.new_size),
        [entry.key for entry in chain.iter_lru_order()],
        [entry.key for entry in chain.iter_old_lru_first()],
        [entry.key for entry in chain.iter_old_mru_first()],
        [(key, entry.tag) for part in (0, 1, 2)
         for key, entry in chain.partition_items(part)],
        None if chain.lru_entry() is None else chain.lru_entry().key,
        chain.counters(),
        chain.intervals,
    )


def _random_key(rng: random.Random) -> SetKey:
    tag = rng.randrange(64)
    return primary_key(tag) if rng.random() < 0.8 else secondary_key(tag)


def _entry_for(key: SetKey, page_set_size: int) -> PageSetEntry:
    """A fresh entry whose ``.key`` is ``key``."""
    part = SetPart.SECONDARY if key & 1 else SetPart.PRIMARY
    return PageSetEntry(tag=key >> 1, page_set_size=page_set_size,
                        part=part)


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_reference_on_random_op_sequences(seed: int) -> None:
    """SoA chain == OrderedDict chain after every op of a seeded run."""
    rng = random.Random(seed)
    fast = PageSetChain(page_set_size=16)
    reference = ReferencePageSetChain(page_set_size=16)
    for step in range(OPS_PER_RUN):
        op = rng.random()
        key = _random_key(rng)
        if op < 0.40:  # insert (fresh entries only; dup insert is an error)
            if key not in reference:
                entry_a = _entry_for(key, 16)
                entry_b = _entry_for(key, 16)
                touches = rng.randrange(4)
                entry_a.touch(touches)
                entry_b.touch(touches)
                fast.insert(entry_a)
                reference.insert(entry_b)
        elif op < 0.70:  # promote
            if key in reference:
                assert fast.promote(key).key == reference.promote(key).key
            else:
                with pytest.raises(KeyError):
                    reference.promote(key)
                with pytest.raises(KeyError):
                    fast.promote(key)
        elif op < 0.85:  # remove
            if key in reference:
                assert fast.remove(key).key == reference.remove(key).key
            else:
                with pytest.raises(KeyError):
                    reference.remove(key)
                with pytest.raises(KeyError):
                    fast.remove(key)
        elif op < 0.92:  # touch through get() (payload identity check)
            entry_fast = fast.get(key)
            entry_ref = reference.get(key)
            assert (entry_fast is None) == (entry_ref is None)
            if entry_fast is not None and entry_ref is not None:
                entry_fast.touch()
                entry_ref.touch()
        else:  # advance interval
            fast.advance_interval()
            reference.advance_interval()
        assert _observe(fast) == _observe(reference), \
            f"divergence at step {step} (seed {seed})"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_chain_survives_churn_and_regrowth(seed: int) -> None:
    """Free-list reuse: empty the chain repeatedly, slots must recycle."""
    rng = random.Random(seed)
    fast = PageSetChain(page_set_size=8)
    reference = ReferencePageSetChain(page_set_size=8)
    for _ in range(20):
        keys = [primary_key(tag) for tag in range(rng.randrange(1, 40))]
        for key in keys:
            fast.insert(_entry_for(key, 8))
            reference.insert(_entry_for(key, 8))
        if rng.random() < 0.5:
            fast.advance_interval()
            reference.advance_interval()
        rng.shuffle(keys)
        for key in keys:
            assert fast.remove(key).key == reference.remove(key).key
        assert _observe(fast) == _observe(reference)
        assert len(fast) == 0


def test_duplicate_insert_raises_on_both() -> None:
    fast = PageSetChain(page_set_size=4)
    reference = ReferencePageSetChain(page_set_size=4)
    for chain in (fast, reference):
        chain.insert(PageSetEntry(tag=3, page_set_size=4))
        with pytest.raises(ValueError):
            chain.insert(PageSetEntry(tag=3, page_set_size=4))


def test_promote_only_moves_once_per_interval() -> None:
    """Fig. 6 rule: an entry already in *new* stays put when touched."""
    for chain in (PageSetChain(4), ReferencePageSetChain(4)):
        for tag in (1, 2, 3):
            chain.insert(PageSetEntry(tag=tag, page_set_size=4))
        order_before = [entry.key for entry in chain.iter_lru_order()]
        chain.promote(primary_key(1))  # already in new: no move
        assert [e.key for e in chain.iter_lru_order()] == order_before
        chain.advance_interval()
        chain.promote(primary_key(1))  # from middle: to MRU of new
        assert [e.key for e in chain.iter_lru_order()][-1] == primary_key(1)


# -- Bitmap vs plain set --------------------------------------------------


def _bitmap_observe(bitmap: Bitmap, universe: range) -> tuple:
    return (
        len(bitmap),
        sorted(bitmap),
        [element in bitmap for element in universe],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_bitmap_matches_set_on_random_op_sequences(seed: int) -> None:
    """Bitmap == set after every op of a seeded run, dense universe."""
    rng = random.Random(seed)
    universe = range(512)
    bitmap = Bitmap(initial_size=8)  # force growth paths
    reference: set = set()
    for step in range(OPS_PER_RUN):
        op = rng.random()
        element = rng.randrange(512)
        if op < 0.45:
            bitmap.add(element)
            reference.add(element)
        elif op < 0.75:
            bitmap.discard(element)
            reference.discard(element)
        elif op < 0.90:
            batch = [rng.randrange(512) for _ in range(rng.randrange(8))]
            bitmap.update(batch)
            reference.update(batch)
        else:
            probe = {rng.randrange(512) for _ in range(3)}
            assert bitmap.isdisjoint(probe) == reference.isdisjoint(probe)
        assert _bitmap_observe(bitmap, universe) == (
            len(reference), sorted(reference),
            [element in reference for element in universe],
        ), f"divergence at step {step} (seed {seed})"


def test_bitmap_degrades_to_set_beyond_dense_limit() -> None:
    """A sparse-universe element flips the bitmap to set semantics."""
    bitmap = Bitmap()
    bitmap.add(5)
    bitmap.add(DENSE_LIMIT + 123)
    assert 5 in bitmap
    assert DENSE_LIMIT + 123 in bitmap
    assert len(bitmap) == 2
    assert sorted(bitmap) == [5, DENSE_LIMIT + 123]
    bitmap.discard(DENSE_LIMIT + 123)
    assert sorted(bitmap) == [5]
    # dense_view is unavailable after degradation, by contract
    assert bitmap.dense_view() is None


def test_bitmap_dense_view_reflects_contents() -> None:
    if not numpy_available():
        pytest.skip("numpy-free install: no dense view")
    bitmap = Bitmap(initial_size=16)
    bitmap.update([1, 3, 200])
    view = bitmap.dense_view()
    assert view is not None
    assert bool(view[1]) and bool(view[3]) and bool(view[200])
    assert not bool(view[2])


def test_bitmap_negative_elements_rejected() -> None:
    bitmap = Bitmap()
    with pytest.raises(ValueError):
        bitmap.add(-1)
