"""CLOCK-Pro page replacement (Jiang, Chen & Zhang, USENIX ATC 2005).

CLOCK-Pro approximates LIRS with CLOCK mechanics: pages are *hot* or
*cold*; resident cold pages run a *test period* during which a re-access
(observed as a fault on the retained non-resident metadata, or a reference
bit while resident) promotes them to hot.  Three hands sweep one circular
list:

* ``HAND_cold`` — finds the eviction victim among resident cold pages;
* ``HAND_test`` — terminates test periods and prunes non-resident
  metadata (bounded by the memory size);
* ``HAND_hot`` — demotes hot pages whose reference bits are unset.

Following Section V-B of the HPE paper, the cold-page allocation ``m_c``
is fixed at 128 (no adaptation) "because this value can alleviate instant
thrashing"; it is clamped when the simulated memory is smaller.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.policies.base import EvictionPolicy, PolicyError


class _Status(enum.Enum):
    HOT = "hot"
    COLD = "cold"          # resident cold page
    NONRES = "nonres"      # non-resident cold page (test metadata only)


class _Node:
    """One clock-list entry."""

    __slots__ = ("page", "status", "ref", "in_test", "prev", "next")

    def __init__(self, page: int, status: _Status, in_test: bool) -> None:
        self.page = page
        self.status = status
        self.ref = False
        self.in_test = in_test
        self.prev: "_Node" = self
        self.next: "_Node" = self


class ClockProPolicy(EvictionPolicy):
    """CLOCK-Pro over resident GPU pages with a fixed cold allocation."""

    name = "clock-pro"
    uses_walk_hits = True

    def __init__(self, capacity: int, m_c: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if m_c <= 0:
            raise ValueError(f"m_c must be positive, got {m_c}")
        self.capacity = capacity
        # Keep at least one hot slot so HAND_hot has something to manage.
        self.m_c = min(m_c, max(1, capacity - 1))
        self.m_h = capacity - self.m_c
        self._nodes: dict[int, _Node] = {}
        self._hand_hot: Optional[_Node] = None
        self._hand_cold: Optional[_Node] = None
        self._hand_test: Optional[_Node] = None
        self.n_hot = 0
        self.n_cold = 0
        self.n_nonres = 0
        #: Faults that re-referenced a page still in its test period.
        self.test_promotions = 0

    # ------------------------------------------------------------------
    # Circular-list plumbing
    # ------------------------------------------------------------------

    def _insert_at_head(self, node: _Node) -> None:
        """Insert ``node`` at the list head (just behind HAND_hot)."""
        if self._hand_hot is None:
            node.prev = node.next = node
            self._hand_hot = self._hand_cold = self._hand_test = node
            return
        anchor = self._hand_hot
        node.prev = anchor.prev
        node.next = anchor
        anchor.prev.next = node
        anchor.prev = node

    def _unlink(self, node: _Node) -> None:
        """Remove ``node``; advance any hand parked on it first."""
        if node.next is node:
            self._hand_hot = self._hand_cold = self._hand_test = None
            return
        for attr in ("_hand_hot", "_hand_cold", "_hand_test"):
            if getattr(self, attr) is node:
                setattr(self, attr, node.next)
        node.prev.next = node.next
        node.next.prev = node.prev

    def _remove(self, node: _Node) -> None:
        self._unlink(node)
        del self._nodes[node.page]

    # ------------------------------------------------------------------
    # Hand actions
    # ------------------------------------------------------------------

    def _run_hand_test(self) -> None:
        """Advance HAND_test one cold page: end its test / prune metadata."""
        node = self._hand_test
        if node is None:
            return
        # Skip hot pages; act on the first cold page encountered.
        for _ in range(len(self._nodes) + 1):
            if node.status is not _Status.HOT:
                break
            node = node.next
        self._hand_test = node.next
        if node.status is _Status.COLD:
            node.in_test = False
        elif node.status is _Status.NONRES:
            self.n_nonres -= 1
            self._remove(node)

    def _run_hand_hot(self) -> None:
        """Advance HAND_hot until one hot page is demoted to cold."""
        if self.n_hot == 0:
            return
        node = self._hand_hot
        assert node is not None
        for _ in range(2 * len(self._nodes) + 2):
            nxt = node.next
            if node.status is _Status.HOT:
                if node.ref:
                    node.ref = False
                else:
                    node.status = _Status.COLD
                    node.in_test = False
                    self.n_hot -= 1
                    self.n_cold += 1
                    self._hand_hot = nxt
                    return
            elif node.status is _Status.COLD:
                # HAND_hot does HAND_test's duty as it sweeps.
                node.in_test = False
            else:  # NONRES
                self.n_nonres -= 1
                self._remove(node)
            node = nxt
        self._hand_hot = node

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------

    def on_page_in(self, page: int, fault_number: int) -> None:
        node = self._nodes.get(page)
        if node is not None and node.status is _Status.NONRES:
            # Re-accessed during its test period: reuse distance is short,
            # so the page enters as hot (the LIRS "low IRR" promotion).
            self.test_promotions += 1
            self.n_nonres -= 1
            self._remove(node)
            fresh = _Node(page, _Status.HOT, in_test=False)
            self._nodes[page] = fresh
            self._insert_at_head(fresh)
            self.n_hot += 1
            while self.n_hot > self.m_h:
                before = self.n_hot
                self._run_hand_hot()
                if self.n_hot == before:
                    break
            return
        fresh = _Node(page, _Status.COLD, in_test=True)
        self._nodes[page] = fresh
        self._insert_at_head(fresh)
        self.n_cold += 1
        while self.n_nonres > self.capacity:
            before = self.n_nonres
            self._run_hand_test()
            if self.n_nonres == before:
                break

    def on_walk_hit(self, page: int) -> None:
        node = self._nodes.get(page)
        if node is not None and node.status is not _Status.NONRES:
            node.ref = True

    def select_victim(self) -> int:
        if self.n_cold == 0:
            self._run_hand_hot()
        if self.n_cold == 0:
            raise PolicyError("CLOCK-Pro has no evictable page")
        node = self._hand_cold
        assert node is not None
        nodes = self._nodes
        cold = _Status.COLD
        # Bounded sweep: each promotion removes a cold page, each pass
        # resets a reference bit, so the loop terminates.  Hot and
        # non-resident nodes are passed over, stale or not, so only a
        # cold node needs the stale-node probe.
        for _ in range(4 * len(nodes) + 4):
            nxt = node.next
            if node.status is cold:
                if nodes.get(node.page) is not node:
                    # Stale node pruned by a nested hand run; skip it.
                    node = nxt
                    continue
                if node.ref:
                    node.ref = False
                    if node.in_test:
                        # Promote: re-accessed within its test period.
                        node.status = _Status.HOT
                        node.in_test = False
                        self.n_cold -= 1
                        self.n_hot += 1
                        self._unlink(node)
                        self._insert_at_head(node)
                        while self.n_hot > self.m_h:
                            before = self.n_hot
                            self._run_hand_hot()
                            if self.n_hot == before:
                                break
                    else:
                        # Grant a fresh test period and recycle to the head.
                        node.in_test = True
                        self._unlink(node)
                        self._insert_at_head(node)
                else:
                    victim = node.page
                    self.n_cold -= 1
                    if node.in_test:
                        node.status = _Status.NONRES
                        self.n_nonres += 1
                        self._hand_cold = nxt
                        while self.n_nonres > self.capacity:
                            before = self.n_nonres
                            self._run_hand_test()
                            if self.n_nonres == before:
                                break
                    else:
                        self._remove(node)
                    if self._hand_cold is node:
                        self._hand_cold = nxt
                    return victim
                if self.n_cold == 0:
                    self._run_hand_hot()
                    if self.n_cold == 0:
                        raise PolicyError("CLOCK-Pro has no evictable page")
            node = nxt
        raise PolicyError("CLOCK-Pro victim sweep failed to terminate")

    def resident_count(self) -> int:
        return self.n_hot + self.n_cold

    # ------------------------------------------------------------------
    # Pickling (result caching / parallel matrix transport)
    # ------------------------------------------------------------------
    # The clock is a circular doubly-linked list; default pickling would
    # recurse node-by-node and blow the recursion limit on large
    # capacities, so the ring is flattened to a list and rebuilt.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        ring: list[tuple[int, _Status, bool, bool]] = []
        index_of: dict[int, int] = {}
        anchor = self._hand_hot
        if anchor is not None:
            node = anchor
            while True:
                index_of[id(node)] = len(ring)
                ring.append((node.page, node.status, node.ref, node.in_test))
                node = node.next
                if node is anchor:
                    break
        for attr in ("_hand_hot", "_hand_cold", "_hand_test"):
            hand = state.pop(attr)
            state[attr + "_index"] = (
                None if hand is None else index_of[id(hand)]
            )
        del state["_nodes"]
        state["_ring"] = ring
        return state

    def __setstate__(self, state: dict) -> None:
        ring = state.pop("_ring")
        hand_indices = {
            attr: state.pop(attr + "_index")
            for attr in ("_hand_hot", "_hand_cold", "_hand_test")
        }
        self.__dict__.update(state)
        nodes: list[_Node] = []
        self._nodes = {}
        for page, status, ref, in_test in ring:
            node = _Node(page, status, in_test)
            node.ref = ref
            nodes.append(node)
            self._nodes[page] = node
        count = len(nodes)
        for i, node in enumerate(nodes):
            node.next = nodes[(i + 1) % count]
            node.prev = nodes[(i - 1) % count]
        for attr, index in hand_indices.items():
            setattr(self, attr, None if index is None else nodes[index])
