"""WSClock — working-set CLOCK (Carr & Hennessy, SOSP 1981).

Section VI cites WSClock as the classic combination of the working-set
model with CLOCK's circular scan: a page is evictable only when its
reference bit is clear *and* it has been idle longer than the working-set
window τ.  We measure virtual time in page faults (the driver's natural
clock), matching how HPE counts intervals.
"""

from __future__ import annotations

from collections import deque

from repro.policies.base import EvictionPolicy, PolicyError


class WSClockPolicy(EvictionPolicy):
    """WSClock over resident GPU pages with a fault-count window."""

    name = "wsclock"
    uses_walk_hits = True

    def __init__(self, tau_faults: int = 128) -> None:
        if tau_faults <= 0:
            raise ValueError(f"tau_faults must be positive, got {tau_faults}")
        self.tau_faults = tau_faults
        self._clock: deque[int] = deque()
        self._resident: set[int] = set()
        self._ref: set[int] = set()
        self._last_use: dict[int, int] = {}
        self._now = 0

    def on_walk_hit(self, page: int) -> None:
        if page in self._resident:
            self._ref.add(page)

    def on_page_in(self, page: int, fault_number: int) -> None:
        self._now = fault_number
        if page in self._resident:
            return
        self._clock.append(page)
        self._resident.add(page)
        self._last_use[page] = fault_number

    def _evict(self, page: int) -> int:
        self._resident.discard(page)
        self._ref.discard(page)
        self._last_use.pop(page, None)
        return page

    def select_victim(self) -> int:
        if not self._clock:
            raise PolicyError("WSClock has no resident pages to evict")
        clock = self._clock
        ref = self._ref
        last_use_of = self._last_use
        now = self._now
        tau = self.tau_faults
        oldest_page = None
        oldest_use = None
        # At most two sweeps: the first clears reference bits, so the
        # second must find an idle page unless everything is in the
        # working set — then fall back to the least recently used.
        for _ in range(2 * len(clock)):
            page = clock[0]
            clock.rotate(-1)
            if page in ref:
                ref.discard(page)
                last_use_of[page] = now
                continue
            last_use = last_use_of.get(page, 0)
            if now - last_use >= tau:
                # The rotation left ``page`` at the right end, and a
                # page is on the clock once: O(1) instead of remove().
                clock.pop()
                return self._evict(page)
            if oldest_use is None or last_use < oldest_use:
                oldest_use = last_use
                oldest_page = page
        assert oldest_page is not None
        clock.remove(oldest_page)
        return self._evict(oldest_page)

    def resident_count(self) -> int:
        return len(self._resident)
