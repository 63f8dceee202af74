"""The benchmark's two workloads, as arguments to ``run_matrix``.

Both call the public entry point ``repro.experiments.runner.
run_matrix(..., seed=SEED, jobs=1)``, the call ``hpe-repro figure``
makes, at the program's defaults, and every pass starts from an empty
result cache and an empty trace cache, like a first ``hpe-repro figure``
run: every cell is simulated and writes a cache entry and a journal
record.

* ``paper-grid`` — the paper's headline figure, 23 apps x {lru, hpe} x
  {75%, 50%}: 92 cells, ~492k simulated faults at seed 7.  The fault
  path (driver, policy, memory, TLB shootdown) does most of the work.
* ``policy-sweep`` — all 11 policies on one app per pattern type at 50%:
  66 cells, ~385k faults.  It runs nine other victim-selection
  algorithms and ``ideal``, which cannot use the batch kernel and
  replays on the v1 loop, so a change that helps lru/hpe but costs
  other policies or tier 1 shows here.

A third workload, ``warm-rerun`` (the paper-grid cells served from a
populated result cache), was dropped: its 0.07-s passes of pickle loads
and journal fsyncs follow the shared host's memory and disk contention,
so its wall-clock varied more between runs of the same code than the
benchmark's bound allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The paper's geomean HPE-over-LRU speedups per oversubscription rate.
PAPER_SPEEDUP = {0.75: 1.34, 0.5: 1.16}

#: One app per access-pattern type (types I-VI).
SWEEP_APPS = ("GEM", "STN", "KMN", "MVT", "HIS", "HYB")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``None`` means every policy the runner knows (``POLICY_NAMES``).
    policies: Optional[tuple[str, ...]]
    rates: tuple[float, ...]
    #: ``None`` means the full 23-app suite.
    apps: Optional[tuple[str, ...]]

    def run(self, runner, seed: int):
        """One pass: the ``run_matrix`` call this workload times."""
        policies = self.policies or runner.POLICY_NAMES
        return runner.run_matrix(
            list(policies), rates=self.rates, apps=self.apps,
            seed=seed, jobs=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-grid", ("lru", "hpe"), (0.75, 0.5), None),
        Workload("policy-sweep", None, (0.5,), SWEEP_APPS),
    )
}


def cell_key(app: str, policy: str, rate: float) -> str:
    """The printable identity of one cell, e.g. ``BFS|hpe|0.75``."""
    return f"{app}|{policy}|{rate!r}"
