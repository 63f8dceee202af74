"""Regenerate ``perfbench/pins.json``: the pinned per-cell digests.

Run from the root of a checkout::

    python3 perfbench/pin.py 7 11

For each seed and each pinned workload, every cell is simulated on the
tier-0 reference loop (``ScenarioSpec(fastpath=0)``), uncached, and its
``SimulationResult.metrics_digest()`` is stored under
``pins[seed][workload]["APP|policy|rate"]``.  The benchmark's default
tier must reproduce these digests bit for bit.  Seed 7 is the program's
default seed; seed 11 is held out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent))
sys.path.insert(0, str(BENCH.parent / "src"))

from perfbench.workloads import WORKLOADS, cell_key  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.workloads.suite import APPLICATION_ORDER  # noqa: E402


def pin(seed: int) -> dict[str, dict[str, str]]:
    tables: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        table = tables[workload.name] = {}
        for rate in workload.rates:
            for app in workload.apps or APPLICATION_ORDER:
                for policy in workload.policies or runner.POLICY_NAMES:
                    spec = ScenarioSpec(
                        workload=app, policy=policy, rate=rate, seed=seed,
                        fastpath=0,
                    )
                    result = runner.run_spec(spec, use_cache=False)
                    table[cell_key(app, policy, rate)] = (
                        result.metrics_digest()
                    )
    return tables


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or [7, 11]
    pins = {str(seed): pin(seed) for seed in seeds}
    path = BENCH / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} for seeds {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
