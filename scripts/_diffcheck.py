"""Ad-hoc reference vs tier-1 equivalence smoke check (dev aid, not a test).

Replays the *real application* traces through both bit-identical
simulator tiers.
The supported differential harness — synthetic generators, eviction-
sequence recording, auto-shrinking, goldens — is ``hpe-repro diff`` and
``tests/diff/``; this script stays as a quick full-suite sweep.
"""
import sys

sys.path.insert(0, "src")

from repro.experiments.runner import (  # noqa: E402
    DEFAULT_SEED,
    POLICY_NAMES,
    _TRACES,
    make_policy,
)
from repro.sim.engine import UVMSimulator  # noqa: E402
from repro.workloads.suite import get_application  # noqa: E402


def run_level(app, policy_name, rate, level, scale=1.0):
    spec = get_application(app)
    trace = _TRACES.get(app, DEFAULT_SEED, scale)
    cap = trace.capacity_for(rate)
    policy = make_policy(policy_name, cap, spec=spec, seed=DEFAULT_SEED)
    sim = UVMSimulator(policy, cap)
    res = sim.run(trace.pages, workload_name=app, fast=level)
    return res.key_metrics()


def main():
    apps = sys.argv[1].split(",") if len(sys.argv) > 1 else ["BFS", "STN", "HOT"]
    policies = sys.argv[2].split(",") if len(sys.argv) > 2 else list(POLICY_NAMES)
    rates = [0.75, 0.5]
    bad = 0
    for app in apps:
        for pol in policies:
            for rate in rates:
                ref = run_level(app, pol, rate, 0)
                v1 = run_level(app, pol, rate, 1)
                if v1 != ref:
                    bad += 1
                    print(f"{app:4s} {pol:10s} {rate}: MISMATCH")
                    for k in sorted(set(ref) | set(v1)):
                        if ref.get(k) != v1.get(k):
                            print(f"    {k}: ref={ref.get(k)} got={v1.get(k)}")
                else:
                    print(f"{app:4s} {pol:10s} {rate}: OK")
    print("FAILURES:", bad)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
