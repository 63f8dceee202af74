"""Cold vs. warm wall-clock of the parallel matrix engine.

Runs a reference (app × policy × rate) slice twice against a fresh
cache directory — once cold (every run simulated) and once warm (every
run answered from the persistent result cache) — and records both
wall-clock times plus the speedup into ``BENCH_matrix.json`` at the
repository root.  The warm/cold ratio is the headline number for the
caching layer; the ISSUE's acceptance bar is a ≥10× warm speedup.

A second benchmark compares the tier-1 loop (v1) against the *relaxed*
batch kernel (tier 3, DESIGN §13) and records the v3-over-v1 speedup
next to the caching numbers.  The env var deliberately clamps to tier 2
(which runs tier 1) — ambient config must never relax results — so the
v3 slice is timed
through explicit ``ScenarioSpec(fastpath=3)`` cells via ``run_spec``,
and every timed run's executed tier is asserted so a silent fallback
cannot fake the speedup.

Shrink the slice with ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_APPS`` and
pick the worker count with ``REPRO_BENCH_JOBS`` (default: serial).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_apps, bench_jobs, bench_scale

from repro.experiments.runner import clear_trace_cache, run_matrix, run_spec
from repro.resil.atomic import atomic_write_json
from repro.scenarios.spec import ScenarioSpec
from repro.sim import cache as sim_cache

#: Default acceptance slice: one app per pattern type.
DEFAULT_APPS = ["BFS", "STN", "HOT"]
POLICIES = ["lru", "hpe"]
RATES = [0.75]

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_matrix.json"


def _timed_matrix(jobs: int) -> float:
    start = time.perf_counter()
    run_matrix(POLICIES, rates=RATES, apps=bench_apps() or DEFAULT_APPS,
               scale=bench_scale(), jobs=jobs)
    return time.perf_counter() - start


def _slice_specs(level: int) -> list:
    """The bench slice as explicit cell specs pinned to ``level``."""
    apps = bench_apps() or DEFAULT_APPS
    return [
        ScenarioSpec(workload=app, policy=policy, rate=rate,
                     scale=bench_scale(), fastpath=level)
        for rate in RATES
        for app in apps
        for policy in POLICIES
    ]


def _timed_spec_slice(level: int) -> tuple:
    """Wall-clock the slice at ``level``, collecting executed tiers."""
    executed = set()
    start = time.perf_counter()
    for spec in _slice_specs(level):
        result = run_spec(spec, use_cache=False)
        executed.add(result.extras["fastpath"]["executed"])
    return time.perf_counter() - start, executed


def _read_output() -> dict:
    if OUTPUT.is_file():
        try:
            payload = json.loads(OUTPUT.read_text(encoding="ascii"))
            if isinstance(payload, dict):
                return payload
        except (ValueError, OSError):
            pass
    return {}


def _merge_into_output(fragment: dict) -> None:
    """Update ``BENCH_matrix.json`` without clobbering the other bench."""
    payload = _read_output()
    payload.update(fragment)
    atomic_write_json(OUTPUT, payload)


def _merge_fastpath(updates: dict) -> None:
    """Merge into the nested ``fastpath`` record, keeping sibling keys.

    A plain top-level update from the cold/warm bench would clobber the
    ``fastpath`` record, and vice versa.
    """
    existing = _read_output().get("fastpath")
    merged = dict(existing) if isinstance(existing, dict) else {}
    merged.update(updates)
    _merge_into_output({"fastpath": merged})


def test_matrix_cold_vs_warm(tmp_path):
    jobs = bench_jobs()
    previous_dir = sim_cache.cache_dir()
    previous_enabled = sim_cache.cache_enabled()
    sim_cache.configure(enabled=True, directory=tmp_path)
    clear_trace_cache()
    try:
        cold = _timed_matrix(jobs)
        warm = _timed_matrix(jobs)
    finally:
        sim_cache.configure(enabled=previous_enabled, directory=previous_dir)
    payload = {
        "apps": bench_apps() or DEFAULT_APPS,
        "policies": POLICIES,
        "rates": RATES,
        "scale": bench_scale(),
        "jobs": jobs,
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 2) if warm else float("inf"),
    }
    _merge_into_output(payload)
    print()
    print(f"matrix wall-clock: cold {cold:.3f}s, warm {warm:.3f}s "
          f"({payload['warm_speedup']}x) -> {OUTPUT.name}")
    assert warm < cold


def test_matrix_fastpath_v1_vs_v3(tmp_path):
    """Cold inner-loop wall-clock: flattened v1 vs. relaxed-tier v3.

    This is *not* a like-for-like comparison — tier 3 is only
    metric-equivalent within the DESIGN §13 tolerances (the
    tolerance gate lives in ``tests/diff/test_tolerance.py``).  The
    slice is timed serially through ``run_spec`` because tier 3 must be
    requested explicitly per spec; the env var clamps to tier 2.
    """
    jobs = bench_jobs()
    previous_dir = sim_cache.cache_dir()
    previous_enabled = sim_cache.cache_enabled()
    sim_cache.configure(enabled=False, directory=tmp_path)
    clear_trace_cache()
    try:
        _timed_spec_slice(1)  # warm-up: trace build + import costs
        v1, v1_tiers = _timed_spec_slice(1)
        v3, v3_tiers = _timed_spec_slice(3)
    finally:
        sim_cache.configure(enabled=previous_enabled, directory=previous_dir)
    # A silent fallback would time the wrong kernel and lie about the
    # speedup, so the executed tiers are part of the bench contract.
    assert v1_tiers == {1}, v1_tiers
    assert v3_tiers == {3}, v3_tiers
    # This bench runs per-spec serial loops, not the matrix engine; the
    # v1 baseline is recorded so the schema check can cross-validate.
    updates = {
        "apps": bench_apps() or DEFAULT_APPS,
        "policies": POLICIES,
        "rates": RATES,
        "scale": bench_scale(),
        "jobs": jobs,
        "v1_serial_seconds": round(v1, 4),
        "v3_seconds": round(v3, 4),
        "v3_over_v1_speedup": round(v1 / v3, 2) if v3 else float("inf"),
    }
    _merge_fastpath(updates)
    print()
    print(f"matrix inner loop: v1 {v1:.3f}s, v3 {v3:.3f}s "
          f"({updates['v3_over_v1_speedup']}x) "
          f"-> {OUTPUT.name}")
    assert v1 > 0 and v3 > 0
