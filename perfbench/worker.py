"""Benchmark worker: set up one workload, time its passes, report JSON.

``run.py`` starts this module in a fresh interpreter
(``python3 -m perfbench.worker``) several times per run and reads the
JSON object each prints as its last line.  The worker imports the
program from the checkout's ``src/`` only, keeps every file it writes
under ``--scratch`` and removes that directory before it exits.

A worker first performs the set-up (the program's imports) and reports
how long it took, then times passes for ``--seconds`` seconds.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
record spans around the public methods of every layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

from perfbench.workloads import WORKLOADS, cell_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"


def load_program():
    """Import the program from the checkout's ``src/`` (never elsewhere)."""
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve().parent
    if location != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {location}, not {SRC}")
    from repro.experiments import runner
    from repro.sim import cache as sim_cache

    return runner, sim_cache


def cell_table(matrix) -> tuple[dict, dict]:
    """Per-cell simulated statistics and failure records of one pass."""
    cells = {}
    for key, result in matrix.results.items():
        driver = result.driver
        cells[cell_key(key.app, key.policy, key.rate)] = {
            "digest": result.metrics_digest(),
            "scenario": result.extras.get("scenario_digest"),
            "tier": result.extras.get("fastpath", {}).get("executed"),
            "faults": driver.faults,
            "capacity_faults": driver.capacity_faults,
            "evictions": driver.evictions,
            "accesses": result.trace_length,
            "l1_tlb_hits": result.l1_tlb_hits,
            "l2_tlb_hits": result.l2_tlb_hits,
            "walker_hits": result.walker_hits,
        }
    failures = {
        cell_key(key.app, key.policy, key.rate): failure.error_type
        for key, failure in matrix.failures.items()
    }
    return cells, failures


def entry_kib(directory: Path) -> float:
    """Mean on-disk size of the result-cache entries under ``directory``."""
    sizes = [p.stat().st_size for p in (directory / "results").rglob("*.pkl")]
    return sum(sizes) / len(sizes) / 1024 if sizes else 0.0


class Bench:
    """Runs timed passes of one workload against private cache dirs."""

    def __init__(self, workload, seed: int, scratch: Path, runner, sim_cache):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.runner = runner
        self.sim_cache = sim_cache
        self._dirs = 0

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        directory = self.scratch / f"cache-{self._dirs}"
        directory.mkdir(parents=True)
        return directory

    def run_pass(self, time_cells: bool = True) -> tuple[dict, object]:
        """Time one ``run_matrix`` call; return its record and matrix.

        With ``time_cells`` each ``run_spec`` call the runner makes (one
        per simulated cell) is timed too, so :func:`perfbench.metrics.
        pass_estimate` can take a median per cell across passes.
        """
        # An empty result cache and trace cache, as in a first
        # ``hpe-repro figure`` run.
        directory = self._fresh_dir()
        self.sim_cache.configure(enabled=True, directory=directory)
        self.runner.clear_trace_cache()
        cell_s: dict[str, float] = {}
        run_spec = self.runner.run_spec
        if time_cells:
            def timed(spec, *args, **kwargs):
                started = time.perf_counter()
                try:
                    return run_spec(spec, *args, **kwargs)
                finally:
                    key = cell_key(spec.workload, spec.policy, spec.rate)
                    cell_s[key] = time.perf_counter() - started

            self.runner.run_spec = timed
        gc.collect()
        try:
            started = time.perf_counter()
            matrix = self.workload.run(self.runner, self.seed)
            wall = time.perf_counter() - started
        finally:
            self.runner.run_spec = run_spec
        stats = self.sim_cache.result_cache().stats
        cells, failures = cell_table(matrix)
        record = {
            "wall_s": wall,
            "cell_s": cell_s,
            "cells": cells,
            "failures": failures,
            "faults": sum(cell["faults"] for cell in cells.values()),
            "cache_hits": stats.result_hits,
            "cache_gets": stats.result_hits + stats.result_misses,
            "entry_kib": entry_kib(directory),
        }
        shutil.rmtree(directory)
        return record, matrix


def layer_targets():
    """``(owner, attribute, span name, cell_from)`` for every wrapped layer."""
    from repro.core.hpe import HPEPolicy
    from repro.experiments import runner
    from repro.memory.frames import FramePool
    from repro.memory.page_table import PageTable
    from repro.policies import (
        ARCPolicy, CARPolicy, ClockProPolicy, FIFOPolicy, IdealPolicy,
        LFUPolicy, LRUPolicy, RandomPolicy, RRIPPolicy, WSClockPolicy,
    )
    from repro.resil.journal import RunJournal
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim import cache as sim_cache
    from repro.sim.engine import UVMSimulator
    from repro.tlb.hierarchy import TLBHierarchy
    from repro.uvm.driver import UVMDriver
    from repro.workloads.suite import ApplicationSpec

    from perfbench.metrics import POLICY_METHODS
    from perfbench.tracer import defined_methods

    def digest_arg(args, _kwargs):
        return args[1] if len(args) > 1 else None

    def digest_kwarg(_args, kwargs):
        return kwargs.get("digest")

    targets = [
        (runner, "run_matrix", "runner.run_matrix", None),
        (ApplicationSpec, "build", "workloads.build", None),
        (sim_cache, "load_or_build_trace", "workloads.load_or_build_trace",
         None),
        (ScenarioSpec, "digest", "scenarios.digest", None),
        (RunJournal, "append", "journal.append", digest_kwarg),
        (sim_cache.ResultCache, "get", "cache.get", digest_arg),
        (sim_cache.ResultCache, "put", "cache.put", digest_arg),
        (UVMSimulator, "run", "sim.run", None),
        (UVMDriver, "service_fault", "driver.service_fault", None),
        (FramePool, "map_page", "memory.map", None),
        (FramePool, "unmap_page", "memory.unmap", None),
        (PageTable, "install", "memory.install", None),
        (PageTable, "invalidate", "memory.invalidate", None),
        (TLBHierarchy, "shootdown", "tlb.shootdown", None),
    ]
    policies = (
        ARCPolicy, CARPolicy, ClockProPolicy, FIFOPolicy, HPEPolicy,
        IdealPolicy, LFUPolicy, LRUPolicy, RandomPolicy, RRIPPolicy,
        WSClockPolicy,
    )
    for cls in policies:
        for method in defined_methods(cls, POLICY_METHODS):
            targets.append((cls, method, f"policy.{cls.name}.{method}", None))
    return targets


def spot_check(
    runner, cells: dict, seed: int, count: int
) -> tuple[list, list]:
    """Re-simulate ``count`` cells on the tier-0 reference loop, uncached."""
    from repro.scenarios.spec import ScenarioSpec

    keys = random.Random(seed).sample(sorted(cells), count)
    bad = []
    for key in keys:
        app, policy, rate = key.split("|")
        spec = ScenarioSpec(
            workload=app, policy=policy, rate=float(rate), seed=seed,
            fastpath=0,
        )
        result = runner.run_spec(spec, use_cache=False)
        if result.metrics_digest() != cells[key]["digest"]:
            bad.append((key, "differs from the tier-0 reference loop"))
    return keys, bad


def traced_metrics(untraced, traced, recorder, runner) -> dict:
    from perfbench.metrics import layer_metrics, self_by_layer, summarize
    from perfbench.tracer import cells_of, totals_by_name

    totals = totals_by_name(recorder)
    n = len(traced)
    layers = layer_metrics(totals, n, runner.POLICY_NAMES)
    cells = traced[0]["cells"]
    by_scenario = {cell["scenario"]: cell for cell in cells.values()}
    replayed = [by_scenario[d] for d in cells_of(recorder, "sim.run")
                if d in by_scenario]
    layers["sim.accesses"] = sum(c["accesses"] for c in replayed) / n
    for tier in (1, 2):
        layers[f"sim.cells_tier{tier}"] = sum(
            1 for c in replayed if c["tier"] == tier) / n
    for metric, field in (
        ("driver.faults", "faults"),
        ("driver.capacity_faults", "capacity_faults"),
        ("driver.evictions", "evictions"),
        ("tlb.l1_hits", "l1_tlb_hits"),
        ("tlb.l2_hits", "l2_tlb_hits"),
        ("walker.hits", "walker_hits"),
    ):
        layers[metric] = sum(c[field] for c in cells.values())
    gets = sum(p["cache_gets"] for p in traced)
    layers["cache.hit_ratio"] = (
        sum(p["cache_hits"] for p in traced) / gets if gets else 0.0
    )
    layers["cache.entry_kib"] = traced[0]["entry_kib"]
    traced_wall = sum(p["wall_s"] for p in traced)
    self_total = sum(timing["self_s"] for timing in totals.values())
    untraced_median = summarize([p["wall_s"] for p in untraced])["median"]
    traced_median = summarize([p["wall_s"] for p in traced])["median"]
    layers["trace.wall_s"] = traced_wall / n
    layers["trace.unattributed_s"] = (traced_wall - self_total) / n
    layers["trace.unattributed_share"] = (
        (traced_wall - self_total) / traced_wall
    )
    layers["trace.overhead_ratio"] = traced_median / untraced_median
    layers["trace.spans"] = len(recorder) / n
    return {
        "per_layer": layers,
        "layer_self_s": {
            layer: seconds / n
            for layer, seconds in sorted(self_by_layer(totals).items())
        },
        "traced_passes": n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spot-cells", type=int, default=0,
                        help="cells to re-simulate on the tier-0 loop")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True,
                        help="where a traced run writes its spans")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() when the parent spawned us")
    args = parser.parse_args(argv)

    runner, sim_cache = load_program()
    import numpy

    workload = WORKLOADS[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, args.scratch, runner, sim_cache)
        report: dict = {
            "setup_s": time.perf_counter() - args.spawned_at,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
        report.update(measure(bench, args, runner))
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(bench: Bench, args, runner) -> dict:
    """Timed passes, correctness gates and (traced) metrics."""
    from perfbench.metrics import digest_gate, paper_speedup_err
    from perfbench.tracer import SpanRecorder

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    reference = pins.get(str(args.seed), {}).get(bench.workload.name)
    untraced: list = []
    traced: list = []
    failed_cells: list = []
    attempted = 0
    recorder = SpanRecorder()

    def keep(record: dict, into: list) -> None:
        """Gate one pass, then drop its cell table unless it is the first."""
        nonlocal attempted
        attempted += len(baseline)
        observed = {k: cell["digest"] for k, cell in record["cells"].items()}
        failed_cells.extend(
            digest_gate(observed, record["failures"], baseline))
        if into is traced:
            for key, cell in record["cells"].items():
                if cell["tier"] != untraced[0]["cells"].get(key, {}).get("tier"):
                    failed_cells.append(
                        (key, "executed tier changed under tracing"))
        if into:
            record = {k: v for k, v in record.items() if k != "cells"}
        into.append(record)

    began = time.perf_counter()
    record, matrix = bench.run_pass()
    err, geomeans = paper_speedup_err(matrix, runner.geometric_mean)
    del matrix
    baseline = reference or {
        key: cell["digest"] for key, cell in record["cells"].items()
    }
    while True:
        keep(record, untraced)
        if args.trace:
            for owner, attribute, name, cell_from in layer_targets():
                recorder.install(owner, attribute, name, cell_from)
            try:
                keep(bench.run_pass(time_cells=False)[0], traced)
            finally:
                recorder.uninstall()
        if time.perf_counter() - began >= args.seconds:
            break
        record = bench.run_pass()[0]

    first = untraced[0]
    spot_keys, spot_bad = spot_check(
        runner, first["cells"], args.seed, args.spot_cells)
    attempted += len(spot_keys)
    failed_cells.extend(spot_bad)

    out = {
        "pinned": reference is not None,
        "attempted": attempted,
        "failed": len(failed_cells),
        "failed_cells": failed_cells[:50],
        "spot_cells": spot_keys,
        "digests": {
            key: cell["digest"] for key, cell in first["cells"].items()
        },
        "cells": len(first["cells"]) + len(first["failures"]),
        "faults": first["faults"],
        "tiers": sorted({c["tier"] for c in first["cells"].values()}),
        "paper_speedup_err": err,
        "geomean_speedup": {str(rate): g for rate, g in geomeans.items()},
        "passes": [
            {"wall_s": p["wall_s"], "cell_s": p["cell_s"]} for p in untraced
        ],
    }
    if args.trace:
        out["traced"] = traced_metrics(untraced, traced, recorder, runner)
        recorder.write(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
