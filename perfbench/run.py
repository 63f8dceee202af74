"""Repository benchmark for the HPE reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``paper-grid`` and
``policy-sweep``.  Each drives the public entry point
``repro.experiments.runner.run_matrix(..., seed=SEED, jobs=1)`` at the
program's defaults, in a fresh worker process (``perfbench/worker.py``)
that imports the program from ``src/``.

A run starts three workers one after another.  Each sets up (imports
the program) and then times passes for a third of ``--seconds``; the
metrics are medians over the passes of all three processes.
``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (self time and call counts per layer, tracing
overhead, and a coverage line), averaged over the traced passes of the
three workers.  Set-up time is the median of the three set-ups.

Every cell's ``SimulationResult.metrics_digest()`` is checked against
``perfbench/pins.json`` (seeds 7 and 11, made by ``perfbench/pin.py`` on
the tier-0 reference loop); for other seeds the pins read "unchecked"
and each pass is checked against its worker's first pass, and every
worker's cells against the first worker's.  Two cells per run are also
re-simulated on the tier-0 reference loop.

The report is printed first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run appends a provenance record to
``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    digest_gate, format_value, pass_estimate, summarize, weighted_mean,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = BENCH / "out"
HISTORY = BENCH / "history.jsonl"
#: Worker processes per run; each sets up and measures its share.
WORKERS = 3
#: Cells the last worker re-simulates on the tier-0 reference loop.
SPOT_CELLS = 2
#: Every run must end within this many seconds of its start.
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_env() -> dict:
    """The caller's environment minus every ``REPRO_*`` knob.

    The program then runs at its defaults; its cache directory and temp
    files stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(OUT / "default-cache")
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_worker(args, index: int) -> dict:
    """Start worker ``index``, wait for it, and return its JSON report."""
    scratch = OUT / f"w{os.getpid()}-{index}"
    last = index == WORKERS - 1
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / WORKERS),
        "--trace", str(args.trace), "--scratch", str(scratch),
        "--spot-cells", str(SPOT_CELLS if last else 0),
        "--spans",
        str(OUT / f"spans-{args.workload}-seed{args.seed}-{index}.npz"),
    ]
    remaining = DEADLINE_S - (time.perf_counter() - STARTED)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    command += ["--spawned-at", repr(time.perf_counter())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {index} did not finish in time") from exc
    finally:
        # A killed worker cannot remove its own scratch directory.
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker {index} exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def combine(reports: list) -> dict:
    """One run's report from the reports of its workers.

    The end-to-end figures are medians over every worker's untraced
    passes; the per-layer ones are averages weighted by traced passes.
    Every worker's first-pass digests must equal the first worker's.
    """
    first, last = reports[0], reports[-1]
    passes = [p for report in reports for p in report["passes"]]
    wall = pass_estimate(passes)
    failed_cells = [
        cell for report in reports for cell in report["failed_cells"]
    ]
    failed = sum(report["failed"] for report in reports)
    attempted = sum(report["attempted"] for report in reports)
    for report in reports[1:]:
        attempted += len(first["digests"])
        mismatched = digest_gate(report["digests"], {}, first["digests"])
        failed += len(mismatched)
        failed_cells += [
            (key, f"{why} between workers") for key, why in mismatched
        ]
    combined = {
        key: first[key]
        for key in ("pinned", "cells", "faults", "tiers", "python", "numpy",
                    "paper_speedup_err", "geomean_speedup")
    }
    combined.update(
        attempted=attempted,
        failed=failed,
        failed_cells=failed_cells,
        spot_cells=last["spot_cells"],
        setup=[report["setup_s"] for report in reports],
        peak_rss_mb=max(report["peak_rss_mb"] for report in reports),
        end_to_end={
            "wall_s": wall,
            "host_us_per_fault": wall["estimate"] / first["faults"] * 1e6,
            "pass_wall_s": summarize([p["wall_s"] for p in passes]),
        },
    )
    if "traced" in first:
        traced = [report["traced"] for report in reports]
        weights = [t["traced_passes"] for t in traced]
        combined["traced"] = {
            "per_layer": weighted_mean(
                [t["per_layer"] for t in traced], weights),
            "layer_self_s": weighted_mean(
                [t["layer_self_s"] for t in traced], weights),
            "traced_passes": sum(weights),
        }
    return combined


def print_report(args, report: dict, metrics: dict, units) -> None:
    e2e = report["end_to_end"]
    pins = "pinned" if report["pinned"] else "unchecked (no pins for this seed)"
    print(f"workload {args.workload}  seed {args.seed}  "
          f"cells {report['cells']}  simulated faults {report['faults']}  "
          f"executed tiers {report['tiers']}")
    print(f"digests: {pins}; tier-0 spot check on "
          f"{', '.join(report['spot_cells'])}")
    print(f"cell_fail_rate {report['failed'] / report['attempted']:.4g} ratio "
          f"({report['failed']} of {report['attempted']} cells)")
    for key, reason in report["failed_cells"]:
        print(f"  FAIL {key}: {reason}")
    geomeans = ", ".join(
        f"{float(rate):.0%} {g:.4f}x"
        for rate, g in report["geomean_speedup"].items()
    )
    print(f"geomean HPE/LRU speedup (simulated): {geomeans}; "
          f"paper 1.34x @75%, 1.16x @50%; paper_speedup_err "
          f"{report['paper_speedup_err']:.6f} ratio")
    wall = e2e["pass_wall_s"]
    print(f"untraced passes: {wall['n']}; wall_s is the sum over "
          f"{e2e['wall_s']['cells']} timed cells of each cell's median plus "
          f"the median remainder; whole-pass median {wall['median']:.4f} s "
          f"(q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f})")
    print(f"workers: {WORKERS}, each set up and timed passes for "
          f"{args.seconds / WORKERS:.3g} s; set-up samples (s): "
          + ", ".join(f"{s:.3f}" for s in report["setup"]))
    if args.trace:
        traced = report["traced"]
        print(f"traced passes: {traced['traced_passes']} "
              f"(alternating with untraced); per-pass self time by layer:")
        layers = traced["layer_self_s"]
        unattributed = metrics["trace.unattributed_s"]
        for layer, seconds in layers.items():
            print(f"  {layer:<12} {seconds:10.4f} s")
        print(f"coverage: layers {sum(layers.values()):.4f} s + unattributed "
              f"{unattributed:.4f} s = traced pass {metrics['trace.wall_s']:.4f}"
              f" s (unattributed share "
              f"{metrics['trace.unattributed_share']:.2%})")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        line = f"{name:<{width}}  {format_value(value):>14} {units[name]}"
        if name.endswith("_s"):
            calls = metrics.get(name[:-2] + "_calls")
            if calls is not None:
                line += f"  ({format_value(calls)} calls)"
        print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills a running worker
    # before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    try:
        report = combine([run_worker(args, i) for i in range(WORKERS)])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = report["end_to_end"]
    if args.trace:
        computed = report["traced"]["per_layer"]
    else:
        computed = {
            "setup_s": statistics.median(report["setup"]),
            "wall_s": e2e["wall_s"]["estimate"],
            "host_us_per_fault": e2e["host_us_per_fault"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {name: computed[name] for name in units}
    print_report(args, report, metrics, units)

    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned": report["pinned"],
        "samples": e2e["wall_s"]["n"],
        "pass_wall_s": e2e["pass_wall_s"],
        "paper_speedup_err": report["paper_speedup_err"],
        "workers": WORKERS,
        "setup_samples": report["setup"],
        "traced_samples": report["traced"]["traced_passes"] if args.trace else 0,
        **result,
    }
    with HISTORY.open("a", encoding="utf-8") as history:
        history.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
