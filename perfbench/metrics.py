"""Pure helpers behind the benchmark's numbers: summaries, the digest
gate, the paper-fidelity error and the per-layer table.

Nothing here imports the program; the functions take its objects (a
``ResultMatrix``, span totals) as arguments so the tests can feed them
hand-built inputs.
"""

from __future__ import annotations

import statistics
from typing import Callable, Iterable, Mapping, Sequence

from perfbench.workloads import PAPER_SPEEDUP

#: Methods wrapped on every policy class that defines them itself.
POLICY_METHODS = (
    "select_victim", "on_page_in", "on_fault_pending",
    "on_walk_hits", "on_walk_hit",
)

#: Span name -> (seconds metric, calls metric).  Seconds are self time.
SPAN_METRICS = {
    "scenarios.digest": ("scenarios.digest_s", "scenarios.digest_calls"),
    "journal.append": ("journal.append_s", "journal.appends"),
    "cache.get": ("cache.get_s", "cache.gets"),
    "cache.put": ("cache.put_s", "cache.puts"),
    "driver.service_fault": (
        "driver.service_fault_s", "driver.service_fault_calls"),
    "memory.map": ("memory.map_s", "memory.map_calls"),
    "memory.unmap": ("memory.unmap_s", "memory.unmap_calls"),
    "memory.install": ("memory.install_s", "memory.install_calls"),
    "memory.invalidate": ("memory.invalidate_s", "memory.invalidate_calls"),
    "tlb.shootdown": ("tlb.shootdown_s", "tlb.shootdown_calls"),
}

_NO_SPANS = {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, first and third quartile, and the sample count."""
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def pass_estimate(passes: Sequence[Mapping]) -> dict[str, float]:
    """The median pass wall-clock, assembled per cell.

    Each pass record holds its wall-clock ``wall_s`` and the time of
    each simulated cell ``cell_s``.  The estimate is the sum over cells
    of each cell's median time across passes, plus the median of what
    each pass spent outside its cells.  A slow spell of the machine that
    hits one pass in a cell's stretch then moves that cell's median
    little, where it would move a whole pass's wall-clock.  With no
    cell times (nothing simulated) it is the median pass wall-clock.
    """
    cells = sorted({key for p in passes for key in p["cell_s"]})
    for p in passes:
        if set(p["cell_s"]) != set(cells):
            raise ValueError("passes timed different cells")
    per_cell = sum(
        statistics.median(p["cell_s"][key] for p in passes) for key in cells
    )
    rest = statistics.median(
        p["wall_s"] - sum(p["cell_s"].values()) for p in passes
    )
    return {"estimate": per_cell + rest, "n": len(passes), "cells": len(cells)}


def weighted_mean(
    rows: Sequence[Mapping[str, float]], weights: Sequence[float]
) -> dict[str, float]:
    """Key by key, the mean of ``rows`` weighted by ``weights``.

    Combines per-pass figures of several workers, each weighted by how
    many passes it averaged.  Every row must have the same keys.
    """
    keys = list(rows[0])
    if any(list(row) != keys for row in rows):
        raise ValueError("rows have different keys")
    total = sum(weights)
    return {
        key: sum(row[key] * w for row, w in zip(rows, weights)) / total
        for key in keys
    }


def digest_gate(
    observed: Mapping[str, str],
    failures: Mapping[str, str],
    reference: Mapping[str, str],
) -> list[tuple[str, str]]:
    """Every failing cell of one pass, as ``(cell key, reason)``.

    A cell fails when the matrix holds a failure record for it, when its
    ``metrics_digest()`` differs from the reference, when it is missing,
    or when the reference does not know it.
    """
    bad: list[tuple[str, str]] = []
    for key, error in failures.items():
        bad.append((key, f"failed ({error})"))
    for key, digest in observed.items():
        expected = reference.get(key)
        if expected is None:
            bad.append((key, "not in the reference"))
        elif digest != expected:
            bad.append((key, "digest mismatch"))
    for key in reference:
        if key not in observed and key not in failures:
            bad.append((key, "missing"))
    return sorted(bad)


def paper_speedup_err(
    matrix, geometric_mean: Callable[[Iterable[float]], float]
) -> tuple[float, dict[float, float]]:
    """Mean relative error of the geomean HPE-over-LRU speedup.

    Averaged over the paper's rates present in ``matrix`` (1.34x at 75%,
    1.16x at 50%).  Returns the error and the measured geomean per rate.
    """
    rates = sorted(
        {key.rate for key in matrix.results} & set(PAPER_SPEEDUP),
        reverse=True,
    )
    if not rates:
        raise ValueError("matrix holds none of the paper's rates")
    measured = {
        rate: geometric_mean(
            matrix.speedup(app, "hpe", "lru", rate) for app in matrix.apps()
        )
        for rate in rates
    }
    errors = [
        abs(measured[rate] - PAPER_SPEEDUP[rate]) / PAPER_SPEEDUP[rate]
        for rate in rates
    ]
    return sum(errors) / len(errors), measured


def layer_metrics(
    totals: Mapping[str, Mapping[str, float]],
    passes: int,
    policy_names: Sequence[str],
) -> dict[str, float]:
    """Per-pass span metrics from :func:`perfbench.tracer.totals_by_name`.

    Every ``_s`` metric is self time except ``sim.run_s``, which is the
    whole of ``UVMSimulator.run``; ``sim.replay_self_s`` is its self
    time, i.e. what the replay loop spends outside the wrapped policy,
    driver, memory and TLB methods.  A layer the batch kernel inlines
    reads 0 calls.
    """
    def span(name: str) -> Mapping[str, float]:
        return totals.get(name, _NO_SPANS)

    out: dict[str, float] = {
        "workloads.build_s": span("workloads.build")["self_s"]
        + span("workloads.load_or_build_trace")["self_s"],
        "workloads.build_calls": span("workloads.build")["calls"],
        "runner.self_s": span("runner.run_matrix")["self_s"],
        "sim.run_s": span("sim.run")["total_s"],
        "sim.replay_self_s": span("sim.run")["self_s"],
    }
    for name, (seconds, calls) in SPAN_METRICS.items():
        out[seconds] = span(name)["self_s"]
        out[calls] = span(name)["calls"]
    for method in POLICY_METHODS:
        out[f"policy.{method}_s"] = 0.0
        out[f"policy.{method}_calls"] = 0
    for policy in policy_names:
        out[f"policy.{policy}.self_s"] = 0.0
        for method in POLICY_METHODS:
            timing = span(f"policy.{policy}.{method}")
            out[f"policy.{method}_s"] += timing["self_s"]
            out[f"policy.{method}_calls"] += timing["calls"]
            out[f"policy.{policy}.self_s"] += timing["self_s"]
    return {name: value / passes for name, value in out.items()}


def self_by_layer(totals: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Summed self time per layer (the span name's first component)."""
    layers: dict[str, float] = {}
    for name, timing in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + timing["self_s"]
    return layers


def format_value(value: float) -> str:
    """A compact rendering for the printed tables."""
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"

