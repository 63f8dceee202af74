"""Tests of the benchmark's own logic: self time, summaries, the digest
gate, the paper-fidelity error and tracing transparency.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench.metrics import (
    digest_gate,
    layer_metrics,
    paper_speedup_err,
    pass_estimate,
    summarize,
    weighted_mean,
)
from perfbench.tracer import (
    SpanRecorder,
    defined_methods,
    self_times,
    totals_by_name,
)


def _self(spans):
    start, end, parent = (np.array(column) for column in zip(*spans))
    return self_times(start, end, parent).tolist()


class TestSelfTime:
    def test_nested_children(self):
        # parent > child > grandchild: each level loses only its direct
        # children's time.
        assert _self([(0, 100, -1), (10, 50, 0), (20, 30, 1)]) == [60, 30, 10]

    def test_overlapping_children_count_once(self):
        # Children [10, 40] and [30, 60] cover [10, 60]: 50, not 60.
        assert _self([(0, 100, -1), (10, 40, 0), (30, 60, 0)]) == [50, 30, 30]

    def test_disjoint_and_contained_children(self):
        spans = [(0, 100, -1), (10, 20, 0), (30, 70, 0), (40, 50, 0)]
        assert _self(spans)[0] == 100 - 10 - 40

    def test_child_outside_parent_is_clipped(self):
        assert _self([(10, 50, -1), (0, 20, 0), (40, 90, 0)])[0] == 20

    def test_union_does_not_carry_across_parents(self):
        # Two roots over the same interval; a long child of the first
        # must not shadow the second root's short child.
        spans = [(0, 100, -1), (0, 100, -1), (50, 100, 0), (0, 10, 1)]
        assert _self(spans)[:2] == [50, 90]


class TestRecorder:
    def test_spans_nest_and_aggregate(self):
        recorder = SpanRecorder()

        def leaf(x):
            return x + 1

        wrapped_leaf = recorder.wrap(leaf, "layer.leaf")

        def outer(n):
            return sum(wrapped_leaf(i) for i in range(n))

        wrapped_outer = recorder.wrap(outer, "layer.outer")
        assert wrapped_outer(3) == 6
        spans = recorder.arrays()
        assert spans["parent"].tolist() == [-1, 0, 0, 0]
        totals = totals_by_name(recorder)
        assert totals["layer.leaf"]["calls"] == 3
        assert totals["layer.outer"]["calls"] == 1
        outer_total = totals["layer.outer"]["total_s"]
        summed = sum(t["self_s"] for t in totals.values())
        assert math.isclose(summed, outer_total, rel_tol=1e-9, abs_tol=1e-12)

    def test_cell_id_follows_digest_argument(self):
        recorder = SpanRecorder()
        get = recorder.wrap(lambda digest: digest, "cache.get",
                            lambda args, kwargs: args[0])
        work = recorder.wrap(lambda: None, "sim.run")
        get("abc")
        work()
        assert [recorder.cells[c] for c in recorder.arrays()["cell"]] == [
            "abc", "abc"]

    def test_install_restores_and_skips_inherited(self):
        class Base:
            def hook(self):
                return "base"

            def other(self):
                return "other"

        class Child(Base):
            def hook(self):
                return "child"

        assert defined_methods(Child, ("hook", "other")) == ["hook"]
        original = vars(Child)["hook"]
        recorder = SpanRecorder()
        recorder.install(Child, "hook", "policy.child.hook")
        assert Child().hook() == "child"
        assert Child.other is Base.other
        recorder.uninstall()
        assert vars(Child)["hook"] is original
        assert len(recorder) == 1


class TestSummaries:
    def test_median_carries_sample_count(self):
        summary = summarize([3.0, 1.0, 2.0, 10.0, 4.0])
        assert summary["median"] == 3.0
        assert summary["n"] == 5
        assert summary["q1"] <= summary["median"] <= summary["q3"]

    def test_single_sample(self):
        assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}

    def test_pass_estimate_takes_medians_per_cell(self):
        # A slow spell hits cell "a" in pass 1 and cell "b" in pass 2:
        # every whole pass is slow, but each cell's median is not.
        passes = [
            {"wall_s": 5.5, "cell_s": {"a": 4.0, "b": 1.0}},
            {"wall_s": 3.5, "cell_s": {"a": 1.0, "b": 2.0}},
            {"wall_s": 2.5, "cell_s": {"a": 1.0, "b": 1.0}},
        ]
        estimate = pass_estimate(passes)
        assert estimate == {"estimate": 2.5, "n": 3, "cells": 2}

    def test_pass_estimate_without_cells_is_the_median_pass(self):
        passes = [{"wall_s": w, "cell_s": {}} for w in (0.3, 0.1, 0.2, 0.9)]
        assert pass_estimate(passes) == {"estimate": 0.25, "n": 4, "cells": 0}

    def test_pass_estimate_rejects_mismatched_cells(self):
        with pytest.raises(ValueError):
            pass_estimate([{"wall_s": 1.0, "cell_s": {"a": 0.5}},
                           {"wall_s": 1.0, "cell_s": {"b": 0.5}}])

    def test_weighted_mean_weights_by_passes(self):
        rows = [{"a": 1.0, "b": 10.0}, {"a": 4.0, "b": 40.0}]
        assert weighted_mean(rows, [2, 1]) == {"a": 2.0, "b": 20.0}
        with pytest.raises(ValueError):
            weighted_mean([{"a": 1.0}, {"b": 1.0}], [1, 1])

    def test_layer_metrics_are_per_pass(self):
        totals = {
            "sim.run": {"calls": 4, "self_s": 2.0, "total_s": 6.0},
            "policy.lru.select_victim": {"calls": 10, "self_s": 1.0,
                                         "total_s": 1.0},
            "policy.hpe.select_victim": {"calls": 6, "self_s": 3.0,
                                         "total_s": 3.0},
        }
        layers = layer_metrics(totals, 2, ["lru", "hpe"])
        assert layers["sim.run_s"] == 3.0
        assert layers["sim.replay_self_s"] == 1.0
        assert layers["policy.select_victim_calls"] == 8
        assert layers["policy.select_victim_s"] == 2.0
        assert layers["policy.hpe.self_s"] == 1.5
        assert layers["driver.service_fault_calls"] == 0


class TestDigestGate:
    REFERENCE = {"BFS|lru|0.75": "aa", "BFS|hpe|0.75": "bb"}

    def test_matching_cells_pass(self):
        assert digest_gate(dict(self.REFERENCE), {}, self.REFERENCE) == []

    def test_tampered_digest_fails(self):
        observed = {"BFS|lru|0.75": "aa", "BFS|hpe|0.75": "b0"}
        assert digest_gate(observed, {}, self.REFERENCE) == [
            ("BFS|hpe|0.75", "digest mismatch")]

    def test_failure_record_and_missing_cell_fail(self):
        bad = digest_gate({}, {"BFS|lru|0.75": "JobTimeout"}, self.REFERENCE)
        assert bad == [("BFS|hpe|0.75", "missing"),
                       ("BFS|lru|0.75", "failed (JobTimeout)")]


def _worker_report(digests, setup_s, wall_s):
    return {
        "pinned": False, "cells": len(digests), "faults": 1000,
        "tiers": [2], "python": "3", "numpy": "2", "paper_speedup_err": 0.1,
        "geomean_speedup": {}, "attempted": len(digests), "failed": 0,
        "failed_cells": [], "spot_cells": [], "digests": digests,
        "setup_s": setup_s, "peak_rss_mb": 90.0 + setup_s,
        "passes": [{"wall_s": w, "cell_s": {}} for w in wall_s],
    }


class TestCombine:
    def test_medians_span_every_worker(self):
        from perfbench.run import combine

        digests = {"BFS|lru|0.75": "aa"}
        report = combine([
            _worker_report(digests, 1.0, [0.1, 0.2]),
            _worker_report(digests, 3.0, [0.3]),
            _worker_report(digests, 2.0, [0.4, 0.5]),
        ])
        assert report["failed"] == 0
        assert report["setup"] == [1.0, 3.0, 2.0]
        assert report["peak_rss_mb"] == 93.0
        wall = report["end_to_end"]["wall_s"]
        assert (wall["estimate"], wall["n"]) == (0.3, 5)
        assert report["end_to_end"]["host_us_per_fault"] == pytest.approx(300)

    def test_digest_differing_between_workers_fails(self):
        from perfbench.run import combine

        report = combine([
            _worker_report({"BFS|lru|0.75": "aa"}, 1.0, [0.1]),
            _worker_report({"BFS|lru|0.75": "a0"}, 1.0, [0.1]),
        ])
        assert report["attempted"] == 3
        assert report["failed"] == 1
        assert report["failed_cells"] == [
            ("BFS|lru|0.75", "digest mismatch between workers")]


def _result(app, policy, cycles):
    from repro.sim.results import SimulationResult
    from repro.uvm.driver import DriverStats

    return SimulationResult(
        policy_name=policy, workload_name=app, capacity_pages=1,
        footprint_pages=1, trace_length=1, cycles=cycles,
        instructions=1000, driver=DriverStats(),
    )


def test_paper_speedup_err_on_hand_built_matrix():
    from repro.experiments.runner import ResultMatrix, RunKey, geometric_mean

    matrix = ResultMatrix()
    # 75%: both apps exactly at the paper's 1.34x -> zero error.
    # 50%: speedups 1.0x and 1.21x -> geomean 1.1x vs the paper's 1.16x.
    for app, hpe_75, hpe_50 in (("AAA", 100, 100), ("BBB", 100, 1000 / 12.1)):
        matrix.put(RunKey(app, "lru", 0.75), _result(app, "lru", 134))
        matrix.put(RunKey(app, "hpe", 0.75), _result(app, "hpe", hpe_75))
        matrix.put(RunKey(app, "lru", 0.5), _result(app, "lru", 100))
        matrix.put(RunKey(app, "hpe", 0.5), _result(app, "hpe", hpe_50))
    err, geomeans = paper_speedup_err(matrix, geometric_mean)
    assert geomeans[0.75] == pytest.approx(1.34)
    assert geomeans[0.5] == pytest.approx(1.1)
    assert err == pytest.approx((0 + 0.06 / 1.16) / 2)


def test_tracing_keeps_digest_and_tier():
    """Wrapping every layer must not flip the batch kernel's dispatch."""
    from repro.experiments import runner
    from repro.scenarios.spec import ScenarioSpec

    from perfbench.worker import layer_targets

    def run(policy):
        spec = ScenarioSpec(workload="STN", policy=policy, rate=0.75,
                            scale=0.25)
        result = runner.run_spec(spec, use_cache=False)
        return result.metrics_digest(), result.extras["fastpath"]["executed"]

    policies = ("lru", "hpe", "arc", "ideal")
    plain = [run(policy) for policy in policies]
    recorder = SpanRecorder()
    for owner, attribute, name, cell_from in layer_targets():
        recorder.install(owner, attribute, name, cell_from)
    try:
        traced = [run(policy) for policy in policies]
    finally:
        recorder.uninstall()
    assert traced == plain
    names = set(totals_by_name(recorder))
    assert {"sim.run", "policy.hpe.on_page_in", "policy.arc.on_fault_pending",
            "driver.service_fault"} <= names
