"""Golden key-metrics snapshots: what the (agreeing) tiers agree on.

The differential matrix proves tier equality; these snapshots pin the
absolute numbers so a lockstep semantic regression — all three tiers
drifting together — still fails.  Regenerate after an intentional
change with ``hpe-repro golden --update`` and review the JSON diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.check import golden
from repro.check.difftraces import GENERATORS

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_snapshot_files_are_checked_in() -> None:
    for kind in GENERATORS:
        path = GOLDEN_DIR / f"{kind}.json"
        assert path.is_file(), (
            f"missing golden snapshot {path}; generate with: "
            "hpe-repro golden --update"
        )


def test_default_dir_resolves_to_checked_in_snapshots() -> None:
    assert golden.default_golden_dir() == GOLDEN_DIR


def test_current_simulator_matches_snapshots() -> None:
    problems = golden.check_golden(GOLDEN_DIR)
    assert not problems, "\n".join(problems)


def test_snapshots_cover_every_policy_and_rate() -> None:
    from repro.experiments.runner import POLICY_NAMES

    for kind in GENERATORS:
        with open(GOLDEN_DIR / f"{kind}.json", encoding="ascii") as stream:
            snapshot = json.load(stream)
        assert snapshot["seed"] == golden.GOLDEN_SEED
        assert snapshot["length"] == golden.GOLDEN_LENGTH
        expected_keys = {
            f"{policy}@{rate}"
            for policy in POLICY_NAMES
            for rate in golden.GOLDEN_RATES
        }
        assert set(snapshot["entries"]) == expected_keys


def test_tampered_snapshot_is_detected(tmp_path) -> None:
    """A single perturbed counter in one entry must be reported."""
    (written,) = golden.write_golden(tmp_path, kinds=["phased"])
    snapshot = json.loads(written.read_text(encoding="ascii"))
    entry = snapshot["entries"]["lru@0.75"]
    entry["driver"]["evictions"] += 1
    written.write_text(json.dumps(snapshot), encoding="ascii")
    problems = golden.check_golden(tmp_path, kinds=["phased"])
    assert any("lru@0.75" in problem and "driver" in problem
               for problem in problems), problems


def test_missing_snapshot_is_reported(tmp_path) -> None:
    problems = golden.check_golden(tmp_path, kinds=["adversarial"])
    assert any("missing snapshot" in problem for problem in problems)


# -- byte-identity across the SoA refactor --------------------------------


def test_exact_goldens_byte_identical_to_manifest() -> None:
    """The exact snapshot *bytes* are pinned, not just their meaning.

    ``MANIFEST.sha256`` was recorded before the struct-of-arrays core
    landed; tiers 0-2 must stay bit-identical through it, so the exact
    golden files must never change — not even re-serialisation.  The
    relaxed tier writes its own ``golden_trends`` snapshots instead.
    """
    import hashlib

    manifest = GOLDEN_DIR / "MANIFEST.sha256"
    assert manifest.is_file(), "byte-identity manifest is checked in"
    entries = {}
    for line in manifest.read_text(encoding="ascii").splitlines():
        digest, name = line.split()
        entries[name.lstrip("*")] = digest
    assert set(entries) == {f"{kind}.json" for kind in GENERATORS}
    for name, expected in sorted(entries.items()):
        actual = hashlib.sha256(
            (GOLDEN_DIR / name).read_bytes()
        ).hexdigest()
        assert actual == expected, (
            f"{name} changed since the manifest was recorded — tiers 0-2 "
            "are contractually bit-identical across the SoA refactor; if "
            "this change is an intentional semantic change, regenerate "
            "both the snapshot and MANIFEST.sha256 and say why in the PR"
        )


# -- relaxed-tier trend snapshots -----------------------------------------

TREND_DIR = Path(__file__).parent / "golden_trends"


def test_trend_snapshot_files_are_checked_in() -> None:
    for kind in golden.trend_kinds():
        path = TREND_DIR / f"{kind}.json"
        assert path.is_file(), (
            f"missing trend snapshot {path}; generate with: "
            "hpe-repro golden --update"
        )


def test_trend_kinds_cover_paper_apps() -> None:
    kinds = golden.trend_kinds()
    assert set(GENERATORS) <= set(kinds)
    for app in golden.TREND_PAPER_APPS:
        assert f"paper-{app}" in kinds


def test_current_kernel_matches_trend_snapshots() -> None:
    problems = golden.check_golden_trends(TREND_DIR)
    assert not problems, "\n".join(problems)


def test_trend_gate_is_not_vacuous() -> None:
    """At least one committed trend cell is decisive, and all hold.

    If no cell were decisive the trend gate would pass on any kernel,
    including one that inverts every policy ordering.
    """
    decisive = 0
    for kind in golden.trend_kinds():
        with open(TREND_DIR / f"{kind}.json", encoding="ascii") as stream:
            snapshot = json.load(stream)
        for key, cell in snapshot["trends"].items():
            assert cell["holds"], (kind, key, cell)
            decisive += bool(cell["decisive"])
    assert decisive > 0, "no decisive trend cells — the gate is vacuous"


def test_trend_spec_digests_carry_the_relaxed_tier() -> None:
    """Trend cells hash differently from their exact counterparts."""
    exact = golden.golden_spec("phased", "hpe", 0.75)
    relaxed = golden.golden_trend_spec("phased", "hpe", 0.75)
    assert relaxed.fastpath == golden.TREND_LEVEL
    assert exact.digest() != relaxed.digest()
    paper = golden.golden_trend_spec("paper-BFS", "hpe", 0.75)
    assert paper.family == "paper"
    assert paper.workload == "BFS"
    assert paper.fastpath == golden.TREND_LEVEL


def test_tampered_trend_reference_is_detected(tmp_path) -> None:
    """A perturbed bit-exact reference value must be reported."""
    (written,) = golden.write_golden_trends(tmp_path, kinds=["phased"])
    snapshot = json.loads(written.read_text(encoding="ascii"))
    key = sorted(snapshot["trends"])[0]
    better = sorted(snapshot["trends"][key]["reference"])[0]
    snapshot["trends"][key]["reference"][better] += 1
    written.write_text(json.dumps(snapshot), encoding="ascii")
    problems = golden.check_golden_trends(tmp_path, kinds=["phased"])
    assert any("reference values moved" in problem
               for problem in problems), problems


def test_committed_broken_trend_is_detected(tmp_path) -> None:
    """A snapshot recording holds=false must be rejected outright."""
    (written,) = golden.write_golden_trends(tmp_path, kinds=["strided"])
    snapshot = json.loads(written.read_text(encoding="ascii"))
    key = sorted(snapshot["trends"])[0]
    snapshot["trends"][key]["holds"] = False
    written.write_text(json.dumps(snapshot), encoding="ascii")
    problems = golden.check_golden_trends(tmp_path, kinds=["strided"])
    assert any("holds=false" in problem for problem in problems), problems
