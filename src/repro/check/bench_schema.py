"""Schema validation for ``BENCH_matrix.json`` (no jsonschema dep).

CI's ``matrix-smoke`` job runs ``bench_matrix_wallclock`` and then
validates the artifact with :func:`validate_bench_matrix` so a drive-by
edit cannot silently drop a metric the dashboards read.  Mirrors
:mod:`repro.serve.bench_schema` (the ``BENCH_service.json`` checker):
a small hand-rolled walker over required keys, types, and bounds.

The ``fastpath`` section must carry the v1-vs-v3 comparison (v3 is the
relaxed tier, DESIGN §13), and ``v3_over_v1_speedup`` must be
consistent with the recorded seconds, so a stale hand-edit of one field
is caught.
"""

from __future__ import annotations

from typing import Mapping, Optional

#: Required numeric fields of the top-level (cold vs. warm) record and
#: their inclusive lower bounds.
_TOP_NUMERIC_FIELDS: dict[str, float] = {
    "scale": 0.01,
    "jobs": 1,
    "cold_seconds": 0,
    "warm_seconds": 0,
    "warm_speedup": 0,
}

#: Required numeric fields of the nested ``fastpath`` record.
_FASTPATH_NUMERIC_FIELDS: dict[str, float] = {
    "scale": 0.01,
    "jobs": 1,
    "v1_serial_seconds": 0,
    "v3_seconds": 0,
    "v3_over_v1_speedup": 0,
}

#: Required non-empty list-of-X fields of both records.
_LIST_FIELDS: dict[str, type] = {
    "apps": str,
    "policies": str,
    "rates": float,
}

#: Recorded speedups are rounded to 2 decimals and the seconds to 4, so
#: a recomputed ratio can differ slightly; anything past this slack is
#: a hand-edit or a partial re-record.
_SPEEDUP_SLACK = 0.05

#: (speedup field, numerator field, denominator field) consistency
#: triples inside the ``fastpath`` record.
_SPEEDUP_TRIPLES = (
    # v3 is benched against its own serial baseline (per-spec loops,
    # not the matrix engine), recorded as v1_serial_seconds.
    ("v3_over_v1_speedup", "v1_serial_seconds", "v3_seconds"),
)


def _number(value: object) -> Optional[float]:
    """The value as a float, or ``None`` when it is not a real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _check_record(
    record: Mapping[str, object],
    numeric_fields: Mapping[str, float],
    prefix: str,
) -> list[str]:
    """Violations of one record's numeric and list field requirements."""
    problems: list[str] = []
    for name, lower in numeric_fields.items():
        value = _number(record.get(name))
        if value is None:
            problems.append(
                f"{prefix}{name}: expected a number, got "
                f"{record.get(name)!r}"
            )
        elif value < lower:
            problems.append(
                f"{prefix}{name}: {value} below lower bound {lower}"
            )
    for name, element_type in _LIST_FIELDS.items():
        value = record.get(name)
        if not isinstance(value, list) or not value:
            problems.append(f"{prefix}{name}: expected a non-empty list")
            continue
        for element in value:
            ok = (
                isinstance(element, (int, float))
                and not isinstance(element, bool)
                if element_type is float
                else isinstance(element, element_type)
            )
            if not ok:
                problems.append(
                    f"{prefix}{name}: element {element!r} is not "
                    f"{element_type.__name__}"
                )
                break
    return problems


def validate_bench_matrix(data: object) -> list[str]:
    """Every schema violation in ``data`` (empty list == valid).

    Expected shape::

        {"apps": [...], "policies": [...], "rates": [...],
         "scale": x, "jobs": N,
         "cold_seconds": x, "warm_seconds": x, "warm_speedup": x,
         "fastpath": {
             "apps": [...], "policies": [...], "rates": [...],
             "scale": x, "jobs": N,
             "v1_serial_seconds": x, "v3_seconds": x,
             "v3_over_v1_speedup": x,
         }}
    """
    if not isinstance(data, Mapping):
        return [f"top level must be an object, got {type(data).__name__}"]
    problems = _check_record(data, _TOP_NUMERIC_FIELDS, "")
    fastpath = data.get("fastpath")
    if not isinstance(fastpath, Mapping):
        problems.append("missing or non-object 'fastpath' section")
        return problems
    problems.extend(
        _check_record(fastpath, _FASTPATH_NUMERIC_FIELDS, "fastpath.")
    )
    for speedup_field, numerator_field, denominator_field in _SPEEDUP_TRIPLES:
        speedup = _number(fastpath.get(speedup_field))
        numerator = _number(fastpath.get(numerator_field))
        denominator = _number(fastpath.get(denominator_field))
        if (
            speedup is None or numerator is None or denominator is None
            or denominator <= 0
        ):
            continue  # the field checks above already reported these
        if abs(speedup - numerator / denominator) > _SPEEDUP_SLACK:
            problems.append(
                f"fastpath.{speedup_field}: {speedup} inconsistent with "
                f"{numerator_field}/{denominator_field} = "
                f"{numerator / denominator:.4f} — partial re-record or "
                f"hand edit"
            )
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    """CLI shim: ``python -m repro.check.bench_schema BENCH_matrix.json``."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="validate a BENCH_matrix.json artifact"
    )
    parser.add_argument("path", help="path to BENCH_matrix.json")
    options = parser.parse_args(argv)
    try:
        with open(options.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable artifact: {exc}", file=sys.stderr)
        return 2
    problems = validate_bench_matrix(data)
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    if not problems:
        print(f"{options.path}: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
