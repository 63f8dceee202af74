"""Fault-path behaviour fingerprints and the pinned closure manifest (REP009).

The cached-result story rests on an unwritten contract: *the code the
cache fingerprint does not capture must not change behaviour without a
``CACHE_SCHEMA_VERSION`` bump*.  This module makes that contract a
machine-checked gate:

1. compute the transitive call-graph closure from the simulation entry
   points (``sim.engine``, ``policies.*``, ``tlb.*``,
   ``uvm.*``, ``workloads.*``);
2. hash every closure function's *normalized* AST (docstrings stripped,
   positions ignored — comments and formatting never churn the digest),
   plus per-module ``__constants__`` and per-class ``__classvars__``
   pseudo-nodes so module-level tuning constants and dataclass defaults
   are fingerprinted too;
3. compare against the checked-in manifest
   (``src/repro/check/flow/flow_manifest.json``).

``hpe-repro flow staleness`` fails when the closure changed without a
schema bump *and* a deliberate re-pin (``hpe-repro flow pin``) — the
manifest diff is the reviewable artefact, exactly like the golden
snapshots and the scenario-digest manifest.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.check.flow.callgraph import CallGraph, module_closure
from repro.check.flow.model import (
    DEFAULT_FLOW_CONFIG,
    FlowConfig,
    Program,
    load_program,
)

#: Hex characters kept per function fingerprint (64 bits — ample for a
#: few hundred closure functions).
FINGERPRINT_HEX = 16


def _strip_docstrings(node: ast.AST) -> None:
    """Remove docstring statements, in place, at every nesting level."""
    for child in ast.walk(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module),
        ) and child.body:
            first = child.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                child.body = child.body[1:] or [
                    ast.Pass(lineno=first.lineno, col_offset=0)
                ]


def normalized_hash(node: ast.AST) -> str:
    """Position-free, docstring-free digest of one AST subtree."""
    clone = copy.deepcopy(node)
    _strip_docstrings(clone)
    blob = ast.dump(clone, include_attributes=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:FINGERPRINT_HEX]


def _stmts_hash(stmts: list[ast.stmt]) -> str:
    module = ast.Module(body=list(stmts), type_ignores=[])
    return normalized_hash(module)


@dataclass
class FlowAnalysis:
    """One computed fault-path closure over one program."""

    program: Program
    config: FlowConfig
    closure: set[str]
    graph: CallGraph
    allowed_modules: set[str]


def analyze(
    package_root: Optional[Union[str, Path]] = None,
    config: FlowConfig = DEFAULT_FLOW_CONFIG,
    program: Optional[Program] = None,
) -> FlowAnalysis:
    """Load the program and compute the fault-path closure."""
    if program is None:
        root = (
            Path(package_root) if package_root is not None
            else default_package_root()
        )
        program = load_program(root, config.package)
    closure, graph, allowed = module_closure(
        program, config.entry_modules, config.closure_exclude
    )
    return FlowAnalysis(program, config, closure, graph, allowed)


def closure_fingerprints(analysis: FlowAnalysis) -> dict[str, str]:
    """qualname -> behaviour hash for every closure node.

    Besides the functions themselves, each contributing module gets a
    ``<module>.__constants__`` node (its top-level assignments: tuning
    constants change behaviour without touching any function body) and
    each class with closure methods a ``<Class>.__classvars__`` node
    (dataclass field defaults).
    """
    program = analysis.program
    out: dict[str, str] = {}
    touched_modules: set[str] = set()
    touched_classes: set[str] = set()
    for qualname in sorted(analysis.closure):
        func = program.functions[qualname]
        out[qualname] = normalized_hash(func.node)
        touched_modules.add(func.module)
        if func.owner is not None:
            touched_classes.add(func.owner)
    for module_name in sorted(touched_modules):
        module = program.modules[module_name]
        if module.module_var_stmts:
            out[f"{module_name}.__constants__"] = _stmts_hash(
                module.module_var_stmts
            )
    for class_name in sorted(touched_classes):
        info = program.classes[class_name]
        if info.class_var_stmts:
            out[f"{class_name}.__classvars__"] = _stmts_hash(
                info.class_var_stmts
            )
    return out


def closure_digest(fingerprints: dict[str, str]) -> str:
    """One digest over the whole closure (order-independent)."""
    blob = "\n".join(
        f"{name}={digest}" for name, digest in sorted(fingerprints.items())
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_schema_version(
    package_root: Path, config: FlowConfig = DEFAULT_FLOW_CONFIG
) -> Optional[int]:
    """The package's ``CACHE_SCHEMA_VERSION``, read without importing."""
    from repro.check.lint import _read_schema_version

    schema_file = package_root / config.schema_file
    if not schema_file.exists():
        return None
    return _read_schema_version(schema_file)


@dataclass
class FlowManifest:
    """The pinned (or freshly computed) closure state."""

    cache_schema_version: Optional[int]
    closure_digest: str
    functions: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "flow_manifest_version": 1,
                "cache_schema_version": self.cache_schema_version,
                "closure_digest": self.closure_digest,
                "functions": dict(sorted(self.functions.items())),
            },
            indent=1,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FlowManifest":
        data = json.loads(text)
        return cls(
            cache_schema_version=data.get("cache_schema_version"),
            closure_digest=data["closure_digest"],
            functions=dict(data.get("functions", {})),
        )


def default_package_root() -> Path:
    """``src/repro`` as installed — two levels above this package."""
    return Path(__file__).resolve().parents[2]


def default_manifest_path() -> Path:
    """The checked-in manifest next to this module."""
    return Path(__file__).resolve().parent / "flow_manifest.json"


def compute_manifest(analysis: FlowAnalysis) -> FlowManifest:
    """The manifest the current tree would pin."""
    fingerprints = closure_fingerprints(analysis)
    return FlowManifest(
        cache_schema_version=read_schema_version(
            analysis.program.root, analysis.config
        ),
        closure_digest=closure_digest(fingerprints),
        functions=fingerprints,
    )


def load_manifest(path: Optional[Path] = None) -> Optional[FlowManifest]:
    """The pinned manifest, or ``None`` when never pinned."""
    manifest_path = path or default_manifest_path()
    if not manifest_path.exists():
        return None
    return FlowManifest.from_json(
        manifest_path.read_text(encoding="utf-8")
    )


def pin_manifest(
    analysis: FlowAnalysis, path: Optional[Path] = None
) -> FlowManifest:
    """Write the current closure state as the new pinned manifest."""
    manifest = compute_manifest(analysis)
    manifest_path = path or default_manifest_path()
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    return manifest


@dataclass
class StalenessReport:
    """Outcome of comparing the live closure against the pin."""

    ok: bool
    current: FlowManifest
    pinned: Optional[FlowManifest]
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    changed: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        """Human-readable report (CLI / CI output)."""
        if self.pinned is None:
            return [
                "no flow manifest pinned — run `hpe-repro flow pin` and "
                "commit src/repro/check/flow/flow_manifest.json",
            ]
        if self.ok:
            return [
                f"flow: closure matches the pinned manifest "
                f"({len(self.current.functions)} fingerprints, "
                f"schema v{self.current.cache_schema_version})",
            ]
        out = [
            "flow: REP009 — the fault-path closure changed since the "
            "manifest was pinned:",
        ]
        for name in self.changed:
            out.append(f"  changed  {name}")
        for name in self.added:
            out.append(f"  added    {name}")
        for name in self.removed:
            out.append(f"  removed  {name}")
        current_v = self.current.cache_schema_version
        pinned_v = self.pinned.cache_schema_version
        if current_v == pinned_v:
            out.append(
                f"cache schema is still v{current_v}: if these edits "
                "change any simulated metric, bump CACHE_SCHEMA_VERSION "
                "in repro/sim/cache.py first (stale cache entries and "
                "golden snapshots otherwise survive the edit); then "
                "re-pin with `hpe-repro flow pin`"
            )
        else:
            out.append(
                f"cache schema moved v{pinned_v} -> v{current_v}: "
                "re-pin with `hpe-repro flow pin` and commit the "
                "manifest diff"
            )
        return out


def check_staleness(
    analysis: FlowAnalysis, manifest_path: Optional[Path] = None
) -> StalenessReport:
    """REP009: does the live closure match the pinned manifest?"""
    current = compute_manifest(analysis)
    pinned = load_manifest(manifest_path)
    if pinned is None:
        return StalenessReport(ok=False, current=current, pinned=None)
    current_names = set(current.functions)
    pinned_names = set(pinned.functions)
    added = sorted(current_names - pinned_names)
    removed = sorted(pinned_names - current_names)
    changed = sorted(
        name
        for name in current_names & pinned_names
        if current.functions[name] != pinned.functions[name]
    )
    ok = (
        not added
        and not removed
        and not changed
        and current.cache_schema_version == pinned.cache_schema_version
    )
    return StalenessReport(
        ok=ok,
        current=current,
        pinned=pinned,
        added=added,
        removed=removed,
        changed=changed,
    )
