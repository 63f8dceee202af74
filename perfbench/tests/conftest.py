"""Make the checkout's ``src/`` and the benchmark package importable, and
keep the program's cache inside a throwaway directory."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache(tmp_path_factory):
    from repro.sim import cache

    cache.configure(directory=tmp_path_factory.mktemp("repro-cache"))
    yield
