"""Shared helpers for the micro-benchmark harnesses.

The ``bench_*.py`` modules here time the engine, the tracing layer and the
per-message hot paths under ``pytest-benchmark``; ``ci_smoke.py`` gates
deterministic scalars and timing floors.  The paper's figure and table
claims are checked by ``tests/claims/test_paper_claims.py`` instead.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def show(capfd):
    """Print ``text`` to the real terminal, outside pytest capture."""

    def _show(text: str) -> None:
        with capfd.disabled():
            print()
            print(text)

    return _show
