"""Pinned Chrome traces of fault-free collective runs.

A traced ring run and a traced hierarchical run (groups of 2) on the tiny
model export byte-stable Chrome trace JSON.  Their SHA-256 digests are
pinned here, so any change to the per-link transfer spans, the link
utilization counters, or the ``comm`` spans of the collective tier (event
order, timestamps, arguments) shows up as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster.trainer import run_training
from repro.runner.registry import build_factory
from repro.trace import chrome_trace_dict

#: Digests of :func:`trace_digest` for each collective shape.
PINNED = {
    "ring": "c715f6edf553c8965c33616d80d479169645c51917c3249f4d04b853755ba1da",
    "hierarchical": "8ddf1f4e555d3df8da025d78975c692bf53cf4b42b212cdc4b186485005d7715",
}


def trace_digest(config) -> str:
    """SHA-256 of the traced run's Chrome trace JSON (sorted keys)."""
    result = run_training(replace(config, trace=True), build_factory("prophet"))
    payload = json.dumps(chrome_trace_dict(result.trace), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def collective_config(tiny_config, collective: str):
    return replace(
        tiny_config,
        n_workers=4,
        backend="allreduce",
        collective=collective,
        collective_group_size=2,
    )


@pytest.mark.parametrize("collective", sorted(PINNED))
def test_collective_trace_is_pinned(tiny_config, collective):
    config = collective_config(tiny_config, collective)
    assert trace_digest(config) == PINNED[collective]
