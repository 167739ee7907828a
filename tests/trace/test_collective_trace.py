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
    "ring": "63c4086c52854acf1a7bf9e4aa6daecb3d69b1bda7fa957f2667fe9b5beaa18a",
    "hierarchical": "c4dc9333367d2cae6c55041056306e2db35cf8f60997593ad7c44f1cd12028ff",
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
