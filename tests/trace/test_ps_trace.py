"""Pinned Chrome traces of parameter-server runs.

Traced runs of resnet18 (batch 16, 2 workers, 6 iterations, 2 Gbps) for
Prophet and ByteScheduler export byte-stable Chrome trace JSON on four PS
shapes: the star, the full-duplex star, a 2-server sharded tier, and that
tier under the chaos plan (crash, restart, link flap, drops on every
delivery leg, PS stall).  Their SHA-256 digests are pinned here, next to
the collective pins of ``test_collective_trace.py``, so any change to the
worker, port or PS event sequence (order, timestamps, arguments, track
names) shows up as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster.trainer import run_training
from repro.experiments.chaos import default_plan
from repro.quantities import Gbps
from repro.runner.registry import build_factory
from repro.trace import chrome_trace_dict
from repro.workloads.presets import paper_config

SHAPES = {
    "star": {},
    "duplex": {"duplex": True},
    "sharded": {"n_servers": 2},
    "sharded-chaos": {
        "n_servers": 2,
        "faults": default_plan(crash_at=0.8, restart_after=0.3, drop=0.03),
    },
}

#: Digests of :func:`trace_digest` per (strategy, shape).
PINNED = {
    ("bytescheduler", "duplex"): "c0750c7e3bce3eb161d9e7a475bb6fe5fa974f5ba4e1c037615cca9dbdb23336",
    ("bytescheduler", "sharded"): "516f7a56fa81fc6528e578506b8eeec7456215a6e66d1e45b244de32500aae64",
    ("bytescheduler", "sharded-chaos"): "e8a864087d1f791e7d7bfc4abe13c4bb2515512d1b9e305379519e5eec4eae7f",
    ("bytescheduler", "star"): "27df13f7ecafb485111fc8e6ab84a67baf109819179fe9e0b74869cdc9230461",
    ("prophet", "duplex"): "2a9afe96c80419cad5f3f988406d6da8fd681d51a265f28cfae459d0b296e7d0",
    ("prophet", "sharded"): "27cb9279cd03e37ca3fb3f75a41e0a144ba4501dc2715577b4c50a63076b928b",
    ("prophet", "sharded-chaos"): "108d8cbe4f78c7c52803ae1da1d031426c4aeedac0471afdc443ac2af53b7068",
    ("prophet", "star"): "511da160695ecdcfb104b109f772aa9bd280f17726a16f29c8082f79765c0f49",
}


def trace_digest(strategy: str, shape: str) -> str:
    """SHA-256 of the traced run's Chrome trace JSON (sorted keys)."""
    config = paper_config(
        "resnet18",
        16,
        bandwidth=2 * Gbps,
        n_workers=2,
        n_iterations=6,
        trace=True,
        **SHAPES[shape],
    )
    result = run_training(config, build_factory(strategy))
    payload = json.dumps(chrome_trace_dict(result.trace), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("strategy,shape", sorted(PINNED))
def test_ps_trace_is_pinned(strategy, shape):
    assert trace_digest(strategy, shape) == PINNED[strategy, shape]
