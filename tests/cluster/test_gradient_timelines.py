"""Pinned per-gradient timelines.

Runs of resnet18 (batch 16, 4 workers, 4 iterations, seed 1) for Prophet
and P3 on six shapes: the star, the full-duplex star, a 2-server sharded
tier, the ring, the hierarchical allreduce (groups of 2) and the sharded
tier under the chaos plan, plus MXNet FIFO on the star (the FIFO port's
arbitration between pulls and pushes).  The SHA-256 of every worker's
``gradient_records()`` (each record's ``repr``, so every field to the
last bit) is pinned here, so any change to when a gradient's ``ready``,
``push_start``, ``push_end`` or ``pull_end`` mark is written, or to which
(worker, iteration, grad) rows exist, shows up as a digest mismatch.

A run with ``record_gradients=False`` must simulate the same thing: the
same end time, training rate and iteration rows, and no gradient records.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.trainer import run_training
from repro.experiments.chaos import default_plan
from repro.runner.registry import build_factory
from repro.workloads.presets import paper_config

SHAPES = {
    "star": {},
    "duplex": {"duplex": True},
    "sharded": {"n_servers": 2},
    "ring": {"backend": "allreduce"},
    "hierarchical": {
        "backend": "allreduce",
        "collective": "hierarchical",
        "collective_group_size": 2,
    },
    "sharded-chaos": {
        "n_servers": 2,
        "faults": default_plan(crash_at=0.3, restart_after=0.1, drop=0.03),
    },
}

#: Digests of :func:`records_digest` per (strategy, shape).
PINNED = {
    ("mxnet-fifo", "star"): "542a55d17ec9a1daf3858186ea5d4c1c67c6ff4f7527843bd8ab95ec75ddc600",
    ("p3", "duplex"): "62dd76642f5bb46ab503b0a941195a390dae939b8b646ea504995a2349edb703",
    ("p3", "hierarchical"): "6364641feb22ff1297130490cd84b3489185024fe135dca0ce17aea019d675bf",
    ("p3", "ring"): "eb9213b10254217458097df7b498fedb299d5325723182d71d5a8f9aa6def068",
    ("p3", "sharded"): "5e9e80df4563da0ab5231f3c509189d5cd06c890532fce97a2f308e23c59d274",
    ("p3", "sharded-chaos"): "a2da2cea55ab3003c36f0fef4fe500ce1be747563360d10773faa9b46cf3970d",
    ("p3", "star"): "fabecf581e6249c91e95846f1d2e9a42b9beb39d1a7d54b649f03c7acf246b40",
    ("prophet", "duplex"): "708eb58de4738977fe02ed68b25f796d8541aa38c7e06fa3a1d6dec04346809d",
    ("prophet", "hierarchical"): "5c762d9a541d508bb32c405d7c5ab3d16f084031e81daf289805f65699654876",
    ("prophet", "ring"): "992c3b0411130f7dc8ad8d37ea2d9de80ee0a7197d8df501bc89e85b492c1865",
    ("prophet", "sharded"): "6cc41b8dbf6cbf60419b525088debfabeace7b39843238a4fe143261889d39df",
    ("prophet", "sharded-chaos"): "386ed323fd28404c3c812b94161ca1027bf65b23099e8195b95e34b7f8e394ca",
    ("prophet", "star"): "c95563e289bf4159a500d7f8d5085f6c40b96c9d6bb6acd787e8ddf92fa00448",
}


def _run(strategy: str, shape: str, record_gradients: bool = True):
    config = paper_config(
        "resnet18",
        16,
        n_workers=4,
        n_iterations=4,
        seed=1,
        record_gradients=record_gradients,
        **SHAPES[shape],
    )
    return run_training(config, build_factory(strategy))


def records_digest(records) -> str:
    """SHA-256 over the ``repr`` of each gradient record, in order."""
    payload = "\n".join(repr(r) for r in records)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("strategy,shape", sorted(PINNED))
def test_gradient_records_are_pinned(strategy, shape):
    records = _run(strategy, shape).recorder.gradient_records()
    assert records
    assert records_digest(records) == PINNED[strategy, shape]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_unrecorded_gradients_change_nothing_else(shape):
    kept = _run("prophet", shape)
    dropped = _run("prophet", shape, record_gradients=False)
    assert dropped.end_time == kept.end_time
    assert dropped.training_rate() == kept.training_rate()
    assert repr(dropped.recorder.iterations) == repr(kept.recorder.iterations)
    assert dropped.recorder.gradient_records() == []
