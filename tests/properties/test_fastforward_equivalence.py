"""Property-based exactness tests for steady-state fast-forward.

The whole value of :mod:`repro.sim.fastforward` rests on one claim: an
engaged fast-forward run is **bit-identical** to the unrolled run — not
statistically close, identical.  These tests pit the two paths against
each other across seeds, scheduling strategies, and all four backends
(single-PS star, sharded PS tier, ring allreduce, hierarchical
allreduce), plus a star with a straggling worker whose BSP pulls wait
at the PS across iteration boundaries, and compare every observable
artifact: the end time, every
iteration row, every GPU interval, every gradient record, every link
transfer record and byte counter, and the derived summary metrics.

``repr`` is used as the float canonicalizer: it is the shortest exact
form, so two runs compare equal iff they are bit-identical (NaN fields
in warmup rows also compare equal this way).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.trainer import run_training
from repro.sim.fastforward import FastForwardDetector
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

STRATEGIES = ("mxnet-fifo", "p3", "prophet", "mg-wfbp")
#: ``straggler`` is the star with worker 1 computing 1.5x slower, so the
#: fast worker's pushes leave BSP pulls waiting at the PS across
#: iteration boundaries.
BACKENDS = ("star", "sharded", "ring", "hierarchical", "straggler")

QUANTUM = 2.0**-24


def _links(topology):
    links = []
    for attr in ("uplinks", "downlinks", "links", "local_links", "global_links"):
        group = getattr(topology, attr, None)
        if not group:
            continue
        for item in group:
            links.extend(item) if isinstance(item, list) else links.append(item)
    return links


def canon_result(result) -> tuple:
    """Everything observable about a run, reduced to comparable form."""
    rec = result.recorder
    n = result.config.n_workers
    rows = [tuple(repr(r) for r in rec.worker_iterations(w)) for w in range(n)]
    gpu = [repr(rec.gpu_busy_intervals(w).tolist()) for w in range(n)]
    grads = [tuple(repr(g) for g in rec.gradient_records(worker=w)) for w in range(n)]
    links = [
        (tuple(repr(t) for t in link.records), link.total_bytes, link._busy_accum)
        for link in _links(result.topology)
    ]
    summary = {k: repr(v) for k, v in result.summary().items()}
    return (repr(result.end_time), rows, gpu, grads, links, summary)


def ff_config(backend: str, strategy: str, seed: int, *, fastforward: bool):
    overrides: dict = {}
    n_workers = 2
    n_iterations = 8
    if backend == "sharded":
        overrides["n_servers"] = 2
        # Sharded settles with period 3-4; two-tier detection confirms at
        # 2p and verifies at 3p, so leave room for at least one skipped
        # cycle after that.
        n_iterations = 16
    elif backend == "ring":
        overrides.update(backend="allreduce", collective="ring")
    elif backend == "hierarchical":
        n_workers = 4
        overrides.update(
            backend="allreduce", collective="hierarchical", collective_group_size=2
        )
    elif backend == "straggler":
        overrides["worker_compute_scale"] = {1: 1.5}
    config = paper_config(
        "resnet18",
        32,
        n_workers=n_workers,
        n_iterations=n_iterations,
        seed=seed,
        jitter_std=0.0,
        time_quantum=QUANTUM,
        **overrides,
    )
    return config if fastforward else replace(config, fastforward=False)


@given(
    seed=st.integers(0, 3),
    strategy=st.sampled_from(STRATEGIES),
    backend=st.sampled_from(BACKENDS),
)
@settings(max_examples=10, deadline=None)
def test_fastforward_is_bit_identical(seed, strategy, backend):
    factory = EXTENDED_FACTORIES[strategy]
    fast = run_training(ff_config(backend, strategy, seed, fastforward=True), factory)
    slow = run_training(ff_config(backend, strategy, seed, fastforward=False), factory)
    assert slow.fastforward_stats is None
    assert fast.fastforward_stats is not None
    assert canon_result(fast) == canon_result(slow)


def test_fastforward_engages_on_every_backend():
    """The property above holds vacuously if FF never engages — pin that
    each backend actually reaches its periodic fixed point and skips."""
    for backend in BACKENDS:
        factory = EXTENDED_FACTORIES["prophet"]
        fast = run_training(ff_config(backend, "prophet", 0, fastforward=True), factory)
        stats = fast.fastforward_stats
        assert stats is not None and stats["engaged"], (backend, stats)
        assert stats["period"] >= 1
        assert stats["iterations_skipped"] == stats["period"] * stats["cycles_skipped"]
        assert stats["iterations_skipped"] >= 1, (backend, stats)


def test_fastforward_translates_waiting_bsp_pulls(monkeypatch):
    """P3 on the straggler star engages with a BSP pull still waiting at
    the PS, so the PS's waiting heaps are fingerprinted and shifted —
    and the result stays bit-identical to the unrolled run."""
    waiting = []
    engage = FastForwardDetector._engage

    def spy(self, k, now):
        waiting.append(sum(ps.pending_pulls for ps in self._servers))
        return engage(self, k, now)

    monkeypatch.setattr(FastForwardDetector, "_engage", spy)
    factory = EXTENDED_FACTORIES["p3"]
    fast = run_training(ff_config("straggler", "p3", 0, fastforward=True), factory)
    slow = run_training(ff_config("straggler", "p3", 0, fastforward=False), factory)
    assert fast.fastforward_stats["engaged"]
    assert waiting and waiting[0] > 0
    assert canon_result(fast) == canon_result(slow)
