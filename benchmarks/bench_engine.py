"""Engine hot-path micro-benchmarks (run-loop, cancellation, pending).

These pin the tombstone-heap engine's properties:

* the ``run()`` loop (hoisted attribute loads, ``(time, seq)`` heap
  comparisons done in C on list events) — guarded by the chained-event
  throughput benchmark;
* lazy tombstone compaction — the cancellation-heavy churn would
  otherwise grow the heap (and per-pop cost) linearly in the number of
  cancels; the benchmark also asserts the queue stays bounded;
* O(1) ``Engine.pending()`` — previously an O(n) scan per call, which
  made queue-depth trace counters quadratic over a run.

The CI-gated events/second floors live in ``benchmarks/baselines.json``
(see ``ci_smoke.py``); these pytest-benchmark targets give the detailed
local view.
"""

from repro.sim.engine import Engine


def test_engine_chain_throughput(benchmark):
    """Schedule + fire 50k chained events (pure run-loop cost)."""
    n_events = 50_000

    def run():
        eng = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < n_events:
                eng.schedule_after(1e-6, tick)

        eng.schedule(0.0, tick)
        eng.run()
        return count

    assert benchmark(run) == n_events


def test_engine_cancellation_churn(benchmark):
    """Cancel-dominated workload: ~10/11 of scheduled events die.

    Exercises lazy compaction; the post-run assertion pins the bound —
    the live queue must stay O(batch), not O(total cancellations).
    """
    n_ticks = 2_000
    batch = 10

    def queued(eng):
        return len(eng._heap)

    def run():
        eng = Engine()
        count = 0
        pending = []
        peak_queued = 0

        def noop():
            pass

        def tick():
            nonlocal count, peak_queued
            count += 1
            for ev in pending:
                ev.cancel()
            pending.clear()
            peak_queued = max(peak_queued, queued(eng))
            if count < n_ticks:
                for _ in range(batch):
                    pending.append(eng.schedule_after(1.0, noop))
                eng.schedule_after(1e-6, tick)

        eng.schedule(0.0, tick)
        eng.run()
        return count, peak_queued

    count, peak_queued = benchmark(run)
    assert count == n_ticks
    # _COMPACT_MIN_DEAD (64) dead entries may linger between compactions,
    # plus the live batch; anywhere near n_ticks * batch means the
    # tombstones piled up and compaction is broken.
    assert peak_queued <= 2 * (64 + batch + 1)


def test_engine_pending_is_cheap(benchmark):
    """10k ``pending()`` calls against a 10k-event queue.

    With the O(n) scan this is 100M element visits; the live-counter
    implementation makes it constant per call.
    """
    eng = Engine()

    def noop():
        pass

    events = [eng.schedule(float(i), noop) for i in range(10_000)]
    for ev in events[::2]:
        ev.cancel()

    def probe():
        total = 0
        for _ in range(10_000):
            total += eng.pending()
        return total

    total = benchmark(probe)
    assert total == 10_000 * eng.pending()
    assert eng.pending() == len([ev for ev in events if ev.alive])
