"""Tier-1 ids of the experiment-runner smoke checks.

Each test runs the rows of ``tests/claims/test_paper_claims.py`` that hold
its assertions (result structure: lengths, ranges, finite values, keys).
"""

from tests.claims.test_paper_claims import checks

test_fig2_runner = checks("fig2.series-aligned", "fig2.utilization-range", "fig2.idle-range")
test_fig3a_runner = checks("fig3a.smoke-points", "fig3a.smoke-best-swept")
test_fig3b_runner = checks("fig3b.series-aligned", "fig3b.spread-nonnegative")
test_fig8_runner = checks("fig8.smoke-rows", "fig8.smoke-rates-positive")
test_fig9_10_runner = checks(
    "fig9.utilization-range", "fig10.throughput-positive", "fig9.gain-finite", "fig10.gain-finite"
)
test_fig11_runner = checks("fig11.strategies", "fig11.gradients", "fig11.waits-finite")
test_fig12_runner = checks("fig12.aggregate-is-2x-per-worker")
test_fig13_runner = checks("fig13.early-range", "fig13.late-range", "fig13.rate-positive")
test_table2_runner = checks("table2.smoke-rows", "table2.smoke-strategies")
test_table3_runner = checks("table3.smoke-rows", "table3.smoke-finite")
test_overhead_runners = checks("overhead.workloads", "overhead.positive", "planning.cpu-seconds")
test_ablations_runner = checks("ablations.has-baseline", "ablations.rates-positive")
test_experiment_mains_print = checks("mains.print-tables")
test_scalability_runner = checks(
    "scalability.servers", "scalability.rates-positive", "scalability.wider-tier-faster"
)
test_collective_runner = checks(
    "collective.strategies", "collective.rates-positive", "collective.prophet-beats-fifo"
)
