"""Tier-1 ids of the experiment-shape checks.

Each test runs the rows of ``tests/claims/test_paper_claims.py`` that hold
its assertions; the bounds live only in that table.
"""

from tests.claims.test_paper_claims import checks


class TestMidBandOrdering:
    test_prophet_beats_bytescheduler = checks("table2.3G-vs-bytescheduler")
    test_prophet_beats_p3 = checks("table2.3G-vs-p3")
    test_prophet_beats_mxnet = checks("table2.3G-vs-mxnet")
    test_fifo_is_worst = checks("table2.3G-fifo-worst")


class TestBandwidthSweep:
    test_rates_increase_with_bandwidth = checks(
        "table2.rates-grow-1G-to-3G", "table2.rates-saturate-3G-to-10G"
    )
    test_strategies_converge_at_high_bandwidth = checks("table2.converge-10G")
    test_p3_penalty_largest_at_low_bandwidth = checks(
        "table2.1G-p3-below-prophet", "table2.3G-vs-p3"
    )
    test_low_bandwidth_gap_smaller_than_midband = checks("table2.p3-gap-peaks-mid-band")


class TestFig3Shapes:
    test_small_partitions_collapse_p3 = checks("fig3a.0.25MB-vs-4MB")
    test_autotune_fluctuates = checks("fig3b.rate-fluctuates", "fig3b.credit-explored")


class TestFig4Shapes:
    test_resnet50_staircase = checks(
        "fig4.resnet50-staircase", "fig4.resnet50-gradients", "fig4.resnet50-intervals"
    )
    test_vgg19_matches_paper_blocks = checks("fig4.vgg19-blocks", "fig4.vgg19-block-sizes")


class TestFig5Shape:
    test_strategy_ordering_on_toy = checks(
        "fig5.prophet-grad0-wait-ms", "fig5.fifo-grad0-wait-ms", "fig5.p3-vs-fifo-ms",
        "fig5.bytescheduler-vs-fifo-ms", "fig5.prophet-vs-bytescheduler-ms",
    )


class TestScalability:
    test_near_linear_worker_scaling = checks("fig12.per-worker-6-vs-2")


class TestHeterogeneous:
    test_gap_collapses_with_slow_worker = checks(
        "hetero.gap-collapses", "hetero.prophet-vs-mxnet",
        "hetero.prophet-rate-floor", "hetero.prophet-rate-ceiling",
    )
