"""Unit tests for the TCP transfer-time model (the paper's f(s, B))."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.tcp import TCPParams, effective_bandwidth, transfer_time
from repro.quantities import Gbps, MB


@pytest.fixture
def params() -> TCPParams:
    return TCPParams()


def test_zero_bytes_take_zero_time(params):
    assert transfer_time(0.0, 1 * Gbps, params) == 0.0


def test_transfer_time_positive_for_positive_size(params):
    assert transfer_time(1.0, 1 * Gbps, params) > 0.0


def test_transfer_time_increases_with_size(params):
    sizes = np.array([1e3, 1e5, 1e6, 1e7, 1e8])
    times = transfer_time(sizes, 1 * Gbps, params)
    assert np.all(np.diff(times) > 0)


def test_large_transfer_approaches_line_rate(params):
    size = 10_000 * MB
    t = transfer_time(size, 1 * Gbps, params)
    ideal = size / (1 * Gbps * params.goodput)
    assert t < ideal * 1.01


def test_effective_bandwidth_shape_of_eq10(params):
    """f(s,B) -> 0 for small s, -> B*goodput for large s (Eq. 10)."""
    bw = 3 * Gbps
    small = effective_bandwidth(100.0, bw, params)
    large = effective_bandwidth(1e10, bw, params)
    assert small < 0.01 * bw
    assert large > 0.95 * bw * params.goodput
    assert effective_bandwidth(0.0, bw, params) == 0.0


def test_effective_bandwidth_monotone_in_size(params):
    sizes = np.logspace(2, 9, 40)
    eff = [effective_bandwidth(s, 1 * Gbps, params) for s in sizes]
    assert np.all(np.diff(eff) >= -1e-9)


def test_warm_path_skips_slow_start():
    params = TCPParams(rtt=1e-3)
    size = 4 * MB
    cold = transfer_time(size, 10 * Gbps, params, warm=False)
    warm = transfer_time(size, 10 * Gbps, params, warm=True)
    assert warm < cold
    # Warm path is affine: setup + bytes / line rate.
    setup = params.fixed_overhead + params.handshake_rtts * params.rtt
    expected = setup + size / (10 * Gbps * params.goodput)
    assert warm == pytest.approx(expected, rel=1e-9)


def test_warm_equals_cold_when_cwnd_covers_bdp():
    # At very low bandwidth the initial window already covers the BDP.
    params = TCPParams(rtt=0.1e-3, init_cwnd_segments=100)
    size = 1 * MB
    bw = 10e6  # 10 MB/s -> BDP = 1 KB << init window
    assert transfer_time(size, bw, params) == pytest.approx(
        transfer_time(size, bw, params, warm=True)
    )


def test_goodput_scales_line_rate():
    base = TCPParams(goodput=1.0, handshake_rtts=0.0, fixed_overhead=0.0)
    half = TCPParams(goodput=0.5, handshake_rtts=0.0, fixed_overhead=0.0)
    size = 100 * MB
    t1 = transfer_time(size, 1 * Gbps, base, warm=True)
    t2 = transfer_time(size, 1 * Gbps, half, warm=True)
    assert t2 == pytest.approx(2 * t1)


def test_vectorized_matches_scalar(params):
    sizes = np.array([1e4, 1e6, 1e8])
    vec = transfer_time(sizes, 2 * Gbps, params)
    for s, t in zip(sizes, vec):
        assert transfer_time(float(s), 2 * Gbps, params) == pytest.approx(float(t))


def test_scalar_matches_vectorized_bitwise(params):
    """The scalar fast path replays the numpy loop bit-for-bit.

    Sizes span sub-MSS to multi-GB so both the partial-round and the
    line-rate-tail branches are hit; cold and warm paths both gate.
    """
    sizes = np.array([1.0, 500.0, 1448.0, 14_480.0, 1e6, 64e6, 3.2e9])
    for bw in (0.5 * Gbps, 3 * Gbps, 25 * Gbps):
        for warm in (False, True):
            vec = transfer_time(sizes, bw, params, warm=warm)
            for s, t in zip(sizes, vec):
                scalar = transfer_time(float(s), bw, params, warm=warm)
                assert scalar == float(t)  # bitwise, not approx


def test_memo_table_tracks_bandwidth_changes(params):
    """A bandwidth change mid-run must not serve a stale slow-start table."""
    sizes = np.array([1e5, 4e6])
    for bw in (1 * Gbps, 2 * Gbps, 1 * Gbps, 0.7 * Gbps):
        vec = transfer_time(sizes, bw, params)
        for s, t in zip(sizes, vec):
            assert transfer_time(float(s), bw, params) == float(t)


def test_memo_table_tracks_params_changes():
    """Distinct TCPParams key distinct tables (frozen dataclass hash)."""
    a = TCPParams(rtt=0.8e-3)
    b = TCPParams(rtt=1.6e-3)
    size = 4e6
    t_a = transfer_time(size, 1 * Gbps, a)
    t_b = transfer_time(size, 1 * Gbps, b)
    assert t_a != t_b
    assert t_a == float(transfer_time(np.array([size]), 1 * Gbps, a)[0])
    assert t_b == float(transfer_time(np.array([size]), 1 * Gbps, b)[0])


def test_memo_cache_stays_bounded(params):
    """Noisy bandwidths (every send unique) must not grow the cache."""
    from repro.net.tcp import _TABLE_CACHE, _TABLE_CACHE_MAX

    for i in range(2 * _TABLE_CACHE_MAX):
        transfer_time(1e6, 1 * Gbps + float(i), params)
    assert len(_TABLE_CACHE) <= _TABLE_CACHE_MAX
    # Evicted entries still compute correctly when re-requested.
    assert transfer_time(1e6, 1 * Gbps, params) == float(
        transfer_time(np.array([1e6]), 1 * Gbps, params)[0]
    )


def test_invalid_bandwidth_raises(params):
    with pytest.raises(ConfigurationError):
        transfer_time(1e6, 0.0, params)
    with pytest.raises(ConfigurationError):
        transfer_time(1e6, -1.0, params)


def test_negative_size_raises(params):
    with pytest.raises(ConfigurationError):
        transfer_time(-1.0, 1 * Gbps, params)


@pytest.mark.parametrize(
    "field,value",
    [
        ("rtt", 0.0),
        ("mss", -1.0),
        ("init_cwnd_segments", 0.0),
        ("handshake_rtts", -0.5),
        ("fixed_overhead", -1e-6),
        ("warm_threshold", -1e-3),
        ("goodput", 0.0),
        ("goodput", 1.5),
    ],
)
def test_invalid_params_raise(field, value):
    kwargs = {field: value}
    with pytest.raises(ConfigurationError):
        TCPParams(**kwargs)


def test_setup_cost_charged_once_per_message(params):
    """One big message is cheaper than two halves (the batching payoff)."""
    size = 8 * MB
    one = transfer_time(size, 3 * Gbps, params, warm=True)
    two = 2 * transfer_time(size / 2, 3 * Gbps, params, warm=True)
    assert one < two
