"""Analytic TCP transfer-time model.

This module realizes the paper's Eq. (10): the effective bandwidth
``B(i) = f(s(i), B)`` obtained when pushing a tensor of ``s(i)`` bytes over
a path whose available bandwidth is ``B``.  The paper only constrains the
*shape* of ``f`` ("approaches 0 when s is small, gradually increases to B as
s gets large") and names the mechanisms — TCP connection overhead, TCP slow
start, and inter-node synchronization.  We model those mechanisms directly:

* **per-transfer setup** — a fixed CPU/protocol overhead plus a configurable
  number of RTTs for the request/response synchronization that BytePS
  performs per network message (``handshake_rtts``);
* **slow start** — the congestion window starts at ``init_cwnd_segments``
  MSS-sized segments and doubles every RTT until it covers the
  bandwidth-delay product, after which the flow sends at line rate;
* **line-rate tail** — remaining bytes at bandwidth ``B``.

The resulting transfer time is

``T(s) = overhead + handshake + (#slow-start rounds) * RTT + tail / B``

and ``f(s, B) = s / T(s)``, which has exactly the limiting behaviour the
paper requires.  Small partitions (P3 with sub-MB slices) pay the per-round
RTTs over and over; multi-MB blocks amortize them — this single model drives
the Fig. 3(a) result.

:func:`transfer_time` accepts a scalar or a NumPy array for ``nbytes``.
Arrays go through the vectorized numpy path (how the partition-sweep
benchmark calls it); scalars take a pure-Python fast path backed by a memoized
per-``(bandwidth, params)`` slow-start table, which is how the simulator's
per-message hot loop calls them.  Both paths replay the identical IEEE-754
operation sequence, so scalar and vectorized results are bit-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "TCPParams",
    "transfer_time",
    "effective_bandwidth",
    "is_warm",
]

# Slow start doubles the window every round; 64 doublings cover any
# physically plausible bandwidth-delay product.
_MAX_SLOW_START_ROUNDS = 64

#: Memoized slow-start tables, keyed ``(bandwidth, params)``.  Bounded
#: because re-levelled shares (the fleet fabric, water-filling) can
#: present many distinct bandwidths — the cache must not grow with the
#: run.  FIFO eviction (dict preserves insertion order) is fine: a miss
#: just pays the cheap table build, while the common fixed-bandwidth run
#: hits the same handful of entries forever.
_TABLE_CACHE: dict[tuple[float, "TCPParams"], "_SlowStartTable"] = {}
_TABLE_CACHE_MAX = 256


@dataclass(frozen=True)
class TCPParams:
    """Parameters of the TCP path model.

    Attributes
    ----------
    rtt:
        Round-trip time in seconds.  EC2 same-AZ instances see 0.2-1 ms.
    mss:
        Maximum segment size in bytes (1448 for standard Ethernet, ~8900
        with jumbo frames).
    init_cwnd_segments:
        Initial congestion window in segments (Linux default 10).
    handshake_rtts:
        RTTs charged per transfer for connection setup / BytePS push-pull
        synchronization.  With persistent connections this is the
        request/ACK exchange, ~1 RTT; 0 disables it.
    fixed_overhead:
        Fixed per-transfer CPU cost in seconds (serialization, memcpy,
        engine dispatch).
    warm_threshold:
        Idle-gap threshold (seconds) above which a link charges the cold
        path (slow-start restart after idle); back-to-back messages within
        the threshold use the warm path.
    goodput:
        Fraction of the nominal available bandwidth an application-level
        PS stream actually sustains (single-flow TCP over virtualized EC2
        NICs plus PS-side (de)serialization; well below 1 in the paper's
        era).  Applied to ``bandwidth`` before all other effects.
    """

    rtt: float = 0.8e-3
    mss: float = 1448.0
    init_cwnd_segments: float = 10.0
    handshake_rtts: float = 1.0
    fixed_overhead: float = 150e-6
    warm_threshold: float = 5e-3
    goodput: float = 1.0

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ConfigurationError(f"rtt must be positive, got {self.rtt}")
        if self.mss <= 0:
            raise ConfigurationError(f"mss must be positive, got {self.mss}")
        if self.init_cwnd_segments <= 0:
            raise ConfigurationError(
                f"init_cwnd_segments must be positive, got {self.init_cwnd_segments}"
            )
        if self.handshake_rtts < 0:
            raise ConfigurationError(
                f"handshake_rtts must be >= 0, got {self.handshake_rtts}"
            )
        if self.fixed_overhead < 0:
            raise ConfigurationError(
                f"fixed_overhead must be >= 0, got {self.fixed_overhead}"
            )
        if self.warm_threshold < 0:
            raise ConfigurationError(
                f"warm_threshold must be >= 0, got {self.warm_threshold}"
            )
        if not 0 < self.goodput <= 1:
            raise ConfigurationError(
                f"goodput must be in (0, 1], got {self.goodput}"
            )


class _SlowStartTable:
    """Precomputed slow-start schedule for one ``(bandwidth, params)`` pair.

    Stores the congestion window and the *exact* full-round time
    (``rtt * cwnd / cwnd``, which is not bit-equal to ``rtt`` in general)
    for every doubling round below the bandwidth-delay product, plus the
    cumulative bytes delivered after each round.  A scalar
    :func:`transfer_time` then replays the same float64 operation sequence
    as the vectorized loop — a handful of adds and one divide — instead of
    allocating numpy temporaries per round.
    """

    __slots__ = ("line_rate", "setup", "rtt", "cwnds", "full_times", "cum_bytes")

    def __init__(self, bandwidth: float, params: TCPParams) -> None:
        line_rate = bandwidth * params.goodput
        rtt = params.rtt
        self.line_rate = line_rate
        self.rtt = rtt
        self.setup = params.fixed_overhead + params.handshake_rtts * rtt
        bdp = line_rate * rtt
        cwnds: list[float] = []
        full_times: list[float] = []
        cum_bytes: list[float] = []
        total = 0.0
        cwnd = params.init_cwnd_segments * params.mss
        while cwnd < bdp and len(cwnds) < _MAX_SLOW_START_ROUNDS:
            cwnds.append(cwnd)
            full_times.append(rtt * cwnd / cwnd)
            total += cwnd
            cum_bytes.append(total)
            cwnd *= 2.0
        self.cwnds = cwnds
        self.full_times = full_times
        self.cum_bytes = cum_bytes

    def transfer_time(self, nbytes: float, warm: bool) -> float:
        """Bit-identical scalar replay of the vectorized slow-start loop."""
        if nbytes <= 0.0:
            return 0.0
        time = self.setup
        remaining = nbytes
        if not warm:
            rtt = self.rtt
            for cwnd, full_time in zip(self.cwnds, self.full_times):
                if cwnd < remaining:
                    # Full round: one RTT's worth at window ``cwnd``.  The
                    # round time is precomputed with the same divide the
                    # vectorized path performs.
                    time += full_time
                    remaining -= cwnd
                else:
                    # Final partial round, prorated; drains the transfer.
                    time += rtt * remaining / cwnd
                    remaining = 0.0
                    break
        return time + remaining / self.line_rate


def _slow_start_table(bandwidth: float, params: TCPParams) -> _SlowStartTable:
    """Fetch (or build and memoize) the table for this path."""
    key = (bandwidth, params)
    table = _TABLE_CACHE.get(key)
    if table is None:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
        table = _SlowStartTable(bandwidth, params)
        _TABLE_CACHE[key] = table
    return table


def is_warm(gap: float | None, params: TCPParams) -> bool:
    """Whether a send after ``gap`` idle seconds rides an open window.

    ``gap`` is the idle time since the previous transfer finished on the
    same connection (``None`` — never used — is always cold).  The warm
    state of a connection is fully determined by that relative gap,
    never by absolute time.
    """
    return gap is not None and gap <= params.warm_threshold


def transfer_time(
    nbytes: float | np.ndarray,
    bandwidth: float,
    params: TCPParams,
    warm: bool = False,
) -> float | np.ndarray:
    """Seconds to deliver ``nbytes`` over a path of ``bandwidth`` bytes/s.

    ``warm=True`` models a connection whose congestion window is already
    open (back-to-back messages on a busy connection): the slow-start
    rounds are skipped and only the per-message synchronization
    (``handshake_rtts`` + ``fixed_overhead``) and the line-rate payload
    remain.  Links charge the cold path only after an idle gap (Linux
    restarts slow start after an RTO of idleness) — see
    :class:`repro.net.link.Link`.

    Zero-byte transfers take zero time (they never touch the network).
    ``bandwidth`` must be positive.
    """
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    if isinstance(nbytes, (int, float)):  # np.float64 subclasses float
        if nbytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        return _slow_start_table(bandwidth, params).transfer_time(
            float(nbytes), warm
        )
    bandwidth = bandwidth * params.goodput
    arr = np.asarray(nbytes, dtype=float)
    if np.any(arr < 0):
        raise ConfigurationError("transfer size must be non-negative")
    scalar = arr.ndim == 0
    sizes = np.atleast_1d(arr)

    setup = params.fixed_overhead + params.handshake_rtts * params.rtt
    bdp = bandwidth * params.rtt

    remaining = sizes.copy()
    time = np.where(sizes > 0, setup, 0.0)

    if not warm:
        cwnd = params.init_cwnd_segments * params.mss
        rounds = 0
        # Slow-start phase: each round delivers one congestion window and
        # costs one RTT, until the window covers the bandwidth-delay
        # product.  A final partial round (transfer ends mid-window) is
        # prorated — charging the full RTT would make small transfers
        # non-monotone in bandwidth.
        while cwnd < bdp and rounds < _MAX_SLOW_START_ROUNDS:
            active = remaining > 0
            if not np.any(active):
                break
            sent = np.minimum(cwnd, remaining)
            round_time = params.rtt * sent / cwnd
            time = np.where(active, time + round_time, time)
            remaining = remaining - np.where(active, sent, 0.0)
            cwnd *= 2.0
            rounds += 1

    # Line-rate tail for whatever slow start did not cover.
    time = time + np.maximum(remaining, 0.0) / bandwidth

    if scalar:
        return float(time[0])
    return time


def effective_bandwidth(nbytes: float, bandwidth: float, params: TCPParams) -> float:
    """The paper's ``f(s, B)``: achieved throughput for an ``s``-byte transfer.

    Satisfies ``f(s, B) -> 0`` as ``s -> 0`` and ``f(s, B) -> B`` as
    ``s -> inf`` (Eq. (10) of the paper).  Defined as 0 for ``s == 0``.
    """
    size = float(nbytes)
    t = transfer_time(size, bandwidth, params)
    if size > 0.0 and t > 0.0:
        return size / t
    return 0.0
