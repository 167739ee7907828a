"""Periodic network-bandwidth monitor.

Prophet's prototype "periodically (e.g., every 5 seconds) acquires the
available network bandwidth B of workers" (paper Sec. 4.2).  This module
reproduces that component: every ``interval`` simulated seconds it samples a
link's available bandwidth and retains the latest sample.  Consumers (the
Prophet scheduler) read :attr:`BandwidthMonitor.bandwidth`, seeing a
*stale* value between samples — exactly the information lag a real monitor
has under dynamic network conditions.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.sim.engine import Engine

__all__ = ["BandwidthMonitor"]


class BandwidthMonitor:
    """Samples a link's available bandwidth every ``interval`` seconds.

    The first sample is taken at construction time, so a freshly created
    monitor is immediately usable.  ``history`` keeps every
    ``(time, bandwidth)`` sample for post-hoc analysis.
    """

    def __init__(self, engine: Engine, link: Link, interval: float = 5.0):
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self.engine = engine
        self.link = link
        self.interval = interval
        self.history: list[tuple[float, float]] = []
        self._stopped = False
        self._sample_event = None
        self._sample()

    def _sample(self) -> None:
        self._sample_event = None
        if self._stopped:
            return
        value = self.link.current_bandwidth()
        self._last = (self.engine.now, value)
        self.history.append(self._last)
        trace = self.engine.trace
        if trace.enabled:
            trace.counter(
                "bandwidth.monitored",
                "net",
                self.engine.now,
                f"net/{self.link.name}",
                {"bytes_per_s": value},
            )
        self._sample_event = self.engine.schedule_after(self.interval, self._sample)

    @property
    def bandwidth(self) -> float:
        """Most recent bandwidth sample (bytes/s)."""
        return self._last[1]

    @property
    def last_sample_time(self) -> float:
        """Simulation time of the most recent sample."""
        return self._last[0]

    def stop(self) -> None:
        """Stop sampling and cancel the pending sample event, so a bounded
        run's event queue drains instead of ticking forever."""
        self._stopped = True
        if self._sample_event is not None:
            self._sample_event.cancel()
            self._sample_event = None
