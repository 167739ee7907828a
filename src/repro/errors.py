"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class.  Configuration mistakes raise
:class:`ConfigurationError` eagerly (at construction time, not inside the
simulation loop), scheduling contract violations raise
:class:`SchedulingError`, and simulator-internal inconsistencies raise
:class:`SimulationError` — the latter indicates a bug in this library, not a
user error.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SchedulingError",
    "SimulationError",
    "EventBudgetExhausted",
    "ProfileError",
    "TracingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value was supplied by the caller."""


class SchedulingError(ReproError):
    """A communication scheduler violated its contract.

    Raised, for example, when a scheduler returns a transfer for a gradient
    that is not ready, re-sends bytes that were already sent, or produces a
    plan violating the priority constraints of the Prophet optimization
    problem (Constraints (7)-(9), (11) of the paper).
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class EventBudgetExhausted(SimulationError):
    """``Engine.run`` fired its ``max_events`` budget with events still
    queued.  The queue is intact, so an owner whose budget grew during
    the run (a fleet spawning jobs) can re-read it and resume."""


class ProfileError(ReproError):
    """A job profile is missing or insufficient for Prophet's Algorithm 1."""


class TracingError(ReproError):
    """A trace event was malformed (negative duration, unbalanced span)."""
