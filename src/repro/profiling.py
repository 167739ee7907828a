"""cProfile harness over experiment entry points (``repro profile``).

Wraps any registered experiment (:data:`repro.experiments.EXPERIMENTS`)
in :mod:`cProfile` and renders a top-N hotspot report via :mod:`pstats`.
Two defaults make the numbers honest:

* **serial execution** — cProfile observes only the calling process, so
  the runner's process fan-out is forced to one job; a parallel grid
  would do its simulation work in child processes the profiler never
  sees, leaving a report full of ``poll``/``recv``.
* **no result cache** — a cache hit replaces the simulation with a disk
  read, so the report would profile deserialization instead of the
  hot loop.  ``use_cache=True`` opts back in (useful for profiling the
  cache itself).

The raw stats can be dumped to a file for flame-graph viewers
(``snakeviz out.prof``, ``python -m pstats out.prof``).
"""

from __future__ import annotations

import cProfile
import inspect
import io
import pstats
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["SORT_KEYS", "ProfileReport", "profile_experiment"]

#: pstats sort keys exposed on the CLI (the full pstats set is larger,
#: but these are the ones that answer "where did the time go").
SORT_KEYS = ("cumulative", "tottime", "calls")


@dataclass(frozen=True)
class ProfileReport:
    """Result of one profiled experiment run."""

    experiment: str
    #: Total profiled CPU time (pstats' ``total_tt``), seconds.
    total_seconds: float
    #: Total function calls observed.
    total_calls: int
    #: Rendered top-N hotspot table (pstats ``print_stats`` output).
    text: str
    #: Where the raw stats were dumped, if requested.
    dump_path: str | None = None


def _accepted_overrides(
    run: Any, overrides: dict[str, Any]
) -> dict[str, Any]:
    """Filter ``overrides`` to what ``run`` can actually receive.

    An experiment opts into topology passthrough when its run names the
    kwarg (``n_workers``/``n_servers``/``backend``) or takes
    ``**kwargs``.  Asking for an override the run cannot take is a hard
    error, not a silent no-op — a profile captured at the wrong fleet
    shape is worse than no profile.
    """
    params = inspect.signature(run).parameters
    takes_var_kw = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    rejected = [
        name
        for name in overrides
        if not takes_var_kw and name not in params
    ]
    if rejected:
        raise ConfigurationError(
            f"experiment entry point does not accept "
            f"{', '.join(sorted(rejected))}; its run() takes "
            f"({', '.join(params) or 'no arguments'})"
        )
    return overrides


def profile_experiment(
    experiment: str,
    *,
    top: int = 25,
    sort: str = "cumulative",
    dump: str | None = None,
    use_cache: bool = False,
    overrides: dict[str, Any] | None = None,
) -> ProfileReport:
    """Run and print the registered ``experiment`` under cProfile.

    The experiment's own stdout (tables, figures) is not captured — it
    prints as usual; the returned report holds only the profile.

    ``overrides`` (e.g. ``{"n_workers": 64, "backend": "allreduce"}``)
    are passed through to the experiment's run so hotspots can be
    captured at fleet shape instead of the demo-sized default; the run's
    signature is inspected and an unsupported override raises
    :class:`ConfigurationError` up front.
    """
    if sort not in SORT_KEYS:
        raise ConfigurationError(
            f"unknown sort key {sort!r}; available: {', '.join(SORT_KEYS)}"
        )
    if top <= 0:
        raise ConfigurationError(f"top must be positive, got {top}")

    from repro.experiments import EXPERIMENTS
    from repro.runner import JOBS_ENV, NO_CACHE_ENV, scoped_environ

    entry = EXPERIMENTS[experiment]
    kwargs = _accepted_overrides(entry.run, overrides or {})
    # Serial (and, without ``use_cache``, uncached) for this run only.
    forced = {JOBS_ENV: "1"}
    if not use_cache:
        forced[NO_CACHE_ENV] = "1"
    profiler = cProfile.Profile()
    with scoped_environ(forced):
        profiler.enable()
        try:
            entry.report(**kwargs)
        finally:
            profiler.disable()

    if dump is not None:
        profiler.dump_stats(dump)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return ProfileReport(
        experiment=experiment,
        total_seconds=stats.total_tt,
        total_calls=stats.total_calls,
        text=buffer.getvalue(),
        dump_path=dump,
    )
