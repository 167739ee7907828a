"""Expected-improvement Bayesian optimizer over a bounded 1-D space.

Used by ByteScheduler's credit auto-tuner.  The search space is
log-transformed (credit sizes span 1–16 MB, a multiplicative scale) and
normalized to [0, 1] before fitting the GP.  The optimizer *minimizes* its
objective (iteration time); maximizing training rate is the caller's
negation.

The first :data:`N_INIT` proposals are a low-discrepancy sweep of the space —
this initial exploration, trying deliberately bad credits, is precisely
what produces the rate fluctuation the paper shows in Fig. 3(b).
"""

from __future__ import annotations

import numpy as np

from repro.bayesopt.gp import GaussianProcess, RBFKernel
from repro.errors import ConfigurationError

__all__ = ["BayesianOptimizer"]

_SQRT2 = float(np.sqrt(2.0))

#: Space-filling evaluations before the GP guides the search (the Fig. 3(b)
#: exploration: four deliberately spread credits).
N_INIT = 4
#: Grid resolution for maximizing the acquisition function (ample for a
#: 1-D search over [0, 1]).
N_CANDIDATES = 256
#: Expected-improvement exploration bonus (the customary 0.01).
XI = 0.01


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # scipy is a declared substrate dependency

    return 0.5 * (1.0 + erf(z / _SQRT2))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)


class BayesianOptimizer:
    """Sequential model-based minimization with expected improvement.

    Parameters
    ----------
    low, high:
        Bounds of the (positive) search variable, e.g. credit bytes.
    rng:
        Source of tie-breaking/jitter randomness.
    """

    def __init__(
        self,
        low: float,
        high: float,
        rng: np.random.Generator | None = None,
    ):
        if low <= 0 or high <= low:
            raise ConfigurationError(f"need 0 < low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._x: list[float] = []  # normalized log-space coordinates
        self._y: list[float] = []

    # ------------------------------------------------------------------
    def _to_unit(self, value: float) -> float:
        lo, hi = np.log(self.low), np.log(self.high)
        return (np.log(value) - lo) / (hi - lo)

    def _from_unit(self, u: float) -> float:
        lo, hi = np.log(self.low), np.log(self.high)
        return float(np.exp(lo + u * (hi - lo)))

    # ------------------------------------------------------------------
    def suggest(self) -> float:
        """Next point to evaluate, in the original (e.g. bytes) scale."""
        n = len(self._x)
        if n < N_INIT:
            # Van der Corput low-discrepancy sequence over (0, 1).
            u, denom, i = 0.0, 0.5, n + 1
            while i:
                u += denom * (i & 1)
                i >>= 1
                denom *= 0.5
            return self._from_unit(u)
        gp = GaussianProcess(RBFKernel(length_scale=0.25), noise=1e-3)
        gp.fit(np.array(self._x), np.array(self._y))
        grid = np.linspace(0.0, 1.0, N_CANDIDATES)
        mean, std = gp.predict(grid)
        best = min(self._y)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (best - mean - XI) / np.where(std > 0, std, np.inf)
            ei = (best - mean - XI) * _norm_cdf(z) + std * _norm_pdf(z)
        ei = np.where(std > 0, ei, 0.0)
        if np.all(ei <= 0):
            u = float(self._rng.uniform())
        else:
            u = float(grid[int(np.argmax(ei))])
        return self._from_unit(u)

    def observe(self, value: float, objective: float) -> None:
        """Record the measured ``objective`` (to minimize) at ``value``."""
        if not self.low <= value <= self.high * (1 + 1e-9):
            raise ConfigurationError(
                f"observed value {value} outside [{self.low}, {self.high}]"
            )
        if not np.isfinite(objective):
            raise ConfigurationError(f"objective must be finite, got {objective}")
        self._x.append(self._to_unit(value))
        self._y.append(float(objective))

    @property
    def best(self) -> tuple[float, float] | None:
        """Best ``(value, objective)`` seen so far, or ``None``."""
        if not self._y:
            return None
        i = int(np.argmin(self._y))
        return self._from_unit(self._x[i]), self._y[i]

    @property
    def num_observations(self) -> int:
        return len(self._y)
