"""Key-value store aggregation: from compute profile to generation times.

:class:`KVStore` composes a :class:`~repro.models.compute.ComputeProfile`
with an :class:`~repro.agg.policies.AggregationPolicy` and aggregation
costs to produce a :class:`GenerationSchedule` — the per-gradient
communication-ready times ``c(i)`` (measured from the start of backward
propagation) whose staircase shape is the paper's stepwise pattern.

The flush of a bucket costs a fixed CPU overhead, :data:`FLUSH_DELAY`
(``GroupKVPairsPush``-style grouping and dispatch).  Aggregation runs
asynchronously on the CPU, so it delays when gradients reach the network
layer, not the GPU's backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.agg.policies import AggregationPolicy, TimeWindowPolicy
from repro.errors import ConfigurationError
from repro.models.compute import ComputeProfile
from repro.models.gradients import GradientSpec, gradient_table

__all__ = ["FLUSH_DELAY", "GenerationSchedule", "KVStore"]

#: Seconds per bucket flush (calibration of the grouping and dispatch
#: overhead; the bucket's bytes add nothing).
FLUSH_DELAY = 0.3e-3


@dataclass(frozen=True)
class GenerationSchedule:
    """Per-iteration gradient generation times for one worker.

    Attributes
    ----------
    c:
        ``c[i]`` = communication-ready time of gradient ``i`` in seconds
        from backward start (the paper's ``c^(i)``).
    raw:
        Raw backward completion times before aggregation delay.
    bucket_of:
        ``bucket_of[i]`` = flush-bucket id of gradient ``i`` (bucket 0
        flushes first).
    buckets:
        Gradient indices per bucket, in generation order.
    sizes:
        Gradient sizes in bytes, indexed by gradient.
    backward_time:
        Duration of the full backward pass (GPU-side).
    """

    c: np.ndarray
    raw: np.ndarray
    bucket_of: np.ndarray
    buckets: tuple[tuple[int, ...], ...]
    sizes: np.ndarray
    backward_time: float

    @property
    def num_gradients(self) -> int:
        return len(self.c)

    @property
    def num_blocks(self) -> int:
        return len(self.buckets)

    @cached_property
    def generation_order(self) -> np.ndarray:
        """Gradient indices in the order they become communication-ready.

        Ties in ``c`` (same bucket) break by descending index, matching the
        order backward propagation produced them.
        """
        idx = np.arange(self.num_gradients)
        return idx[np.lexsort((-idx, self.c))]

    def scaled(self, factor: float) -> "GenerationSchedule":
        """Schedule with all times multiplied by ``factor`` (compute jitter)."""
        return GenerationSchedule(
            c=self.c * factor,
            raw=self.raw * factor,
            bucket_of=self.bucket_of,
            buckets=self.buckets,
            sizes=self.sizes,
            backward_time=self.backward_time * factor,
        )


class KVStore:
    """Aggregating key-value store front-end of one worker.

    Parameters
    ----------
    policy:
        Bucketing policy; defaults to a 5 ms :class:`TimeWindowPolicy`.
    """

    def __init__(self, policy: AggregationPolicy | None = None):
        self.policy: AggregationPolicy = (
            policy if policy is not None else TimeWindowPolicy(5e-3)
        )

    def generation_schedule(self, profile: ComputeProfile) -> GenerationSchedule:
        """Compute ``c(i)`` for one iteration of ``profile``'s model."""
        grads = gradient_table(profile.model)
        if not grads:
            raise ConfigurationError(
                f"model {profile.model.name!r} has no trainable tensors"
            )
        layer_completion = profile.bwd_completion_times()
        raw = np.array([layer_completion[g.layer_index] for g in grads], dtype=float)
        sizes = np.array([g.nbytes for g in grads], dtype=float)

        buckets = self.policy.buckets(profile.model, grads, raw)
        self._validate_partition(buckets, grads)

        c = np.empty(len(grads), dtype=float)
        bucket_of = np.empty(len(grads), dtype=np.int64)
        prev_flush = -np.inf
        for b, bucket in enumerate(buckets):
            members = np.asarray(bucket, dtype=np.int64)
            flush = float(raw[members].max()) + FLUSH_DELAY
            # Flushes are serialized on the aggregation thread: monotone.
            flush = max(flush, prev_flush)
            prev_flush = flush
            c[members] = flush
            bucket_of[members] = b
        return GenerationSchedule(
            c=c,
            raw=raw,
            bucket_of=bucket_of,
            buckets=tuple(tuple(b) for b in buckets),
            sizes=sizes,
            backward_time=profile.total_bwd,
        )

    @staticmethod
    def _validate_partition(
        buckets: list[list[int]], grads: list[GradientSpec]
    ) -> None:
        flat = [i for bucket in buckets for i in bucket]
        if sorted(flat) != sorted(g.index for g in grads):
            raise ConfigurationError(
                "aggregation policy did not produce a partition of gradients"
            )
        # Buckets must flush in generation order (descending index blocks).
        maxes = [max(bucket) for bucket in buckets]
        if maxes != sorted(maxes, reverse=True):
            raise ConfigurationError(
                "aggregation buckets are not in generation order"
            )
