"""Key→shard assignment for the sharded parameter-server tier.

BytePS shards the parameter store by key: each gradient tensor lives on
exactly one server, so aggregation bandwidth scales with the number of
servers instead of being gated by one NIC.  P3 additionally *slices*
oversized tensors so that no single key serializes a whole layer behind
one server.  This module implements both, deterministically:

* every gradient becomes one or more :class:`ShardPiece`\\ s — exactly one
  when it fits under ``slice_bytes`` (or slicing is off), otherwise equal
  contiguous slices covering the tensor exactly once;
* pieces are packed onto shards with greedy LPT (largest processing time
  first): sorted by descending size, each piece goes to the currently
  lightest shard.  The classic LPT invariant — max load minus min load
  never exceeds the largest piece size — bounds the imbalance, and the
  deterministic tie-breaks (size, then gradient, then slice; lowest shard
  id wins ties) make the assignment a pure function of ``(sizes,
  n_servers, slice_bytes)``;
* within a shard, pieces are ordered by ``(gradient, slice)`` ascending
  and given dense *local* indices.  Local index order therefore preserves
  the global priority order (gradient 0 = most urgent, the paper's
  forward-order priority), which is what lets an unmodified
  :class:`~repro.sched.base.CommScheduler` instance run per shard: its
  "smaller index = more urgent" convention holds locally.

:func:`restrict_generation_schedule` projects the global per-iteration
generation schedule onto one shard's local index space — each piece
inherits its parent gradient's generation time ``c(i)`` (all slices of a
tensor materialize together) and carries its own byte size.  A shard's
oracle profile is built from that restricted schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from repro.agg.kvstore import GenerationSchedule
from repro.errors import ConfigurationError

__all__ = [
    "ShardPiece",
    "ShardAssignment",
    "assign_shards",
    "restrict_generation_schedule",
]


@dataclass(frozen=True, slots=True)
class ShardPiece:
    """One contiguous byte range of one gradient, owned by one shard."""

    #: Global gradient index.
    grad: int
    #: Slice number within the gradient (0 for an unsliced tensor).
    part: int
    #: Byte offset of this piece within the gradient.
    offset: float
    #: Piece size in bytes.
    nbytes: float
    #: Owning server (shard) index.
    shard: int
    #: Dense index within the shard, in ``(grad, part)`` order.
    local: int


@dataclass(frozen=True)
class ShardAssignment:
    """Deterministic mapping of every gradient byte to one shard."""

    n_servers: int
    #: All pieces, ordered by ``(grad, part)``.
    pieces: tuple[ShardPiece, ...]

    @cached_property
    def by_shard(self) -> tuple[tuple[ShardPiece, ...], ...]:
        """Pieces of each shard, in local-index order."""
        buckets: list[list[ShardPiece]] = [[] for _ in range(self.n_servers)]
        for piece in self.pieces:
            buckets[piece.shard].append(piece)
        for bucket in buckets:
            bucket.sort(key=lambda p: p.local)
        return tuple(tuple(bucket) for bucket in buckets)

    @cached_property
    def by_grad(self) -> tuple[tuple[ShardPiece, ...], ...]:
        """Pieces of each gradient, in slice order, indexed by gradient."""
        out: list[list[ShardPiece]] = [[] for _ in range(self.pieces[-1].grad + 1)]
        for piece in self.pieces:
            out[piece.grad].append(piece)
        return tuple(tuple(ps) for ps in out)

    @cached_property
    def loads(self) -> tuple[float, ...]:
        """Total bytes assigned to each shard."""
        totals = [0.0] * self.n_servers
        for piece in self.pieces:
            totals[piece.shard] += piece.nbytes
        return tuple(totals)


def assign_shards(
    sizes: Sequence[float] | np.ndarray,
    n_servers: int,
    slice_bytes: float | None = None,
) -> ShardAssignment:
    """Deterministic size-balanced key→shard assignment.

    ``slice_bytes`` enables P3-style slicing: a gradient larger than the
    threshold is split into ``ceil(size / slice_bytes)`` equal contiguous
    slices before packing, so one huge tensor cannot dominate a shard.
    """
    sizes = [float(s) for s in sizes]
    if not sizes:
        raise ConfigurationError("cannot shard an empty gradient set")
    if any(s <= 0 for s in sizes):
        raise ConfigurationError("gradient sizes must be positive")
    if n_servers < 1:
        raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
    if slice_bytes is not None and slice_bytes <= 0:
        raise ConfigurationError(
            f"slice_bytes must be positive, got {slice_bytes}"
        )

    # 1. Slice.  Slice boundaries are ``size * i / k`` so the piece sizes
    # telescope to exactly the tensor size (no float residue).
    raw: list[tuple[int, int, float, float]] = []  # (grad, part, offset, nbytes)
    for grad, size in enumerate(sizes):
        if slice_bytes is not None and size > slice_bytes:
            k = int(np.ceil(size / slice_bytes))
            bounds = [size * i / k for i in range(k + 1)]
            for part in range(k):
                raw.append((grad, part, bounds[part], bounds[part + 1] - bounds[part]))
        else:
            raw.append((grad, 0, 0.0, size))

    if n_servers > len(raw):
        raise ConfigurationError(
            f"n_servers={n_servers} exceeds the {len(raw)} gradient pieces "
            "available (every shard needs at least one key; lower n_servers "
            "or enable slicing via shard_slice_bytes)"
        )

    # 2. Greedy LPT onto the lightest shard; all tie-breaks deterministic.
    order = sorted(raw, key=lambda p: (-p[3], p[0], p[1]))
    heap = [(0.0, s) for s in range(n_servers)]
    heapify(heap)
    shard_of: dict[tuple[int, int], int] = {}
    for grad, part, _, nbytes in order:
        load, shard = heappop(heap)
        shard_of[(grad, part)] = shard
        heappush(heap, (load + nbytes, shard))

    # 3. Dense local indices in (grad, part) order per shard.
    next_local = [0] * n_servers
    pieces: list[ShardPiece] = []
    for grad, part, offset, nbytes in raw:  # raw is already (grad, part)-sorted
        shard = shard_of[(grad, part)]
        pieces.append(
            ShardPiece(
                grad=grad,
                part=part,
                offset=offset,
                nbytes=nbytes,
                shard=shard,
                local=next_local[shard],
            )
        )
        next_local[shard] += 1
    return ShardAssignment(n_servers=n_servers, pieces=tuple(pieces))


def restrict_generation_schedule(
    schedule: GenerationSchedule, assignment: ShardAssignment, shard: int
) -> GenerationSchedule:
    """Project ``schedule`` onto ``shard``'s local piece index space.

    Every piece inherits its parent gradient's generation/raw times (all
    slices of a tensor flush together) and contributes its own bytes.
    Buckets keep the global flush order, restricted to the shard's pieces;
    buckets with no pieces on this shard disappear.
    """
    local_pieces = assignment.by_shard[shard]
    c = np.array([schedule.c[p.grad] for p in local_pieces], dtype=float)
    raw = np.array([schedule.raw[p.grad] for p in local_pieces], dtype=float)
    sizes = np.array([p.nbytes for p in local_pieces], dtype=float)

    local_of: dict[tuple[int, int], int] = {
        (p.grad, p.part): p.local for p in local_pieces
    }
    shard_parts: dict[int, list[int]] = {}
    for p in local_pieces:
        shard_parts.setdefault(p.grad, []).append(p.part)

    buckets: list[tuple[int, ...]] = []
    bucket_of = np.zeros(len(local_pieces), dtype=schedule.bucket_of.dtype)
    for bucket in schedule.buckets:
        locals_here: list[int] = []
        for grad in bucket:
            for part in shard_parts.get(grad, ()):
                locals_here.append(local_of[(grad, part)])
        if locals_here:
            bucket_of[locals_here] = len(buckets)
            buckets.append(tuple(locals_here))

    return GenerationSchedule(
        c=c,
        raw=raw,
        bucket_of=bucket_of,
        buckets=tuple(buckets),
        sizes=sizes,
        backward_time=schedule.backward_time,
    )
