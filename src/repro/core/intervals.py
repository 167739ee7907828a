"""Block time intervals A(i).

Algorithm 1 initializes "the expected transfer time interval
``A(i) ← min |c(i) − c(j)|, j < i``" — the window gradient ``i`` has for
transmission "before the higher-priority gradients are generated".  Taken
literally the formula degenerates (gradients flushed in the same burst have
``|c(i) − c(j)| = 0``), so we implement the evidently intended quantity:

    ``A(i)`` = time from ``c(i)`` until the next *strictly later* generation
    event of a higher-priority gradient — i.e. the width of gradient ``i``'s
    step in the staircase.

Gradients in the final block (the one containing gradient 0) have no later
higher-priority generation; their interval is ``+inf`` (the backward-phase
packing constraint vanishes and the forward-phase rules take over).

See DESIGN.md ("A(i) definition") for the fidelity note.
"""

from __future__ import annotations

import numpy as np

from repro.agg.stepwise import detect_blocks

__all__ = ["block_intervals"]


def block_intervals(c: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Per-gradient block time interval ``A(i)``.

    Parameters
    ----------
    c:
        Generation times indexed by gradient (the paper's ``c(i)``).
    eps:
        Same-block tolerance: generation events within ``eps`` seconds
        belong to one burst.
    """
    c = np.asarray(c, dtype=float)
    blocks = detect_blocks(c, eps)
    a = np.full(len(c), np.inf)
    for this_block, next_block in zip(blocks, blocks[1:]):
        step = c[next_block[0]] - c[this_block[0]]
        a[this_block] = step
    return a

