"""Rank correlation between expected and realized centralities.

Kendall's tau in the tau-a form: tied pairs contribute zero to the numerator
while the denominator counts all n(n-1)/2 pairs. The fast path counts
discordant pairs by merge sort and is exactly equivalent to the quadratic
definition; tau-b is available for tie-heavy realized scores.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _inversions(z: np.ndarray) -> int:
    """Number of strict inversions in z (equal elements are not inversions).

    Bottom-up merge sort, one stable sort per level of block width. Merging a
    left and a right half, the right-half element at index i lands at merged
    index j, having passed i - j left-half elements that exceed it.
    """
    n = z.shape[0]
    buf = z.copy()
    idx = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        block = idx // (2 * width)
        order = np.lexsort((buf, block))  # stable: ties keep left-half elements first
        merged_at = np.empty(n, dtype=np.int64)
        merged_at[order] = idx
        right = idx - block * (2 * width) >= width
        inversions += int((idx[right] - merged_at[right]).sum())
        buf = buf[order]
        width *= 2
    return inversions


def _tie_pairs(*sorted_cols: np.ndarray) -> int:
    """Pairs of equal rows, given columns sorted so that equal rows are adjacent."""
    change = np.zeros(sorted_cols[0].shape[0] - 1, dtype=bool)
    for col in sorted_cols:
        change |= col[1:] != col[:-1]
    runs = np.diff(np.flatnonzero(np.concatenate(([True], change, [True]))))
    return int((runs * (runs - 1) // 2).sum())


def concordance_excess(y: Sequence[float], z: Sequence[float]) -> tuple[int, dict[str, int]]:
    """Concordant minus discordant pair count, with tie statistics.

    Uses Knight's decomposition: sort by (y, z), count strict inversions of z
    by merge sort; pairs tied in y or z are neither concordant nor discordant.
    """
    y = np.asarray(y)
    z = np.asarray(z)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("inputs must be equal-length one-dimensional sequences")
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    order = np.lexsort((z, y))
    ys, zs = y[order], z[order]
    n0 = n * (n - 1) // 2
    ties_y = _tie_pairs(ys)
    ties_z = _tie_pairs(np.sort(z))
    both = _tie_pairs(ys, zs)
    discordant = _inversions(zs)
    excess = (n0 - ties_y - ties_z + both) - 2 * discordant
    return excess, {"n0": n0, "ties_y": ties_y, "ties_z": ties_z, "ties_both": both}


def kendall_tau(y: Sequence[float], z: Sequence[float], variant: str = "a") -> float:
    """Kendall rank correlation in [-1, 1]."""
    excess, c = concordance_excess(y, z)
    if variant == "a":
        return excess / c["n0"]
    if variant == "b":
        denom = (c["n0"] - c["ties_y"]) * (c["n0"] - c["ties_z"])
        if denom == 0:
            raise ValueError("tau-b undefined for a constant input")
        return excess / math.sqrt(denom)
    raise ValueError("variant must be 'a' or 'b'")

