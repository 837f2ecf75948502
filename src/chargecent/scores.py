"""Per-node score vectors with provenance metadata and CSV serialization, and
Kendall's tau between two of them once aligned."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .graph import Graph, GraphParseError, records

CSV_HEADER = "node_label,score"


@dataclass
class ScoreVector:
    """Real-valued per-node scores plus the metadata that produced them."""

    values: np.ndarray
    labels: list[str]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.labels) != self.values.shape[0]:
            raise ValueError("values and labels must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite")

    @classmethod
    def for_graph(cls, g: Graph, values: np.ndarray, meta: dict) -> "ScoreVector":
        """Scores a computation produced over ``g``'s nodes; a NaN or inf among them is its failure."""
        values = np.asarray(values, dtype=float)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericalError(f"{bad.size} non-finite score(s), the first {values[bad[0]]} at node id {bad[0]}")
        return cls(values, list(g.labels), meta)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for lab, v in zip(self.labels, self.values):
                fh.write(f"{lab},{float(v)!r}\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "ScoreVector":
        labels: list[str] = []
        vals: list[float] = []
        for lineno, line in records(Path(path).read_text().splitlines(), None):
            if not labels and line == CSV_HEADER:
                continue
            parts = line.rsplit(",", 1)
            if len(parts) != 2:
                raise GraphParseError(f"expected 'label,score' in {path}", lineno)
            try:
                vals.append(float(parts[1]))
            except ValueError:
                raise GraphParseError(f"score {parts[1]!r} is not a number in {path}", lineno) from None
            labels.append(parts[0].strip())
        return cls(np.asarray(vals, dtype=float), labels)


def align_scores(a: ScoreVector, b: ScoreVector) -> tuple[np.ndarray, np.ndarray]:
    """Align two score vectors on node labels; order follows ``a``."""
    index = {lab: i for i, lab in enumerate(b.labels)}
    if len(index) != len(b.labels) or len(set(a.labels)) != len(a.labels):
        raise ValueError("duplicate labels in score vector")
    missing = [lab for lab in a.labels if lab not in index]
    if missing or len(a.labels) != len(b.labels):
        raise ValueError(f"node labels do not align (first missing: {missing[:3]})")
    return a.values.copy(), b.values[[index[lab] for lab in a.labels]]


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


def kendall_tau(y: Sequence[float], z: Sequence[float], variant: str = "a") -> float:
    """Kendall rank correlation in [-1, 1] of two finite real vectors, compared as given (integers exactly).

    Tau-a (the default) counts tied pairs as zero in the numerator and all
    n(n-1)/2 pairs in the denominator; tau-b divides by the pairs untied in
    each input instead, for tie-heavy realized scores. Concordant minus
    discordant pairs come from Knight's decomposition: sort by (y, z) and
    count the strict inversions of z by merge sort, exactly equal to the
    quadratic definition; pairs tied in y or z are neither.
    """
    y, z = np.asarray(y), np.asarray(z)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("inputs must be equal-length one-dimensional sequences")
    if not all(a.dtype.kind in "biuf" and np.isfinite(a).all() for a in (y, z)):
        raise ValueError("inputs must be finite real numbers")
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    order = np.lexsort((z, y))
    ys, zs = y[order], z[order]
    n0 = n * (n - 1) // 2
    ties_y = _tie_pairs(ys)
    ties_z = _tie_pairs(np.sort(z))
    excess = (n0 - ties_y - ties_z + _tie_pairs(ys, zs)) - 2 * _inversions(zs)
    if variant == "a":
        return excess / n0
    if variant == "b":
        denom = (n0 - ties_y) * (n0 - ties_z)
        if denom == 0:
            raise ValueError("tau-b undefined for a constant input")
        return excess / math.sqrt(denom)
    raise ValueError("variant must be 'a' or 'b'")
