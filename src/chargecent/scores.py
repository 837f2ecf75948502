"""Per-node score vectors with provenance metadata and CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .graph import Graph

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
        lines = Path(path).read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line == CSV_HEADER:
                continue
            parts = line.rsplit(",", 1)
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'label,score'")
            labels.append(parts[0])
            vals.append(float(parts[1]))
        return cls(np.asarray(vals, dtype=float), labels)


def align_scores(a: ScoreVector, b: ScoreVector) -> tuple[np.ndarray, np.ndarray]:
    """Align two score vectors on node labels; order follows ``a``."""
    index = {lab: i for i, lab in enumerate(b.labels)}
    if len(index) != len(b.labels):
        raise ValueError("duplicate labels in score vector")
    missing = [lab for lab in a.labels if lab not in index]
    if missing or len(a.labels) != len(b.labels):
        raise ValueError(f"node labels do not align (first missing: {missing[:3]})")
    return a.values.copy(), b.values[[index[lab] for lab in a.labels]]
