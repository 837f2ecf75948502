"""Directed state graph over (node, charge) pairs and feasible-walk queries.

A commodity at node u with residual charge i occupies state (u, i). Moving
along an edge (u, v) refills the charge to kappa when v is a refill node and
otherwise decrements it by one; at charge 0 only refill nodes can be entered.
The optional augmented graph adds one sink state per node that absorbs
arrivals at any charge level, so that shortest feasible walks become plain
shortest paths.

Flat state index layout: block b holds charge kappa - b, so
``idx = (kappa - soc) * n + node``; sink states live in one extra block at
``(kappa + 1) * n + node``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable
import numpy as np
import scipy.sparse

from .graph import SocInstance, adjacency_matrix, bfs, csr

# Marker for the charge level of sink states in the augmented graph.
STAR = "star"

_U64_MAX = 2**64 - 1
# Random source-target draws before an input counts as having no feasible pair.
MAX_PAIR_DRAWS = 1000


class StateGraph:
    """Immutable CSR adjacency over flat state indices."""

    def __init__(self, instance: SocInstance, starred: bool):
        self.instance = instance
        self.starred = bool(starred)
        g = instance.graph
        self.n = g.n
        self.kappa = instance.kappa
        self.n_numeric = g.n * (instance.kappa + 1)
        self.n_states = self.n_numeric + (g.n if starred else 0)
        self.indptr, self.indices, self.arc_src = self._build()

    def _build(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.instance.graph
        n, kappa = self.n, self.kappa
        refill = self.instance.omega.mask[g.indices]
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        for block in range(kappa + 1):
            soc = kappa - block
            src = block * n + g.arc_src
            # Refill arcs land in block 0 (full charge).
            src_parts.append(src[refill])
            dst_parts.append(g.indices[refill])
            if soc >= 1:
                src_parts.append(src[~refill])
                dst_parts.append((block + 1) * n + g.indices[~refill])
        if self.starred:
            numeric = np.arange(self.n_numeric, dtype=np.int64)
            src_parts.append(numeric)
            dst_parts.append(self.n_numeric + (numeric % n))
        return csr(self.n_states, np.concatenate(src_parts), np.concatenate(dst_parts))

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @functools.cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        return adjacency_matrix(self.n_states, self.indptr, self.indices)

    def state_index(self, node: int, soc) -> int:
        if soc == STAR:
            if not self.starred:
                raise ValueError("state graph has no sink states")
            return self.n_numeric + node
        if not (0 <= soc <= self.kappa):
            raise ValueError(f"charge {soc} outside [0,{self.kappa}]")
        return (self.kappa - soc) * self.n + node

    def state_of(self, idx: int) -> tuple[int, int | str]:
        if idx >= self.n_numeric:
            return idx - self.n_numeric, STAR
        return idx % self.n, self.kappa - idx // self.n

    def source_state(self, node: int) -> int:
        """Departure state: full charge regardless of refill membership."""
        return self.state_index(node, self.kappa)

    def out_states(self, idx: int) -> np.ndarray:
        return self.indices[self.indptr[idx] : self.indptr[idx + 1]]

    def __repr__(self) -> str:
        star = ", starred" if self.starred else ""
        return f"StateGraph(states={self.n_states}, arcs={self.n_arcs}{star})"


def build_state_graph(inst: SocInstance, starred: bool = False) -> StateGraph:
    """Construct the state graph (optionally with per-node sink states)."""
    return StateGraph(inst, starred)


def apply_bkappa(sg: StateGraph, x: np.ndarray) -> np.ndarray:
    """Row action y[s] = sum over arcs s->d of x[d], without materializing the matrix."""
    if sg.starred:
        raise ValueError("apply_bkappa requires an unstarred state graph")
    x = np.asarray(x, dtype=float)
    if x.shape != (sg.n_states,):
        raise ValueError(f"vector length {x.shape} does not match {sg.n_states} states")
    return sg.adjacency @ x


@dataclass
class WalkCounts:
    """Exact feasible-walk counts with a saturation view for wide entries."""

    counts: list[list[int]]
    saturated: bool

    def as_array(self) -> np.ndarray:
        """uint64 view; entries above 2**64-1 saturate (flagged in ``saturated``)."""
        n = len(self.counts)
        out = np.zeros((n, n), dtype=np.uint64)
        for i in range(n):
            for j in range(n):
                out[i, j] = min(self.counts[i][j], _U64_MAX)
        return out


def count_feasible_walks(inst: SocInstance, k: int) -> WalkCounts:
    """Number of length-k walks i -> j traversable when departing at full charge.

    Entry (i, j) sums arrivals over all charge levels. Counts are exact
    (arbitrary precision); ``saturated`` flags entries wider than 64 bits.
    """
    if k < 0:
        raise ValueError("walk length must be nonnegative")
    sg = build_state_graph(inst, starred=False)
    n = inst.graph.n
    indptr, indices = sg.indptr, sg.indices
    counts: list[list[int]] = []
    saturated = False
    for i in range(n):
        cur: dict[int, int] = {sg.source_state(i): 1}
        for _ in range(k):
            nxt: dict[int, int] = {}
            for st, c in cur.items():
                for d in indices[indptr[st] : indptr[st + 1]]:
                    d = int(d)
                    nxt[d] = nxt.get(d, 0) + c
            cur = nxt
            if not cur:
                break
        row = [0] * n
        for st, c in cur.items():
            row[st % n] += c
        counts.append(row)
        if any(c > _U64_MAX for c in row):
            saturated = True
    return WalkCounts(counts, saturated)


def reachable_nodes(sg: StateGraph, source_node: int) -> np.ndarray:
    """Boolean mask of nodes with a feasible walk from ``source_node`` (itself included)."""
    d = bfs(sg.indptr, sg.indices, sg.source_state(source_node))[0]
    reached_states = np.flatnonzero(d[: sg.n_numeric] >= 0)
    mask = np.zeros(sg.n, dtype=bool)
    mask[reached_states % sg.n] = True
    return mask


def draw_feasible_pair(
    rng: np.random.Generator, n: int, feasible: Callable[[int, int], bool]
) -> tuple[int, int, int]:
    """Uniform ordered pair (s, t), s != t, with ``feasible(s, t)``, and the infeasible draws skipped.

    Each draw takes s, then t. A draw with s == t is redrawn and not counted
    as infeasible. Raises ``ValueError`` after ``MAX_PAIR_DRAWS`` draws.
    """
    if n < 2:
        raise ValueError("need at least two nodes to sample pairs")
    resampled = 0
    for _ in range(MAX_PAIR_DRAWS):
        s = int(rng.integers(n))
        t = int(rng.integers(n))
        if s == t:
            continue
        if feasible(s, t):
            return s, t, resampled
        resampled += 1
    raise ValueError(f"no feasible source-target pair in {MAX_PAIR_DRAWS} draws")


def shortest_feasible_walk_length(inst: SocInstance, s: int, t: int) -> int | None:
    """Length of a shortest feasible s->t walk, or None when unreachable.

    Computed as the augmented-graph BFS distance from (s, kappa) to the sink
    of t, minus the final sink hop. s == t yields 0.
    """
    n = inst.graph.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("node id out of range")
    sg = build_state_graph(inst, starred=True)
    d = bfs(sg.indptr, sg.indices, sg.source_state(s))[0]
    dist = d[sg.state_index(t, STAR)]
    if dist < 0:
        return None
    return int(dist) - 1
