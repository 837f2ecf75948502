"""Directed state graph over (node, charge) pairs and feasible-walk queries.

A commodity at node u with residual charge i occupies state (u, i). Moving
along an edge (u, v) refills the charge to kappa when v is a refill node and
otherwise decrements it by one; at charge 0 only refill nodes can be entered.

Flat state index layout: block b holds charge kappa - b, so
``idx = (kappa - soc) * n + node``. A walk reaches node t when it enters any
of t's kappa + 1 states; ``StateGraph.toward`` searches backward from all of
them at once.
"""

from __future__ import annotations

import functools
from typing import Callable
import numpy as np
import scipy.sparse

from .graph import SocInstance, adjacency_matrix, bfs, csr

# Random source-target draws before an input counts as having no feasible pair.
MAX_PAIR_DRAWS = 1000


class StateGraph:
    """Immutable CSR adjacency over flat state indices."""

    def __init__(self, instance: SocInstance):
        self.instance = instance
        g = instance.graph
        self.n = g.n
        self.kappa = instance.kappa
        self.n_states = g.n * (instance.kappa + 1)
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
        return csr(self.n_states, np.concatenate(src_parts), np.concatenate(dst_parts))

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @functools.cached_property
    def adjacency(self) -> scipy.sparse.csr_array:
        return adjacency_matrix(self.n_states, self.indptr, self.indices)

    @functools.cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        rptr, ridx, _ = csr(self.n_states, self.indices, self.arc_src)
        return rptr, ridx

    def state_index(self, node: int, soc: int) -> int:
        if not (0 <= soc <= self.kappa):
            raise ValueError(f"charge {soc} outside [0,{self.kappa}]")
        return (self.kappa - soc) * self.n + node

    def source_state(self, node: int) -> int:
        """Departure state: full charge regardless of refill membership."""
        return self.state_index(node, self.kappa)

    def toward(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """One backward BFS from t's states at every charge level.

        Per state: ``dist``, the hops of a shortest feasible walk to node t (0 at
        t's own states, -1 where t is unreachable), and ``paths``, the number of
        such shortest walks (float64, as ``bfs`` counts).
        """
        if not (0 <= t < self.n):
            raise ValueError(f"node id {t} out of range [0,{self.n})")
        rptr, ridx = self._reverse
        dist, paths, _, _ = bfs(rptr, ridx, np.arange(self.kappa + 1) * self.n + t)
        return dist, paths

    def __repr__(self) -> str:
        return f"StateGraph(states={self.n_states}, arcs={self.n_arcs})"


def build_state_graph(inst: SocInstance) -> StateGraph:
    """Construct the state graph of an instance."""
    return StateGraph(inst)


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
