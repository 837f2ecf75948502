"""Directed state graph over (node, charge) pairs and feasible-walk queries.

A commodity at node u with residual charge i occupies state (u, i). Moving
along an edge (u, v) refills the charge to kappa when v is a refill node and
otherwise decrements it by one; at charge 0 only refill nodes can be entered.

Flat state index layout: block b holds charge kappa - b, so
``idx = (kappa - soc) * n + node``. A walk reaches node t when it enters any
of t's kappa + 1 states; ``StateGraph.toward`` searches backward from all of
them at once, for several targets per search, and keeps the tables.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict

import numpy as np
import scipy.sparse

from .errors import NumericalError
from .graph import SocInstance, adjacency_matrix, bfs, csr, disjoint_copies

# Random source-target draws before an input counts as having no feasible pair.
MAX_PAIR_DRAWS = 1000
# Bytes of the tables one state graph keeps, 12 per state per target (int32
# dist, float64 paths): max(1, TABLE_BYTES // (12 * states)) tables, the least
# recently used evicted past that.
TABLE_BYTES = 3 * 10**8
# Entries of the reverse copies' CSR per search, C * (N + A) for N states and A
# arcs. On the 16x16 grid, kappa 16, ratio 0.2 (N + A = 19,901), 2 vCPUs, by
# copies: all 256 tables (min of 7 runs) 1 copy 0.22 s, 3 0.15 s, 6 0.13 s, 13
# 0.14 s, 26 0.12 s; peak RSS of four soc-bc + hopping experiment runs in one
# process 94.8, 95.2, 98.5, 100.8, 103.4 MB (99.6 MB with a search per target).
TABLE_CELLS = 2**17


class StateGraph:
    """Immutable CSR adjacency over flat state indices, with a cache of ``toward`` tables."""

    def __init__(self, instance: SocInstance):
        self.instance = instance
        g = instance.graph
        self.n = g.n
        self.kappa = instance.kappa
        self.n_states = g.n * (instance.kappa + 1)
        self.indptr, self.indices, self.arc_src = self._build()
        self._tables: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()

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
    def _reverse_copies(self) -> tuple[int, int, np.ndarray, np.ndarray]:
        """Targets per search C, tables kept, and the CSR of C disjoint copies of the reverse graph."""
        keep = max(1, TABLE_BYTES // (12 * self.n_states))
        c = min(max(1, TABLE_CELLS // (self.n_states + self.n_arcs)), keep)
        rptr, ridx, _ = csr(self.n_states, self.indices, self.arc_src)
        return c, keep, *disjoint_copies(rptr, ridx, c)

    def state_index(self, node: int, soc: int) -> int:
        if not (0 <= soc <= self.kappa):
            raise ValueError(f"charge {soc} outside [0,{self.kappa}]")
        return (self.kappa - soc) * self.n + node

    def source_state(self, node: int) -> int:
        """Departure state: full charge regardless of refill membership."""
        return self.state_index(node, self.kappa)

    def toward(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The table of target t: a backward BFS from t's states at every charge level.

        Per state: ``dist``, the hops of a shortest feasible walk to node t (0 at
        t's own states, -1 where t is unreachable; int32), and ``paths``, the
        number of such shortest walks (float64, as ``bfs`` counts).

        Tables are cached. A miss searches for t and the next uncached node ids
        after it (wrapping around), C targets in all, as one ``bfs`` over C
        disjoint copies of the reverse state graph; each copy's tables are
        bit-identical to a search of their own. C = max(1, ``TABLE_CELLS`` //
        (N + A)) for N states and A arcs, at most the number of tables kept.
        """
        tables = self._tables
        if t in tables:
            tables.move_to_end(t)
            return tables[t]
        if not (0 <= t < self.n):
            raise ValueError(f"node id {t} out of range [0,{self.n})")
        c, keep, cptr, cidx = self._reverse_copies
        n, size = self.n, self.n_states
        after = itertools.chain(range(t, n), range(t))
        todo = list(itertools.islice((u for u in after if u not in tables), c))
        # Copy i searches from target todo[i]'s states, at i * size + b * n + todo[i] for every block b.
        starts = (np.arange(len(todo)) * size + np.array(todo))[:, None] + np.arange(self.kappa + 1) * n
        # The tree-arc lists are freed before the rows are copied out, and the
        # rows are copies, so no chunk array outlives the call.
        dist, paths = bfs(cptr, cidx, starts.ravel())[:2]
        if dist.max() > np.iinfo(np.int32).max:
            raise NumericalError(f"a shortest feasible walk of {dist.max()} hops overflows int32")
        for i, u in enumerate(todo):
            row = slice(i * size, (i + 1) * size)
            tables[u] = (dist[row].astype(np.int32), paths[row].copy())
        tables.move_to_end(t)
        while len(tables) > keep:
            tables.popitem(last=False)
        return tables[t]

    def feasible(self, s: int, t: int) -> bool:
        """Whether a feasible walk leads from node s, departing at full charge, to node t."""
        return bool(self.toward(t)[0][self.source_state(s)] >= 0)

    def __repr__(self) -> str:
        return f"StateGraph(states={self.n_states}, arcs={self.n_arcs})"


def build_state_graph(inst: SocInstance) -> StateGraph:
    """Construct the state graph of an instance."""
    return StateGraph(inst)


def draw_feasible_pair(rng: np.random.Generator, sg: StateGraph) -> tuple[int, int, int]:
    """Uniform ordered pair (s, t), s != t, with ``sg.feasible(s, t)``, and the infeasible draws skipped.

    Each draw takes s, then t. A draw with s == t is redrawn and not counted
    as infeasible. Raises ``ValueError`` after ``MAX_PAIR_DRAWS`` draws.
    """
    if sg.n < 2:
        raise ValueError("need at least two nodes to sample pairs")
    resampled = 0
    for _ in range(MAX_PAIR_DRAWS):
        s = int(rng.integers(sg.n))
        t = int(rng.integers(sg.n))
        if s == t:
            continue
        if sg.feasible(s, t):
            return s, t, resampled
        resampled += 1
    raise ValueError(f"no feasible source-target pair in {MAX_PAIR_DRAWS} draws")
