"""The instance, its directed state graph over (node, charge) pairs, and source-target pairs.

An instance is a graph, its refill set and its hop budget kappa. A commodity
at node u with residual charge i occupies state (u, i). Moving along an edge
(u, v) refills the charge to kappa when v is a refill node and otherwise
decrements it by one; at charge 0 only refill nodes can be entered.

Flat state index layout: block b holds charge kappa - b, so
``idx = (kappa - soc) * n + node``. A walk reaches node t when it enters any
of t's kappa + 1 states; ``StateGraph.toward`` searches backward from all of
them at once, for several targets per search, and keeps the tables.

Source-target pairs are drawn here among the feasible ones, and a given
pair list is checked here, by ``check_pairs``, for every consumer.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError
from .graph import Digraph, Graph, bfs, integer, node_id, node_pair

# Random source-target draws before an input counts as having no feasible pair.
MAX_PAIR_DRAWS = 1000
# Bytes of the tables one state graph keeps, 12 per state per target (int32
# dist, float64 paths): max(1, TABLE_BYTES // (12 * states)) tables, the least
# recently used evicted past that.
TABLE_BYTES = 3 * 10**8
# Bound on C * (N + A) per search, for C targets and N states and A arcs: one
# ``bfs`` call's C * N labels and at most C * A arcs at one level. All 256
# tables of the traffic benchmark's instance (16x16 grid, kappa 16, ratio 0.2,
# N + A = 19,909; C = 6 here), 2 vCPUs, by targets per search, the median of 7
# runs in each of 3 processes (their range): 1 target 0.31-0.44 s, 3
# 0.16-0.25 s, 6 0.13-0.20 s, 13 0.12-0.17 s, 26 0.13-0.16 s, 52 0.12-0.15 s;
# peak RSS 76.5, 76.5, 76.5, 77.4, 80.0, 84.4 MB.
TABLE_CELLS = 2**17


@dataclass(frozen=True, eq=False)
class SocInstance:
    """A graph, its refill set and hop budget; the unit all measures consume.

    ``refill`` is the refill set as a boolean mask over the node ids, made
    read-only here, so that the state graph built from it cannot go stale.
    Instances compare by identity, as the mask has no single truth value.
    """

    graph: Graph
    refill: np.ndarray
    kappa: int

    def __post_init__(self):
        object.__setattr__(self, "kappa", integer(self.kappa, "kappa"))  # the int it reads as; frozen, so set here
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.refill.shape != (self.graph.n,) or self.refill.dtype != bool:
            raise ValueError("refill set must be a boolean mask with one entry per node")
        self.refill.flags.writeable = False

    def __reduce__(self):
        # Unpickling rebuilds the instance, so the mask is checked and frozen
        # again and the state graph is rebuilt on first use, not shipped.
        return SocInstance, (self.graph, self.refill, self.kappa)

    @property
    def meta(self) -> dict:
        """The instance's part of a score vector's meta: its hop budget and refill node ids."""
        return {"kappa": self.kappa, "omega": np.flatnonzero(self.refill).tolist()}

    @functools.cached_property
    def state_graph(self) -> StateGraph:
        """The (node, charge) state graph, built on first use and kept with its ``toward`` tables."""
        return build_state_graph(self)


def make_instance(graph: Graph, omega: Iterable[int], kappa: int) -> SocInstance:
    """The instance whose refill set is the node ids in omega, in any order, repeats allowed."""
    ids = [node_id(v, graph.n) for v in omega]
    refill = np.zeros(graph.n, dtype=bool)
    refill[ids] = True
    return SocInstance(graph, refill, kappa)


class StateGraph(Digraph):
    """Immutable CSR digraph over flat state indices, with a cache of ``toward`` tables."""

    def __init__(self, instance: SocInstance):
        g, n, kappa = instance.graph, instance.graph.n, instance.kappa
        self.n, self.kappa, self.n_states = n, kappa, n * (kappa + 1)
        refill, block = instance.refill[g.indices], np.arange(kappa + 1)[:, None]
        # Each base arc once per block b: refill arcs land in block 0 (full charge), the
        # others spend a unit of the charge kappa - b, into block b + 1, so block kappa has none.
        keep = refill | (block < kappa)
        dst = np.where(refill, g.indices, (block + 1) * n + g.indices)[keep]
        super().__init__(self.n_states, (block * n + g.arc_src)[keep], dst)
        self._tables: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    def state_index(self, node: int, soc: int) -> int:
        if not (0 <= soc <= self.kappa):
            raise ValueError(f"charge {soc} outside [0,{self.kappa}]")
        return (self.kappa - soc) * self.n + node_id(node, self.n)

    def source_state(self, node: int) -> int:
        """Departure state: full charge regardless of refill membership."""
        return self.state_index(node, self.kappa)

    def toward(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The table of target t: a backward BFS from t's states at every charge level.

        Per state: ``dist``, the hops of a shortest feasible walk to node t (0 at
        t's own states, -1 where t is unreachable; int32), and ``paths``, the
        number of such shortest walks (float64, as ``bfs`` counts).

        Tables are cached. A miss searches for t and the next uncached node ids
        after it (wrapping around), C targets in all, as one ``bfs`` of the
        reverse state graph with one row per target; each row's tables are
        bit-identical to a search of their own. C = max(1, ``TABLE_CELLS`` //
        (N + A)) for N states and A arcs, at most the number of tables kept.
        """
        tables = self._tables
        if type(t) is not int:  # one test on the hit path, which every routed move takes
            t = node_id(t, self.n)
        if t in tables:
            tables.move_to_end(t)
            return tables[t]
        t = node_id(t, self.n)
        n, size = self.n, self.n_states
        keep = max(1, TABLE_BYTES // (12 * size))
        c = min(max(1, TABLE_CELLS // (size + self.n_arcs)), keep)
        after = itertools.chain(range(t, n), range(t))
        todo = list(itertools.islice((u for u in after if u not in tables), c))
        # The tree-arc lists are freed before the rows are copied out, and the
        # rows are copies, so no chunk array outlives the call.
        rev = self.reverse
        dist, paths = bfs(rev.indptr, rev.indices, np.array(todo)[:, None] + np.arange(self.kappa + 1) * n)[:2]
        if dist.max() > np.iinfo(np.int32).max:
            raise NumericalError(f"a shortest feasible walk of {dist.max()} hops overflows int32")
        for u, row_dist, row_paths in zip(todo, dist.reshape(-1, size), paths.reshape(-1, size)):
            tables[u] = (row_dist.astype(np.int32), row_paths.copy())
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


def sample_feasible_pairs(inst: SocInstance, count: int, seed: int) -> tuple[list[tuple[int, int]], int]:
    """``count`` draws of ``draw_feasible_pair`` from ``default_rng(seed)``, and the count of infeasible draws."""
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    resampled = 0
    for _ in range(count):
        s, t, redraws = draw_feasible_pair(rng, inst.state_graph)
        pairs.append((s, t))
        resampled += redraws
    return pairs, resampled


def check_pairs(pairs: Iterable[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """The pairs as int pairs, checked: at least one, each read by ``node_pair``, source != target.

    ``Graph``'s edges are read by the same rule. A failure is a ``ValueError``
    naming the pair and, for a bad id, the id.
    """
    checked = []
    for pair in pairs:
        s, t = node_pair(pair, n, "pair")
        if s == t:
            raise ValueError(f"pair ({s}, {t}) has the same source and target; they must differ")
        checked.append((s, t))
    if not checked:
        raise ValueError("at least one source-target pair required")
    return checked
