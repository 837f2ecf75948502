"""Betweenness from shortest feasible walks, on the state graph itself.

A walk reaches node t at whichever charge level it arrives with. From source
s, t's arrival states are its states at t's least distance from (s, kappa),
and the sigma(s -> t) shortest feasible s-to-t walks are the shortest paths
into them (their path counts summed in block order). Each arrival state x is
credited init[x] = sigma(x) / sigma(s -> t), and one accumulation in
non-increasing distance order carries the credits back: rest[v] sums
sigma(v) / sigma(w) * (init[w] + rest[w]) over v's tree arcs v -> w (Brandes,
*On variants of shortest-path betweenness centrality and their generic
computation*, Social Networks 2008). Only arcs into states gated by a credit
below them are followed. Plain bc is the same on the base graph, one charge
block, where init is 1.0 at every reached node.

Sources run in chunks of C = max(1, min(n, ``CELLS`` // (N + A))) for the n
sources and the N nodes and A arcs searched (states for soc-bc, nodes for
bc), so a small graph is not copied past its sources. A chunk is one
``bfs`` and one accumulation over C disjoint copies of the searched graph
(``graph.disjoint_copies``), copy i starting at i*N plus its source: C
independent BFSs, with one numpy pass per level for all of them. Each
source's row is then added to the total one row at a time, in source order,
so every float is summed in the same order as by one BFS per source.

soc-bc's search drops charge-dominated states. A move from (u, i) is also
possible from (u, i') with i' >= i, and it leaves at least as much charge.
So a state (u, i) first reached after some (u, i'), i' >= i, was reached at
an earlier level lies on no shortest walk to an arrival state: the same
continuation from (u, i') would arrive sooner. Every state on such a walk,
and every shortest path into it, is kept, so sigma there, the dependencies
and the scores are unchanged (the dominance rule of resource-constrained
shortest paths; Irnich & Desaulniers, 2005).

Endpoint convention: each ordered pair with a feasible walk credits its
target one unit, init, and never its source: soc-bc credits init + rest, bc
rest plus an init row. ``endpoints="none"`` credits interior nodes only
(soc-bc adds a -init row, bc none); both measures share each convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SocInstance, bfs, disjoint_copies
from .scores import ScoreVector
from .statespace import StateGraph, build_state_graph

ENDPOINT_CONVENTIONS = ("target", "none")
# Entries of the copies' CSR, C * (N + A) for N nodes and A arcs, per chunk.
# It bounds each chunk's arrays: one level expands at most C * A arcs. soc-bc
# on 2 vCPUs by copies per chunk, timed with a sink state per node searched too
# (min of 7 runs on the 16x16 grid, single runs elsewhere): 16x16 grid, kappa
# 16 (N + A = 19,901): 1 copy 0.44 s, 4 0.20 s, 8 0.16 s, 12 to 24 0.15-0.16 s,
# 32 0.16 s, 64 0.18 s; BA n=2000, kappa 5 (74,767): 1 copy 5.0 s, 4 to 8
# 3.9-4.6 s, 16 4.4-4.6 s; 30x30 grid, kappa 20 (89,192): 3 copies 3.0-3.2 s,
# 6 2.6-3.0 s, 12 3.5-3.6 s. Counting nodes alone put 327 copies of a complete
# graph on 200 nodes in one chunk (358 MB peak RSS).
CELLS = 2**19


def _charge_dominance(sg: StateGraph) -> tuple[np.ndarray, np.ndarray]:
    """``bfs`` dominance: a state's group is its node, its rank its block (lower blocks hold more charge)."""
    states = np.arange(sg.n_states, dtype=np.int64)
    return states % sg.n, states // sg.n


def _arrival_credit(d: np.ndarray, sigma: np.ndarray, blocks: int, n: int) -> np.ndarray:
    """init: sigma(x) / sigma(s -> t) at the arrival states x of every node t but the source's, else 0.

    ``d`` and ``sigma`` are a chunk's, each copy ``blocks`` blocks of n nodes.
    """
    d3, s3 = d.reshape(-1, blocks, n), sigma.reshape(-1, blocks, n)
    least = d3.min(axis=1, keepdims=True, initial=np.iinfo(np.int64).max, where=d3 >= 0)
    arrival = (d3 == least) & (least > 0)
    through = np.zeros_like(s3[:, 0])  # sigma(s -> t), added up in block order
    for block in range(blocks):
        np.add(through, s3[:, block], out=through, where=arrival[:, block])
    return np.divide(s3, through[:, None], out=np.zeros_like(s3), where=arrival).ravel()


def _backward_accumulate(sigma: np.ndarray, tree_arcs, init: np.ndarray) -> np.ndarray:
    """rest: each node's dependency on the credits ``init`` below it, via the tree arcs into gated nodes.

    A node is gated by init > 0 or a gated tree arc out. A source is never
    credited, so its arcs, ``tree_arcs[0]``, are skipped.
    """
    rest = np.zeros(sigma.shape[0])
    gated = init > 0
    for tsrc, tdst in reversed(tree_arcs[1:]):
        m = gated[tdst]
        ts, td = tsrc[m], tdst[m]
        gated[ts] = True
        np.add.at(rest, ts, (sigma[ts] / sigma[td]) * (init[td] + rest[td]))
    return rest


@dataclass
class BcScores:
    """Betweenness per state of the state graph, and per node summed over charge levels."""

    state_scores: np.ndarray
    node_scores: np.ndarray
    endpoints: str
    settled_states: int

    def node_vector(self, inst: SocInstance) -> ScoreVector:
        """The per-node scores with their metadata, as ``soc_betweenness`` returns them."""
        meta = {
            "measure": "soc-bc",
            "kappa": inst.kappa,
            "omega": inst.omega.sorted_members(),
            "endpoints": self.endpoints,
            "states": int(self.state_scores.shape[0]),
            "settled_states": self.settled_states,
        }
        return ScoreVector.for_graph(inst.graph, self.node_scores, meta)


def _source_sums(indptr, indices, blocks, dominance, own, endpoint):
    """Every source's rows added up in source order, and the number of labels the searches set.

    The searched graph is ``blocks`` blocks of n nodes, and node s departs
    from s, in block 0. Source s adds its ``rest`` row (``init + rest`` if
    ``own``), then, if ``endpoint`` is nonzero, ``endpoint * init``.
    ``dominance``, if not None, is ``bfs``'s (node, rank) per node of one copy
    and is lifted to the copies here.
    """
    size = indptr.shape[0] - 1
    n = size // blocks
    c = max(1, min(n, CELLS // (size + indices.shape[0])))
    copy = np.arange(c)
    cptr, cidx = disjoint_copies(indptr, indices, c)
    if dominance is not None:
        group, rank = dominance
        dominance = ((group + n * copy[:, None]).ravel(), np.tile(rank, c))
    total = np.zeros(size)
    labelled = 0
    for first in range(0, n, c):
        chunk = np.arange(first, min(first + c, n))
        d, sigma, tree_arcs = bfs(cptr, cidx, chunk + size * copy[: len(chunk)], dominance)
        init = _arrival_credit(d, sigma, blocks, n)
        rows = _backward_accumulate(sigma, tree_arcs, init)
        if own:
            rows += init
        rows, init = rows.reshape(c, size), init.reshape(c, size)
        for i in range(len(chunk)):
            total += rows[i]
            if endpoint:
                total += endpoint * init[i]
        labelled += int((d >= 0).sum())
    return total, labelled


def soc_betweenness_scores(inst: SocInstance, endpoints: str = "target") -> BcScores:
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    sg = build_state_graph(inst)
    bc_state, settled = _source_sums(sg.indptr, sg.indices, inst.kappa + 1, _charge_dominance(sg),
                                     True, -1.0 if endpoints == "none" else 0.0)
    node_scores = bc_state.reshape(inst.kappa + 1, sg.n).sum(axis=0)
    return BcScores(bc_state, node_scores, endpoints, settled)


def soc_betweenness(inst: SocInstance, endpoints: str = "target") -> ScoreVector:
    """Charge-aware betweenness aggregated per node (unnormalized)."""
    return soc_betweenness_scores(inst, endpoints).node_vector(inst)


def standard_betweenness(g: Graph, endpoints: str = "target") -> ScoreVector:
    """Unnormalized shortest-path betweenness with the matching endpoint convention."""
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    bc, _ = _source_sums(g.indptr, g.indices, 1, None, False, 1.0 if endpoints == "target" else 0.0)
    return ScoreVector.for_graph(g, bc, {"measure": "bc", "endpoints": endpoints})
