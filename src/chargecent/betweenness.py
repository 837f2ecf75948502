"""Betweenness from shortest feasible walks, via the state graph augmented with sinks.

A walk reaches node t at whichever charge level it arrives with, so the state
graph gains one sink state per node, entered from each of that node's charge
levels: every shortest feasible s-to-t walk is then a plain shortest path from
(s, kappa) to t's sink, plus the final sink hop. The sinks are this measure's
own and live at ``n_states + node``, after the state graph's states.

Per source, a BFS over the augmented graph counts shortest paths into every
state, then dependencies are accumulated in non-increasing distance order with
the target set restricted to the sinks. A state is only processed once it is
known to lie on some shortest source-to-sink path (the gating flag), exactly
mirroring the restricted recursion.

Sources run in chunks of C = max(1, ``CELLS`` // (N + A)) for the N nodes
and A arcs searched (states and sinks for soc-bc, nodes for bc). A chunk is one
``bfs`` and one accumulation over C disjoint copies of the searched graph
(``graph.disjoint_copies``), copy i starting at i*N plus its source: C
independent BFSs, with one numpy pass per level for all of them. Each
source's row is then added to the total one row at a time, in source order,
so every float is summed in the same order as by one BFS per source.

soc-bc's search drops charge-dominated states. A move from (u, i) is also
possible from (u, i') with i' >= i, and it leaves at least as much charge.
So a state (u, i) first reached after some (u, i'), i' >= i, was reached at
an earlier level lies on no shortest source-to-sink walk: the same
continuation from (u, i') would arrive sooner. Every state on such a walk,
and every shortest path into it, is kept, so sigma there, the dependencies
and the scores are unchanged (the dominance rule of resource-constrained
shortest paths; Irnich & Desaulniers, 2005). Plain bc has no charge to
dominate by.

Endpoint convention: the walk's target node is credited (each ordered pair
with a feasible walk adds one unit at the arrival states), the source never
is. ``endpoints="none"`` switches to the textbook convention that credits
interior nodes only; both conventions are mirrored by the plain-graph
variant so reductions are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SocInstance, bfs, csr, disjoint_copies
from .scores import ScoreVector
from .statespace import StateGraph, build_state_graph

ENDPOINT_CONVENTIONS = ("target", "none")
# Entries of the copies' CSR, C * (N + A) for N nodes and A arcs, per chunk.
# It bounds each chunk's arrays: one level expands at most C * A arcs. soc-bc
# on 2 vCPUs by copies per chunk (min of 7 runs on the 16x16 grid, single runs
# elsewhere): 16x16 grid, kappa 16 (N + A = 24,509): 1 copy 0.44 s, 4 0.20 s,
# 8 0.16 s, 12 to 24 0.15-0.16 s, 32 0.16 s, 64 0.18 s; BA n=2000, kappa 5
# (88,767): 1 copy 5.0 s, 4 to 8 3.9-4.6 s, 16 4.4-4.6 s; 30x30 grid, kappa 20
# (108,992): 3 copies 3.0-3.2 s, 6 2.6-3.0 s, 12 3.5-3.6 s. Counting nodes
# alone put 327 copies of a complete graph on 200 nodes in one chunk (358 MB
# peak RSS).
CELLS = 2**19


def _with_sinks(sg: StateGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the state graph plus node u's sink at ``sg.n_states + u``."""
    states = np.arange(sg.n_states, dtype=np.int64)
    src = np.concatenate((sg.arc_src, states))
    dst = np.concatenate((sg.indices, sg.n_states + states % sg.n))
    indptr, indices, _ = csr(sg.n_states + sg.n, src, dst)
    return indptr, indices


def _charge_dominance(sg: StateGraph) -> tuple[np.ndarray, np.ndarray]:
    """``bfs`` dominance over ``_with_sinks(sg)``: a state's group is its node, its rank its block.

    A lower block holds more charge. Sinks are group -1, never dropped.
    """
    states = np.arange(sg.n_states, dtype=np.int64)
    sinks = np.zeros(sg.n, dtype=np.int64)
    return np.concatenate((states % sg.n, sinks - 1)), np.concatenate((states // sg.n, sinks))


def _backward_accumulate(sigma, level_nodes, tree_arcs, target_mask, bc_state):
    """Dependency accumulation restricted to ``target_mask``, with gating."""
    n_states = sigma.shape[0]
    delta = np.zeros(n_states)
    chi = target_mask.copy()
    ind = target_mask.astype(float)
    for lvl in range(len(level_nodes) - 1, 0, -1):
        w = level_nodes[lvl]
        sel = w[chi[w]]
        bc_state[sel] += delta[sel]
        tsrc, tdst = tree_arcs[lvl - 1]
        m = chi[tdst]
        ts, td = tsrc[m], tdst[m]
        if ts.size:
            chi[ts] = True
            np.add.at(delta, ts, (sigma[ts] / sigma[td]) * (ind[td] + delta[td]))
    return delta


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


def _source_sums(indptr, indices, sources, targets, credit, dominance):
    """Every source's dependency row, then its ``credit`` row, added up in source order.

    ``credit(d, sigma, tree_arcs, targets)``, if not None, gives a chunk's
    endpoint rows; ``dominance``, if not None, is ``bfs``'s per node of one
    copy and is lifted to the copies here.
    Returns the sums and, per node, the number of sources that labelled it.
    """
    n = indptr.shape[0] - 1
    c = max(1, CELLS // (n + indices.shape[0]))
    copy = np.arange(c)
    cptr, cidx = disjoint_copies(indptr, indices, c)
    ctargets = np.tile(targets, c)
    if dominance is not None:
        group, rank = dominance
        lifted = np.where(group >= 0, group + (int(group.max()) + 1) * copy[:, None], -1)
        dominance = (lifted.ravel(), np.tile(rank, c))
    total = np.zeros(n)
    labelled = np.zeros(n, dtype=np.int64)
    for first in range(0, len(sources), c):
        chunk = sources[first : first + c]
        d, sigma, level_nodes, tree_arcs = bfs(cptr, cidx, chunk + n * copy[: len(chunk)], dominance)
        rows = np.zeros(c * n)
        _backward_accumulate(sigma, level_nodes, tree_arcs, ctargets, rows)
        extra = None if credit is None else credit(d, sigma, tree_arcs, ctargets).reshape(c, n)
        for i, row in enumerate(rows.reshape(c, n)[: len(chunk)]):
            total += row
            if extra is not None:
                total += extra[i]
        labelled += (d.reshape(c, n) >= 0).sum(axis=0)
    return total, labelled


def _arrival_debit(d, sigma, tree_arcs, sinks):
    """Minus each pair's one unit of arrival credit, at the arrival states.

    Level 0 holds only the sources, whose one sink arc leads to their own node.
    """
    debit = np.zeros(sigma.shape[0])
    for tsrc, tdst in tree_arcs[1:]:
        into_sink = sinks[tdst]
        xs = tsrc[into_sink]
        debit[xs] = -(sigma[xs] / sigma[tdst[into_sink]])
    return debit


def _target_credit(d, sigma, tree_arcs, targets):
    """One unit per pair at its target: every node the source reached."""
    return (d >= 1).astype(float)


def soc_betweenness_scores(inst: SocInstance, endpoints: str = "target") -> BcScores:
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    sg = build_state_graph(inst)
    n, n_states = sg.n, sg.n_states
    indptr, indices = _with_sinks(sg)
    sinks = np.zeros(n_states + n, dtype=bool)
    sinks[n_states:] = True
    credit = _arrival_debit if endpoints == "none" else None
    # Source s departs from (s, kappa), state s.
    bc_state, labelled = _source_sums(indptr, indices, np.arange(n), sinks, credit, _charge_dominance(sg))
    # Sinks have no successors, so they are never credited.
    bc_state = bc_state[:n_states]
    node_scores = bc_state.reshape(inst.kappa + 1, n).sum(axis=0)
    return BcScores(bc_state, node_scores, endpoints, int(labelled[:n_states].sum()))


def soc_betweenness(inst: SocInstance, endpoints: str = "target") -> ScoreVector:
    """Charge-aware betweenness aggregated per node (unnormalized)."""
    return soc_betweenness_scores(inst, endpoints).node_vector(inst)


def standard_betweenness(g: Graph, endpoints: str = "target") -> ScoreVector:
    """Unnormalized shortest-path betweenness with the matching endpoint convention."""
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    credit = _target_credit if endpoints == "target" else None
    bc, _ = _source_sums(g.indptr, g.indices, np.arange(g.n), np.ones(g.n, dtype=bool), credit, None)
    return ScoreVector.for_graph(g, bc, {"measure": "bc", "endpoints": endpoints})
