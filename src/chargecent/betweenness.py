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

Endpoint convention: the walk's target node is credited (each ordered pair
with a feasible walk adds one unit at the arrival states), the source never
is. ``endpoints="none"`` switches to the textbook convention that credits
interior nodes only; both conventions are mirrored by the plain-graph
variant so reductions are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SocInstance, bfs, csr
from .scores import ScoreVector
from .statespace import StateGraph, build_state_graph

ENDPOINT_CONVENTIONS = ("target", "none")


def _with_sinks(sg: StateGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the state graph plus node u's sink at ``sg.n_states + u``."""
    states = np.arange(sg.n_states, dtype=np.int64)
    src = np.concatenate((sg.arc_src, states))
    dst = np.concatenate((sg.indices, sg.n_states + states % sg.n))
    indptr, indices, _ = csr(sg.n_states + sg.n, src, dst)
    return indptr, indices


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

    def node_vector(self, inst: SocInstance) -> ScoreVector:
        """The per-node scores with their metadata, as ``soc_betweenness`` returns them."""
        meta = {
            "measure": "soc-bc",
            "kappa": inst.kappa,
            "omega": inst.omega.sorted_members(),
            "endpoints": self.endpoints,
        }
        return ScoreVector.for_graph(inst.graph, self.node_scores, meta)


def soc_betweenness_scores(inst: SocInstance, endpoints: str = "target") -> BcScores:
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    sg = build_state_graph(inst)
    n, n_states = sg.n, sg.n_states
    indptr, indices = _with_sinks(sg)
    sinks = np.zeros(n_states + n, dtype=bool)
    sinks[n_states:] = True
    bc_state = np.zeros(n_states + n)
    for s in range(n):
        d, sigma, level_nodes, tree_arcs = bfs(indptr, indices, sg.source_state(s))
        _backward_accumulate(sigma, level_nodes, tree_arcs, sinks, bc_state)
        if endpoints == "none":
            # Remove each pair's one unit of arrival credit from the arrival states.
            for tsrc, tdst in tree_arcs:
                into_sink = sinks[tdst] & (tdst != n_states + s)
                xs, st = tsrc[into_sink], tdst[into_sink]
                if xs.size:
                    np.add.at(bc_state, xs, -(sigma[xs] / sigma[st]))
    # Sinks have no successors, so they are never credited.
    bc_state = bc_state[:n_states]
    return BcScores(bc_state, bc_state.reshape(inst.kappa + 1, n).sum(axis=0), endpoints)


def soc_betweenness(inst: SocInstance, endpoints: str = "target") -> ScoreVector:
    """Charge-aware betweenness aggregated per node (unnormalized)."""
    return soc_betweenness_scores(inst, endpoints).node_vector(inst)


def standard_betweenness(g: Graph, endpoints: str = "target") -> ScoreVector:
    """Unnormalized shortest-path betweenness with the matching endpoint convention."""
    if endpoints not in ENDPOINT_CONVENTIONS:
        raise ValueError(f"endpoints must be one of {ENDPOINT_CONVENTIONS}")
    bc = np.zeros(g.n)
    all_targets = np.ones(g.n, dtype=bool)
    for s in range(g.n):
        d, sigma, level_nodes, tree_arcs = bfs(g.indptr, g.indices, s)
        _backward_accumulate(sigma, level_nodes, tree_arcs, all_targets, bc)
        if endpoints == "target":
            bc[d >= 1] += 1.0
    return ScoreVector.for_graph(g, bc, {"measure": "bc", "endpoints": endpoints})
