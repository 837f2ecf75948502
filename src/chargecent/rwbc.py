"""Random-walk betweenness for directed graphs and its charge-aware variant.

Walks toward a target t are restricted to the nodes that can reach t, so that
absorption at t is certain. The expected per-arc usage follows from a linear
solve against the restricted out-degree Laplacian, which depends only on t:
one sparse factorization per distinct target serves every source that shares
it, solved as a block of right-hand sides. A node's score is half the sum of
absolute net usages over its incident unordered neighbor pairs, which on
symmetrized graphs reduces to current-flow betweenness.

The charge-aware variant runs the same computation on the state graph, with
the target's states at every charge level as the absorbing set, and sums the
net flows of the other states over charge levels per node.

Every target system is a principal submatrix of one matrix, A^T: the
adjacency of the reverse digraph (of the state graph for the charge-aware
variant), built once and kept. Each measure call orders the base graph once
by minimum degree; that order (lifted to the states node-major for the
charge-aware variant: node u's charge levels take consecutive positions at
u's place) is the fill-reducing column order of every target's factorization,
which then chooses no ordering of its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .errors import NumericalError
from .graph import Digraph, Graph, bfs
from .scores import ScoreVector
from .statespace import SocInstance, check_pairs

logger = logging.getLogger(__name__)

# Minimum-degree ordering on A^T + A, taken once per measure call on the base
# graph (BA m=3: 6 ms at n=500, 63 ms at n=2000). Against an MMD ordering of
# each target system of its own, the lifted order cuts a target's splu on
# kappa 5 from 0.12-0.13 to 0.03 s (2.9k unknowns, n=500) and from 3.0-3.2 to
# 1.4 s (11.5k unknowns, n=2000), for 9-15% more nonzeros in L + U (2 vCPUs).
ORDERING = "MMD_AT_PLUS_A"
SOLVE_BLOCK = 64  # right-hand sides per block solve; bounds the dense (pairs x starts) block


@dataclass
class AbsorbingFlows:
    """Walks from a block of starts absorbed at one node set, summed over the feasible starts."""

    usage: np.ndarray      # per node: expected use of each of its out-arcs
    net: np.ndarray        # per node: half the absolute net flow over its neighbor pairs
    feasible: np.ndarray   # per start: whether it can reach the absorbing set
    residual: float        # largest ||K x - b||_inf over the block solves; 0.0 if none ran
    factor_nnz: int        # entries SuperLU stores for L and U; 0 if nothing was factored


def _base_rank(g: Graph) -> np.ndarray:
    """Each node's position in one minimum-degree ordering of the base graph.

    scipy has no stand-alone minimum-degree routine, so the ordering is the
    column permutation ``splu`` chooses for the transposed out-degree
    Laplacian shifted by the identity (nonsingular; the ordering reads only
    its pattern). ``perm_c[u]`` is the position of column u.
    """
    import scipy.sparse.linalg  # here, so that importing the package does not load it

    mat = (scipy.sparse.diags(np.diff(g.indptr) + 1.0) - g.adjacency.T).tocsc()
    try:
        return scipy.sparse.linalg.splu(mat, permc_spec=ORDERING).perm_c
    except RuntimeError as exc:
        raise NumericalError(f"minimum-degree ordering of the base graph failed: {exc}") from exc


def _absorbing_flows(reverse: Digraph, absorbing: np.ndarray, starts, rank: np.ndarray) -> AbsorbingFlows:
    """Random walks absorbed at any ``absorbing`` node, on the digraph whose reverse is ``reverse``.

    The walk is restricted to the nodes that can reach the absorbing set, so
    absorption is certain and the restricted system K = (D - A)^T, sliced
    from the reverse's adjacency A^T, is nonsingular. It depends only on that
    set, so one LU factorization serves every start. The unknowns are ordered
    by ``rank`` (a position per node from a fill-reducing ordering) and
    factored in that order; K is a column-diagonally dominant M-matrix, so its
    pivots stand.
    """
    import scipy.sparse.linalg  # here, so that importing the package does not load it

    n, starts = reverse.size, np.asarray(starts, dtype=np.int64)
    reach = bfs(reverse.indptr, reverse.indices, absorbing)[0] >= 0
    feasible = reach[starts]
    usage, net = np.zeros(n), np.zeros(n)
    if not feasible.any():
        return AbsorbingFlows(usage, net, feasible, 0.0, 0)

    reach[absorbing] = False  # the unknowns: the other nodes that reach the set
    keep = np.flatnonzero(reach)
    keep = keep[np.argsort(rank[keep])]
    local = np.append(keep, absorbing)  # local ids: the k unknowns, then the absorbing nodes
    k, m = keep.shape[0], local.shape[0]
    into = reverse.adjacency[local][:, keep].tocsc()  # keep columns: absorbing nodes' out-arcs carry nothing
    mat = (scipy.sparse.diags(np.asarray(into.sum(axis=0)).ravel()) - into[:k]).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(mat, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise NumericalError(f"absorbing system for the set {absorbing.tolist()} is singular: {exc}") from exc

    # Signed incidence of unordered neighbor pairs: +1 for the arc lo -> hi, -1 for hi -> lo.
    ld, ls = (a.astype(np.int64) for a in into.nonzero())  # int64: pair keys pass 2**31 at k > 46340
    proper = ls != ld
    lo, hi = np.minimum(ls, ld)[proper], np.maximum(ls, ld)[proper]
    keys, pair_of = np.unique(lo * m + hi, return_inverse=True)
    incidence = scipy.sparse.csr_matrix(
        (np.where(ls[proper] < ld[proper], 1.0, -1.0), (pair_of, ls[proper])), shape=(keys.shape[0], k)
    )
    pos = np.empty(n, dtype=np.int64)
    pos[keep] = np.arange(k)
    rows = pos[starts[feasible]]
    pair_total = np.zeros(keys.shape[0])
    residual = 0.0
    for b0 in range(0, rows.shape[0], SOLVE_BLOCK):
        block = rows[b0 : b0 + SOLVE_BLOCK]
        rhs = np.zeros((k, block.shape[0]))
        rhs[block, np.arange(block.shape[0])] = 1.0
        x = lu.solve(rhs)
        r = float(np.abs(mat @ x - rhs).max())
        if not r <= 1e-9 * max(1.0, float(np.abs(x).max())):
            raise NumericalError(f"absorbing solve for the set {absorbing.tolist()} has residual {r:.3e}")
        residual = max(residual, r)
        usage[keep] += x.sum(axis=1)
        pair_total += np.abs(incidence @ x).sum(axis=1)
    ends = np.bincount(keys // m, pair_total, m) + np.bincount(keys % m, pair_total, m)
    net[local] = 0.5 * ends
    return AbsorbingFlows(usage, net, feasible, residual, lu.nnz)


def _solver_meta(solved: list[AbsorbingFlows], ordering: str) -> dict:
    """Deterministic diagnostics of the target solves, for a score vector's meta."""
    return {
        "skipped_pairs": sum(int((~fl.feasible).sum()) for fl in solved),
        "solver": "splu",
        "ordering": ordering,
        "factorizations": sum(1 for fl in solved if fl.feasible.any()),
        "factor_nnz": sum(fl.factor_nnz for fl in solved),
        "max_residual": max((fl.residual for fl in solved), default=0.0),
    }


def _sources_by_target(pairs: Sequence[tuple[int, int]], n: int) -> dict[int, list[int]]:
    """Sources of each distinct target of the checked pairs, targets in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for s, t in check_pairs(pairs, n):
        groups.setdefault(t, []).append(s)
    return groups


def soc_rwbc(inst: SocInstance, pairs: Sequence[tuple[int, int]]) -> ScoreVector:
    """Charge-aware random-walk betweenness accumulated over the given pairs.

    Pairs without a feasible walk contribute nothing and are counted in the
    metadata as skipped.
    """
    groups = _sources_by_target(pairs, inst.graph.n)
    sg = inst.state_graph
    levels = np.arange(inst.kappa + 1)
    # State (u, level b) sits at b * n + u; node-major, it takes position rank[u] * (kappa + 1) + b.
    rank = (_base_rank(inst.graph) * (inst.kappa + 1) + levels[:, None]).ravel()
    y_states = np.zeros(sg.n_states)
    solved: list[AbsorbingFlows] = []
    for t, sources in groups.items():
        absorbing = levels * sg.n + t  # t at every charge level
        flows = _absorbing_flows(sg.reverse, absorbing, [sg.source_state(s) for s in sources], rank)
        flows.net[absorbing] = 0.0  # arrivals at t carry no score
        y_states += flows.net
        solved.append(flows)
    diagnostics = _solver_meta(solved, f"{ORDERING} of the base graph, node-major")
    if diagnostics["skipped_pairs"]:
        logger.info("%d of %d pairs had no feasible walk", diagnostics["skipped_pairs"], len(pairs))
    node_scores = y_states.reshape(inst.kappa + 1, inst.graph.n).sum(axis=0)
    meta = {"measure": "soc-rwbc", **inst.meta, "pairs": len(pairs), **diagnostics}
    return ScoreVector.for_graph(inst.graph, node_scores, meta)


def rwbc_all_pairs(g: Graph, pairs: Sequence[tuple[int, int]]) -> ScoreVector:
    """Plain directed random-walk betweenness summed over the given pairs."""
    groups = _sources_by_target(pairs, g.n)
    rank = _base_rank(g)
    total = np.zeros(g.n)
    solved: list[AbsorbingFlows] = []
    for t, sources in groups.items():
        flows = _absorbing_flows(g.reverse, np.array([t]), sources, rank)
        total += flows.net
        solved.append(flows)
    meta = {"measure": "rwbc", "pairs": len(pairs), **_solver_meta(solved, f"{ORDERING} of the base graph")}
    return ScoreVector.for_graph(g, total, meta)

