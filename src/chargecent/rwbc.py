"""Random-walk betweenness for directed graphs and its charge-aware variant.

Walks toward a target t are restricted to the nodes that can reach t, so that
absorption at t is certain. The expected per-arc usage follows from a linear
solve against the restricted out-degree Laplacian, which depends only on t:
one sparse factorization per distinct target serves every source that shares
it, solved as a block of right-hand sides. A node's score is half the sum of
absolute net usages over its incident unordered neighbor pairs, which on
symmetrized graphs reduces to current-flow betweenness.

One driver serves both measures over ``blocks`` charge blocks of the nodes.
The charge-aware variant runs it on the state graph's kappa + 1 blocks, with
the target's states at every charge level absorbing, and sums the net flows
of the other states over the blocks per node; plain rwbc is its one block.

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
from typing import Iterable

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
    net = np.zeros(n)
    if not feasible.any():
        return AbsorbingFlows(net, feasible, 0.0, 0)

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
        pair_total += np.abs(incidence @ x).sum(axis=1)
    ends = np.bincount(keys // m, pair_total, m) + np.bincount(keys % m, pair_total, m)
    net[local] = 0.5 * ends
    return AbsorbingFlows(net, feasible, residual, lu.nnz)


def _pair_flows(reverse: Digraph, g: Graph, blocks: int, pairs: Iterable[tuple[int, int]],
                score_arrivals: bool) -> tuple[np.ndarray, dict]:
    """Per-node net flows of the pairs' walks, summed over ``blocks`` charge blocks, and the solver meta.

    ``reverse`` is the reverse digraph over the states b * n + u of g's nodes u;
    source s departs at full charge, block 0, so at state s. ``score_arrivals``
    keeps the net flow at the target's states, as plain rwbc's current-flow
    reduction needs, or zeroes it, as soc-rwbc does.
    """
    groups: dict[int, list[int]] = {}
    checked = check_pairs(pairs, g.n)
    for s, t in checked:
        groups.setdefault(t, []).append(s)
    levels = np.arange(blocks)
    # State (u, block b) sits at b * n + u; node-major, it takes position rank[u] * blocks + b.
    rank = (_base_rank(g) * blocks + levels[:, None]).ravel()
    total = np.zeros(blocks * g.n)
    solved: list[AbsorbingFlows] = []
    for t, sources in groups.items():
        absorbing = levels * g.n + t  # t in every block
        flows = _absorbing_flows(reverse, absorbing, sources, rank)
        if not score_arrivals:
            flows.net[absorbing] = 0.0
        total += flows.net
        solved.append(flows)
    skipped = sum(int((~fl.feasible).sum()) for fl in solved)
    if skipped:
        logger.info("%d of %d pairs had no feasible walk", skipped, len(checked))
    meta = {
        "pairs": len(checked),
        "skipped_pairs": skipped,
        "solver": "splu",
        "ordering": f"{ORDERING} of the base graph" + (", node-major" if blocks > 1 else ""),
        "factorizations": sum(1 for fl in solved if fl.feasible.any()),
        "factor_nnz": sum(fl.factor_nnz for fl in solved),
        "max_residual": max((fl.residual for fl in solved), default=0.0),
    }
    return total.reshape(blocks, g.n).sum(axis=0), meta


def soc_rwbc(inst: SocInstance, pairs: Iterable[tuple[int, int]]) -> ScoreVector:
    """Charge-aware random-walk betweenness accumulated over the given pairs.

    Pairs without a feasible walk contribute nothing and are counted in the
    metadata as skipped.
    """
    scores, meta = _pair_flows(inst.state_graph.reverse, inst.graph, inst.kappa + 1, pairs, False)
    return ScoreVector.for_graph(inst.graph, scores, {"measure": "soc-rwbc", **inst.meta, **meta})


def rwbc_all_pairs(g: Graph, pairs: Iterable[tuple[int, int]]) -> ScoreVector:
    """Plain directed random-walk betweenness summed over the given pairs: soc-rwbc's driver on one block."""
    scores, meta = _pair_flows(g.reverse, g, 1, pairs, True)
    return ScoreVector.for_graph(g, scores, {"measure": "rwbc", **meta})
