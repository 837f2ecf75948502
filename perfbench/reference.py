"""Independent reference computations for the benchmark's output checks.

Everything here starts from the generated edge list and the refill set the
program wrote into its meta files, and uses numpy and scipy only, so that a
check never reuses the code it checks. States are indexed ``charge * n + node``
(a different layout from the program's).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


def read_edge_list(path: Path) -> tuple[list[str], np.ndarray]:
    """Labels in order of first appearance (the program's node ids) and edges as id pairs."""
    ids: dict[str, int] = {}
    edges = []
    for line in path.read_text().splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        edges.append([ids.setdefault(tok, len(ids)) for tok in toks[:2]])
    return list(ids), np.asarray(edges, dtype=np.int64)


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of an undirected simple graph."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))


def state_graph(adj: sp.csr_matrix, refill: np.ndarray, kappa: int) -> sp.csr_matrix:
    """Arcs (u, c) -> (v, kappa) into refill nodes, (u, c) -> (v, c - 1) otherwise."""
    n = adj.shape[0]
    a = adj.tocoo()
    src, dst = [], []
    for c in range(kappa + 1):
        into_refill = refill[a.col]
        src.append(c * n + a.row[into_refill])
        dst.append(kappa * n + a.col[into_refill])
        if c >= 1:
            src.append(c * n + a.row[~into_refill])
            dst.append((c - 1) * n + a.col[~into_refill])
    src, dst = np.concatenate(src), np.concatenate(dst)
    size = (kappa + 1) * n
    return sp.csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(size, size))


def katz_series(mat: sp.csr_matrix, alpha: float, tol: float = 1e-13) -> np.ndarray:
    """sum_k (alpha * mat)^k 1, summed until the last term is below ``tol``."""
    term = np.ones(mat.shape[0])
    total = term.copy()
    for _ in range(100_000):
        term = alpha * (mat @ term)
        total += term
        if np.abs(term).max() < tol:
            return total
    raise RuntimeError("reference Katz series did not converge")


def soc_katz(adj: sp.csr_matrix, refill: np.ndarray, kappa: int, alpha: float) -> np.ndarray:
    """Charge-aware Katz: the full-charge block of the state-graph series."""
    n = adj.shape[0]
    return katz_series(state_graph(adj, refill, kappa), alpha)[kappa * n :]


def shortest_walk_length_sum(adj: sp.csr_matrix, refill: np.ndarray, kappa: int) -> float:
    """Sum over ordered pairs s != t of the shortest feasible walk length, by BFS."""
    n = adj.shape[0]
    states = state_graph(adj, refill, kappa)
    total = 0.0
    for lo in range(0, n, 64):
        nodes = np.arange(lo, min(lo + 64, n))
        dist = csgraph.shortest_path(states, unweighted=True, indices=kappa * n + nodes)
        per_node = dist.reshape(nodes.shape[0], kappa + 1, n).min(axis=1)
        per_node[np.arange(nodes.shape[0]), nodes] = np.inf
        total += float(per_node[np.isfinite(per_node)].sum())
    return total


def _pair_net_flow(mat: sp.csr_matrix, s: int, absorbing: np.ndarray) -> np.ndarray | None:
    """Half the absolute net arc usage per state for walks from s absorbed in ``absorbing``.

    The absorbing states merge into one extra state, whose share is the last
    entry; only states on some s-to-absorption walk take part. Returns None
    when no such walk exists.
    """
    size = mat.shape[0]
    a = mat.tocoo()
    keep_arc = ~absorbing[a.row]
    row, col = a.row[keep_arc], np.where(absorbing[a.col[keep_arc]], size, a.col[keep_arc])
    merged = sp.csr_matrix((np.ones(row.shape[0]), (row, col)), shape=(size + 1, size + 1))
    fwd = np.zeros(size + 1, dtype=bool)
    fwd[csgraph.breadth_first_order(merged, s, return_predecessors=False)] = True
    bwd = np.zeros(size + 1, dtype=bool)
    bwd[csgraph.breadth_first_order(merged.T.tocsr(), size, return_predecessors=False)] = True
    on_walk = fwd & bwd
    if not on_walk[size]:
        return None
    idx = np.flatnonzero(on_walk)  # the merged absorbing state is last
    sub = merged[idx][:, idx].tocsr()
    k = idx.shape[0] - 1
    lap = sp.diags(np.asarray(sub.sum(axis=1)).ravel()) - sub
    rhs = np.zeros(k)
    rhs[np.searchsorted(idx, s)] = 1.0
    usage = np.zeros(k + 1)
    lu = spla.splu(lap[:k, :k].T.tocsc(), permc_spec="MMD_AT_PLUS_A")
    usage[:k] = lu.solve(rhs)
    flow = sp.csr_matrix(sub.multiply(usage[:, None]))
    net = 0.5 * np.asarray(abs(flow - flow.T).sum(axis=1)).ravel()
    out = np.zeros(size + 1)
    out[idx] = net
    return out


def rwbc(adj: sp.csr_matrix, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """Plain random-walk betweenness summed over pairs, and the number of skipped pairs.

    The target keeps its share of the net flow here, unlike in ``soc_rwbc``.
    """
    n = adj.shape[0]
    total, skipped = np.zeros(n), 0
    for s, t in pairs:
        net = _pair_net_flow(adj, s, np.arange(n) == t)
        if net is None:
            skipped += 1
        else:
            total += net[:n]
            total[t] += net[n]
    return total, skipped


def soc_rwbc(
    adj: sp.csr_matrix, refill: np.ndarray, kappa: int, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, int]:
    """Charge-aware random-walk betweenness on the target-contracted state graph."""
    n = adj.shape[0]
    states = state_graph(adj, refill, kappa)
    node_of = np.arange(states.shape[0]) % n
    total, skipped = np.zeros(states.shape[0]), 0
    for s, t in pairs:
        net = _pair_net_flow(states, kappa * n + s, node_of == t)
        if net is None:
            skipped += 1
        else:
            total += net[:-1]
    return total.reshape(kappa + 1, n).sum(axis=0), skipped
