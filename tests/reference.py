"""Reference implementations that the tests compare the kernels against.

Each one recomputes a result from first principles (walk enumeration and
exact walk counts, a scalar BFS and dependency recursion, dense Katz,
Monte-Carlo walks, electrical networks, scalar SIR episodes, the quadratic
Kendall tau) and is deliberately independent of the production kernels.
Only the tests run them: ``chargecent.oracles`` keeps what ``--verify``
runs, and this module imports its budget types and dense solve from there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chargecent.errors import NumericalError
from chargecent.graph import Digraph, Graph, bfs
from chargecent.oracles import BudgetExceeded, OracleBudget, _dense_resolvent, _moves, dense_adjacency
from chargecent.statespace import SocInstance

DEFAULT_MAX_WALKS = 2_000_000
MC_CHUNK = 10_000  # walks ``monte_carlo_rwbc`` simulates per batch
_U64_MAX = 2**64 - 1


def enumerate_feasible_walks(
    inst: SocInstance, s: int, t: int, max_len: int, budget: OracleBudget | None = None
) -> list[tuple[int, ...]]:
    """Every feasible walk from s ending at t with length <= max_len (DFS)."""
    budget = budget or OracleBudget()
    budget.check_instance(inst)
    if max_len > budget.max_walk_len:
        raise BudgetExceeded(f"max_len={max_len} exceeds oracle budget {budget.max_walk_len}")
    walks: list[tuple[int, ...]] = []
    walk = [s]

    def rec(node: int, soc: int) -> None:
        if node == t:
            walks.append(tuple(walk))
        if len(walk) - 1 >= max_len:
            return
        if len(walks) > DEFAULT_MAX_WALKS:
            raise BudgetExceeded("walk enumeration blew past the safety cap")
        for v, ns in _moves(inst, node, soc):
            walk.append(v)
            rec(v, ns)
            walk.pop()

    rec(s, inst.kappa)
    return walks


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
    sg = inst.state_graph
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


@dataclass
class DependencyState:
    """Single-source BFS bookkeeping: distances, exact path counts, predecessors."""

    source: int
    dist: list[int]
    sigma: list[int]
    preds: list[list[int]]
    order: list[int]


def bfs_shortest_paths(indptr: np.ndarray, indices: np.ndarray, n_states: int, source: int) -> DependencyState:
    """Reference (scalar) BFS counterpart of the vectorized forward pass."""
    dist = [-1] * n_states
    sigma = [0] * n_states
    preds: list[list[int]] = [[] for _ in range(n_states)]
    dist[source] = 0
    sigma[source] = 1
    order: list[int] = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return DependencyState(source, dist, sigma, preds, order)


def target_restricted_dependency(state: DependencyState, targets) -> np.ndarray:
    """Dependencies credited only to the given target set.

    Satisfies delta(v) = sum over successors w with v among w's predecessors of
    sigma(v)/sigma(w) * (1_T(w) + delta(w)); with T = everything this is the
    classic recursion, with T empty it vanishes.
    """
    n_states = len(state.dist)
    is_target = np.zeros(n_states, dtype=bool)
    for t in targets:
        is_target[t] = True
    delta = np.zeros(n_states)
    for w in reversed(state.order):
        coeff = (1.0 if is_target[w] else 0.0) + delta[w]
        if coeff == 0.0:
            continue
        for v in state.preds[w]:
            delta[v] += (state.sigma[v] / state.sigma[w]) * coeff
    return delta


def dense_katz(g: Graph, alpha: float) -> np.ndarray:
    return _dense_resolvent(dense_adjacency(g), alpha)


@dataclass
class WalkSubgraph:
    """Nodes lying on at least one s-to-t walk, with the induced arc set."""

    nodes: np.ndarray          # global ids, ascending
    arc_src: np.ndarray        # local ids
    arc_dst: np.ndarray
    source: int                # local id of s
    target: int                # local id of t

    @property
    def n(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def empty(self) -> bool:
        return self.n == 0


def walk_subgraph(g: Graph, s: int, t: int) -> WalkSubgraph:
    """Intersection of forward reachability from s and backward reachability to t."""
    if s == t:
        raise ValueError("source and target must differ")
    fwd = bfs(g.indptr, g.indices, s)[0]
    bwd = bfs(g.reverse.indptr, g.reverse.indices, t)[0]
    keep = (fwd >= 0) & (bwd >= 0)
    if not (keep[s] and keep[t]):
        return WalkSubgraph(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), -1, -1)
    nodes = np.flatnonzero(keep)
    local = np.cumsum(keep) - 1  # node id -> position among the kept nodes
    tails = g.arc_src
    amask = keep[tails] & keep[g.indices]
    return WalkSubgraph(
        nodes,
        local[tails[amask]],
        local[g.indices[amask]],
        int(local[s]),
        int(local[t]),
    )


@dataclass
class MonteCarloRwbc:
    """Empirical net-flow estimates with per-node standard errors."""

    estimate: np.ndarray
    stderr: np.ndarray
    n_walks: int
    subgraph: WalkSubgraph


def monte_carlo_rwbc(g: Graph, s: int, t: int, walks: int = 100_000, seed: int = 0) -> MonteCarloRwbc:
    """Sampled absorbing walks on the s-t subgraph, aggregated to net flows.

    Per-arc usage is counted per walk; the per-node statistic applies the
    empirical net-flow signs, making its mean the plug-in net-flow estimate
    with a delta-method standard error from the per-walk spread.
    """
    sub = walk_subgraph(g, s, t)
    if sub.empty:
        raise ValueError(f"no walk from {s} to {t}")
    m = sub.n
    arcs = Digraph(m, sub.arc_src, sub.arc_dst)
    indptr, adst, asrc, n_arcs = arcs.indptr, arcs.indices, arcs.arc_src, arcs.n_arcs
    s_loc, t_loc = sub.source, sub.target

    def chunks(rng: np.random.Generator):
        remaining = walks
        while remaining:
            b = min(MC_CHUNK, remaining)
            remaining -= b
            states = np.full(b, s_loc, dtype=np.int64)
            active = np.arange(b)
            counts = np.zeros((b, n_arcs), dtype=np.int32)
            guard = 0
            while active.size:
                cur = states[active]
                starts = indptr[cur]
                deg = indptr[cur + 1] - starts
                arc = starts + (rng.random(active.size) * deg).astype(np.int64)
                counts[active, arc] += 1
                nxt = adst[arc]
                states[active] = nxt
                active = active[nxt != t_loc]
                guard += 1
                if guard > 10_000_000:  # pragma: no cover - absorbing chain safety
                    raise NumericalError("walk simulation failed to absorb")
            yield counts

    total = np.zeros(n_arcs)
    for counts in chunks(np.random.default_rng(seed)):
        total += counts.sum(axis=0, dtype=np.float64)

    arc_id = {(int(u), int(v)): a for a, (u, v) in enumerate(zip(asrc, adst))}
    weight = np.zeros(n_arcs)
    for a in range(n_arcs):
        rev = arc_id.get((int(adst[a]), int(asrc[a])))
        net = total[a] - (total[rev] if rev is not None else 0.0)
        weight[a] = 0.5 * np.sign(net)
    # Each use of arc (u, v) moves half a signed unit at both endpoints.
    w_mat = np.zeros((n_arcs, m))
    for a in range(n_arcs):
        w_mat[a, asrc[a]] += weight[a]
        w_mat[a, adst[a]] += weight[a]

    zsum = np.zeros(m)
    zsq = np.zeros(m)
    for counts in chunks(np.random.default_rng(seed)):
        z = counts @ w_mat
        zsum += z.sum(axis=0)
        zsq += (z * z).sum(axis=0)
    mean = zsum / walks
    var = np.maximum(zsq / walks - mean**2, 0.0) * walks / max(walks - 1, 1)
    stderr_local = np.sqrt(var / walks)

    estimate = np.zeros(g.n)
    estimate[sub.nodes] = mean
    stderr = np.zeros(g.n)
    stderr[sub.nodes] = stderr_local
    return MonteCarloRwbc(estimate, stderr, walks, sub)


def current_flow_throughflow(g: Graph, s: int, t: int) -> np.ndarray:
    """Electrical-network oracle: unit current s to t, half the absolute
    incident currents per node (endpoints included, same uniform formula)."""
    if g.directed:
        raise ValueError("current-flow oracle applies to undirected graphs")
    n = g.n
    comp = np.zeros(n, dtype=bool)
    stack = [s]
    comp[s] = True
    while stack:
        v = stack.pop()
        for w in g.out_neighbors(v):
            if not comp[w]:
                comp[w] = True
                stack.append(int(w))
    if not comp[t]:
        raise ValueError("target not in the source's component")
    lap = np.zeros((n, n))
    for u, v in g.edges:
        if u == v:
            continue
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    keep = np.flatnonzero(comp & (np.arange(n) != t))
    b = np.zeros(keep.shape[0])
    b[np.searchsorted(keep, s)] = 1.0
    phi = np.zeros(n)
    phi[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], b)
    through = np.zeros(n)
    for u, v in g.edges:
        if u == v:
            continue
        current = abs(phi[u] - phi[v])
        through[u] += 0.5 * current
        through[v] += 0.5 * current
    return through


def run_sir_episode(
    inst: SocInstance, seed_node: int, rng: np.random.Generator, alpha: float
) -> int:
    """Outbreak size of one synchronous infect-once episode from ``seed_node`` at full charge.

    Scalar reference for the batched kernel in ``simulate``: infected nodes
    draw one number per out-arc in sorted order, and a node reached by several
    infecters keeps the largest handed charge.
    """
    g = inst.graph
    kappa = inst.kappa
    refill = inst.refill
    status = bytearray(g.n)  # 0 susceptible, 1 infected, 2 recovered
    status[seed_node] = 1
    soc = {seed_node: kappa}
    infected = [seed_node]
    ever = 1
    while infected:
        newly: dict[int, int] = {}
        for u in infected:
            su = soc[u]
            nbrs = g.out_neighbors(u)
            if nbrs.shape[0] == 0:
                continue
            draws = rng.random(nbrs.shape[0])
            for w, r in zip(nbrs, draws):
                w = int(w)
                if status[w] != 0:
                    continue
                if refill[w]:
                    handed = kappa
                elif su >= 1:
                    handed = su - 1
                else:
                    continue  # exhausted attacker can only reach refill nodes
                if r < alpha:
                    if w not in newly or handed > newly[w]:
                        newly[w] = handed
        for u in infected:
            status[u] = 2
            del soc[u]
        infected = sorted(newly)
        for w in infected:
            status[w] = 1
            soc[w] = newly[w]
        ever += len(infected)
    return ever


def plain_sir_outbreaks(
    g: Graph, seed_node: int, alpha: float, runs: int, seed: int = 0
) -> list[int]:
    """Standard infect-once spreading (no charge bookkeeping); outbreak sizes."""
    rng = np.random.default_rng(seed)
    sizes = []
    for _ in range(runs):
        susceptible = set(range(g.n)) - {seed_node}
        infected = [seed_node]
        ever = 1
        while infected:
            newly = set()
            for u in infected:
                for w in g.out_neighbors(u):
                    w = int(w)
                    if w in susceptible and w not in newly and rng.random() < alpha:
                        newly.add(w)
            susceptible -= newly
            infected = sorted(newly)
            ever += len(newly)
        sizes.append(ever)
    return sizes


def kendall_tau_naive(y: Sequence[float], z: Sequence[float]) -> float:
    """Kendall tau-a by the printed sgn-product formula, quadratic in n (reference for ``kendall_tau``)."""
    y = np.asarray(y)
    z = np.asarray(z)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("inputs must be equal-length one-dimensional sequences")
    if not all(a.dtype.kind in "biuf" and np.isfinite(a).all() for a in (y, z)):
        raise ValueError("inputs must be finite real numbers")
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    y, z = y.tolist(), z.tolist()  # numpy would wrap uint64 differences and refuse bool ones
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            dy = y[i] - y[j]
            dz = z[i] - z[j]
            sy = 1 if dy > 0 else (-1 if dy < 0 else 0)
            sz = 1 if dz > 0 else (-1 if dz < 0 else 0)
            total += sy * sz
    return 2.0 * total / (n * (n - 1))
