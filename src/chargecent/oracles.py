"""Brute-force oracles for small-input verification: what ``--verify`` runs.

Both recompute a result from first principles (shortest feasible walks
enumerated per pair, the dense block matrix inverted) and are deliberately
independent of the production kernels. Budget guards keep the exponential
paths on desk-sized inputs. Shipped with the library so the CLI can
cross-check kernels on small graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .scores import ScoreVector
from .statespace import SocInstance

DENSE_MAX_STATES = 200  # states ``dense_soc_katz`` inverts densely at most


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 8
    max_kappa: int = 3
    max_walk_len: int = 16

    def check_instance(self, inst: SocInstance) -> None:
        if inst.graph.n > self.max_nodes:
            raise BudgetExceeded(f"{inst.graph.n} nodes exceeds oracle budget {self.max_nodes}")
        if inst.kappa > self.max_kappa:
            raise BudgetExceeded(f"kappa={inst.kappa} exceeds oracle budget {self.max_kappa}")


def _moves(inst: SocInstance, node: int, soc: int) -> list[tuple[int, int]]:
    """Legal single-hop transitions of a commodity, straight from the rules."""
    out = []
    for v in inst.graph.out_neighbors(node):
        v = int(v)
        if inst.refill[v]:
            out.append((v, inst.kappa))
        elif soc >= 1:
            out.append((v, soc - 1))
    return out



def _distances_to_target(inst: SocInstance, t: int) -> dict[tuple[int, int], int]:
    """Hops needed from each state to first reach node t (multi-source reverse BFS)."""
    radj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    n, kappa = inst.graph.n, inst.kappa
    for node in range(n):
        for soc in range(kappa + 1):
            for nxt in _moves(inst, node, soc):
                radj.setdefault(nxt, []).append((node, soc))
    dist: dict[tuple[int, int], int] = {(t, soc): 0 for soc in range(kappa + 1)}
    q = deque(dist)
    while q:
        st = q.popleft()
        for prev in radj.get(st, []):
            if prev not in dist:
                dist[prev] = dist[st] + 1
                q.append(prev)
    return dist


def shortest_feasible_walks(inst: SocInstance, s: int, t: int) -> list[tuple[int, ...]]:
    """All shortest feasible s-to-t walks via pruned exhaustive search, within ``OracleBudget()``."""
    budget = OracleBudget()
    budget.check_instance(inst)
    if s == t:
        return [(s,)]
    to_t = _distances_to_target(inst, t)
    length = to_t.get((s, inst.kappa))
    if length is None:
        return []
    if length > budget.max_walk_len:
        raise BudgetExceeded(f"shortest walk length {length} exceeds {budget.max_walk_len}")
    walks: list[tuple[int, ...]] = []
    walk = [s]

    def rec(node: int, soc: int, depth: int) -> None:
        if node == t and depth == length:
            walks.append(tuple(walk))
            return
        for v, ns in _moves(inst, node, soc):
            rest = to_t.get((v, ns))
            if rest is None or depth + 1 + rest > length:
                continue
            walk.append(v)
            rec(v, ns, depth + 1)
            walk.pop()

    rec(s, inst.kappa, 0)
    return walks



def brute_soc_bc(inst: SocInstance, endpoints: str = "target") -> ScoreVector:
    """Definition-level betweenness: enumerate shortest feasible walks per pair
    and credit each visited position (arrival included under the target
    convention, source never), within ``OracleBudget()``."""
    OracleBudget().check_instance(inst)
    n = inst.graph.n
    score = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            walks = shortest_feasible_walks(inst, s, t)
            sigma = len(walks)
            if sigma == 0:
                continue
            last = len(walks[0]) - 1
            stop = last + 1 if endpoints == "target" else last
            for w in walks:
                for pos in range(1, stop):
                    score[w[pos]] += 1.0 / sigma
    meta = {"measure": "soc-bc-brute", "kappa": inst.kappa, "endpoints": endpoints}
    return ScoreVector.for_graph(inst.graph, score, meta)


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for arc_s, arc_d in zip(g.arc_src, g.indices):
        a[arc_s, arc_d] = 1.0
    return a


def dense_bkappa(inst: SocInstance) -> np.ndarray:
    """State adjacency assembled directly from the block-matrix definition."""
    g, kappa = inst.graph, inst.kappa
    n = g.n
    a = dense_adjacency(g)
    j = np.diag(inst.refill.astype(float))
    eye = np.eye(n)
    big = np.zeros((n * (kappa + 1), n * (kappa + 1)))
    for b in range(kappa + 1):
        rows = slice(b * n, (b + 1) * n)
        big[rows, 0:n] = a @ j
        if b < kappa:
            big[rows, (b + 1) * n : (b + 2) * n] = a @ (eye - j)
    return big


def _dense_resolvent(big: np.ndarray, alpha: float) -> np.ndarray:
    """(I - alpha * big)^-1 1 by one dense solve, once alpha is below 1 over big's spectral radius."""
    radius = max(abs(np.linalg.eigvals(big)))
    if alpha * radius >= 1.0:
        raise ValueError(f"alpha={alpha} at or above 1/lambda_max={1.0 / radius if radius else np.inf:.6g}")
    return np.linalg.solve(np.eye(big.shape[0]) - alpha * big, np.ones(big.shape[0]))


def dense_soc_katz(inst: SocInstance, alpha: float) -> ScoreVector:
    """Direct resolvent inversion over the dense state adjacency, of at most ``DENSE_MAX_STATES`` states."""
    n_states = inst.graph.n * (inst.kappa + 1)
    if n_states > DENSE_MAX_STATES:
        raise BudgetExceeded(f"{n_states} states exceeds the dense-oracle cap {DENSE_MAX_STATES}")
    u = _dense_resolvent(dense_bkappa(inst), alpha)
    return ScoreVector.for_graph(inst.graph, u[: inst.graph.n], {"measure": "soc-katz-dense"})
