"""Seeded synthetic graphs for experiments and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed=False)


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], directed=False)


def star_graph(leaves: int) -> Graph:
    """Center is node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], directed=False)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], directed=False)


def grid_graph(rows: int, cols: int) -> Graph:
    """Rows-by-cols lattice; node id = r * cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges, directed=False)


def two_grids_bridged(side: int, bridge_len: int) -> tuple[Graph, list[int], tuple[int, int]]:
    """Two side-by-side lattices joined by a path. Returns the graph, the ids
    of the bridge's interior nodes, and the two grid attachment nodes."""
    a = side * side
    grid = grid_graph(side, side).edges
    edges = grid + [(u + a, v + a) for u, v in grid]
    # Bridge from the right-middle of grid A to the left-middle of grid B.
    left = (side // 2) * side + (side - 1)
    right = a + (side // 2) * side
    bridge = list(range(2 * a, 2 * a + bridge_len - 1))
    chain = [left] + bridge + [right]
    edges.extend(zip(chain[:-1], chain[1:]))
    return Graph(2 * a + bridge_len - 1, edges, directed=False), bridge, (left, right)


def gnp_random_graph(n: int, p: float, seed: int, directed: bool = False) -> Graph:
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if not directed and j < i:
                continue
            if rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges, directed=directed)


def barabasi_albert_graph(n: int, m: int, seed: int) -> Graph:
    """Preferential attachment with m arcs per arriving node; connected."""
    if n <= m:
        raise ValueError("need n > m")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(m))
    for v in range(m, n):
        for t in targets:
            edges.append((v, t))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return Graph(n, edges, directed=False)


def sample_omega(n: int, ratio: float, seed: int) -> list[int]:
    """Uniform refill-node sample without replacement at the given ratio."""
    if not (0.0 < ratio <= 1.0):
        raise ValueError("omega ratio must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    k = max(1, round(ratio * n))
    return sorted(int(v) for v in rng.choice(n, size=k, replace=False))
