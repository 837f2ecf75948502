import numpy as np
import pytest

from chargecent import Graph, make_instance
from chargecent.betweenness import _charge_dominance
from chargecent.graph import csr


def random_graph(rng, n_max=8, p=0.3, directed=None):
    n = int(rng.integers(2, n_max + 1))
    if directed is None:
        directed = bool(rng.random() < 0.5)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j < i):
                continue
            if rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges, directed=directed)


def random_instance(rng, n_max=8, p=0.3, kappa_max=3, directed=None):
    g = random_graph(rng, n_max, p, directed)
    kappa = int(rng.integers(1, kappa_max + 1))
    size = int(rng.integers(0, g.n + 1))
    omega = sorted(int(v) for v in rng.choice(g.n, size=size, replace=False)) if size else []
    return make_instance(g, omega, kappa)


def instance_corpus(count, seed, **kw):
    rng = np.random.default_rng(seed)
    return [random_instance(rng, **kw) for _ in range(count)]


@pytest.fixture(scope="session")
def small_instances():
    """Shared mixed corpus for cross-checks in module tests."""
    return instance_corpus(40, seed=1729)


def with_sinks(sg):
    """CSR (indptr, indices) of the state graph plus node u's sink at ``sg.n_states + u``.

    Each state's last arc enters its node's sink, so a shortest feasible s-to-t
    walk is a shortest path from (s, kappa) to t's sink less its sink hop: the
    reference formulation of soc-bc, which the package computes without sinks.
    """
    states = np.arange(sg.n_states, dtype=np.int64)
    src = np.concatenate((sg.arc_src, states))
    dst = np.concatenate((sg.indices, sg.n_states + states % sg.n))
    return csr(sg.n_states + sg.n, src, dst)


def sink_dominance(sg):
    """soc-bc's charge dominance lifted to ``with_sinks(sg)``: each sink is a group of its own.

    A sink's group holds nothing else, so it is never dropped.
    """
    group, rank = _charge_dominance(sg)
    sinks = np.arange(sg.n, dtype=np.int64)
    return np.concatenate((group, sg.n + sinks)), np.concatenate((rank, 0 * sinks))
