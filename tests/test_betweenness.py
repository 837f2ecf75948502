import numpy as np
import pytest

from chargecent import (
    build_state_graph,
    make_instance,
    soc_betweenness,
    soc_betweenness_scores,
    standard_betweenness,
)
from chargecent.generators import (
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
    two_grids_bridged,
)
from chargecent.betweenness import _with_sinks
from chargecent.graph import bfs
from chargecent.oracles import (
    bfs_shortest_paths,
    brute_soc_bc,
    shortest_feasible_walks,
    target_restricted_dependency,
)


def test_path_kappa_one_only_adjacent_pairs():
    inst = make_instance(path_graph(3), [], 1)
    assert soc_betweenness(inst).values.tolist() == [1.0, 2.0, 1.0]


def test_path_kappa_two_middle_maximal():
    inst = make_instance(path_graph(3), [], 2)
    vals = soc_betweenness(inst).values
    assert vals.tolist() == [2.0, 4.0, 2.0]
    assert vals[1] > vals[0] and vals[1] > vals[2]


def test_standard_bc_path_and_star():
    assert standard_betweenness(path_graph(3)).values.tolist() == [2.0, 4.0, 2.0]
    assert standard_betweenness(path_graph(3), "none").values.tolist() == [0.0, 2.0, 0.0]
    star = standard_betweenness(star_graph(4)).values
    assert star[0] == max(star) and star[0] > star[1]


def test_matches_brute_force_oracle(small_instances):
    for inst in small_instances:
        for endpoints in ("target", "none"):
            kernel = soc_betweenness(inst, endpoints).values
            brute = brute_soc_bc(inst, endpoints).values
            assert np.max(np.abs(kernel - brute)) <= 1e-9


def test_reduction_to_standard_bc():
    graphs = [path_graph(5), star_graph(4), gnp_random_graph(8, 0.35, seed=4)]
    rng = np.random.default_rng(9)
    for _ in range(10):
        graphs.append(gnp_random_graph(int(rng.integers(3, 9)), 0.4, seed=int(rng.integers(2**31))))
    for g in graphs:
        longest = 0
        for s in range(g.n):
            d = bfs(g.indptr, g.indices, s)[0]
            longest = max(longest, int(d.max()))
        kappa = max(longest, 1)
        inst = make_instance(g, [], kappa)
        for endpoints in ("target", "none"):
            a = soc_betweenness(inst, endpoints).values
            b = standard_betweenness(g, endpoints).values
            assert np.max(np.abs(a - b)) <= 1e-9


def test_state_scores_aggregate_and_stars_zero():
    inst = make_instance(path_graph(4), [1], 2)
    scores = soc_betweenness_scores(inst)
    assert scores.state_scores.shape == (build_state_graph(inst).n_states,)  # the sinks are not scored
    assert np.allclose(
        scores.state_scores.reshape(inst.kappa + 1, 4).sum(axis=0),
        scores.node_scores,
    )


def test_sigma_consistency_invariant(small_instances):
    for inst in small_instances[:10]:
        sg = build_state_graph(inst)
        indptr, indices = _with_sinks(sg)
        n_all = sg.n_states + sg.n
        state = bfs_shortest_paths(indptr, indices, n_all, sg.source_state(0))
        for w in range(n_all):
            if w == state.source or state.dist[w] < 0:
                continue
            assert state.sigma[w] == sum(state.sigma[v] for v in state.preds[w])


def test_dependency_all_targets_reduces_to_classic():
    g = gnp_random_graph(7, 0.4, seed=12)
    state = bfs_shortest_paths(g.indptr, g.indices, g.n, 0)
    delta = target_restricted_dependency(state, range(g.n))
    classic = np.zeros(g.n)
    for w in reversed(state.order):
        for v in state.preds[w]:
            classic[v] += state.sigma[v] / state.sigma[w] * (1 + classic[w])
    assert np.allclose(delta, classic, atol=1e-12)


def test_dependency_empty_targets_zero():
    g = gnp_random_graph(7, 0.4, seed=12)
    state = bfs_shortest_paths(g.indptr, g.indices, g.n, 0)
    assert np.all(target_restricted_dependency(state, []) == 0.0)


def test_dependency_matches_pair_enumeration():
    # Sum of per-pair dependencies over targets equals the recursion's value.
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        g = gnp_random_graph(n, 0.4, seed=int(rng.integers(2**31)), directed=True)
        inst = make_instance(g, range(n), 1)  # full refill: state walks = plain walks
        s = int(rng.integers(n))
        size = int(rng.integers(0, n + 1))
        targets = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        state = bfs_shortest_paths(g.indptr, g.indices, g.n, s)
        delta = target_restricted_dependency(state, targets)
        expect = np.zeros(n)
        for t in targets:
            if t == s or state.dist[t] < 0:
                continue
            walks = shortest_feasible_walks(inst, s, t)
            sigma = len(walks)
            for w in walks:
                for v in w[1:-1]:
                    expect[v] += 1.0 / sigma
        interior = [v for v in range(n) if v != s and v not in targets]
        assert np.allclose(delta[interior], expect[interior], atol=1e-9)


def test_dependency_bounds(small_instances):
    for inst in small_instances[:8]:
        sg = build_state_graph(inst)
        indptr, indices = _with_sinks(sg)
        stars = list(range(sg.n_states, sg.n_states + sg.n))
        for s in range(inst.graph.n):
            state = bfs_shortest_paths(indptr, indices, sg.n_states + sg.n, sg.source_state(s))
            delta = target_restricted_dependency(state, stars)
            reachable = sum(1 for t in stars if state.dist[t] >= 0)
            assert np.all(delta >= -1e-12)
            assert np.all(delta <= reachable + 1e-9)


def test_engine_matches_reference_recursion(small_instances):
    # The vectorized kernel and the scalar recursion agree state by state.
    for inst in small_instances[:10]:
        sg = build_state_graph(inst)
        indptr, indices = _with_sinks(sg)
        n_all = sg.n_states + sg.n
        stars = np.zeros(n_all, dtype=bool)
        stars[sg.n_states :] = True
        expect = np.zeros(n_all)
        for s in range(inst.graph.n):
            src = sg.source_state(s)
            state = bfs_shortest_paths(indptr, indices, n_all, src)
            delta = target_restricted_dependency(state, np.flatnonzero(stars))
            mask = np.ones(n_all, dtype=bool)
            mask[src] = False
            expect[mask] += delta[mask]
        assert np.all(expect[sg.n_states :] == 0.0)
        got = soc_betweenness_scores(inst).state_scores
        assert np.allclose(got, expect[: sg.n_states], atol=1e-9)


def test_deterministic_repeat():
    inst = make_instance(gnp_random_graph(9, 0.3, seed=77), [2, 5], 2)
    a = soc_betweenness(inst).values
    b = soc_betweenness(inst).values
    assert np.array_equal(a, b)


def test_bridged_grids_lose_importance():
    # With a tight budget the long bridge stops carrying cross traffic, so
    # its interior scores fall below the best in-grid scores.
    g, bridge, (left, right) = two_grids_bridged(side=5, bridge_len=5)
    inst = make_instance(g, [], 4)
    soc = soc_betweenness(inst).values
    std = standard_betweenness(g).values
    bridge_all = bridge + [left, right]
    grid_nodes = [v for v in range(g.n) if v not in bridge_all]
    assert max(std[bridge_all]) > max(std[grid_nodes])  # bridge dominates classically
    assert max(soc[bridge]) < max(soc[v] for v in range(g.n) if v not in bridge)


def test_invalid_endpoints_rejected():
    with pytest.raises(ValueError):
        standard_betweenness(path_graph(3), "both")
    with pytest.raises(ValueError):
        soc_betweenness(make_instance(path_graph(3), [], 1), "both")


def test_standard_bc_large_grid_matches_networkx():
    # Shortest-path counts on a 40x40 grid reach C(78, 39) ~ 2.7e22, past int64.
    nx = pytest.importorskip("networkx")
    g = grid_graph(40, 40)
    got = standard_betweenness(g, "none").values
    ref_graph = nx.Graph(g.edges)
    ref_graph.add_nodes_from(range(g.n))
    ref = nx.betweenness_centrality(ref_graph, normalized=False)
    want = 2.0 * np.array([ref[v] for v in range(g.n)])  # networkx counts unordered pairs
    assert got.min() >= 0.0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
