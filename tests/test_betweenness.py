import numpy as np
import pytest

from chargecent import (
    make_instance,
    soc_betweenness,
    soc_betweenness_scores,
    standard_betweenness,
)
from chargecent.generators import (
    barabasi_albert_graph,
    complete_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    sample_omega,
    star_graph,
    two_grids_bridged,
)
import chargecent.betweenness as betweenness
from chargecent.betweenness import ENDPOINT_CONVENTIONS
from chargecent.graph import bfs
from chargecent.oracles import brute_soc_bc, shortest_feasible_walks

from conftest import instance_corpus, sink_dominance, with_sinks
from reference import bfs_shortest_paths, target_restricted_dependency


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
    state_scores, sv = soc_betweenness_scores(inst)
    assert state_scores.shape == (inst.state_graph.n_states,)  # one score per state
    assert np.allclose(
        state_scores.reshape(inst.kappa + 1, 4).sum(axis=0),
        sv.values,
    )


def test_sigma_consistency_invariant(small_instances):
    for inst in small_instances[:10]:
        sg = inst.state_graph
        indptr, indices = with_sinks(sg)
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
        sg = inst.state_graph
        indptr, indices = with_sinks(sg)
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
        sg = inst.state_graph
        indptr, indices = with_sinks(sg)
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
        got = soc_betweenness_scores(inst)[0]
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


_PINNED_BC = {
    # endpoints: (state scores at states 0, 77, 500, 1000, 1500; node scores at 13, 66, 143; bc at node 66)
    "target": (
        ["0x1.316eaed5f7a11p+7", "0x1.3966632cf1e53p+11", "0x1.6035405dd46eep+7",
         "0x1.48965d7bfaa2cp+4", "0x1.343db0c79538ep+1"],
        ["0x1.35b8eeab6f929p+9", "0x1.15d06b480a66bp+11", "0x1.31ae7fdac56e2p+7"],
        "0x1.2573ebcc11205p+11",
    ),
    "none": (
        ["0x1.36eaed5f7a11dp+3", "0x1.2786632cf1e54p+11", "0x1.4e35405dd46eep+7",
         "0x1.644fd1d371b16p+3", "0x1.362c05fc41efdp+0"],
        ["0x1.dc71dd56df24cp+8", "0x1.03f06b480a66cp+11", "0x1.3ae7fdac56e1cp+3"],
        "0x1.1393ebcc11206p+11",
    ),
}


@pytest.mark.parametrize("endpoints", ENDPOINT_CONVENTIONS)
def test_soc_bc_scores_are_pinned(endpoints):
    # Exact bits of soc-bc and bc on a grid whose path counts are not powers of
    # two, so any reordering of the float adds shows here.
    g = grid_graph(12, 12)
    inst = make_instance(g, sample_omega(144, 0.2, seed=5), 10)
    states, nodes, plain = _PINNED_BC[endpoints]
    got_states, got = soc_betweenness_scores(inst, endpoints)
    assert [float(got_states[i]).hex() for i in (0, 77, 500, 1000, 1500)] == states
    assert [float(got.values[v]).hex() for v in (13, 66, 143)] == nodes
    assert float(standard_betweenness(g, endpoints).values[66]).hex() == plain


def _accumulate_by_levels(d, sigma, tree_arcs, target_mask, bc_state):
    """Dependency accumulation restricted to ``target_mask``, with gating, one level at a time.

    Adds each gated node's dependency to ``bc_state``, the source's excepted.
    """
    delta = np.zeros(sigma.shape[0])
    chi = target_mask.copy()
    ind = target_mask.astype(float)
    for lvl in range(len(tree_arcs), 0, -1):
        w = np.flatnonzero(d == lvl)
        sel = w[chi[w]]
        bc_state[sel] += delta[sel]
        tsrc, tdst = tree_arcs[lvl - 1]
        m = chi[tdst]
        ts, td = tsrc[m], tdst[m]
        if ts.size:
            chi[ts] = True
            np.add.at(delta, ts, (sigma[ts] / sigma[td]) * (ind[td] + delta[td]))


def _one_source_at_a_time_soc_bc(inst, endpoints):
    """soc-bc state scores by one plain ``bfs`` over the sink graph and one accumulation per source."""
    sg = inst.state_graph
    n, n_states = sg.n, sg.n_states
    indptr, indices = with_sinks(sg)
    sinks = np.zeros(n_states + n, dtype=bool)
    sinks[n_states:] = True
    bc_state = np.zeros(n_states + n)
    for s in range(n):
        d, sigma, tree_arcs = bfs(indptr, indices, sg.source_state(s))
        _accumulate_by_levels(d, sigma, tree_arcs, sinks, bc_state)
        if endpoints == "none":
            for tsrc, tdst in tree_arcs:
                into_sink = sinks[tdst] & (tdst != n_states + s)
                xs, st = tsrc[into_sink], tdst[into_sink]
                if xs.size:
                    np.add.at(bc_state, xs, -(sigma[xs] / sigma[st]))
    return bc_state[:n_states]


def _one_source_at_a_time_bc(g, endpoints):
    """Plain bc by one ``bfs`` and one accumulation per source."""
    bc = np.zeros(g.n)
    all_targets = np.ones(g.n, dtype=bool)
    for s in range(g.n):
        d, sigma, tree_arcs = bfs(g.indptr, g.indices, s)
        _accumulate_by_levels(d, sigma, tree_arcs, all_targets, bc)
        if endpoints == "target":
            bc[d >= 1] += 1.0
    return bc


@pytest.fixture(scope="module")
def one_source_at_a_time():
    insts = [
        make_instance(grid_graph(16, 16), sample_omega(256, 0.2, seed=1), 16),
        make_instance(barabasi_albert_graph(300, 3, seed=2), sample_omega(300, 0.3, seed=3), 5),
        *instance_corpus(40, seed=1729),  # directed graphs and self-loops among them
    ]
    return [
        (inst, endpoints, _one_source_at_a_time_soc_bc(inst, endpoints), _one_source_at_a_time_bc(inst.graph, endpoints))
        for inst in insts
        for endpoints in ENDPOINT_CONVENTIONS
    ]


@pytest.mark.parametrize("copies", [None, 1, 7])
def test_chunked_scores_are_bit_identical_to_one_source_at_a_time(one_source_at_a_time, monkeypatch, copies):
    # copies=None keeps CELLS; 1 is one source per chunk, as on a graph larger
    # than CELLS; 7 leaves a partial last chunk on the grid, the BA graph and the
    # 8-node instances (a graph of n <= 7 nodes takes its n sources in one chunk).
    for inst, endpoints, want_states, want_bc in one_source_at_a_time:
        g, kappa = inst.graph, inst.kappa
        if copies is not None:
            sg = inst.state_graph
            monkeypatch.setattr(betweenness, "CELLS", copies * (sg.n_states + sg.n_arcs))
        got_states, got = soc_betweenness_scores(inst, endpoints)
        assert np.array_equal(got_states, want_states)
        assert np.array_equal(got.values, want_states.reshape(kappa + 1, g.n).sum(axis=0))
        if copies is not None:
            monkeypatch.setattr(betweenness, "CELLS", copies * (g.n + g.n_arcs))
        assert np.array_equal(standard_betweenness(g, endpoints).values, want_bc)


def test_a_chunk_of_copies_stays_within_cells(monkeypatch):
    # A dense graph gets fewer sources per chunk, so no chunk's rows of labels
    # plus arcs, and no level's arc arrays, outgrow CELLS entries when one row fits.
    sizes = []
    real_bfs = betweenness.bfs

    def recording_bfs(indptr, indices, source, dominance=None):
        sizes.append(len(source) * (indptr.size - 1 + indices.size))
        return real_bfs(indptr, indices, source, dominance)

    monkeypatch.setattr(betweenness, "bfs", recording_bfs)
    standard_betweenness(complete_graph(200))
    soc_betweenness(make_instance(gnp_random_graph(300, 0.3, seed=1), [1, 2, 3], 3))
    assert sizes and max(sizes) <= betweenness.CELLS


def test_a_chunk_holds_no_more_copies_than_sources(monkeypatch):
    # A 3-node path fits CELLS tens of thousands of times over, but has 3
    # sources: one search row each, of N nodes.
    nodes = []
    real_bfs = betweenness.bfs
    monkeypatch.setattr(betweenness, "bfs", lambda indptr, indices, source, *rest: nodes.append(
        len(source) * (indptr.size - 1)) or real_bfs(indptr, indices, source, *rest))
    standard_betweenness(path_graph(3))
    soc_betweenness(make_instance(path_graph(3), [], 2))
    assert nodes == [3 * 3, 3 * 9]


def test_soc_bc_meta_counts_the_states_the_search_settled():
    inst = make_instance(grid_graph(6, 6), sample_omega(36, 0.2, seed=2), 6)
    sg = inst.state_graph
    indptr, indices = with_sinks(sg)
    settled = plain = 0
    for s in range(sg.n):
        settled += int((bfs(indptr, indices, s, sink_dominance(sg))[0][: sg.n_states] >= 0).sum())
        plain += int((bfs(indptr, indices, s)[0][: sg.n_states] >= 0).sum())
    meta = soc_betweenness(inst).meta
    assert (meta["states"], meta["settled_states"]) == (sg.n_states, settled)
    assert settled < plain  # dominated states were dropped
    assert "settled_states" not in standard_betweenness(inst.graph).meta
