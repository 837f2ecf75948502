import numpy as np
import pytest
import scipy.sparse.linalg

from chargecent import (
    Graph,
    NumericalError,
    make_instance,
    rwbc_all_pairs,
    sample_feasible_pairs,
    soc_rwbc,
)
from chargecent.generators import barabasi_albert_graph, cycle_graph, gnp_random_graph, grid_graph, path_graph
from chargecent.rwbc import _absorbing_flows, _base_rank

from conftest import random_graph
from reference import current_flow_throughflow, monte_carlo_rwbc, walk_subgraph


def test_walk_subgraph_path():
    g = Graph(3, [(0, 1), (1, 2)], directed=True)
    sub = walk_subgraph(g, 0, 2)
    assert sub.nodes.tolist() == [0, 1, 2] and sub.arc_src.shape[0] == 2


def test_walk_subgraph_excludes_dead_end():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)], directed=True)
    sub = walk_subgraph(g, 0, 2)
    assert 3 not in sub.nodes.tolist()


def test_walk_subgraph_empty_when_unreachable():
    g = Graph(3, [(1, 0), (1, 2)], directed=True)
    assert walk_subgraph(g, 0, 2).empty


def test_walk_subgraph_matches_reachability_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        g = gnp_random_graph(n, 0.3, seed=int(rng.integers(2**31)), directed=True)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        # Brute reachability through v by dense transitive closure.
        a = np.zeros((n, n), dtype=bool)
        for u, v in zip(g.arc_src, g.indices):
            a[u, v] = True
        reach = np.eye(n, dtype=bool) | a
        for _ in range(n):
            reach = reach | (reach @ reach)
        expect = sorted(v for v in range(n) if reach[s, v] and reach[v, t] and reach[s, t])
        sub = walk_subgraph(g, s, t)
        assert sub.nodes.tolist() == expect


def pair_flow(g, s, t):
    """Net throughflow of the single pair (s, t)."""
    return rwbc_all_pairs(g, [(s, t)]).values


def test_pair_flow_deterministic_path():
    g = Graph(3, [(0, 1), (1, 2)], directed=True)
    flows = _absorbing_flows(g.reverse, np.array([2]), [0], _base_rank(g))
    assert np.allclose(flows.net, [0.5, 1.0, 0.5], atol=1e-12)
    assert np.allclose(pair_flow(g, 0, 2), [0.5, 1.0, 0.5], atol=1e-12)


def test_pair_flow_symmetric_diamond():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True)
    net = pair_flow(g, 0, 3)
    assert net[1] == pytest.approx(0.5)
    assert net[2] == pytest.approx(0.5)


def test_pair_requires_feasible_walk():
    g = Graph(3, [(1, 0), (1, 2)], directed=True)
    with pytest.raises(ValueError):
        walk_subgraph(g, 1, 1)


def test_pair_flow_matches_a_dense_solve():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 12))
        g = gnp_random_graph(n, 0.35, seed=int(rng.integers(2**31)), directed=True)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        sub = walk_subgraph(g, s, t)
        if sub.empty:
            continue
        checked += 1
        assert np.allclose(pair_flow(g, s, t), _dense_net(g.n, g.arc_src, g.indices, [t], [s]), atol=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    g = gnp_random_graph(8, 0.4, seed=3, directed=True)
    s, t = 0, 5
    if walk_subgraph(g, s, t).empty:
        pytest.skip("seeded graph lost s-t connectivity")
    base = pair_flow(g, s, t)
    perm = rng.permutation(g.n)
    edges = [(int(perm[u]), int(perm[v])) for u, v in zip(g.arc_src, g.indices)]
    g2 = Graph(g.n, edges, directed=True)
    mapped = pair_flow(g2, int(perm[s]), int(perm[t]))
    assert np.allclose(base, mapped[perm], atol=1e-10)


def test_reduces_to_current_flow_on_symmetrized_graphs():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 13))
        g = gnp_random_graph(n, 0.4, seed=int(rng.integers(2**31)))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        try:
            flow = current_flow_throughflow(g, s, t)
        except ValueError:
            continue
        checked += 1
        nodes = walk_subgraph(g, s, t).nodes
        assert np.max(np.abs(flow[nodes] - pair_flow(g, s, t)[nodes])) <= 1e-6


def test_soc_rwbc_path_example():
    inst = make_instance(path_graph(3), [], 2)
    sv = soc_rwbc(inst, [(0, 2)])
    assert sv.values[1] == pytest.approx(1.0, abs=1e-10)
    assert sv.values[0] == pytest.approx(0.5, abs=1e-10)
    assert sv.meta["skipped_pairs"] == 0


def test_soc_rwbc_infeasible_pair_skipped():
    inst = make_instance(path_graph(3), [], 1)
    sv = soc_rwbc(inst, [(0, 2)])
    assert np.all(sv.values == 0.0)
    assert sv.meta["skipped_pairs"] == 1


def test_soc_rwbc_full_refill_reduces_to_plain():
    # With every node refilling, the state graph with t's states absorbing
    # collapses onto the plain graph with the pair's target absorbed; the
    # absorbed target itself carries no score, so it is excluded from the
    # plain-side sum as well.
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng, n_max=7, p=0.45, directed=False)
        inst = make_instance(g, range(g.n), 1)
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        a = soc_rwbc(inst, pairs).values
        b = np.zeros(g.n)
        for s, t in pairs:
            sub = walk_subgraph(g, s, t)
            if sub.empty:
                continue
            flow = pair_flow(g, s, t)
            flow[t] = 0.0
            b += flow
        assert np.allclose(a, b, atol=1e-8)


def test_monte_carlo_agreement_smoke():
    g = gnp_random_graph(8, 0.4, seed=5, directed=True)
    s, t = 0, 6
    sub = walk_subgraph(g, s, t)
    if sub.empty:
        pytest.skip("seeded graph lost s-t connectivity")
    net = pair_flow(g, s, t)
    mc = monte_carlo_rwbc(g, s, t, walks=30_000, seed=9)
    nodes = sub.nodes
    ok = np.abs(net[nodes] - mc.estimate[nodes]) <= 3 * mc.stderr[nodes] + 1e-9
    assert ok.mean() >= 0.9
    # The check must be able to fail: a biased target mostly falls outside.
    biased = np.abs(net[nodes] * 1.05 - mc.estimate[nodes]) <= 3 * mc.stderr[nodes] + 1e-9
    assert biased.mean() < 1.0


def test_sample_feasible_pairs_deterministic():
    inst = make_instance(path_graph(5), [2], 2)
    a, _ = sample_feasible_pairs(inst, 10, seed=4)
    b, _ = sample_feasible_pairs(inst, 10, seed=4)
    assert a == b
    for s, t in a:
        assert s != t


@pytest.mark.parametrize("kappa, pairs, resampled", [
    (3, [(8, 11), (10, 6), (11, 0), (5, 7), (3, 4), (7, 9), (6, 2), (8, 10), (2, 6), (4, 10)], 0),
    (1, [(8, 11), (11, 0), (5, 7), (3, 4), (0, 5), (11, 4), (8, 11), (5, 7), (3, 8), (4, 11)], 10),
])
def test_sample_feasible_pairs_stream_is_pinned(kappa, pairs, resampled):
    # Exact draws of a seeded run: any change to the pair stream shows here.
    inst = make_instance(gnp_random_graph(12, 0.35, seed=13), [4, 7], kappa)
    assert sample_feasible_pairs(inst, 10, seed=4) == (pairs, resampled)


def test_stpair_validation():
    with pytest.raises(ValueError, match="differ"):
        rwbc_all_pairs(path_graph(3), [(1, 1)])


@pytest.mark.parametrize("pair", [(0, 2.5), (0.0, 2)])
def test_pair_node_ids_must_be_integers(pair):
    # Before, both measures scored either pair silently as the pair (0, 2).
    g = path_graph(3)
    with pytest.raises(ValueError, match="not an integer"):
        rwbc_all_pairs(g, [pair])
    with pytest.raises(ValueError, match="not an integer"):
        soc_rwbc(make_instance(g, [1], 2), [pair])


def test_a_generator_of_pairs_scores_as_its_list():
    # Before, both measures factored and solved a generator, then failed on len(pairs).
    g = gnp_random_graph(10, 0.2, seed=3, directed=True)
    pairs = [(0, 5), (3, 5), (9, 5), (6, 4), (1, 4), (4, 6), (8, 2)]
    inst = make_instance(g, [2, 7], 2)
    for measure in (lambda p: soc_rwbc(inst, p), lambda p: rwbc_all_pairs(g, p)):
        listed, generated = measure(pairs), measure(p for p in pairs)
        assert np.array_equal(generated.values, listed.values)
        assert generated.meta == listed.meta and generated.meta["pairs"] == len(pairs)


def test_both_measures_reject_an_empty_pair_list():
    g = path_graph(3)
    with pytest.raises(ValueError, match="at least one source-target pair"):
        rwbc_all_pairs(g, [])
    with pytest.raises(ValueError, match="at least one source-target pair"):
        soc_rwbc(make_instance(g, [1], 2), [])


@pytest.mark.parametrize("pair", [(-1, 2), (0, -1), (0, 9), (10, 0)])
def test_pair_node_ids_outside_the_graph_are_rejected(pair):
    g = grid_graph(3, 3)
    with pytest.raises(ValueError, match=r"out of range \[0,9\)"):
        rwbc_all_pairs(g, [pair])
    with pytest.raises(ValueError, match=r"out of range \[0,9\)"):
        soc_rwbc(make_instance(g, [4], 2), [(1, 2), pair])


def test_rwbc_all_pairs_sums_per_pair_flows():
    g = gnp_random_graph(6, 0.5, seed=40, directed=True)
    pairs = [(0, 3), (2, 5), (5, 0)]
    total = np.zeros(g.n)
    skipped = 0
    for s, t in pairs:
        sub = walk_subgraph(g, s, t)
        if sub.empty:
            skipped += 1
            continue
        total += pair_flow(g, s, t)
    sv = rwbc_all_pairs(g, pairs)
    assert np.allclose(sv.values, total, atol=1e-12)
    assert sv.meta["skipped_pairs"] == skipped


def _grouped_corpus(seed, count):
    """Sparse random digraphs with pair lists that repeat targets and mix in infeasible pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(5, 13))
        g = gnp_random_graph(n, 0.2, seed=int(rng.integers(2**31)), directed=True)
        targets = rng.choice(n, size=3, replace=False)
        pairs = [(int(s), int(t)) for t in targets for s in rng.integers(n, size=4) if s != t]
        yield g, rng, pairs


def test_grouping_by_target_matches_pair_by_pair():
    repeated = infeasible = 0
    for g, rng, pairs in _grouped_corpus(51, 25):
        repeated += len(pairs) - len({t for _, t in pairs})
        plain = rwbc_all_pairs(g, pairs)
        expect = np.zeros(g.n)
        skipped = 0
        for s, t in pairs:
            sub = walk_subgraph(g, s, t)
            if sub.empty:
                skipped += 1
            else:
                expect += pair_flow(g, s, t)
        assert np.allclose(plain.values, expect, rtol=1e-12, atol=1e-12)
        assert plain.meta["skipped_pairs"] == skipped
        infeasible += skipped

        inst = make_instance(g, rng.choice(g.n, size=2, replace=False), 2)
        soc = soc_rwbc(inst, pairs)
        singles = [soc_rwbc(inst, [p]) for p in pairs]
        assert np.allclose(soc.values, sum(sv.values for sv in singles), rtol=1e-12, atol=1e-12)
        assert soc.meta["skipped_pairs"] == sum(sv.meta["skipped_pairs"] for sv in singles)
    assert repeated > 0 and infeasible > 0


def test_one_factorization_per_distinct_target(monkeypatch):
    real = scipy.sparse.linalg.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["permc_spec"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    inst = make_instance(cycle_graph(6), [0, 3], 2)
    pairs = [(0, 2), (1, 2), (5, 2), (0, 4), (3, 4), (2, 1)]
    targets = len({t for _, t in pairs})
    for measure in (lambda: soc_rwbc(inst, pairs), lambda: rwbc_all_pairs(inst.graph, pairs)):
        calls.clear()
        sv = measure()
        # One minimum-degree ordering of the base graph, then each target factored in that order.
        assert calls == ["MMD_AT_PLUS_A"] + ["NATURAL"] * targets
        assert sv.meta["skipped_pairs"] == 0
        assert sv.meta["factorizations"] == targets
        assert sv.meta["solver"] == "splu" and sv.meta["ordering"].startswith("MMD_AT_PLUS_A of the base graph")
        assert 0.0 <= sv.meta["max_residual"] <= 1e-9


def _dense_net(n, src, dst, absorbing, starts):
    """Net throughflow of walks from each start absorbed at ``absorbing``, summed over the starts.

    One dense solve with the unknowns in index order; starts that cannot
    reach the absorbing set add nothing.
    """
    absorbs = np.zeros(n, dtype=bool)
    absorbs[absorbing] = True
    live = ~absorbs[src]
    reach = absorbs.copy()
    while True:  # backward closure over the arcs that do not leave the absorbing set
        grown = reach.copy()
        grown[src[live & reach[dst]]] = True
        if (grown == reach).all():
            break
        reach = grown
    starts = [s for s in starts if reach[s]]
    if not starts:
        return np.zeros(n)
    unknowns = np.flatnonzero(reach & ~absorbs)
    row = np.full(n, -1)
    row[unknowns] = np.arange(unknowns.shape[0])
    arcs = [(u, v) for u, v in zip(src[live], dst[live]) if reach[u] and reach[v]]
    K = np.zeros((unknowns.shape[0], unknowns.shape[0]))
    for u, v in arcs:
        K[row[u], row[u]] += 1.0
        if row[v] >= 0:
            K[row[v], row[u]] -= 1.0
    rhs = np.zeros((unknowns.shape[0], len(starts)))
    rhs[row[starts], np.arange(len(starts))] = 1.0
    usage = np.zeros((n, len(starts)))
    usage[unknowns] = np.linalg.solve(K, rhs)
    pair_net: dict[tuple[int, int], np.ndarray] = {}
    for u, v in arcs:
        if u != v:
            key = (min(u, v), max(u, v))
            pair_net[key] = pair_net.get(key, 0.0) + (usage[u] if u < v else -usage[u])
    net = np.zeros(n)
    for (u, v), f in pair_net.items():
        net[u] += 0.5 * np.abs(f).sum()
        net[v] += 0.5 * np.abs(f).sum()
    return net


def _oracle_instances():
    rng = np.random.default_rng(909)
    ba = barabasi_albert_graph(150, 2, seed=31)
    gnp = gnp_random_graph(120, 0.03, seed=32, directed=True)
    for g, kappa in ((ba, 3), (gnp, 2)):
        inst = make_instance(g, rng.choice(g.n, size=g.n // 5, replace=False), kappa)
        targets = rng.choice(g.n, size=4, replace=False)
        pairs = [(int(s), int(t)) for t in targets for s in rng.choice(g.n, size=5, replace=False) if s != t]
        yield inst, pairs


def test_scores_match_dense_solves_in_natural_order():
    # The kernel factors each target in the base graph's minimum-degree order;
    # the oracle solves each target densely with the unknowns in index order.
    for inst, pairs in _oracle_instances():
        g, kappa = inst.graph, inst.kappa
        rank = _base_rank(g)
        assert not np.array_equal(rank, np.arange(g.n))  # a nontrivial permutation
        by_target = {t: [s for s, u in pairs if u == t] for _, t in pairs}
        plain = sum(_dense_net(g.n, g.arc_src, g.indices, [t], sources) for t, sources in by_target.items())
        sv = rwbc_all_pairs(g, pairs)
        assert sv.meta["factorizations"] > 0 and sv.meta["skipped_pairs"] < len(pairs)
        assert np.max(np.abs(sv.values - plain)) <= 1e-10 * np.max(np.abs(plain))

        sg = inst.state_graph
        states = np.zeros(sg.n_states)
        for t, sources in by_target.items():
            absorbing = np.arange(kappa + 1) * g.n + t
            net = _dense_net(sg.n_states, sg.arc_src, sg.indices, absorbing, [sg.source_state(s) for s in sources])
            net[absorbing] = 0.0
            states += net
        soc_expect = states.reshape(kappa + 1, g.n).sum(axis=0)
        soc = soc_rwbc(inst, pairs)
        assert soc.meta["factorizations"] > 0 and soc.meta["skipped_pairs"] < len(pairs)
        assert np.max(np.abs(soc.values - soc_expect)) <= 1e-10 * np.max(np.abs(soc_expect))


def test_solver_meta_records_the_ordering_and_a_deterministic_factor_size():
    inst, pairs = next(_oracle_instances())
    for measure in (lambda: soc_rwbc(inst, pairs), lambda: rwbc_all_pairs(inst.graph, pairs)):
        first, again = measure().meta, measure().meta
        assert first["ordering"].startswith("MMD_AT_PLUS_A of the base graph")
        assert isinstance(first["factor_nnz"], int) and first["factor_nnz"] > 0
        assert again["factor_nnz"] == first["factor_nnz"]


def test_rwbc_beyond_int32_pair_keys():
    # 46,500 unknowns: unordered-pair keys lo * (k + 1) + hi exceed 2**31.
    n = 46_501
    sv = rwbc_all_pairs(path_graph(n), [(0, n - 1)])
    expect = np.ones(n)
    expect[[0, -1]] = 0.5  # a unit current passes every inner node of the path
    # Usages reach ~2n visits per node, so net flows carry cancellation error near 1e-10.
    assert np.allclose(sv.values, expect, rtol=0, atol=1e-7)


def test_matches_networkx_current_flow_betweenness():
    nx = pytest.importorskip("networkx")
    g = barabasi_albert_graph(100, 3, seed=8)
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
    sv = rwbc_all_pairs(g, pairs)
    assert sv.meta["factorizations"] == g.n
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    cfb = nx.current_flow_betweenness_centrality(G, normalized=False)
    expect = np.array([cfb[v] for v in range(g.n)])
    assert np.max(np.abs(sv.values / 2 - (g.n - 1) / 2 - expect)) <= 1e-9


def test_singular_system_is_numerical_error(monkeypatch):
    real = scipy.sparse.linalg.splu

    def singular_at(spec):
        def splu(*args, **kwargs):
            if kwargs["permc_spec"] == spec:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)
        return splu

    inst = make_instance(path_graph(3), [], 2)
    for spec, match in (("NATURAL", "singular"), ("MMD_AT_PLUS_A", "ordering")):
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_at(spec))
        with pytest.raises(NumericalError, match=match):
            soc_rwbc(inst, [(0, 2)])
        with pytest.raises(NumericalError, match=match):
            rwbc_all_pairs(inst.graph, [(0, 2)])


def test_failed_residual_check_is_numerical_error(monkeypatch):
    real = scipy.sparse.linalg.splu

    class Skewed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1 + 1e-6)

    def skewed_targets(*args, **kwargs):
        lu = real(*args, **kwargs)
        return Skewed(lu) if kwargs["permc_spec"] == "NATURAL" else lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", skewed_targets)
    with pytest.raises(NumericalError, match="residual"):
        rwbc_all_pairs(Graph(3, [(0, 1), (1, 2), (1, 0)], directed=True), [(0, 2)])


_PINNED_SOC = [
    "0x1.8000000000000p+0", "0x1.0000000000000p-1", "0x1.6000000000000p+1", "0x1.a000000000000p+1",
    "0x0.0p+0", "0x1.aaaaaaaaaaaaap+1", "0x1.0000000000000p-1", "0x1.0000000000000p+1",
    "0x1.6aaaaaaaaaaaap+1", "0x1.aaaaaaaaaaaaap-1",
]
_PINNED_PLAIN = [
    "0x1.a000000000000p+1", "0x1.2000000000000p+1", "0x1.8000000000000p+1", "0x1.8000000000000p+1",
    "0x1.0000000000000p+0", "0x1.1aaaaaaaaaaabp+2", "0x1.0000000000000p-1", "0x1.b555555555556p+0",
    "0x1.b000000000000p+1", "0x1.0000000000000p-1",
]


def test_rwbc_scores_and_meta_are_pinned():
    # Exact bits of a seeded run whose pairs repeat targets 5 and 4 and include
    # (4, 6), infeasible in both graphs because node 6 has no in-arcs. Any
    # change to either measure's arithmetic shows here.
    g = gnp_random_graph(10, 0.2, seed=3, directed=True)
    pairs = [(0, 5), (3, 5), (9, 5), (6, 4), (1, 4), (4, 6), (8, 2)]
    solver = {"solver": "splu", "ordering": "MMD_AT_PLUS_A of the base graph", "factorizations": 3}
    soc = soc_rwbc(make_instance(g, [2, 7], 2), pairs)
    assert [float(v).hex() for v in soc.values] == _PINNED_SOC
    assert soc.meta == {"measure": "soc-rwbc", "kappa": 2, "omega": [2, 7], "pairs": 7, "skipped_pairs": 1,
                        **solver, "ordering": "MMD_AT_PLUS_A of the base graph, node-major",
                        "factor_nnz": 268, "max_residual": 0.0}
    plain = rwbc_all_pairs(g, pairs)
    assert [float(v).hex() for v in plain.values] == _PINNED_PLAIN
    assert plain.meta == {"measure": "rwbc", "pairs": 7, "skipped_pairs": 1, **solver,
                          "factor_nnz": 171, "max_residual": 5.551115123125783e-17}
