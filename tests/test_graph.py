import numpy as np
import pytest

from chargecent import (
    Graph,
    GraphParseError,
    RefillSet,
    SocInstance,
    build_state_graph,
    load_edge_list,
    make_instance,
    write_snap_tsv,
)
from chargecent.graph import RADIUS_RTOL, bfs, radius_bracket
from chargecent.generators import grid_graph, path_graph, star_graph
from chargecent.oracles import _distances_to_target, dense_adjacency, dense_bkappa

from conftest import instance_corpus, random_graph, sink_dominance, with_sinks


def test_snap_trivial(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("0 1\n1 2\n# comment\n")
    g = load_edge_list(f, "snap-tsv", directed=False)
    assert (g.n, g.m) == (3, 2)
    assert not g.directed


def test_snap_comments_blank_lines_and_tabs(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("# head\n\n10\t20\n20\t30\n")
    g = load_edge_list(f, "snap-tsv")
    assert (g.n, g.m) == (3, 2)
    assert g.labels == ["10", "20", "30"]


def test_snap_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "bad.tsv"
    f.write_text("0 1\noops\n")
    with pytest.raises(GraphParseError) as err:
        load_edge_list(f, "snap-tsv")
    assert err.value.line == 2


def test_duplicate_arcs_collapse(tmp_path):
    f = tmp_path / "dup.tsv"
    f.write_text("0 1\n1 0\n0 1\n")
    g = load_edge_list(f, "snap-tsv", directed=False)
    assert g.m == 1 and g.duplicates_collapsed == 2
    gd = load_edge_list(f, "snap-tsv", directed=True)
    assert gd.m == 2 and gd.duplicates_collapsed == 1


def test_csv_with_and_without_header(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("u,v\na,b\nb,c\n")
    g = load_edge_list(f, "csv")
    assert (g.n, g.m) == (3, 2) and g.labels == ["a", "b", "c"]
    f2 = tmp_path / "g2.csv"
    f2.write_text("0,1\n1,2\n")
    assert load_edge_list(f2, "csv").m == 2


def test_matrix_market_pattern_symmetric(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% comment\n"
        "4 4 3\n1 2\n2 3\n1 4\n"
    )
    g = load_edge_list(f, "matrix-market", directed=False)
    assert (g.n, g.m) == (4, 3)
    gd = load_edge_list(f, "matrix-market", directed=True)
    assert gd.m == 6  # symmetric storage expanded to both arcs


def test_matrix_market_isolated_nodes_counted(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern general\n5 5 1\n1 2\n")
    assert load_edge_list(f, "matrix-market").n == 5


def test_matrix_market_bad_header(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("not a header\n1 1 0\n")
    with pytest.raises(GraphParseError):
        load_edge_list(f, "matrix-market")


def test_empty_graph_rejected(tmp_path):
    f = tmp_path / "empty.tsv"
    f.write_text("# nothing\n")
    with pytest.raises(GraphParseError):
        load_edge_list(f, "snap-tsv")


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        load_edge_list(tmp_path / "x", "edgelist")


def test_round_trip_snap(tmp_path):
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, n_max=10, p=0.4)
        path = tmp_path / "rt.tsv"
        write_snap_tsv(g, path)
        g2 = load_edge_list(path, "snap-tsv", directed=g.directed)
        orig = sorted((g.labels[u], g.labels[v]) for u, v in g.edges)
        back = sorted((g2.labels[u], g2.labels[v]) for u, v in g2.edges)
        assert orig == back


def test_out_neighbors_path_and_direction():
    p3 = path_graph(3)
    assert p3.out_neighbors(1).tolist() == [0, 2]
    iso = Graph(3, [(0, 1)], directed=False)
    assert iso.out_neighbors(2).tolist() == []
    arc = Graph(2, [(0, 1)], directed=True)
    assert arc.out_neighbors(1).tolist() == []
    assert arc.out_neighbors(0).tolist() == [1]
    with pytest.raises(ValueError):
        p3.out_neighbors(3)


def test_out_neighbors_sorted_and_degree_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, n_max=12, p=0.4)
        sizes = sum(len(g.out_neighbors(v)) for v in range(g.n))
        loops = g.self_loop_count
        expected = g.m if g.directed else 2 * g.m - loops
        assert sizes == expected
        for v in range(g.n):
            nb = g.out_neighbors(v).tolist()
            assert nb == sorted(nb)


def test_spectral_radius_examples():
    edge = Graph(2, [(0, 1)], directed=False)
    assert radius_bracket(edge.adjacency) == pytest.approx((1.0, 1.0), abs=1e-8)
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    assert radius_bracket(tri.adjacency) == pytest.approx((2.0, 2.0), abs=1e-8)
    assert radius_bracket(star_graph(4).adjacency) == pytest.approx((2.0, 2.0), abs=1e-8)


def test_spectral_radius_matches_dense_and_lower_bound():
    rng = np.random.default_rng(23)
    for _ in range(15):
        g = random_graph(rng, n_max=10, p=0.4, directed=False)
        lower, upper = radius_bracket(g.adjacency)
        exact = float(max(abs(np.linalg.eigvals(dense_adjacency(g)))))
        assert (lower, upper) == pytest.approx((exact, exact), abs=1e-7)
        if g.n:
            assert lower >= 2 * g.m / g.n - 1e-7  # all-ones Rayleigh quotient


def test_spectral_radius_dag_is_zero():
    dag = Graph(4, [(0, 1), (1, 2), (0, 3)], directed=True)
    assert radius_bracket(dag.adjacency) == (0.0, 0.0)


@pytest.mark.parametrize("seed", [1729, 1, 2, 3])
def test_radius_bracket_contains_the_dense_radius(seed):
    # Both the state graph and the base graph of every corpus instance.
    for inst in instance_corpus(40, seed):
        for adj, dense in ((build_state_graph(inst).adjacency, dense_bkappa(inst)),
                           (inst.graph.adjacency, dense_adjacency(inst.graph))):
            lower, upper = radius_bracket(adj)
            rho = float(max(abs(np.linalg.eigvals(dense))))
            assert lower - 1e-9 <= rho <= upper + 1e-9


def test_radius_bracket_closed_forms():
    # Path graphs have rho = 2cos(pi/(n+1)) and the 30x30 grid 4cos(pi/31).
    for n in (2, 5, 50, 300):
        lower, upper = radius_bracket(path_graph(n).adjacency)
        assert lower - 1e-12 <= 2 * np.cos(np.pi / (n + 1)) <= upper + 1e-12
    lower, upper = radius_bracket(grid_graph(30, 30).adjacency)
    assert lower - 1e-12 <= 4 * np.cos(np.pi / 31) <= upper + 1e-12
    assert upper - lower <= RADIUS_RTOL * upper


def test_radius_bracket_at_the_iteration_cap_still_holds():
    # A long path mixes too slowly to narrow within RADIUS_MAX_ITER steps; the
    # wider bracket it returns at the cap is still valid.
    lower, upper = radius_bracket(path_graph(1000).adjacency)
    assert upper - lower > RADIUS_RTOL * upper
    assert lower <= 2 * np.cos(np.pi / 1001) <= upper


def test_is_acyclic_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 9))
        upper = rng.random() < 0.5  # arcs u -> v with u <= v only: a DAG apart from self-loops
        arcs = [(u, v) for u in range(n) for v in range(u if upper else 0, n) if rng.random() < 0.25]
        g = Graph(n, arcs, directed=True)
        ref = nx.DiGraph(arcs)
        ref.add_nodes_from(range(n))
        want = nx.is_directed_acyclic_graph(ref)
        assert (radius_bracket(g.adjacency) == (0.0, 0.0)) == want
        seen.add((want, upper and g.self_loop_count > 0))
    # Both answers occur, and some graphs are cyclic only through self-loops.
    assert {(True, False), (False, False), (False, True)} <= seen


def test_multi_source_bfs_is_the_minimum_over_single_sources(small_instances):
    # Level 0 is the sorted unique sources; a node's distance is its nearest
    # source's, and its path count sums over the sources at that distance.
    rng = np.random.default_rng(61)
    for inst in small_instances:
        sg = build_state_graph(inst)
        for indptr, indices, n in ((inst.graph.indptr, inst.graph.indices, inst.graph.n),
                                   (sg.indptr, sg.indices, sg.n_states)):
            sources = rng.integers(n, size=int(rng.integers(1, 5)))  # repeats allowed
            d, sigma, _ = bfs(indptr, indices, sources)
            singles = [bfs(indptr, indices, int(s))[:2] for s in np.unique(sources)]
            dist = np.stack([np.where(ds >= 0, ds, n + 1) for ds, _ in singles])
            nearest = dist.min(axis=0)
            assert np.array_equal(d, np.where(nearest <= n, nearest, -1))
            paths = sum(np.where(ds == nearest, ss, 0.0) for ds, ss in singles)
            assert np.array_equal(sigma, paths)
            assert np.flatnonzero(d == 0).tolist() == sorted(set(sources.tolist()))


@pytest.mark.parametrize("seed", [1729, 1])
def test_dominance_keeps_every_shortest_walk_to_a_sink(seed):
    # soc-bc's charge dominance over the sink-augmented state graph. A state on
    # a shortest source-to-sink walk keeps its plain distance and path count;
    # no kept state comes a level after a same-node state with at least its charge.
    dropped = 0
    for inst in instance_corpus(40, seed=seed):
        sg = build_state_graph(inst)
        n, n_states, kappa = sg.n, sg.n_states, sg.kappa
        indptr, indices = with_sinks(sg)
        to_t = [_distances_to_target(inst, t) for t in range(n)]
        for s in range(n):
            d, sigma, _ = bfs(indptr, indices, s)
            kd, ksigma, _ = bfs(indptr, indices, s, sink_dominance(sg))
            on_path = np.zeros(n_states + n, dtype=bool)
            on_path[n_states:] = d[n_states:] >= 0
            for w in np.flatnonzero(d[:n_states] >= 0):
                state = (w % n, kappa - w // n)
                on_path[w] = any(d[n_states + t] >= 0 and state in to_t[t]
                                 and d[w] + to_t[t][state] + 1 == d[n_states + t] for t in range(n))
            assert np.array_equal(kd[on_path], d[on_path])
            assert np.array_equal(ksigma[on_path], sigma[on_path])
            levels = np.where(kd[:n_states] >= 0, kd[:n_states], n_states + n).reshape(kappa + 1, n)
            earlier_fuller = np.minimum.accumulate(np.vstack((np.full(n, n_states + n), levels[:-1])))
            assert np.all((kd[:n_states] < 0) | (levels <= earlier_fuller).ravel())
            dropped += int((d >= 0).sum() - (kd >= 0).sum())
    assert dropped > 0


def test_labels_bijective():
    g = Graph(3, [(0, 1)], directed=False, labels=["x", "y", "z"])
    assert [g.label_to_id[lab] for lab in g.labels] == [0, 1, 2]
    with pytest.raises(ValueError):
        Graph(2, [], directed=False, labels=["a", "a"])


def test_instance_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        make_instance(g, [], 0)
    with pytest.raises(ValueError):
        RefillSet([5], 3)
    with pytest.raises(ValueError):
        SocInstance(g, RefillSet([0], 4), 1)
    inst = make_instance(g, [1], 2)
    assert 1 in inst.omega and 0 not in inst.omega


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)], directed=False)
