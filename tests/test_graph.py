import pickle

import numpy as np
import pytest

from chargecent import (
    Graph,
    GraphParseError,
    SocInstance,
    load_edge_list,
    make_instance,
    soc_betweenness,
    write_snap_tsv,
)
from chargecent.betweenness import _charge_dominance
from chargecent.errors import NumericalError
from chargecent.graph import RADIUS_RTOL, Digraph, bfs, csr, radius_bracket
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
    # A header after blank lines is still the header; before, it read as the edge u-v.
    f3 = tmp_path / "g3.csv"
    f3.write_text("\n\nsource,target\na,b\n")
    assert load_edge_list(f3, "csv").labels == ["a", "b"]


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


@pytest.mark.parametrize(
    "fmt, text, labels, undirected, directed",
    [
        ("snap-tsv", "5 3\n# c\n007\t7\n3 5\n10 2\n", ["5", "3", "007", "7", "10", "2"],
         [(0, 1), (2, 3), (4, 5)], [(0, 1), (2, 3), (1, 0), (4, 5)]),
        ("csv", "source,target\nNew York, Boston\n a b , c d \nBoston,New York\n",
         ["New York", "Boston", "a b", "c d"], [(0, 1), (2, 3)], [(0, 1), (2, 3), (1, 0)]),
        # Node 5 is isolated; "01" is the pre-labelled node "1".
        ("matrix-market", "%%MatrixMarket matrix coordinate pattern general\n5 5 4\n3 1\n1 3\n2 2\n01 4\n",
         ["1", "2", "3", "4", "5"], [(2, 0), (1, 1), (0, 3)], [(2, 0), (0, 2), (1, 1), (0, 3)]),
        # Symmetric storage: the mirror arcs follow every stored entry.
        ("matrix-market",
         "%%MatrixMarket matrix coordinate real symmetric\n6 6 4\n3 1 1.0\n2 2 2\n4 3 1\n5 1 .5\n",
         ["1", "2", "3", "4", "5", "6"], [(2, 0), (1, 1), (3, 2), (4, 0)],
         [(2, 0), (1, 1), (3, 2), (4, 0), (0, 2), (2, 3), (0, 4)]),
    ],
)
def test_loaders_keep_labels_and_edges_in_order_of_first_appearance(tmp_path, fmt, text, labels,
                                                                    undirected, directed):
    f = tmp_path / "g.txt"
    f.write_text(text)
    for is_directed, edges in ((False, undirected), (True, directed)):
        g = load_edge_list(f, fmt, directed=is_directed)
        assert g.labels == labels and g.edges == edges


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("snap-tsv", "0 1\n1 2 3\n", "line 2: expected two fields, got 3"),
        ("snap-tsv", "0 1\n\na b\n", "line 3: non-integer node id in ['a', 'b']"),
        ("csv", "u,v\n1,2\n1,2,3\n", "line 3: expected two comma-separated fields, got 3"),
        ("matrix-market", "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 x\n",
         "line 3: non-integer coordinate in ['1', 'x']"),
        ("matrix-market", "%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 1\n1 4\n",
         "line 4: coordinate (1,4) outside 3x3"),
    ],
)
def test_parse_errors_name_the_line(tmp_path, fmt, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(GraphParseError) as err:
        load_edge_list(f, fmt)
    assert str(err.value) == message and err.value.line == int(message.split(":")[0][5:])


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


def test_out_neighbors_reads_the_node_as_an_integer():
    # Before, both raised numpy's IndexError.
    p3 = path_graph(3)
    for v in (1.5, 1.0):
        with pytest.raises(ValueError, match="not an integer"):
            p3.out_neighbors(v)
    assert p3.out_neighbors(np.int64(1)).tolist() == [0, 2]


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
        for adj, dense in ((inst.state_graph.adjacency, dense_bkappa(inst)),
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
        sg = inst.state_graph
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


def test_csr_sorts_by_tail_then_head_and_rejects_keys_past_int64():
    rng = np.random.default_rng(5)
    src, dst = rng.integers(50, size=(2, 400))  # repeated arcs among them
    indptr, indices = csr(50, src, dst)
    order = np.lexsort((dst, src))
    assert np.array_equal(indices, dst[order])
    assert np.array_equal(indptr, np.r_[0, np.cumsum(np.bincount(src, minlength=50))])
    with pytest.raises(NumericalError, match="overflow int64"):
        csr(2**32, np.array([0]), np.array([1]))


def test_digraph_derives_tails_and_caches_its_reverse_and_matrix():
    rng = np.random.default_rng(6)
    src, dst = rng.integers(30, size=(2, 200))  # repeated arcs and self-loops among them
    g = Digraph(30, src, dst)
    order, back = np.lexsort((dst, src)), np.lexsort((src, dst))
    assert g.size == 30 and g.n_arcs == 200 and np.array_equal(g.arc_src, src[order])
    rev = g.reverse
    assert type(rev) is Digraph and rev is g.reverse and g.adjacency is g.adjacency
    assert np.array_equal(rev.indices, src[back]) and np.array_equal(rev.arc_src, dst[back])
    dense = np.zeros((30, 30))
    np.add.at(dense, (src, dst), 1.0)
    assert np.array_equal(g.adjacency.toarray(), dense) and np.array_equal(rev.adjacency.toarray(), dense.T)
    empty = Digraph(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert empty.n_arcs == 0 and empty.reverse.n_arcs == 0 and empty.adjacency.shape == (3, 3)


@pytest.mark.parametrize("dominated", [False, True], ids=["plain", "dominance"])
def test_each_row_of_starts_searches_as_its_own_bfs(small_instances, dominated):
    # A 2-D source runs one search per row over the one state graph; row i's
    # labels and tree arcs, less i*N, are bit-identical to that row's own bfs.
    # Rows hold several starts (repeats allowed), and dominance is per state.
    rng = np.random.default_rng(83)
    for inst in small_instances:
        sg = inst.state_graph
        n = sg.n_states
        dominance = _charge_dominance(sg) if dominated else None
        rows = rng.integers(n, size=(int(rng.integers(1, 6)), int(rng.integers(1, 4))))
        d, sigma, tree_arcs = bfs(sg.indptr, sg.indices, rows, dominance)
        assert d.shape == sigma.shape == (len(rows) * n,)
        for i, row in enumerate(rows):
            want_d, want_sigma, want_arcs = bfs(sg.indptr, sg.indices, row, dominance)
            assert np.array_equal(d[i * n : (i + 1) * n], want_d)
            assert sigma[i * n : (i + 1) * n].tobytes() == want_sigma.tobytes()
            # Row i's search ends at its first level without tree arcs.
            got = [(tsrc[mine] - i * n, tdst[mine] - i * n)
                   for tsrc, tdst in tree_arcs for mine in [tdst // n == i] if mine.any()]
            assert len(got) == len(want_arcs)
            for (got_src, got_dst), (want_src, want_dst) in zip(got, want_arcs):
                assert np.array_equal(got_src, want_src) and np.array_equal(got_dst, want_dst)


@pytest.mark.parametrize("seed", [1729, 1])
def test_dominance_keeps_every_shortest_walk_to_a_sink(seed):
    # soc-bc's charge dominance over the sink-augmented state graph. A state on
    # a shortest source-to-sink walk keeps its plain distance and path count;
    # no kept state comes a level after a same-node state with at least its charge.
    dropped = 0
    for inst in instance_corpus(40, seed=seed):
        sg = inst.state_graph
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
    with pytest.raises(ValueError, match="out of range"):
        make_instance(g, [5], 1)
    with pytest.raises(ValueError, match="out of range"):
        make_instance(g, [-1], 1)
    for refill in (np.zeros(4, dtype=bool), np.zeros(3, dtype=int)):
        with pytest.raises(ValueError, match="boolean mask with one entry per node"):
            SocInstance(g, refill, 1)
    inst = make_instance(g, [2, 1, 2], 2)
    assert inst.refill.tolist() == [False, True, True]
    # The mask is read-only: a write would leave the cached state graph on the old one.
    with pytest.raises(ValueError, match="read-only"):
        inst.refill[0] = True


def test_an_unpickled_instance_is_checked_again_and_builds_its_own_state_graph():
    # Before, the copy's mask was writable (numpy does not pickle the flag) and the
    # copy kept the pickled state graph, which a write to the mask left stale.
    inst = make_instance(grid_graph(4, 4), [5, 10], 3)
    want = soc_betweenness(inst, "target").values
    copy = pickle.loads(pickle.dumps(inst))
    assert not copy.refill.flags.writeable and "state_graph" not in vars(copy)
    assert copy.kappa == 3 and copy.refill.tolist() == inst.refill.tolist()
    assert np.array_equal(soc_betweenness(copy, "target").values, want)


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)], directed=False)


@pytest.mark.parametrize(
    "edges, message",
    [
        # Before, the first two built the edges (0, 1) and (1, 2), the third (0, 2), the fourth two edges.
        ([(0.5, 1.7), (1.2, 2.9)], "edge (0.5, 1.7): node id 0.5 is not an integer"),
        ([(0, 1), (1, 2.0)], "edge (1, 2.0): node id 2.0 is not an integer"),
        ([("0", "2")], "edge (0, 2): node id '0' is not an integer"),
        ([(0, 1, 2, 3)], "edge (0, 1, 2, 3) must hold two node ids"),
        ([(0, 1), (0, 1, 2)], "edge (0, 1, 2) must hold two node ids"),
        (np.array([[0.0, 2.5]]), "edge (0.0, 2.5): node id 0.0 is not an integer"),
        (np.array([[0, 1], [1, 4]]), r"edge (1, 4): node id 4 out of range [0,4)"),
        ([(0, 1), (-1, 2)], r"edge (-1, 2): node id -1 out of range [0,4)"),
    ],
)
def test_edge_rows_are_pairs_of_node_ids(edges, message):
    with pytest.raises(ValueError) as err:
        Graph(4, edges, directed=False)
    assert str(err.value) == message


def test_edge_ids_of_any_integer_type_build_the_same_graph():
    rows = [(2, 0), (1, 3), (0, 2)]
    want = Graph(4, rows, directed=False)
    for edges in (np.array(rows, dtype=object), np.array(rows, dtype=np.uint8),
                  [(np.int32(2), 0), (1, np.int64(3)), (0, 2)]):
        g = Graph(4, edges, directed=False)
        assert (g.edges, g.labels, g.duplicates_collapsed) == (want.edges, want.labels, 1)
        assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
    for edges in ([], np.empty((0, 2), dtype=np.int64)):
        assert Graph(3, edges, directed=False).m == 0
    with pytest.raises(ValueError, match="node id 2.0 is not an integer"):  # before, the object array built (0, 2)
        Graph(4, np.array([(0, 2.0)], dtype=object), directed=True)
