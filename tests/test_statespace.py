import math

import numpy as np
import pytest

from chargecent import Graph, make_instance, statespace
from chargecent.generators import complete_graph, path_graph
from chargecent.graph import Digraph, bfs
from chargecent.oracles import (
    _distances_to_target,
    dense_adjacency,
    dense_bkappa,
    shortest_feasible_walks,
)

from conftest import instance_corpus, with_sinks
from reference import count_feasible_walks, enumerate_feasible_walks


def state_of(sg, idx):
    """(node, charge) of a flat state index: block b holds charge kappa - b."""
    return idx % sg.n, sg.kappa - idx // sg.n


def arcs_of(sg):
    return sorted((state_of(sg, s), state_of(sg, d)) for s, d in zip(sg.arc_src, sg.indices))


def walk_length(inst, s, t):
    """Hops of a shortest feasible s-to-t walk by ``toward``, or None when t is unreachable."""
    sg = inst.state_graph
    dist = int(sg.toward(t)[0][sg.source_state(s)])
    return None if dist < 0 else dist


def test_single_arc_no_refill():
    inst = make_instance(Graph(2, [(0, 1)], directed=True), [], 1)
    assert arcs_of(inst.state_graph) == [((0, 1), (1, 0))]


def test_single_arc_refill_target():
    inst = make_instance(Graph(2, [(0, 1)], directed=True), [1], 1)
    assert arcs_of(inst.state_graph) == [((0, 0), (1, 1)), ((0, 1), (1, 1))]


def test_starred_path_counts_and_dead_state():
    inst = make_instance(path_graph(3), [], 2)
    sg = inst.state_graph
    indptr, indices = with_sinks(sg)
    assert indptr.shape[0] - 1 == 3 * 3 + 3
    state = sg.state_index(1, 0)
    assert indices[indptr[state] : indptr[state + 1]].tolist() == [sg.n_states + 1]  # only node 1's sink


def test_arc_legality_invariant(small_instances):
    # Every arc refills into the refill set or decrements elsewhere.
    for inst in small_instances:
        sg = inst.state_graph
        edges = {(u, v) for u, v in zip(inst.graph.arc_src, inst.graph.indices)}
        for s, d in zip(sg.arc_src, sg.indices):
            (u, i), (v, j) = state_of(sg, s), state_of(sg, d)
            assert (u, v) in edges
            if inst.refill[v]:
                assert j == inst.kappa
            else:
                assert j == i - 1


def test_state_count_and_flat_index_bijection(small_instances):
    for inst in small_instances:
        sg = inst.state_graph
        n, kappa = inst.graph.n, inst.kappa
        assert sg.n_states == n * (kappa + 1)
        seen = set()
        for node in range(n):
            for soc in range(kappa + 1):
                idx = sg.state_index(node, soc)
                assert state_of(sg, idx) == (node, soc)
                seen.add(idx)
        assert seen == set(range(sg.n_states))
        # The reference sinks of soc-bc follow at n_states + node, one per node.
        indptr, indices = with_sinks(sg)
        assert indptr.shape[0] - 1 == sg.n_states + n
        assert np.array_equal(np.diff(indptr)[sg.n_states :], np.zeros(n))
        into = np.zeros(sg.n_states + n, dtype=np.int64)
        np.add.at(into, indices, 1)
        assert np.array_equal(into[sg.n_states :], np.full(n, kappa + 1))


def test_arcs_match_dense_block_matrix(small_instances):
    for inst in small_instances[:20]:
        sg = inst.state_graph
        dense = dense_bkappa(inst)
        got = np.zeros_like(dense)
        for s, d in zip(sg.arc_src, sg.indices):
            got[s, d] += 1.0
        assert np.array_equal(got, dense)


def test_adjacency_agrees_with_dense(small_instances):
    rng = np.random.default_rng(3)
    for inst in small_instances[:20]:
        sg = inst.state_graph
        dense = dense_bkappa(inst)
        x = rng.normal(size=sg.n_states)
        assert np.allclose(sg.adjacency @ x, dense @ x, atol=1e-12)


def test_adjacency_zero_and_basis():
    inst = make_instance(Graph(2, [(0, 1)], directed=True), [], 1)
    sg = inst.state_graph
    assert np.array_equal(sg.adjacency @ np.zeros(4), np.zeros(4))
    e = np.zeros(4)
    e[sg.state_index(1, 0)] = 1.0
    y = sg.adjacency @ e
    assert y[sg.state_index(0, 1)] == 1.0 and y.sum() == 1.0


def test_count_identity_at_zero():
    inst = make_instance(path_graph(4), [2], 2)
    wc = count_feasible_walks(inst, 0)
    assert np.array_equal(wc.as_array(), np.eye(4, dtype=np.uint64))


def test_count_budget_exhausted():
    inst = make_instance(path_graph(3), [], 1)
    assert count_feasible_walks(inst, 2).counts == [[0] * 3] * 3


def test_count_refill_path_example():
    inst = make_instance(path_graph(3), [1], 1)
    wc = count_feasible_walks(inst, 2)
    assert wc.counts[0][2] == 1 and wc.counts[2][0] == 1


def test_counts_match_enumeration(small_instances):
    for inst in small_instances[:15]:
        n = inst.graph.n
        for k in range(4):
            wc = count_feasible_walks(inst, k)
            for s in range(n):
                for t in range(n):
                    walks = enumerate_feasible_walks(inst, s, t, max_len=k)
                    exact = sum(1 for w in walks if len(w) - 1 == k)
                    assert wc.counts[s][t] == exact


def test_counts_bounded_by_adjacency_powers(small_instances):
    for inst in small_instances[:15]:
        a = dense_adjacency(inst.graph)
        power = np.eye(inst.graph.n)
        for k in range(4):
            wc = np.asarray(count_feasible_walks(inst, k).counts, dtype=float)
            assert np.all(wc <= power + 1e-9)
            power = power @ a


def test_counts_equal_adjacency_powers_when_unconstrained(small_instances):
    for inst in small_instances[:10]:
        g = inst.graph
        a = dense_adjacency(g)
        full = make_instance(g, range(g.n), inst.kappa)
        power = np.eye(g.n)
        for k in range(4):
            assert np.array_equal(
                np.asarray(count_feasible_walks(full, k).counts, float), power
            )
            power = power @ a
        k = inst.kappa
        free = make_instance(g, [], k)
        assert np.array_equal(
            np.asarray(count_feasible_walks(free, k).counts, float),
            np.linalg.matrix_power(a, k),
        )


def test_count_saturation_flag():
    inst = make_instance(complete_graph(5), range(5), 1)
    wc = count_feasible_walks(inst, 40)  # entries near 4**40 / 5 exceed 64 bits
    assert wc.saturated
    assert wc.as_array().max() == np.uint64(2**64 - 1)
    # Spectral decomposition of the complete graph fixes the exact counts.
    assert wc.counts[0][0] == (4**40 + 4 * (-1) ** 40) // 5
    assert wc.counts[0][1] == (4**40 - (-1) ** 40) // 5


def test_shortest_feasible_walk_examples():
    p3 = path_graph(3)
    assert walk_length(make_instance(p3, [], 2), 0, 2) == 2
    assert walk_length(make_instance(p3, [], 1), 0, 2) is None
    assert walk_length(make_instance(p3, [1], 1), 0, 2) == 2
    assert walk_length(make_instance(p3, [], 1), 1, 1) == 0


def test_shortest_feasible_walk_against_enumeration():
    for inst in instance_corpus(15, seed=99, n_max=6):
        n = inst.graph.n
        for s in range(n):
            for t in range(n):
                got = walk_length(inst, s, t)
                walks = enumerate_feasible_walks(inst, s, t, max_len=8)
                expect = min((len(w) - 1 for w in walks), default=None)
                if expect is None:
                    assert got is None or got > 8
                else:
                    assert got == expect


def test_shortest_feasible_at_least_graph_distance(small_instances):
    for inst in small_instances[:15]:
        g = inst.graph
        for s in range(g.n):
            d = bfs(g.indptr, g.indices, s)[0]
            for t in range(g.n):
                sfw = walk_length(inst, s, t)
                if sfw is not None:
                    assert d[t] >= 0 and sfw >= d[t]


@pytest.mark.parametrize("seed", [1729, 1])
def test_toward_matches_the_oracles(seed):
    # dist is the oracle's reverse BFS from t's states; paths at (s, kappa) is the
    # number of shortest feasible walks; a BFS of the reference sink graph
    # (``conftest.with_sinks``) reaches t's sink one hop later.
    for inst in instance_corpus(40, seed=seed):
        sg = inst.state_graph
        n = sg.n
        indptr, indices = with_sinks(sg)
        from_source = [bfs(indptr, indices, sg.source_state(s))[0] for s in range(n)]
        for t in range(n):
            dist, paths = sg.toward(t)
            expect = _distances_to_target(inst, t)
            for idx in range(sg.n_states):
                assert dist[idx] == expect.get(state_of(sg, idx), -1)
            for s in range(n):
                d = dist[sg.source_state(s)]
                assert paths[sg.source_state(s)] == len(shortest_feasible_walks(inst, s, t))
                assert from_source[s][sg.n_states + t] == (d + 1 if d >= 0 else -1)


@pytest.mark.parametrize(
    "pair, message",
    [
        # Before, the first two read "has a node id outside [0,9)" and "... that is not an integer",
        # (0, 1, 2) raised "too many values to unpack" and 5 a TypeError.
        ((0, 9), r"pair (0, 9): node id 9 out of range [0,9)"),
        ((0, 2.5), "pair (0, 2.5): node id 2.5 is not an integer"),
        ((0, 1, 2), "pair (0, 1, 2) must hold two node ids"),
        (5, "pair 5 must hold two node ids"),
        # Before, a numpy row's id was named by its repr, np.float64(0.0).
        (np.array([0, 2.5]), "pair (0.0, 2.5): node id 0.0 is not an integer"),
    ],
)
def test_check_pairs_reads_pairs_as_graph_reads_edges(pair, message):
    with pytest.raises(ValueError) as err:
        statespace.check_pairs([(1, 2), pair], 9)
    assert str(err.value) == message


def test_toward_rejects_node_ids_out_of_range():
    sg = make_instance(path_graph(3), [], 1).state_graph
    for t in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            sg.toward(t)


@pytest.mark.parametrize(
    "omega, message",
    [
        ([1.5, 3.9], "node id 1.5 is not an integer"),
        (["2"], "node id '2' is not an integer"),
        ([0, 2.0], "node id 2.0 is not an integer"),
        (np.array([1.5]), "node id 1.5 is not an integer"),
    ],
    ids=["omega0", "omega1", "omega2", "omega3"],
)
def test_make_instance_reads_refill_ids_as_integers(omega, message):
    # Before, [1.5, 3.9] built the refill set {1, 3}, ["2"] built {2} and 2.0 counted as node 2.
    # A numpy scalar was named by its repr, np.float64(1.5).
    with pytest.raises(ValueError) as err:
        make_instance(path_graph(5), omega, 2)
    assert str(err.value) == message


def test_toward_reads_the_target_as_an_integer():
    # Before, 2.5 raised a TypeError from range, and 2.0 returned node 2's table once it was cached.
    sg = make_instance(path_graph(3), [], 1).state_graph
    for _ in range(2):  # node 2's table uncached, then cached
        for t in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="not an integer"):
                sg.toward(t)
        table = sg.toward(2)
    assert sg.toward(np.int64(2)) is table


def test_feasible_reads_node_ids_as_integers():
    # Before, a float source raised numpy's IndexError.
    sg = make_instance(path_graph(3), [], 2).state_graph
    for s, t in ((1.0, 2), (0, 2.0)):
        with pytest.raises(ValueError, match="not an integer"):
            sg.feasible(s, t)
    with pytest.raises(ValueError, match="out of range"):
        sg.feasible(3, 0)
    assert sg.feasible(np.int64(0), 2)


def test_state_index_reads_the_node_as_an_integer():
    # Before, state_index(1.0, 1) returned the float 6.0.
    sg = make_instance(path_graph(3), [], 2).state_graph
    with pytest.raises(ValueError, match="not an integer"):
        sg.state_index(1.0, 1)
    with pytest.raises(ValueError, match="out of range"):
        sg.state_index(3, 1)
    assert sg.state_index(np.int64(1), 1) == 4 and type(sg.state_index(np.int64(1), 1)) is int


def test_toward_searches_no_more_rows_than_nodes(monkeypatch):
    # A 3-node path, kappa 2, fits TABLE_CELLS thousands of times over, but
    # has 3 targets: all tables come from one search of 3 rows of 9 states.
    sg = statespace.StateGraph(make_instance(path_graph(3), [], 2))
    real_bfs, labels = statespace.bfs, []

    def recording_bfs(*args):
        found = real_bfs(*args)
        labels.append(found[0].size)
        return found

    monkeypatch.setattr(statespace, "bfs", recording_bfs)
    for t in range(sg.n):
        sg.toward(t)
    assert labels == [sg.n * sg.n_states]


@pytest.mark.parametrize("seed", [1729, 1])
@pytest.mark.parametrize("copies, keep", [(None, None), (3, None), (None, 2)], ids=["default", "3-copies", "keep-2"])
def test_toward_is_bit_identical_to_one_search_per_target(monkeypatch, seed, copies, keep):
    # Every target twice, forward then backward. 3 copies leave a last chunk
    # shorter than C wherever 3 does not divide n; keeping 2 tables, fewer than
    # n, evicts tables that the backward pass must search for again.
    real_bfs, searches = statespace.bfs, []
    monkeypatch.setattr(statespace, "bfs", lambda *args: searches.append(len(args[2])) or real_bfs(*args))
    unreachable = 0
    for inst in instance_corpus(40, seed=seed):
        sg = statespace.StateGraph(inst)
        if copies is not None:
            monkeypatch.setattr(statespace, "TABLE_CELLS", copies * (sg.n_states + sg.n_arcs))
        if keep is not None:
            monkeypatch.setattr(statespace, "TABLE_BYTES", keep * 12 * sg.n_states)
        rev = Digraph(sg.n_states, sg.indices, sg.arc_src)  # built apart from the cached one toward searches
        searches.clear()
        for t in [*range(sg.n), *reversed(range(sg.n))]:
            dist, paths = sg.toward(t)
            want_dist, want_paths, _ = real_bfs(rev.indptr, rev.indices, np.arange(sg.kappa + 1) * sg.n + t)
            assert dist.dtype == np.int32 and np.array_equal(dist, want_dist)
            assert [x.hex() for x in paths.tolist()] == [x.hex() for x in want_paths.tolist()]
            unreachable += int((dist == -1).sum())
        c = max(searches)  # targets per search, one row each
        if copies is not None:
            assert c == min(copies, sg.n)
        if keep is None:
            assert len(searches) == math.ceil(sg.n / c)
        else:
            assert len(sg._tables) <= keep and (sg.n <= keep or len(searches) > math.ceil(sg.n / keep))
    assert unreachable > 0  # directed instances with unreachable targets are among them
