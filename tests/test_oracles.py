import pytest

from chargecent import Graph, make_instance
from chargecent.generators import path_graph
from chargecent.oracles import (
    BudgetExceeded,
    OracleBudget,
    brute_soc_bc,
    dense_soc_katz,
    shortest_feasible_walks,
)

from reference import enumerate_feasible_walks


def test_enumerate_refilled_path():
    inst = make_instance(path_graph(3), [1], 1)
    walks = enumerate_feasible_walks(inst, 0, 2, max_len=3)
    assert walks == [(0, 1, 2)]


def test_enumerate_exhausted_budget_empty():
    inst = make_instance(path_graph(3), [], 1)
    assert enumerate_feasible_walks(inst, 0, 2, max_len=3) == []


def test_enumerate_full_refill_equals_all_walks():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    inst = make_instance(g, range(3), 1)
    walks = enumerate_feasible_walks(inst, 0, 2, max_len=3)
    # All plain walks 0 -> 2 of length <= 3 in the triangle.
    assert sorted(walks) == [
        (0, 1, 0, 2),
        (0, 1, 2),
        (0, 2),
        (0, 2, 0, 2),
        (0, 2, 1, 2),
    ]


def test_shortest_walks_trivial_and_missing():
    inst = make_instance(path_graph(3), [], 2)
    assert shortest_feasible_walks(inst, 1, 1) == [(1,)]
    assert shortest_feasible_walks(make_instance(path_graph(3), [], 1), 0, 2) == []


def test_budget_guards():
    big = make_instance(path_graph(12), [], 1)
    with pytest.raises(BudgetExceeded):
        enumerate_feasible_walks(big, 0, 1, max_len=2)
    deep = make_instance(path_graph(3), [], 1)
    with pytest.raises(BudgetExceeded):
        enumerate_feasible_walks(deep, 0, 1, max_len=99)
    with pytest.raises(BudgetExceeded):
        brute_soc_bc(make_instance(path_graph(3), [], 5))
    with pytest.raises(BudgetExceeded):
        dense_soc_katz(make_instance(path_graph(120), [], 2), 0.01)
    tight = OracleBudget(max_nodes=4)
    with pytest.raises(BudgetExceeded):
        enumerate_feasible_walks(make_instance(path_graph(5), [], 1), 0, 1, 2, tight)


def test_dense_soc_katz_rejects_divergent_alpha():
    g = Graph(2, [(0, 1)], directed=False)
    inst = make_instance(g, [0, 1], 1)
    with pytest.raises(ValueError):
        dense_soc_katz(inst, 1.0)
