import math

import numpy as np
import pytest
import scipy.sparse.linalg

import chargecent.cli
from chargecent import (
    Graph,
    KatzParams,
    NumericalError,
    make_instance,
    max_alpha,
    soc_katz,
    standard_katz,
)
from chargecent.cli import main
from chargecent.generators import gnp_random_graph, path_graph
from chargecent.graph import radius_bracket
from chargecent.oracles import dense_adjacency, dense_bkappa, dense_soc_katz
from chargecent.statespace import StateGraph

from conftest import instance_corpus
from reference import count_feasible_walks, dense_katz


def test_standard_katz_empty_graph():
    g = Graph(3, [], directed=False)
    assert np.allclose(standard_katz(g, KatzParams(0.5)).values, 1.0)


def test_standard_katz_single_edge():
    g = Graph(2, [(0, 1)], directed=False)
    assert np.allclose(standard_katz(g, KatzParams(0.5)).values, [2.0, 2.0], atol=1e-9)


def test_standard_katz_matches_dense(small_instances):
    for inst in small_instances[:15]:
        g = inst.graph
        rho = max(abs(np.linalg.eigvals(dense_adjacency(g))))
        alpha = 0.5 / rho if rho > 0 else 0.5
        got = standard_katz(g, KatzParams(alpha, tol=1e-12))
        assert np.allclose(got.values, dense_katz(g, alpha), atol=1e-8)


def test_soc_katz_single_edge():
    inst = make_instance(Graph(2, [(0, 1)], directed=False), [], 1)
    assert np.allclose(soc_katz(inst, KatzParams(0.5)).values, [1.5, 1.5], atol=1e-10)


def test_soc_katz_refilled_path_frozen_values():
    # Walk counts double every two steps, giving (1+a)/(1-2a^2) at the ends.
    inst = make_instance(path_graph(3), [1], 1)
    got = soc_katz(inst, KatzParams(0.5, tol=1e-13))
    assert np.allclose(got.values, [3.0, 4.0, 3.0], atol=1e-9)
    assert np.allclose(dense_soc_katz(inst, 0.5).values, [3.0, 4.0, 3.0], atol=1e-12)


def test_soc_katz_matches_dense_oracle(small_instances):
    for inst in small_instances:
        if inst.graph.n * (inst.kappa + 1) > 50:
            continue
        bound = max_alpha(inst.state_graph.adjacency)
        alpha = 0.3 if math.isinf(bound.max_alpha) else 0.5 * bound.max_alpha
        got = soc_katz(inst, KatzParams(alpha, tol=1e-13))
        ref = dense_soc_katz(inst, alpha)
        assert np.allclose(got.values, ref.values, rtol=1e-8, atol=1e-10)


def test_soc_katz_small_alpha_first_order():
    inst = make_instance(path_graph(4), [2], 2)
    alpha = 1e-6
    got = soc_katz(inst, KatzParams(alpha)).values
    deg1 = np.asarray(count_feasible_walks(inst, 1).counts, float).sum(axis=1)
    assert np.allclose(got, 1.0 + alpha * deg1, atol=1e-10)


def test_truncated_series_matches_walk_counts(small_instances):
    # Partial sums of the damped series equal damped feasible-walk counts.
    alpha = 0.1
    for inst in small_instances[:10]:
        big = dense_bkappa(inst)
        n = inst.graph.n
        acc = np.zeros(n)
        expect = np.zeros(n)
        power = np.eye(big.shape[0])
        for k in range(5):
            counts = np.asarray(count_feasible_walks(inst, k).counts, float)
            expect += alpha**k * counts.sum(axis=1)
            acc += alpha**k * power[:n].sum(axis=1)
            power = power @ big
        assert np.allclose(acc, expect, atol=1e-10)


def test_omega_full_reduces_to_standard(small_instances):
    for inst in small_instances[:15]:
        g = inst.graph
        rho = max(abs(np.linalg.eigvals(dense_adjacency(g))))
        alpha = 0.4 / rho if rho > 0 else 0.4
        full = make_instance(g, range(g.n), inst.kappa)
        a = soc_katz(full, KatzParams(alpha, tol=1e-13)).values
        b = standard_katz(g, KatzParams(alpha, tol=1e-13)).values
        assert np.allclose(a, b, rtol=1e-8)


def test_omega_monotonicity():
    rng = np.random.default_rng(8)
    for inst in instance_corpus(15, seed=55, n_max=6, kappa_max=2):
        g = inst.graph
        base = np.flatnonzero(inst.refill).tolist()
        extra = np.flatnonzero(~inst.refill).tolist()
        if not extra:
            continue
        bigger = sorted(base + [extra[int(rng.integers(len(extra)))]])
        alpha = 0.05
        lo = dense_soc_katz(inst, alpha).values
        hi = dense_soc_katz(make_instance(g, bigger, inst.kappa), alpha).values
        assert np.all(hi >= lo - 1e-12)


def test_max_alpha_nilpotent_is_infinite():
    inst = make_instance(Graph(2, [(0, 1)], directed=True), [], 1)
    bound = max_alpha(inst.state_graph.adjacency)
    assert math.isinf(bound.max_alpha)


def test_max_alpha_full_refill_matches_adjacency():
    g = path_graph(4)
    inst = make_instance(g, range(4), 2)
    bound = max_alpha(inst.state_graph.adjacency)
    rho = radius_bracket(g.adjacency)[1]
    assert bound.max_alpha == pytest.approx(1.0 / rho, rel=1e-6)


def test_lemma_ordering_on_random_instances(small_instances):
    for inst in small_instances[:20]:
        big = dense_bkappa(inst)
        rho_b = max(abs(np.linalg.eigvals(big)))
        rho_a = max(abs(np.linalg.eigvals(dense_adjacency(inst.graph))))
        assert rho_b <= rho_a + 1e-9
        est = max_alpha(inst.state_graph.adjacency)
        if math.isfinite(est.max_alpha):
            assert (est.lower, est.upper) == pytest.approx((float(rho_b), float(rho_b)), abs=1e-6)


def test_alpha_at_bound_rejected():
    g = Graph(2, [(0, 1)], directed=False)
    inst = make_instance(g, [0, 1], 1)
    with pytest.raises(ValueError, match="bound"):
        soc_katz(inst, KatzParams(1.0))
    with pytest.raises(ValueError, match="bound"):
        standard_katz(g, KatzParams(1.0))


@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
def test_negative_or_nonfinite_alpha_rejected_before_the_state_graph(tmp_path, capsys, monkeypatch, alpha):
    # Before, soc-katz built the state graph and its radius bracket, then failed naming
    # the bound; later each run still loaded the graph and built the instance first.
    with pytest.raises(ValueError, match="finite number >= 0"):
        KatzParams(alpha)
    calls = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *args: calls.append("load"))
    monkeypatch.setattr(StateGraph, "__init__", lambda *args: calls.append("state graph"))
    graph_file = tmp_path / "g.tsv"
    graph_file.write_text("0 1\n1 2\n2 3\n3 0\n")
    out = tmp_path / "out"
    for command, run, problem in (
        ("centrality", ("--measure", "soc-katz"), f"Katz alpha must be a finite number >= 0, not {alpha}"),
        ("centrality", ("--measure", "katz"), f"Katz alpha must be a finite number >= 0, not {alpha}"),
        ("simulate", ("--sim", "sir"), "transmission probability must lie in [0,1]"),
    ):
        assert main([command, "--input", str(graph_file), "--kappa", "2", "--omega-ratio", "0.5",
                     *run, "--alpha", str(alpha), "--out", str(out)]) == 1
        assert problem in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("tol", [1e-10, 1e-4])
def test_error_bound_covers_dense_oracle(small_instances, tol):
    # Entrywise |x - x*| <= error_bound, from half the measured bound up to 0.99 of it.
    checked = 0
    for inst in small_instances:
        if inst.graph.n * (inst.kappa + 1) > 200:
            continue
        bound = max_alpha(inst.state_graph.adjacency)
        rho = max(abs(np.linalg.eigvals(dense_bkappa(inst))))
        for frac in (0.5, 0.99):
            alpha = 0.3 if math.isinf(bound.max_alpha) else frac * bound.max_alpha
            assert alpha * rho < 1.0
            got = soc_katz(inst, KatzParams(alpha, tol=tol))
            assert got.meta["solver"] == "bicgstab" and got.meta["max_residual"] <= tol
            err = np.abs(got.values - dense_soc_katz(inst, alpha).values)
            assert np.all(err <= got.meta["error_bound"])
            checked += 1
    assert checked >= 40


def test_default_alpha_below_true_bound_where_growth_plateaus():
    # The 1-norm growth of x <- (B + I) x reads 1 + 2/3 on two steps in a row
    # here while rho = 1: a stopping rule that trusts a plateau would put the
    # default alpha at 0.9 / (2/3) = 1.35, past the pole.
    inst = make_instance(Graph(5, [(0, 4), (1, 2), (1, 3)], directed=False), [0, 4], 1)
    rho = float(max(abs(np.linalg.eigvals(dense_bkappa(inst)))))
    got = soc_katz(inst, KatzParams(None))
    alpha = got.meta["alpha"]
    assert alpha * rho < 1.0
    err = np.abs(got.values - dense_soc_katz(inst, alpha).values)
    assert np.all(err <= got.meta["error_bound"])


def test_failed_solve_raises_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", lambda op, b, **kw: (np.zeros_like(b), 7))
    g = Graph(3, [(0, 1), (1, 2)], directed=False)
    with pytest.raises(NumericalError, match="info 7"):
        soc_katz(make_instance(g, [1], 2), KatzParams(0.1))
    with pytest.raises(NumericalError, match="info 7"):
        standard_katz(g, KatzParams(0.1))
    graph_file = tmp_path / "g.tsv"
    graph_file.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert main(["centrality", "--input", str(graph_file), "--kappa", "2",
                 "--measure", "soc-katz", "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_radius_bracket_recorded_in_meta():
    g = Graph(3, [(0, 1), (1, 2)], directed=False)
    inst = make_instance(g, [1], 2)
    for sv, dense in ((soc_katz(inst, KatzParams(0.1)), dense_bkappa(inst)),
                      (standard_katz(g, KatzParams(0.1)), dense_adjacency(g))):
        rho = float(max(abs(np.linalg.eigvals(dense))))
        assert sv.meta["radius_lower"] - 1e-9 <= rho <= sv.meta["radius_upper"] + 1e-9


def test_default_alpha_scores_and_meta_are_pinned():
    # Exact bits of both Katz measures at the default alpha (0.9 of the bound
    # 1/upper): any change to the bound, the default or the solve shows here.
    g = gnp_random_graph(9, 0.35, seed=5)
    soc = soc_katz(make_instance(g, [1, 4], 2), KatzParams(None))
    assert float(soc.meta["alpha"]).hex() == "0x1.751f497b34346p-2"
    assert soc.meta["iterations"] == 8
    assert [float(v).hex() for v in soc.values] == [
        "0x1.016c1539866abp+4", "0x1.ce0ba4d11f317p+2", "0x1.b26c6df03beecp+2",
        "0x1.36d14521e462bp+3", "0x1.1875ea56ef4b3p+4", "0x1.22d700bc14879p+4",
        "0x1.f0cc64c73600fp+2", "0x1.650a0fd8bf14dp+3", "0x1.1df7270c0808dp+4",
    ]
    assert soc.meta == {"measure": "soc-katz", "alpha": 0.36437716307141377, "kappa": 2,
                        "omega": [1, 4], "tol": 1e-10, "radius_lower": 2.4699681844196517,
                        "radius_upper": 2.4699681846516004, "solver": "bicgstab", "iterations": 8,
                        "max_residual": 3.552713678800501e-15,
                        "error_bound": 1.0917347756185834e-12}
    plain = standard_katz(g, KatzParams(None))
    assert float(plain.meta["alpha"]).hex() == "0x1.1f542b62b9205p-2"
    assert [float(v).hex() for v in plain.values] == [
        "0x1.66dd80b49815fp+3", "0x1.723c4ee7945fdp+2", "0x1.4c03b70da6878p+2",
        "0x1.8fa008d6b4d63p+2", "0x1.92a58f284e3d3p+3", "0x1.7baeef3cf591ep+3",
        "0x1.86d3fbf1249edp+2", "0x1.24772ba7a961dp+3", "0x1.7e928944f2edbp+3",
    ]
    assert plain.meta == {"measure": "katz", "alpha": 0.28059451856668743, "tol": 1e-10,
                          "radius_lower": 3.2074753438386123, "radius_upper": 3.2074753441275856,
                          "solver": "bicgstab", "iterations": 8,
                          "max_residual": 3.552713678800501e-15,
                          "error_bound": 5.368744522850951e-13}
