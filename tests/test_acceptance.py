"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two full-dataset
experiments are opt-in: set CHARGECENT_DATA to a directory holding the
router / Gnutella edge lists and RUN_LONG=1.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import chargecent as cc
from chargecent import oracles
from chargecent.cli import main as cli_main
from chargecent.generators import (
    barabasi_albert_graph,
    gnp_random_graph,
    grid_graph,
    sample_omega,
)
from chargecent.graph import bfs, radius_bracket

import reference
from conftest import instance_corpus


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}")


@pytest.fixture(scope="module")
def corpus200():
    return instance_corpus(200, seed=20240801, n_max=8, p=0.3, kappa_max=3)


def test_criterion_1_walk_count_oracle_equivalence(corpus200):
    checked = 0
    for inst in corpus200:
        n = inst.graph.n
        by_len = {}
        for s in range(n):
            for t in range(n):
                walks = reference.enumerate_feasible_walks(inst, s, t, max_len=6)
                for w in walks:
                    by_len.setdefault(len(w) - 1, {}).setdefault((s, t), 0)
                    by_len[len(w) - 1][(s, t)] += 1
        for k in range(7):
            counts = reference.count_feasible_walks(inst, k).counts
            for s in range(n):
                for t in range(n):
                    assert counts[s][t] == by_len.get(k, {}).get((s, t), 0)
                    checked += 1
    report(1, "feasible-walk counting equals enumeration", f"({checked} entries)")


def test_criterion_2_soc_bc_oracle_equivalence(corpus200):
    worst = 0.0
    for inst in corpus200:
        kernel = cc.soc_betweenness(inst).values
        brute = oracles.brute_soc_bc(inst).values
        worst = max(worst, float(np.max(np.abs(kernel - brute))))
        assert np.max(np.abs(kernel - brute)) <= 1e-9
    report(2, "soc betweenness equals brute force", f"(200 instances, worst {worst:.2e})")


def test_criterion_3_reductions():
    # (a) budget covering the longest shortest path, no refills.
    rng = np.random.default_rng(333)
    for _ in range(20):
        g = gnp_random_graph(int(rng.integers(3, 9)), 0.4, seed=int(rng.integers(2**31)))
        longest = 1
        for s in range(g.n):
            d = bfs(g.indptr, g.indices, s)[0]
            longest = max(longest, int(d.max()))
        inst = cc.make_instance(g, [], longest)
        diff = np.max(np.abs(cc.soc_betweenness(inst).values - cc.standard_betweenness(g).values))
        assert diff <= 1e-9
    # (b) every node refills.
    for inst in instance_corpus(20, seed=334, n_max=8):
        g = inst.graph
        rho = max(abs(np.linalg.eigvals(oracles.dense_adjacency(g))))
        alpha = 0.4 / rho if rho > 0 else 0.4
        full = cc.make_instance(g, range(g.n), inst.kappa)
        a = cc.soc_katz(full, cc.KatzParams(alpha, tol=1e-13)).values
        b = cc.standard_katz(g, cc.KatzParams(alpha, tol=1e-13)).values
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) <= 1e-8
    # (c) symmetrized graphs match the electrical-network oracle.
    rng = np.random.default_rng(335)
    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 13))
        g = gnp_random_graph(n, 0.4, seed=int(rng.integers(2**31)))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        try:
            flow = reference.current_flow_throughflow(g, s, t)
        except ValueError:
            continue
        net = cc.rwbc_all_pairs(g, [(s, t)]).values
        nodes = reference.walk_subgraph(g, s, t).nodes
        assert np.max(np.abs(flow[nodes] - net[nodes])) <= 1e-6
        checked += 1
    report(3, "reductions to baseline measures hold")


def test_criterion_4_damping_bound_ordering():
    worst = -np.inf
    for inst in instance_corpus(100, seed=444, n_max=8, p=0.3, kappa_max=3):
        upper_b = radius_bracket(inst.state_graph.adjacency)[1]
        lower_a = radius_bracket(inst.graph.adjacency)[0]
        worst = max(worst, upper_b - lower_a)
        assert upper_b <= lower_a + 1e-8
    report(4, "state-graph radius below graph radius", f"(worst gap {worst:.2e})")


def test_criterion_5_sir_correlation_desk_scale():
    g = barabasi_albert_graph(500, 3, seed=42)
    omega = sample_omega(g.n, 0.3, seed=7)
    inst = cc.make_instance(g, omega, 5)
    expected = cc.soc_katz(inst, cc.KatzParams(0.03))
    realized = cc.sir_influence(inst, cc.SirParams(alpha=0.03, runs=1000, seed=99))
    tau = cc.kendall_tau(expected.values, realized.values)
    assert tau >= 0.80
    report(5, "spreading-influence correlation", f"(tau={tau:.3f} on scale-free n=500)")


def test_criterion_6_occupation_correlation_desk_scale():
    g = grid_graph(30, 30)
    omega = sample_omega(g.n, 0.2, seed=11)
    inst = cc.make_instance(g, omega, 20)
    expected = cc.soc_betweenness(inst)
    realized = cc.particle_hopping(
        inst,
        cc.HoppingParams(policy="shortest-feasible", duration=220_000,
                         injection_rate=0.5, seed=3),
    )
    assert realized.meta["completed"] >= 100_000
    tau = cc.kendall_tau(expected.values, realized.values)
    assert tau >= 0.70
    report(6, "occupation-ratio correlation",
           f"(tau={tau:.3f}, {realized.meta['completed']} trips on 30x30 grid)")


def test_criterion_7_rwbc_monte_carlo_consistency():
    rng = np.random.default_rng(314)
    total = 0
    within = 0
    insts = 0
    tries = 0
    while insts < 50 and tries < 500:
        tries += 1
        n = int(rng.integers(6, 15))
        g = gnp_random_graph(n, 0.3, seed=int(rng.integers(2**31)), directed=True)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        sub = reference.walk_subgraph(g, s, t)
        if sub.empty or sub.n > 20 or sub.n < 3:
            continue
        insts += 1
        exact = cc.rwbc_all_pairs(g, [(s, t)]).values
        mc = reference.monte_carlo_rwbc(g, s, t, walks=100_000, seed=int(rng.integers(2**31)))
        nodes = sub.nodes
        ok = np.abs(exact[nodes] - mc.estimate[nodes]) <= 3 * mc.stderr[nodes] + 1e-9
        total += nodes.shape[0]
        within += int(ok.sum())
    assert insts == 50
    assert within / total >= 0.95
    report(7, "net flows within Monte-Carlo error",
           f"({within}/{total} nodes inside 3 standard errors)")


def test_criterion_8_kendall_tau_exactness():
    assert cc.kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
    assert cc.kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert cc.kendall_tau([1, 2, 3], [2, 1, 3]) == 1 / 3
    rng = np.random.default_rng(888)
    for trial in range(1000):
        n = int(rng.integers(2, 80))
        if trial % 2:
            y = rng.integers(0, 8, size=n).astype(float)
            z = rng.integers(0, 8, size=n).astype(float)
        else:
            y = rng.normal(size=n)
            z = rng.normal(size=n)
        assert cc.kendall_tau(y, z) == reference.kendall_tau_naive(y, z)
    report(8, "fast Kendall tau equals quadratic definition", "(1000 vectors)")


def test_criterion_9_cli_determinism(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main([
            "experiment", "--input", str(graph), "--kappa", "2",
            "--measure", "soc-katz", "--alpha", "0.05", "--sim", "sir",
            "--runs", "30", "--ratios", "0.25,0.5", "--reps", "2",
            "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    report(9, "reruns reproduce byte-identical outputs", f"({len(files)} files)")


def test_criterion_10_budget_trend_on_grid():
    g = grid_graph(10, 10)
    alpha = 0.9 / radius_bracket(g.adjacency)[1]
    baseline = cc.standard_katz(g, cc.KatzParams(alpha)).values
    medians = []
    for kappa in (2, 4, 8, 16):
        taus = []
        for rep in range(30):
            seed = int(np.random.SeedSequence([1234, kappa, rep]).generate_state(1)[0])
            inst = cc.make_instance(g, sample_omega(g.n, 0.1, seed), kappa)
            taus.append(cc.kendall_tau(cc.soc_katz(inst, cc.KatzParams(alpha)).values, baseline))
        medians.append(float(np.median(taus)))
    assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
    report(10, "correlation with baseline grows with budget",
           f"(medians {[round(m, 3) for m in medians]})")


# ---------------------------------------------------------------------------
# Opt-in full-scale experiments (require datasets and RUN_LONG=1)
# ---------------------------------------------------------------------------

DATA_DIR = Path(os.environ.get("CHARGECENT_DATA", "data"))
RUN_LONG = os.environ.get("RUN_LONG") == "1"


@pytest.mark.skipif(
    not (RUN_LONG and (DATA_DIR / "router.tsv").exists()),
    reason="needs RUN_LONG=1 and data/router.tsv (2114-node router network)",
)
def test_long_router_sir_band():
    g = cc.load_edge_list(DATA_DIR / "router.tsv", "snap-tsv")
    taus = []
    for rep in range(3):
        omega = sample_omega(g.n, 0.3, seed=rep)
        inst = cc.make_instance(g, omega, 5)
        expected = cc.soc_katz(inst, cc.KatzParams(0.03))
        realized = cc.sir_influence(inst, cc.SirParams(alpha=0.03, runs=10_000, seed=rep))
        taus.append(cc.kendall_tau(expected.values, realized.values))
    assert min(taus) >= 0.945 - 0.03
    assert max(taus) <= 0.970 + 0.03


@pytest.mark.skipif(
    not (RUN_LONG and (DATA_DIR / "p2p-Gnutella08.txt").exists()),
    reason="needs RUN_LONG=1 and data/p2p-Gnutella08.txt",
)
def test_long_gnutella_occupation():
    g = cc.load_edge_list(DATA_DIR / "p2p-Gnutella08.txt", "snap-tsv")
    omega = sample_omega(g.n, 0.2, seed=0)
    inst = cc.make_instance(g, omega, 4)
    expected = cc.soc_betweenness(inst)
    realized = cc.particle_hopping(
        inst, cc.HoppingParams(duration=300_000, injection_rate=0.5, seed=0)
    )
    tau = cc.kendall_tau(expected.values, realized.values)
    assert tau >= 0.70
