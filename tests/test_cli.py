import json

import numpy as np
import pytest
import scipy.sparse.linalg

import chargecent.betweenness
import chargecent.cli
import chargecent.graph
import chargecent.katz
from chargecent import load_edge_list, make_instance, max_alpha
from chargecent.cli import main
from chargecent.generators import sample_omega
from chargecent.scores import ScoreVector
from chargecent.statespace import StateGraph, build_state_graph


@pytest.fixture
def graph_file(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("0 1\n1 2\n2 3\n3 0\n1 3\n")
    return f


def run(*argv):
    return main([str(a) for a in argv])


def test_centrality_writes_scores_and_meta(graph_file, tmp_path):
    out = tmp_path / "run"
    code = run("centrality", "--input", graph_file, "--kappa", "2",
               "--omega-ratio", "0.5", "--seed", "3", "--measure", "soc-katz",
               "--alpha", "0.1", "--out", out)
    assert code == 0
    sv = ScoreVector.read_csv(out / "scores.csv")
    assert len(sv) == 4
    meta = json.loads((out / "scores.meta.json").read_text())
    assert meta["config"]["kappa"] == 2
    assert meta["config"]["seed"] == 3
    assert meta["alpha"] == 0.1


@pytest.mark.parametrize("measure", ["soc-katz", "katz", "soc-bc", "bc"])
def test_all_walk_measures_run(graph_file, tmp_path, measure):
    out = tmp_path / measure
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--omega-ratio", "0.25", "--seed", "1", "--measure", measure,
               "--out", out) == 0
    assert (out / "scores.csv").exists()


@pytest.mark.parametrize("measure", ["soc-rwbc", "rwbc"])
def test_rwbc_measures_need_pairs(graph_file, tmp_path, measure):
    out = tmp_path / measure
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--measure", measure, "--out", out) == 1
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--measure", measure, "--pairs", "4", "--seed", "2",
               "--out", out) == 0


def test_rwbc_numerical_failure_exits_2(graph_file, tmp_path, monkeypatch, capsys):
    real = scipy.sparse.linalg.splu
    for failing in ("NATURAL", "MMD_AT_PLUS_A"):  # a target's factorization, then the ordering
        def singular(*args, **kwargs):
            if kwargs["permc_spec"] == failing:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        assert run("centrality", "--input", graph_file, "--kappa", "2",
                   "--measure", "soc-rwbc", "--pairs", "2", "--seed", "2",
                   "--out", tmp_path / failing) == 2
        assert "numerical failure" in capsys.readouterr().err


def test_centrality_verify_mode(graph_file, tmp_path):
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--omega-ratio", "0.5", "--seed", "5", "--measure", "soc-bc",
               "--verify", "--out", tmp_path / "v") == 0


def test_simulate_sir_and_alpha_zero(graph_file, tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "sir",
               "--alpha", "0.0", "--runs", "3", "--seed", "1", "--out", out) == 0
    sv = ScoreVector.read_csv(out / "realized.csv")
    assert np.all(sv.values == 1.0)


def test_simulate_hopping(graph_file, tmp_path):
    out = tmp_path / "hop"
    assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "hopping",
               "--duration", "50", "--injection-rate", "1.0", "--seed", "4",
               "--omega-ratio", "0.25", "--out", out) == 0
    meta = json.loads((out / "realized.meta.json").read_text())
    assert meta["placed"] > 0


def test_determinism_byte_identical(graph_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "hopping",
                   "--duration", "40", "--seed", "9", "--omega-ratio", "0.5",
                   "--out", out) == 0
        assert run("centrality", "--input", graph_file, "--kappa", "2",
                   "--omega-ratio", "0.5", "--seed", "9", "--measure", "soc-bc",
                   "--out", out) == 0
        outs.append(out)
    for fname in ("realized.csv", "realized.meta.json", "scores.csv", "scores.meta.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_correlate_identity_and_reversal(tmp_path):
    a = ScoreVector(np.array([1.0, 2.0, 3.0]), ["x", "y", "z"])
    b = ScoreVector(np.array([3.0, 2.0, 1.0]), ["x", "y", "z"])
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    rep = tmp_path / "r.json"
    assert run("correlate", "--expected", pa, "--realized", pa, "--out", rep) == 0
    assert json.loads(rep.read_text())["tau"] == 1.0
    assert run("correlate", "--expected", pa, "--realized", pb, "--out", rep) == 0
    assert json.loads(rep.read_text())["tau"] == -1.0


def test_correlate_reads_the_meta_file_named_after_the_csv(tmp_path):
    csv = tmp_path / "scores.bc.csv"
    ScoreVector(np.array([1.0, 2.0, 3.0]), ["x", "y", "z"]).write_csv(csv)
    (tmp_path / "scores.bc.meta.json").write_text(json.dumps({"measure": "bc"}))
    (tmp_path / "scores.meta.json").write_text(json.dumps({"measure": "soc-katz"}))
    rep = tmp_path / "r.json"
    assert run("correlate", "--expected", csv, "--realized", csv, "--out", rep) == 0
    assert json.loads(rep.read_text())["measure"] == "bc"


def test_correlate_label_mismatch(tmp_path):
    a = ScoreVector(np.array([1.0, 2.0]), ["x", "y"])
    b = ScoreVector(np.array([1.0, 2.0]), ["x", "q"])
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert run("correlate", "--expected", pa, "--realized", pb) == 1


def test_missing_input_is_input_error(tmp_path):
    assert run("centrality", "--input", tmp_path / "nope.tsv", "--measure", "bc",
               "--kappa", "1", "--out", tmp_path) == 1


def test_directory_as_input_is_input_error(tmp_path, capsys):
    assert run("centrality", "--input", tmp_path, "--measure", "bc",
               "--kappa", "1", "--out", tmp_path / "o") == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("centrality", "--measure", "rwbc", "--pairs", "2"),
                                  ("simulate", "--sim", "hopping")])
def test_no_feasible_pair_in_the_draw_budget_is_input_error(tmp_path, capsys, argv):
    # One arc among 3000 nodes: uniform draws almost never hit a feasible pair.
    mtx = tmp_path / "one_arc.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate pattern general\n3000 3000 1\n1 2\n")
    assert run(argv[0], "--input", mtx, "--format", "matrix-market", "--kappa", "1",
               *argv[1:], "--out", tmp_path / "o") == 1
    assert "input error" in capsys.readouterr().err


def test_invalid_alpha_is_input_error(graph_file, tmp_path):
    assert run("centrality", "--input", graph_file, "--kappa", "1",
               "--measure", "katz", "--alpha", "5.0", "--out", tmp_path) == 1


def test_config_file_with_cli_override(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": str(graph_file), "kappa": 2, "omega_ratio": 0.5,
        "seed": 6, "measure": "soc-katz", "alpha": 0.05,
    }))
    out = tmp_path / "from_cfg"
    assert run("centrality", "--config", cfg, "--out", out) == 0
    meta = json.loads((out / "scores.meta.json").read_text())
    assert meta["config"]["alpha"] == 0.05
    out2 = tmp_path / "override"
    assert run("centrality", "--config", cfg, "--alpha", "0.01", "--out", out2) == 0
    meta2 = json.loads((out2 / "scores.meta.json").read_text())
    assert meta2["config"]["alpha"] == 0.01


def test_unknown_config_key_rejected(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), "knob": 1}))
    assert run("centrality", "--config", cfg, "--measure", "bc", "--out", tmp_path) == 1


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "runs", "5"),  # a str for an int: SirParams failed with a TypeError traceback
    ("centrality", "kappa", "2"),  # was accepted and written into the meta as a string
    ("centrality", "kappa", 2.5),
    ("centrality", "alpha", True),  # a bool is never a number
    ("centrality", "directed", 1),
])
def test_config_value_of_the_wrong_type_is_input_error(graph_file, tmp_path, capsys,
                                                       command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), "measure": "katz", "sim": "sir",
                               "alpha": 0.1, key: value}))
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "input error" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_config_accepts_an_int_for_a_float(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), "kappa": 2, "omega_ratio": 1,
                               "measure": "soc-katz", "alpha": 0, "omega_file": None}))
    out = tmp_path / "out"
    assert run("centrality", "--config", cfg, "--out", out) == 0
    config = json.loads((out / "scores.meta.json").read_text())["config"]
    assert config["omega_ratio"] == 1 and config["alpha"] == 0 and config["kappa"] == 2


@pytest.mark.parametrize("measure", ["katz", "soc-katz"])
def test_non_finite_scores_are_a_numerical_failure(graph_file, tmp_path, monkeypatch, capsys,
                                                    measure):
    def nan_kernel(adj, p, meta):
        x = np.ones(adj.shape[0])
        x[1] = np.nan
        return x

    monkeypatch.setattr(chargecent.katz, "_katz", nan_kernel)
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--measure", measure,
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_score_file_is_input_error(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("node_label,score\na,1.0\nb,2.0\n")
    bad.write_text("node_label,score\na,1.0\nb,nan\n")
    assert run("correlate", "--expected", good, "--realized", bad) == 1
    assert "scores must be finite" in capsys.readouterr().err


def test_state_dump_for_soc_bc(graph_file, tmp_path):
    out = tmp_path / "dump"
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--measure", "soc-bc", "--state-dump", "--out", out) == 0
    lines = (out / "scores.states.csv").read_text().splitlines()
    assert lines[0] == "node_label,charge,score"
    assert len(lines) == 1 + 4 * 3  # nodes x charge levels
    # per-charge rows sum to the per-node scores
    sv = ScoreVector.read_csv(out / "scores.csv")
    sums = {lab: 0.0 for lab in sv.labels}
    for ln in lines[1:]:
        lab, _, score = ln.split(",")
        sums[lab] += float(score)
    assert np.allclose([sums[lab] for lab in sv.labels], sv.values)
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--measure", "bc", "--state-dump", "--out", out) == 1


def test_correlate_report_carries_run_context(graph_file, tmp_path):
    exp = tmp_path / "exp"
    real = tmp_path / "real"
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--omega-ratio", "0.5", "--seed", "2", "--measure", "soc-katz",
               "--alpha", "0.05", "--out", exp) == 0
    assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "sir",
               "--alpha", "0.2", "--runs", "10", "--seed", "2",
               "--omega-ratio", "0.5", "--out", real) == 0
    rep = tmp_path / "rep.json"
    assert run("correlate", "--expected", exp / "scores.csv",
               "--realized", real / "realized.csv", "--out", rep) == 0
    report = json.loads(rep.read_text())
    assert report["measure"] == "soc-katz"
    assert report["simulation"] == "sir"
    assert report["kappa"] == 2 and report["omega_ratio"] == 0.5 and report["seed"] == 2


def test_experiment_workers_match_serial(graph_file, tmp_path):
    argv = ["experiment", "--input", str(graph_file), "--kappa", "2",
            "--measure", "soc-katz", "--alpha", "0.05", "--sim", "sir",
            "--runs", "10", "--ratios", "0.5", "--reps", "2", "--seed", "21"]
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(pooled)]) == 0
    assert (serial / "taus.csv").read_bytes() == (pooled / "taus.csv").read_bytes()


def test_experiment_and_batch_summary(graph_file, tmp_path):
    out = tmp_path / "exp"
    assert run("experiment", "--input", graph_file, "--kappa", "2",
               "--measure", "soc-katz", "--alpha", "0.05", "--sim", "sir",
               "--runs", "20", "--ratios", "0.25,0.5", "--reps", "2",
               "--seed", "11", "--out", out) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("ratio,reps")
    assert len(summary) == 3
    taus = (out / "taus.csv").read_text().splitlines()
    assert len(taus) == 5
    # rerun reproduces byte-identical outputs
    out2 = tmp_path / "exp2"
    assert run("experiment", "--input", graph_file, "--kappa", "2",
               "--measure", "soc-katz", "--alpha", "0.05", "--sim", "sir",
               "--runs", "20", "--ratios", "0.25,0.5", "--reps", "2",
               "--seed", "11", "--out", out2) == 0
    assert (out / "taus.csv").read_bytes() == (out2 / "taus.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_default_alpha_measures_the_bound_once(graph_file, tmp_path, monkeypatch):
    g = load_edge_list(graph_file)
    bound = max_alpha(build_state_graph(make_instance(g, sample_omega(g.n, 0.5, 3), 2)).adjacency).max_alpha
    calls = {"radius": 0, "state_graph": 0}
    radius, init = chargecent.graph.radius_bracket, StateGraph.__init__

    def counting_radius(*args, **kwargs):
        calls["radius"] += 1
        return radius(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["state_graph"] += 1
        init(self, *args, **kwargs)

    for mod in (chargecent.graph, chargecent.katz):
        monkeypatch.setattr(mod, "radius_bracket", counting_radius)
    monkeypatch.setattr(StateGraph, "__init__", counting_init)
    out = tmp_path / "run"
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--omega-ratio", "0.5",
               "--seed", "3", "--measure", "soc-katz", "--out", out) == 0
    assert calls == {"radius": 1, "state_graph": 1}
    assert json.loads((out / "scores.meta.json").read_text())["alpha"] == 0.9 * bound


def test_state_dump_runs_the_soc_bc_sweep_once(graph_file, tmp_path, monkeypatch):
    real = chargecent.betweenness.soc_betweenness_scores
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (chargecent.betweenness, chargecent.cli):
        monkeypatch.setattr(mod, "soc_betweenness_scores", counting, raising=False)
    out = tmp_path / "dump"
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--omega-ratio", "0.5",
               "--seed", "3", "--measure", "soc-bc", "--state-dump", "--out", out) == 0
    assert len(calls) == 1
    assert (out / "scores.csv").exists() and (out / "scores.states.csv").exists()


def test_state_dump_with_other_measure_writes_nothing(graph_file, tmp_path, capsys):
    out = tmp_path / "dump"
    assert run("centrality", "--input", graph_file, "--kappa", "2",
               "--measure", "soc-katz", "--state-dump", "--out", out) == 1
    assert "soc-bc only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["0.1,0.1004", "0.1,0.1"])
def test_experiment_rejects_ratios_sharing_a_seed_key(graph_file, tmp_path, capsys, ratios):
    out = tmp_path / "exp"
    assert run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "bc",
               "--sim", "sir", "--alpha", "0.5", "--runs", "2", "--ratios", ratios,
               "--out", out) == 1
    assert "seed key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("reps", 0), ("workers", -3)])
def test_experiment_rejects_counts_below_one_by_flag(graph_file, tmp_path, capsys, flag, value):
    # Before, --reps 0 wrote taus.csv and experiment.meta.json and then failed, and
    # --workers -3 ran serially with "workers": -3 in every output.
    out = tmp_path / "exp"
    assert run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "bc",
               "--sim", "sir", "--alpha", "0.5", "--runs", "2", f"--{flag}", value, "--out", out) == 1
    assert f"--{flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("reps", 0), ("workers", -3)])
def test_experiment_rejects_counts_below_one_by_config(graph_file, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), key: value}))
    out = tmp_path / "exp"
    assert run("experiment", "--config", cfg, "--kappa", "2", "--measure", "bc",
               "--sim", "sir", "--alpha", "0.5", "--runs", "2", "--out", out) == 1
    assert f"--{key} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_pair_label_is_named(graph_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 2\n1 99\n")
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--measure", "rwbc",
               "--pairs-file", pairs, "--out", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert "input error" in err and "pair label '99' not in graph" in err


def test_experiment_hopping_uses_config_pairs_file(tmp_path):
    # On the path 0-1-2-3 the only pair 0 -> 1 never reaches nodes 2 and 3.
    graph = tmp_path / "path.tsv"
    graph.write_text("0 1\n1 2\n2 3\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph), "pairs_file": str(pairs)}))
    out = tmp_path / "exp"
    assert run("experiment", "--config", cfg, "--kappa", "3", "--measure", "bc",
               "--sim", "hopping", "--duration", "40", "--injection-rate", "1.0",
               "--ratios", "0.5", "--out", out) == 0
    sv = ScoreVector.read_csv(out / "ratio_0.5" / "rep_00" / "realized.csv")
    occupation = dict(zip(sv.labels, sv.values))
    assert occupation["0"] > 0 and occupation["2"] == occupation["3"] == 0.0


def test_hopping_self_pair_is_an_input_error(tmp_path, capsys):
    graph = tmp_path / "path.tsv"
    graph.write_text("0 1\n1 2\n2 3\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 1\n")
    out = tmp_path / "sim"
    assert run("simulate", "--input", graph, "--kappa", "2", "--sim", "hopping",
               "--duration", "10", "--pairs-file", pairs, "--out", out) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "same source and target" in err
    assert not out.exists()
