import json
import re

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
from chargecent.statespace import StateGraph


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


@pytest.mark.parametrize("dup_first", [True, False])
def test_correlate_rejects_duplicate_labels_in_either_file(tmp_path, capsys, dup_first):
    # Before, a duplicate label in --expected went unseen: the run exited 0 with tau 0.0.
    dup, ok = tmp_path / "dup.csv", tmp_path / "ok.csv"
    dup.write_text("x,1.0\nx,2.0\n")
    ok.write_text("x,1.0\ny,2.0\n")
    expected, realized = (dup, ok) if dup_first else (ok, dup)
    assert run("correlate", "--expected", expected, "--realized", realized) == 1
    assert "duplicate labels in score vector" in capsys.readouterr().err


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


def test_unreadable_score_names_its_file_and_line(tmp_path, capsys):
    # Before, only "could not convert string to float: 'x'".
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("node_label,score\na,1.0\nb,2.0\n")
    bad.write_text("node_label,score\na,1.0\nb,x\n")
    assert run("correlate", "--expected", good, "--realized", bad) == 1
    assert f"input error: line 3: score 'x' is not a number in {bad}" in capsys.readouterr().err


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
    argv = ["experiment", "--input", graph_file, "--kappa", "2", "--measure", "soc-katz",
            "--alpha", "0.05", "--sim", "sir", "--runs", "10", "--ratios", "0.25,0.5", "--reps", "2",
            "--seed", "21"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run(*argv, "--workers", "1", "--out", serial) == 0
    assert run(*argv, "--workers", "2", "--out", pooled) == 0
    files = sorted(f.relative_to(serial) for f in serial.rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(pooled) for f in pooled.rglob("*") if f.is_file())
    assert len(files) == 19
    for f in files:
        if f.suffix == ".json":  # the metas differ in the workers they record, and only there
            metas = [json.loads((root / f).read_text()) for root in (serial, pooled)]
            assert [m["config"].pop("workers") for m in metas] == [1, 2]
            assert metas[0] == metas[1]
        else:
            assert (serial / f).read_bytes() == (pooled / f).read_bytes()


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


def _sweep(graph_file, out, ratios, reps):
    return run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "soc-katz",
               "--alpha", "0.05", "--sim", "sir", "--runs", "10", "--ratios", ratios,
               "--reps", reps, "--seed", "11", "--out", out)


def test_experiment_summary_covers_only_its_own_run(graph_file, tmp_path):
    out = tmp_path / "exp"
    assert _sweep(graph_file, out, "0.25,0.75", 3) == 0
    assert _sweep(graph_file, out, "0.5", 2) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["0.5", "2"]]


def test_correlate_batch_summarizes_every_ratio_directory(graph_file, tmp_path):
    out = tmp_path / "exp"
    assert _sweep(graph_file, out, "0.25,0.75", 3) == 0
    first = (out / "summary.csv").read_bytes()
    assert run("correlate", "--batch", out, "--out", tmp_path / "again") == 0
    assert (tmp_path / "again" / "summary.csv").read_bytes() == first
    # The batch walks the directory, so an earlier sweep's ratios stay in.
    assert _sweep(graph_file, out, "0.5", 2) == 0
    assert run("correlate", "--batch", out) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["0.25", "3"], ["0.5", "2"], ["0.75", "3"]]


def test_default_alpha_measures_the_bound_once(graph_file, tmp_path, monkeypatch):
    g = load_edge_list(graph_file)
    bound = max_alpha(make_instance(g, sample_omega(g.n, 0.5, 3), 2).state_graph.adjacency).max_alpha
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


@pytest.mark.parametrize("text, message", [
    ("0 2\n\n1 99\n", "line 3: pair label '99' not in graph"),
    ("0 1\n0\n", "line 2: pair line needs two labels: '0'"),
    ("\n1 1\n", "line 2: pair line has the same source and target: '1 1'"),
], ids=["label", "fields", "self-pair"])
def test_pairs_file_errors_name_the_line(graph_file, tmp_path, capsys, text, message):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(text)
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--measure", "rwbc",
               "--pairs-file", pairs, "--out", tmp_path / "r") == 1
    assert f"input error: {message}" in capsys.readouterr().err


def test_omega_file_error_names_the_line(graph_file, tmp_path, capsys):
    omega = tmp_path / "omega.txt"
    omega.write_text("1\n\n x \n2\n")
    assert run("centrality", "--input", graph_file, "--kappa", "2", "--measure", "soc-katz",
               "--alpha", "0.1", "--omega-file", omega, "--out", tmp_path / "r") == 1
    assert "input error: line 3: omega label 'x' not in graph" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value, least", [("pairs", 0, 1), ("pairs", -3, 1), ("max-injections", -4, 0)])
def test_simulate_rejects_counts_below_their_least_by_flag(graph_file, tmp_path, capsys, flag, value, least):
    # Before, --pairs 0 sampled uniform requests and wrote "pairs": 0, --pairs -3
    # failed in numpy's sampler, and --max-injections -4 wrote all-zero scores.
    out = tmp_path / "sim"
    assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "hopping",
               "--duration", "10", f"--{flag}", value, "--out", out) == 1
    assert f"--{flag} must be at least {least}, not {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, least", [("pairs", 0, 1), ("max_injections", -4, 0)])
def test_simulate_rejects_counts_below_their_least_by_config(graph_file, tmp_path, capsys, key, value, least):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), key: value}))
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--kappa", "2", "--sim", "hopping",
               "--duration", "10", "--out", out) == 1
    assert f"must be at least {least}, not {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, problem", [
    (("--bogus",), "unrecognized arguments: --bogus"),
    (("--measure", "bogus"),
     "--measure must be one of soc-katz, katz, soc-bc, bc, soc-rwbc, rwbc, not 'bogus'"),
    (("--measure", "bc", "--kappa", "x"), "argument --kappa: invalid int value: 'x'"),
])
def test_usage_errors_exit_1(graph_file, tmp_path, capsys, argv, problem):
    # Exit 2 means a numerical failure; argparse used to exit 2 on any usage error.
    out = tmp_path / "out"
    assert run("centrality", "--input", graph_file, *argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert "input error" in err and problem in err
    assert not out.exists()


def test_every_config_field_is_a_flag_of_a_run(capsys):
    helps = ""
    for command in ("centrality", "simulate", "experiment"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        helps += capsys.readouterr().out
    flags = set(re.findall(r"--[a-z-]+", helps))
    for name in chargecent.cli.ExperimentConfig.__dataclass_fields__:
        assert "--" + name.replace("_", "-") in flags, name
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command, missing", [("centrality", "--measure"), ("simulate", "--sim"),
                                              ("experiment", "--sim")])
def test_a_run_without_its_required_field_names_it(graph_file, tmp_path, capsys, command, missing):
    argv = ["--measure", "bc"] if command == "experiment" else []
    out = tmp_path / "out"
    assert run(command, "--input", graph_file, *argv, "--out", out) == 1
    assert f"{missing} is required" in capsys.readouterr().err
    assert not out.exists()


def test_config_measure_outside_its_choices_is_rejected_before_any_work(graph_file, tmp_path, capsys,
                                                                          monkeypatch):
    # Before, the pairs were sampled first and the run then failed on the unknown measure.
    calls = []
    monkeypatch.setattr(chargecent.cli, "sample_feasible_pairs", lambda *a: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(graph_file), "measure": "bogus"}))
    out = tmp_path / "out"
    assert run("centrality", "--config", cfg, "--pairs", "2", "--out", out) == 1
    assert "--measure must be one of soc-katz, katz" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_verify_of_an_unsupported_measure_fails_before_it_runs(graph_file, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(chargecent.cli, "standard_katz", lambda *a: calls.append(a))
    out = tmp_path / "out"
    assert run("centrality", "--input", graph_file, "--measure", "katz", "--verify", "--out", out) == 1
    assert "--verify supports soc-bc and soc-katz" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("key", ["endpoints", "pairs_file"])
def test_experiment_takes_every_field_by_flag_as_by_config(graph_file, tmp_path, key):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 2\n3 1\n")
    value = {"endpoints": "none", "pairs_file": str(pairs)}[key]
    argv = ["experiment", "--input", graph_file, "--kappa", "2", "--measure", "bc", "--sim", "hopping",
            "--duration", "30", "--ratios", "0.5", "--seed", "5"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert run(*argv, "--" + key.replace("_", "-"), value, "--out", by_flag) == 0
    assert run(*argv, "--config", cfg, "--out", by_config) == 0
    files = sorted(p.relative_to(by_flag) for p in by_flag.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(by_config) for p in by_config.rglob("*") if p.is_file())
    for f in files:
        assert (by_flag / f).read_bytes() == (by_config / f).read_bytes(), f
    assert json.loads((by_flag / "experiment.meta.json").read_text())["config"][key] == value


@pytest.mark.parametrize("rate", ["inf", "nan", "-1"])
def test_non_finite_injection_rate_is_input_error(graph_file, tmp_path, capsys, monkeypatch, rate):
    # Before, inf ended in an OverflowError traceback and nan in numpy's conversion error;
    # then each was caught only after the graph was loaded and the pairs sampled.
    loads = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *a: loads.append(a))
    out = tmp_path / "sim"
    assert run("simulate", "--input", graph_file, "--kappa", "2", "--sim", "hopping",
               "--duration", "10", "--injection-rate", rate, "--pairs", "2", "--out", out) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "injection rate must be finite and nonnegative" in err
    assert loads == [] and not out.exists()


def test_a_sweep_loads_its_graph_once_and_samples_pairs_once_per_repetition(graph_file, tmp_path,
                                                                             monkeypatch):
    # Before, each repetition loaded the graph, and the measure and the simulation each
    # sampled the pairs: 4 loads and 8 samplings for this sweep. Pair sampling, soc-rwbc
    # and hopping each built a state graph too: 12, where each instance now builds one.
    calls = {"load_edge_list": 0, "sample_feasible_pairs": 0, "state_graph": 0}
    init = StateGraph.__init__

    def counting_init(self, *args):
        calls["state_graph"] += 1
        init(self, *args)

    def counting(name):
        real = getattr(chargecent.cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("load_edge_list", "sample_feasible_pairs"):
        monkeypatch.setattr(chargecent.cli, name, counting(name))
    monkeypatch.setattr(StateGraph, "__init__", counting_init)
    assert run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "soc-rwbc",
               "--sim", "hopping", "--duration", "20", "--pairs", "3", "--ratios", "0.25,0.5",
               "--reps", "2", "--seed", "4", "--out", tmp_path / "exp") == 0
    assert calls == {"load_edge_list": 1, "sample_feasible_pairs": 4, "state_graph": 4}


@pytest.mark.parametrize("argv, problem", [
    (("--sim", "sir", "--alpha", "1.5"), "transmission probability must lie in [0,1]"),
    (("--sim", "sir", "--alpha", "0.5", "--runs", "0"), "--runs must be at least 1, not 0"),
    (("--sim", "hopping", "--injection-rate", "nan"), "injection rate must be finite"),
    (("--sim", "hopping", "--pairs-file", "self_pair.txt"), "same source and target"),
], ids=["alpha", "runs", "injection-rate", "self-pair"])
def test_experiment_checks_its_simulation_before_the_measure_runs(graph_file, tmp_path, capsys,
                                                                   monkeypatch, argv, problem):
    # Before, each of these computed soc-bc and wrote ratio_0.5/rep_00/expected.* first.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "self_pair.txt").write_text("1 1\n")
    out = tmp_path / "exp"
    assert run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "soc-bc",
               *argv, "--ratios", "0.5", "--out", out) == 1
    err = capsys.readouterr().err
    assert "input error" in err and problem in err
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["1.5", "nan", "0.5,abc", ""])
def test_experiment_rejects_bad_ratios_before_any_load(graph_file, tmp_path, capsys, monkeypatch,
                                                        ratios):
    # Before, 1.5 and nan failed after the load (nan naming no option), and "" ran ratio 0.1.
    loads = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *a: loads.append(a))
    out = tmp_path / "exp"
    assert run("experiment", "--input", graph_file, "--kappa", "2", "--measure", "bc",
               "--sim", "sir", "--alpha", "0.5", "--ratios", ratios, "--out", out) == 1
    assert f"--ratios must be comma-separated numbers in (0, 1], not {ratios!r}" in capsys.readouterr().err
    assert loads == [] and not out.exists()


def test_experiment_takes_no_omega_file_or_omega_ratio(graph_file, tmp_path, capsys):
    # Before, both were accepted, recorded in the metas and ignored by the sweep.
    argv = ["experiment", "--input", graph_file, "--kappa", "2", "--measure", "bc",
            "--sim", "sir", "--alpha", "0.5", "--runs", "2", "--ratios", "0.5"]
    omega = tmp_path / "omega.txt"
    omega.write_text("0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega_ratio": 0.9}))
    out = tmp_path / "exp"
    assert run(*argv, "--omega-file", omega, "--out", out) == 1
    assert "unrecognized arguments: --omega-file" in capsys.readouterr().err
    assert run(*argv, "--config", cfg, "--out", out) == 1
    assert "takes no omega_file or omega_ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [("centrality", ["--measure", "bc"]),
                                           ("simulate", ["--sim", "sir", "--alpha", "0.5"])])
def test_omega_file_and_omega_ratio_together_are_rejected(graph_file, tmp_path, capsys, command, argv):
    # Before, the file chose omega and the metas recorded the ratio it ignored.
    omega = tmp_path / "omega.txt"
    omega.write_text("0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega_file": str(omega), "omega_ratio": 0.5}))
    out = tmp_path / "out"
    for way in (["--omega-file", omega, "--omega-ratio", "0.5"], ["--config", cfg]):
        assert run(command, "--input", graph_file, "--kappa", "2", *argv, *way, "--out", out) == 1
        assert "--omega-file and --omega-ratio both choose omega" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["1.5", "nan", "0", "-0.2"])
def test_bad_omega_ratio_is_rejected_before_any_load(graph_file, tmp_path, capsys, monkeypatch, ratio):
    # Before, the graph was loaded first, and sample_omega then failed naming no option.
    loads = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *a: loads.append(a))
    out = tmp_path / "out"
    for command, argv in (("centrality", ["--measure", "bc"]), ("simulate", ["--sim", "hopping"])):
        assert run(command, "--input", graph_file, "--kappa", "2", *argv, "--omega-ratio", ratio,
                   "--out", out) == 1
        assert f"--omega-ratio must be a number in (0, 1], not {float(ratio)}" in capsys.readouterr().err
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("key", ["kappa", "runs", "duration"])
def test_counts_below_one_are_rejected_before_any_load(graph_file, tmp_path, capsys, monkeypatch, key):
    # Before, --kappa 0 loaded the graph first, and runs or duration 0 failed inside the run.
    loads = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *a: loads.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0}))
    out = tmp_path / "exp"
    for way in ([f"--{key}", 0], ["--config", cfg]):
        assert run("experiment", "--input", graph_file, "--measure", "bc", "--sim", "hopping",
                   *way, "--out", out) == 1
        assert f"--{key} must be at least 1, not 0" in capsys.readouterr().err
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("command, argv", [("centrality", ["--measure", "bc"]),
                                           ("simulate", ["--sim", "hopping"]),
                                           ("experiment", ["--measure", "bc", "--sim", "hopping"])])
def test_negative_seed_is_rejected_before_any_load(graph_file, tmp_path, capsys, monkeypatch, command, argv):
    # Before, the graph was loaded first, and numpy then failed naming no option.
    loads = []
    monkeypatch.setattr(chargecent.cli, "load_edge_list", lambda *a: loads.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    for way in (["--seed", -1], ["--config", cfg]):
        assert run(command, "--input", graph_file, *argv, *way, "--out", out) == 1
        assert "--seed must be at least 0, not -1" in capsys.readouterr().err
    assert loads == [] and not out.exists()
