"""The benchmark's four workloads: seeded inputs, CLI invocations and output checks.

Each workload writes its inputs from the run's seed, passes the program only
those files, and names the ``chargecent`` command lines one pass runs. Its
checks read the output tree of a pass and compare it with independent
recomputations (``reference.py``) or invariants; every check is one op.

Edge lists are written here in the snap-tsv format rather than through the
program, so that a change to the program's edge order cannot change the
benchmark's input.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import chargecent
import numpy as np

import reference

Check = tuple[str, bool, str]  # name, passed, detail


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus what set-up needs to build the instance."""

    graph: Path
    kappa: int
    ratio: float
    seed: int
    size: dict
    pairs: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict]  # "full" and "smoke"
    generate: Callable[[Path, int, dict], Inputs]
    commands: Callable[[Inputs, Path], list[list[str]]]
    check: Callable[[Inputs, Path], list[Check]]


# ---------------------------------------------------------------- inputs


def ba_edges(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Preferential attachment, m edges per arriving node; connected and simple."""
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(m))
    for v in range(m, n):
        edges.extend((v, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return edges


def grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for v in range(side * side):
        if (v + 1) % side:
            edges.append((v, v + 1))
        if v + side < side * side:
            edges.append((v, v + side))
    return edges


def write_snap_tsv(path: Path, n: int, edges: list[tuple[int, int]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# nodes: {n} edges: {len(edges)}"] + [f"{u}\t{v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return path


def _ba_inputs(d: Path, seed: int, size: dict) -> Inputs:
    rng = np.random.default_rng(seed)
    n = size["n"]
    graph = write_snap_tsv(d / "graph.tsv", n, ba_edges(n, size["m"], rng))
    return Inputs(graph, size["kappa"], size["ratio"], seed, size)


def _rwbc_inputs(d: Path, seed: int, size: dict) -> Inputs:
    inp = _ba_inputs(d, seed, size)
    # Four pairs with distinct targets, then four sharing one target.
    perm = np.random.default_rng([seed, 1]).permutation(size["n"])
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(4)]
    pairs += [(perm[9 + i], perm[8]) for i in range(4)]
    path = d / "pairs.txt"
    path.write_text("".join(f"{s} {t}\n" for s, t in pairs))
    return dataclasses.replace(inp, pairs=path)


def _grid_inputs(d: Path, seed: int, size: dict) -> Inputs:
    side = size["side"]
    graph = write_snap_tsv(d / "graph.tsv", side * side, grid_edges(side))
    return Inputs(graph, size["kappa"], size["ratio"], seed, size)


# ---------------------------------------------------------------- commands


def _common(inp: Inputs) -> list[str]:
    return ["--input", str(inp.graph), "--kappa", str(inp.kappa), "--seed", str(inp.seed)]


def _spread_commands(inp: Inputs, out: Path) -> list[list[str]]:
    s = inp.size
    return [["experiment", *_common(inp), "--measure", "soc-katz", "--alpha", "0.03",
             "--sim", "sir", "--runs", str(s["runs"]), "--ratios", s["ratios"], "--reps", "1",
             "--workers", "1", "--out", str(out / "exp")]]


def _traffic_commands(inp: Inputs, out: Path) -> list[list[str]]:
    s = inp.size
    return [["experiment", *_common(inp), "--measure", "soc-bc", "--sim", "hopping",
             "--duration", str(s["duration"]), "--injection-rate", "0.5",
             "--ratios", str(inp.ratio), "--reps", "1", "--workers", "1",
             "--out", str(out / "exp")]]


def _rwbc_commands(inp: Inputs, out: Path) -> list[list[str]]:
    base = ["centrality", *_common(inp), "--omega-ratio", str(inp.ratio),
            "--pairs-file", str(inp.pairs)]
    return [base + ["--measure", "soc-rwbc", "--out", str(out / "soc")],
            base + ["--measure", "rwbc", "--out", str(out / "plain")]]


def _scale_commands(inp: Inputs, out: Path) -> list[list[str]]:
    # No --alpha: the CLI takes 0.9 of the measured bound, near where the series is longest.
    base = ["centrality", *_common(inp), "--omega-ratio", str(inp.ratio)]
    return [base + ["--measure", "soc-katz", "--out", str(out / "soc")],
            base + ["--measure", "katz", "--out", str(out / "plain")],
            ["correlate", "--expected", str(out / "soc" / "scores.csv"),
             "--realized", str(out / "plain" / "scores.csv"), "--out", str(out / "tau.json")]]


# ---------------------------------------------------------------- checks


def read_scores(path: Path) -> dict[str, float]:
    rows = path.read_text().splitlines()[1:]
    return {lab: float(v) for lab, v in (r.rsplit(",", 1) for r in rows if r)}


def _meta(csv: Path) -> dict:
    return json.loads(csv.with_suffix(".meta.json").read_text())


def _close(got: np.ndarray, want: np.ndarray, rtol: float) -> tuple[bool, str]:
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return err <= rtol * scale, f"max abs diff {err:.3e} (scale {scale:.3e}, rtol {rtol:g})"


def _instance(inp: Inputs, omega: list[int]) -> tuple[list[str], object, np.ndarray]:
    labels, edges = reference.read_edge_list(inp.graph)
    adj = reference.adjacency(len(labels), edges)
    refill = np.zeros(len(labels), dtype=bool)
    refill[omega] = True
    return labels, adj, refill


def _tau_checks(where: str, y: np.ndarray, z: np.ndarray, reported: float) -> list[Check]:
    import scipy.stats  # here, so that it does not count in the run's peak RSS

    tau_b = chargecent.kendall_tau(y, z, "b")
    ref_b = float(scipy.stats.kendalltau(y, z).statistic)
    tau_a = chargecent.kendall_tau(y, z)
    return [
        (f"{where}: tau-b matches scipy", abs(tau_b - ref_b) <= 1e-12, f"{tau_b!r} vs {ref_b!r}"),
        (f"{where}: reported tau-a recomputes", tau_a == reported, f"{reported!r} vs {tau_a!r}"),
    ]


def _aligned(expected: Path, realized: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    e, r = read_scores(expected), read_scores(realized)
    labels = list(e)
    return labels, np.array([e[k] for k in labels]), np.array([r[k] for k in labels])


def _rep_dirs(exp: Path) -> list[Path]:
    return sorted(exp.glob("ratio_*/rep_*"))


def _reported_taus(exp: Path) -> dict[str, float]:
    rows = (exp / "taus.csv").read_text().splitlines()[1:]
    return {f"ratio_{r}/rep_{int(k):02d}": float(t) for r, k, t in (row.split(",") for row in rows)}


def _spread_check(inp: Inputs, out: Path) -> list[Check]:
    exp = out / "exp"
    taus = _reported_taus(exp)
    checks: list[Check] = [("spread: one tau per rep", len(taus) == len(_rep_dirs(exp)) > 0, str(taus))]
    for rep in _rep_dirs(exp):
        where = f"{rep.parent.name}/{rep.name}"
        labels, y, z = _aligned(rep / "expected.csv", rep / "realized.csv")
        checks += _tau_checks(where, y, z, taus.get(where, math.nan))
        meta = _meta(rep / "expected.csv")
        ref_labels, adj, refill = _instance(inp, meta["omega"])
        ref = dict(zip(ref_labels, reference.soc_katz(adj, refill, meta["kappa"], meta["alpha"])))
        ok, detail = _close(y, np.array([ref[k] for k in labels]), 1e-8)
        checks.append((f"{where}: soc-katz matches reference", ok, detail))
        n = len(ref_labels)
        ok = len(z) == n and bool(np.all((z >= 1) & (z <= n)))
        checks.append((f"{where}: SIR outbreak sizes in [1, n]", ok, f"{len(z)} rows, range [{z.min()}, {z.max()}]"))
    return checks


def _traffic_check(inp: Inputs, out: Path) -> list[Check]:
    checks: list[Check] = []
    reps = _rep_dirs(out / "exp")
    checks.append(("traffic: one rep written", len(reps) == 1, str(reps)))
    for rep in reps:
        where = f"{rep.parent.name}/{rep.name}"
        _, y, z = _aligned(rep / "expected.csv", rep / "realized.csv")
        meta = _meta(rep / "expected.csv")
        _, adj, refill = _instance(inp, meta["omega"])
        want = reference.shortest_walk_length_sum(adj, refill, meta["kappa"])
        got = float(y.sum())
        checks.append((f"{where}: soc-bc sum equals shortest-walk length sum",
                       abs(got - want) <= 1e-9 * max(1.0, want), f"{got!r} vs {want!r}"))
        hop = _meta(rep / "realized.csv")
        ok = hop["placed"] == hop["completed"] + hop["in_flight_at_end"]
        checks.append((f"{where}: placed = completed + in flight", ok,
                       f"{hop['placed']} vs {hop['completed']} + {hop['in_flight_at_end']}"))
        ok = len(z) == adj.shape[0] and bool(np.all((z >= 0) & (z <= 1)))
        checks.append((f"{where}: occupation ratios in [0, 1]", ok, f"range [{z.min()}, {z.max()}]"))
    return checks


def _rwbc_check(inp: Inputs, out: Path) -> list[Check]:
    checks: list[Check] = []
    for sub, measure in (("soc", "soc-rwbc"), ("plain", "rwbc")):
        csv = out / sub / "scores.csv"
        got, meta = read_scores(csv), _meta(csv)
        labels, adj, refill = _instance(inp, meta.get("omega", []))
        ids = {lab: i for i, lab in enumerate(labels)}
        pairs = [tuple(ids[x] for x in ln.split()) for ln in inp.pairs.read_text().splitlines()]
        if measure == "soc-rwbc":
            want, skipped = reference.soc_rwbc(adj, refill, meta["kappa"], pairs)
        else:
            want, skipped = reference.rwbc(adj, pairs)
        ok, detail = _close(np.array([got[k] for k in labels]), want, 1e-8)
        checks.append((f"{measure}: scores match reference", ok, detail))
        ok = meta["pairs"] == len(pairs) and meta["skipped_pairs"] == skipped
        checks.append((f"{measure}: pair counts match reference", ok,
                       f"{meta['pairs']}/{meta['skipped_pairs']} vs {len(pairs)}/{skipped}"))
    return checks


def _scale_check(inp: Inputs, out: Path) -> list[Check]:
    soc_csv, plain_csv = out / "soc" / "scores.csv", out / "plain" / "scores.csv"
    labels, y, z = _aligned(soc_csv, plain_csv)
    report = json.loads((out / "tau.json").read_text())
    checks = _tau_checks("scale", y, z, report["tau"])
    meta = _meta(soc_csv)
    ref_labels, adj, refill = _instance(inp, meta["omega"])
    ref = dict(zip(ref_labels, reference.soc_katz(adj, refill, meta["kappa"], meta["alpha"])))
    ok, detail = _close(y, np.array([ref[k] for k in labels]), 1e-7)
    checks.append(("scale: soc-katz matches reference", ok, detail))
    # Plain Katz x solves x = 1 + alpha * A x.
    alpha = _meta(plain_csv)["alpha"]
    plain = read_scores(plain_csv)
    x = np.array([plain[k] for k in ref_labels])
    ok, detail = _close(x - alpha * (adj @ x), np.ones_like(x), 1e-7)
    checks.append(("scale: katz solves x = 1 + alpha A x", ok, detail))
    return checks


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "spread",
            {"full": dict(n=300, m=3, kappa=5, ratio=0.1, ratios="0.1,0.3", runs=80),
             "smoke": dict(n=40, m=3, kappa=5, ratio=0.1, ratios="0.1,0.3", runs=5)},
            _ba_inputs, _spread_commands, _spread_check,
        ),
        Workload(
            "traffic",
            {"full": dict(side=16, kappa=16, ratio=0.2, duration=4000),
             "smoke": dict(side=5, kappa=6, ratio=0.2, duration=200)},
            _grid_inputs, _traffic_commands, _traffic_check,
        ),
        Workload(
            "rwbc",
            {"full": dict(n=500, m=3, kappa=5, ratio=0.3),
             "smoke": dict(n=40, m=3, kappa=5, ratio=0.3)},
            _rwbc_inputs, _rwbc_commands, _rwbc_check,
        ),
        Workload(
            "scale",
            {"full": dict(n=12_000, m=4, kappa=5, ratio=0.3),
             "smoke": dict(n=500, m=4, kappa=5, ratio=0.3)},
            _ba_inputs, _scale_commands, _scale_check,
        ),
    )
}
