"""Command-line front end for reproducible centrality/simulation experiments.

Subcommands: ``centrality`` (expected scores), ``simulate`` (realized
scores), ``correlate`` (rank correlation of two score files, single or
batch), and ``experiment`` (ratio sweep with repetitions tying the other
three together). Every output embeds the fully resolved configuration, and
identical configurations with identical seeds reproduce byte-identical
files.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .betweenness import (
    ENDPOINT_CONVENTIONS, BcScores, soc_betweenness, soc_betweenness_scores, standard_betweenness,
)
from .errors import NumericalError
from .generators import sample_omega
from .graph import FORMATS, Graph, load_edge_list, make_instance
from .katz import KatzParams, soc_katz, standard_katz
from .oracles import OracleBudget, brute_soc_bc, dense_soc_katz
from .rwbc import rwbc_all_pairs, sample_feasible_pairs, soc_rwbc
from .scores import ScoreVector, align_scores
from .simulate import POLICIES, HoppingParams, SirParams, particle_hopping, sir_influence
from .stats import kendall_tau

logger = logging.getLogger(__name__)

MEASURES = ("soc-katz", "katz", "soc-bc", "bc", "soc-rwbc", "rwbc")
SIMULATIONS = ("sir", "hopping")


@dataclass
class ExperimentConfig:
    """Resolved run parameters; serializable to/from JSON config files."""

    input: str
    format: str = "snap-tsv"
    directed: bool = False
    kappa: int = 1
    omega_file: str | None = None
    omega_ratio: float | None = None
    seed: int = 0
    measure: str | None = None
    alpha: float | None = None
    pairs: int | None = None
    pairs_file: str | None = None
    sim: str | None = None
    runs: int = 1000
    policy: str = "shortest-feasible"
    duration: int = 10000
    injection_rate: float = 0.5
    max_injections: int | None = None
    ratios: str | None = None
    reps: int = 1
    workers: int = 1
    endpoints: str = "target"
    verify: bool = False
    state_dump: bool = False
    out: str = "."


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with any of the long options as keys")
    p.add_argument("--input", help="edge-list file")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--directed", action="store_const", const=True)
    p.add_argument("--kappa", type=int)
    p.add_argument("--omega-file", help="file with one refill node label per line")
    p.add_argument("--omega-ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chargecent", description=__doc__)
    ap.add_argument("--version", action="version", version=f"chargecent {__version__}")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("centrality", help="compute expected centrality scores")
    _add_common(c)
    c.add_argument("--measure", choices=MEASURES)
    c.add_argument("--alpha", type=float)
    c.add_argument("--pairs", type=int, help="number of sampled source-target pairs")
    c.add_argument("--pairs-file", help="file of 'source target' label pairs")
    c.add_argument("--endpoints", choices=ENDPOINT_CONVENTIONS)
    c.add_argument("--verify", action="store_const", const=True,
                   help="cross-check against the brute-force oracle (small inputs)")
    c.add_argument("--state-dump", action="store_const", const=True,
                   help="also write per-(node, charge) scores (soc-bc only)")

    s = sub.add_parser("simulate", help="run a realized-centrality simulation")
    _add_common(s)
    s.add_argument("--sim", choices=SIMULATIONS)
    s.add_argument("--alpha", type=float, help="transmission probability (sir)")
    s.add_argument("--runs", type=int)
    s.add_argument("--policy", choices=POLICIES)
    s.add_argument("--duration", type=int)
    s.add_argument("--injection-rate", type=float)
    s.add_argument("--max-injections", type=int)
    s.add_argument("--pairs", type=int)
    s.add_argument("--pairs-file")

    r = sub.add_parser("correlate", help="rank-correlate expected vs realized scores")
    r.add_argument("--expected", help="expected-score CSV")
    r.add_argument("--realized", help="realized-score CSV")
    r.add_argument("--batch", help="experiment directory with ratio_*/rep_*/ runs")
    r.add_argument("--out")

    e = sub.add_parser("experiment", help="ratio sweep with repetitions")
    _add_common(e)
    e.add_argument("--measure", choices=MEASURES)
    e.add_argument("--alpha", type=float)
    e.add_argument("--sim", choices=SIMULATIONS)
    e.add_argument("--runs", type=int)
    e.add_argument("--policy", choices=POLICIES)
    e.add_argument("--duration", type=int)
    e.add_argument("--injection-rate", type=float)
    e.add_argument("--max-injections", type=int)
    e.add_argument("--pairs", type=int)
    e.add_argument("--ratios", help="comma-separated refill ratios, e.g. 0.1,0.2")
    e.add_argument("--reps", type=int)
    e.add_argument("--workers", type=int)
    return ap


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        unknown = set(file_cfg) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(ExperimentConfig)
        for name, value in file_cfg.items():
            allowed = typing.get_args(hints[name]) or (hints[name],)
            # JSON values have exact types: an int may stand for a float, a bool for no number.
            if not any(type(value) is t or (t is float and type(value) is int) for t in allowed):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"config key {name!r} must be {names}, not {value!r}")
    cfg = ExperimentConfig(input=file_cfg.get("input", ""))
    for name in ExperimentConfig.__dataclass_fields__:
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            setattr(cfg, name, cli_val)
        elif name in file_cfg:
            setattr(cfg, name, file_cfg[name])
    if not cfg.input:
        raise ValueError("--input is required (flag or config file)")
    return cfg


def _load_instance(cfg: ExperimentConfig):
    g = load_edge_list(cfg.input, cfg.format, cfg.directed)
    omega = _resolve_omega(cfg, g)
    return g, make_instance(g, omega, cfg.kappa)


def _resolve_omega(cfg: ExperimentConfig, g: Graph) -> list[int]:
    if cfg.omega_file:
        labels = [ln.strip() for ln in Path(cfg.omega_file).read_text().splitlines() if ln.strip()]
        missing = [lab for lab in labels if lab not in g.label_to_id]
        if missing:
            raise ValueError(f"omega labels not in graph: {missing[:5]}")
        return [g.label_to_id[lab] for lab in labels]
    if cfg.omega_ratio is not None:
        return sample_omega(g.n, cfg.omega_ratio, cfg.seed)
    return []


def _resolve_pairs(cfg: ExperimentConfig, g: Graph, inst) -> list[tuple[int, int]]:
    if cfg.pairs_file:
        pairs = []
        for ln in Path(cfg.pairs_file).read_text().splitlines():
            toks = ln.split()
            if not toks:
                continue
            if len(toks) != 2:
                raise ValueError(f"pair line needs two labels: {ln!r}")
            missing = [lab for lab in toks if lab not in g.label_to_id]
            if missing:
                raise ValueError(f"pair label {missing[0]!r} not in graph")
            pairs.append((g.label_to_id[toks[0]], g.label_to_id[toks[1]]))
        if not pairs:
            raise ValueError("empty pairs file")
        return pairs
    if cfg.pairs:
        sampled, _ = sample_feasible_pairs(inst, cfg.pairs, cfg.seed)
        return sampled
    raise ValueError("random-walk betweenness needs --pairs N or --pairs-file")


def compute_measure(cfg: ExperimentConfig, g: Graph, inst) -> ScoreVector:
    measure = cfg.measure
    if measure == "soc-katz":
        return soc_katz(inst, KatzParams(cfg.alpha))
    if measure == "katz":
        return standard_katz(g, KatzParams(cfg.alpha))
    if measure == "soc-bc":
        return soc_betweenness(inst, cfg.endpoints)
    if measure == "bc":
        return standard_betweenness(g, cfg.endpoints)
    pairs = _resolve_pairs(cfg, g, inst)
    if measure == "soc-rwbc":
        return soc_rwbc(inst, pairs)
    if measure == "rwbc":
        return rwbc_all_pairs(g, pairs)
    raise ValueError(f"--measure must be one of {MEASURES}")


def run_simulation(cfg: ExperimentConfig, g: Graph, inst) -> ScoreVector:
    if cfg.sim == "sir":
        if cfg.alpha is None:
            raise ValueError("sir needs --alpha (transmission probability)")
        return sir_influence(inst, SirParams(alpha=cfg.alpha, runs=cfg.runs, seed=cfg.seed))
    if cfg.sim == "hopping":
        pairs = tuple(_resolve_pairs(cfg, g, inst)) if cfg.pairs_file or cfg.pairs else None
        return particle_hopping(
            inst,
            HoppingParams(
                policy=cfg.policy,
                duration=cfg.duration,
                injection_rate=cfg.injection_rate,
                seed=cfg.seed,
                pairs=pairs,
                max_injections=cfg.max_injections,
            ),
        )
    raise ValueError(f"--sim must be one of {SIMULATIONS}")


def _embedded(cfg: ExperimentConfig) -> dict:
    """The configuration written into outputs; where they go is not part of a run's identity."""
    embedded = asdict(cfg)
    del embedded["out"]
    return embedded


def _write_scores(sv: ScoreVector, cfg: ExperimentConfig, out: Path, stem: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    sv.meta["config"] = _embedded(cfg)
    sv.meta["version"] = __version__
    csv = out / f"{stem}.csv"
    sv.write_csv(csv)
    Path(out / f"{stem}.meta.json").write_text(
        json.dumps(sv.meta, sort_keys=True, indent=2) + "\n"
    )
    return csv


def cmd_centrality(cfg: ExperimentConfig) -> int:
    if cfg.state_dump and cfg.measure != "soc-bc":
        raise ValueError("--state-dump applies to soc-bc only")
    g, inst = _load_instance(cfg)
    if cfg.state_dump:
        bc = soc_betweenness_scores(inst, cfg.endpoints)
        sv = bc.node_vector(inst)
    else:
        sv = compute_measure(cfg, g, inst)
    if cfg.verify:
        code = _verify(cfg, g, inst, sv)
        if code:
            return code
    out = Path(cfg.out)
    _write_scores(sv, cfg, out, "scores")
    if cfg.state_dump:
        _write_state_dump(inst, bc, out)
    print(f"wrote {out / 'scores.csv'} ({len(sv)} nodes)")
    return 0


def _write_state_dump(inst, bc: BcScores, out: Path) -> None:
    g, kappa = inst.graph, inst.kappa
    # Block b of the states holds charge kappa - b.
    levels = bc.state_scores.reshape(kappa + 1, g.n)
    with open(out / "scores.states.csv", "w") as fh:
        fh.write("node_label,charge,score\n")
        for b, row in enumerate(levels):
            for node, score in enumerate(row):
                fh.write(f"{g.labels[node]},{kappa - b},{float(score)!r}\n")


def _verify(cfg: ExperimentConfig, g: Graph, inst, sv: ScoreVector) -> int:
    budget = OracleBudget()
    if cfg.measure == "soc-bc":
        ref = brute_soc_bc(inst, cfg.endpoints, budget)
    elif cfg.measure == "soc-katz":
        alpha = sv.meta["alpha"]
        ref = dense_soc_katz(inst, alpha)
    else:
        raise ValueError("--verify supports soc-bc and soc-katz")
    worst = float(np.max(np.abs(ref.values - sv.values)))
    ok = worst <= 1e-8
    print(f"verify {cfg.measure}: max |kernel - oracle| = {worst:.3e} -> {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 2


def cmd_simulate(cfg: ExperimentConfig) -> int:
    g, inst = _load_instance(cfg)
    out = Path(cfg.out)
    _write_scores(run_simulation(cfg, g, inst), cfg, out, "realized")
    print(f"wrote {out / 'realized.csv'} ({g.n} nodes)")
    return 0


def _sibling_meta(csv_path: Path) -> dict:
    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    if meta_path.exists():
        return json.loads(meta_path.read_text())
    return {}


def _correlate_files(expected: Path, realized: Path) -> dict:
    sv_e = ScoreVector.read_csv(expected)
    sv_r = ScoreVector.read_csv(realized)
    y, z = align_scores(sv_e, sv_r)
    meta_e = _sibling_meta(expected)
    meta_r = _sibling_meta(realized)
    cfg = meta_e.get("config", meta_r.get("config", {}))
    report = {
        "tau": float(kendall_tau(y, z)),
        "n": len(y),
        "measure": meta_e.get("measure", "unknown"),
        "simulation": meta_r.get("simulation", "unknown"),
        "expected": str(expected),
        "realized": str(realized),
    }
    for key in ("omega_ratio", "kappa", "seed"):
        if key in cfg:
            report[key] = cfg[key]
    return report


def cmd_correlate(args: argparse.Namespace) -> int:
    if args.batch:
        return _correlate_batch(Path(args.batch), Path(args.out or args.batch))
    if not (args.expected and args.realized):
        raise ValueError("need --expected and --realized, or --batch")
    report = _correlate_files(Path(args.expected), Path(args.realized))
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _correlate_batch(root: Path, out: Path) -> int:
    rows = []
    for ratio_dir in sorted(root.glob("ratio_*")):
        ratio = float(ratio_dir.name.split("_", 1)[1])
        taus = []
        for rep_dir in sorted(ratio_dir.glob("rep_*")):
            exp, real = rep_dir / "expected.csv", rep_dir / "realized.csv"
            if not (exp.exists() and real.exists()):
                continue
            taus.append(_correlate_files(exp, real)["tau"])
        if taus:
            q = np.quantile(taus, [0.0, 0.25, 0.5, 0.75, 1.0])
            rows.append((ratio, len(taus), *q))
    if not rows:
        raise ValueError(f"no ratio_*/rep_*/ score pairs under {root}")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    with open(path, "w") as fh:
        fh.write("ratio,reps,tau_min,tau_q1,tau_median,tau_q3,tau_max\n")
        for ratio, k, *qs in rows:
            fh.write(f"{ratio!r},{k}," + ",".join(repr(float(x)) for x in qs) + "\n")
    print(f"wrote {path} ({len(rows)} ratios)")
    return 0


def _ratio_key(ratio: float) -> int:
    """The ratio's part of a repetition's seed; a sweep's ratios must not share one."""
    return int(ratio * 1000)


def _run_rep(task: tuple) -> tuple[float, int, float]:
    cfg_dict, ratio, rep = task
    cfg = ExperimentConfig(**cfg_dict)
    g = load_edge_list(cfg.input, cfg.format, cfg.directed)
    rep_seed = int(np.random.SeedSequence([cfg.seed, _ratio_key(ratio), rep]).generate_state(1)[0])
    omega = sample_omega(g.n, ratio, rep_seed)
    inst = make_instance(g, omega, cfg.kappa)
    rep_cfg = ExperimentConfig(**dict(cfg_dict, seed=rep_seed, omega_ratio=ratio))
    out = Path(cfg.out) / f"ratio_{ratio}" / f"rep_{rep:02d}"
    expected = compute_measure(rep_cfg, g, inst)
    _write_scores(expected, rep_cfg, out, "expected")
    realized = run_simulation(rep_cfg, g, inst)
    _write_scores(realized, rep_cfg, out, "realized")
    y, z = align_scores(expected, realized)
    return ratio, rep, kendall_tau(y, z)


def cmd_experiment(cfg: ExperimentConfig) -> int:
    if not cfg.measure or not cfg.sim:
        raise ValueError("experiment needs --measure and --sim")
    if cfg.sim == "sir" and cfg.alpha is None:
        raise ValueError("sir needs --alpha")
    for name in ("reps", "workers"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"--{name} must be at least 1, not {getattr(cfg, name)}")
    ratios = [float(r) for r in (cfg.ratios or "0.1").split(",")]
    keys = [_ratio_key(r) for r in ratios]
    if len(set(keys)) != len(keys):
        raise ValueError(
            f"ratios {ratios} repeat a seed key int(ratio * 1000); space them at least 0.001 apart"
        )
    tasks = [(asdict(cfg), r, k) for r in ratios for k in range(cfg.reps)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_rep, tasks))
    else:
        results = [_run_rep(t) for t in tasks]
    results.sort(key=lambda r: (r[0], r[1]))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "taus.csv", "w") as fh:
        fh.write("ratio,rep,tau\n")
        for ratio, rep, tau in results:
            fh.write(f"{ratio!r},{rep},{tau!r}\n")
    meta = {"config": _embedded(cfg), "version": __version__}
    (out / "experiment.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    _correlate_batch(out, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "correlate":
            return cmd_correlate(args)
        cfg = _resolve(args)
        if args.command == "centrality":
            return cmd_centrality(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_experiment(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
