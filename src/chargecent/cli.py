"""Command-line front end for reproducible centrality/simulation experiments.

Subcommands: ``centrality`` (expected scores), ``simulate`` (realized
scores), ``correlate`` (rank correlation of two score files, single or
batch), and ``experiment`` (ratio sweep with repetitions tying the other
three together). ``experiment`` takes the flags of ``simulate`` but the omega
ones, plus ``--measure``, ``--endpoints``, ``--ratios``, ``--reps`` and
``--workers``. A run checks all of its inputs before it writes anything. Every
output embeds the fully resolved configuration, and identical configurations
with identical seeds reproduce byte-identical files.

Exit codes: 0 success, 1 input error (a usage error too), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .betweenness import ENDPOINT_CONVENTIONS, soc_betweenness, soc_betweenness_scores, standard_betweenness
from .errors import NumericalError
from .generators import sample_omega
from .graph import FORMATS, Graph, GraphParseError, load_edge_list, records
from .katz import KatzParams, soc_katz, standard_katz
from .oracles import brute_soc_bc, dense_soc_katz
from .rwbc import rwbc_all_pairs, soc_rwbc
from .scores import ScoreVector, align_scores, kendall_tau
from .simulate import POLICIES, HoppingParams, SirParams, particle_hopping, sir_influence
from .statespace import SocInstance, make_instance, sample_feasible_pairs

logger = logging.getLogger(__name__)

MEASURES = ("soc-katz", "katz", "soc-bc", "bc", "soc-rwbc", "rwbc")
PAIR_MEASURES = ("soc-rwbc", "rwbc")  # the measures that take source-target pairs
SIMULATIONS = ("sir", "hopping")
Pairs = tuple[tuple[int, int], ...] | None  # source-target node ids; None where a run takes none


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


# Per field, the types its hint allows (a value's own type first, then None where allowed).
_TYPES = {name: typing.get_args(hint) or (hint,)
          for name, hint in typing.get_type_hints(ExperimentConfig).items()}

# Per ExperimentConfig field: the run subcommands that take it as a flag (c, s, e for
# centrality, simulate, experiment; upper case where that run requires it), its
# choices, its least value and its help. Every field is a config key of every run.
_FIELDS: dict[str, tuple[str, tuple[str, ...] | None, int | None, str | None]] = {
    "input": ("CSE", None, None, "edge-list file"),
    "format": ("cse", FORMATS, None, None),
    "directed": ("cse", None, None, None),
    "kappa": ("cse", None, 1, None),
    "omega_file": ("cs", None, None, "file with one refill node label per line"),
    "omega_ratio": ("cs", None, None, None),
    "seed": ("cse", None, 0, None),
    "measure": ("CE", MEASURES, None, None),
    "alpha": ("cse", None, None, "Katz damping factor (default 0.9 of the certified bound) "
                                 "or SIR transmission probability; experiment uses it as both"),
    "pairs": ("cse", None, 1, "number of sampled source-target pairs"),
    "pairs_file": ("cse", None, None, "file of 'source target' label pairs"),
    "sim": ("SE", SIMULATIONS, None, None),
    "runs": ("se", None, 1, None),
    "policy": ("se", POLICIES, None, None),
    "duration": ("se", None, 1, None),
    "injection_rate": ("se", None, None, None),
    "max_injections": ("se", None, 0, None),
    "ratios": ("e", None, None, "comma-separated refill ratios, e.g. 0.1,0.2"),
    "reps": ("e", None, 1, None),
    "workers": ("e", None, 1, None),
    "endpoints": ("ce", ENDPOINT_CONVENTIONS, None, None),
    "verify": ("c", None, None, "cross-check against the brute-force oracle (small inputs)"),
    "state_dump": ("c", None, None, "also write per-(node, charge) scores (soc-bc only)"),
    "out": ("cse", None, None, None),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1): exit 2 means a numerical failure."""

    def error(self, message: str) -> typing.NoReturn:
        raise ValueError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="chargecent", description=__doc__)
    ap.add_argument("--version", action="version", version=f"chargecent {__version__}")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every run takes, declared once
    common.add_argument("--config", help="JSON file of option values, keyed pairs_file for --pairs-file")
    rest = []
    for name, (commands, choices, _, text) in _FIELDS.items():
        kind = _TYPES[name][0]
        # The metavar only shows the choices: _resolve checks them, with the config file's values.
        kwargs = ({"help": text, "action": "store_const", "const": True} if kind is bool else
                  {"help": text, "type": kind, "metavar": choices and "{" + ",".join(choices) + "}"})
        if commands.lower() == "cse":
            common.add_argument(_flag(name), **kwargs)
        else:
            rest.append((commands.lower(), _flag(name), kwargs))
    runs = {command[0]: sub.add_parser(command, help=text, parents=[common])
            for command, text in (("centrality", "compute expected centrality scores"),
                                  ("simulate", "run a realized-centrality simulation"),
                                  ("experiment", "ratio sweep with repetitions"))}
    for commands, flag, kwargs in rest:
        for c in commands:
            runs[c].add_argument(flag, **kwargs)

    r = sub.add_parser("correlate", help="rank-correlate expected vs realized scores")
    r.add_argument("--expected", help="expected-score CSV")
    r.add_argument("--realized", help="realized-score CSV")
    r.add_argument("--batch", help="experiment directory with ratio_*/rep_*/ runs")
    r.add_argument("--out")
    return ap


def _resolve(args: argparse.Namespace) -> tuple[ExperimentConfig, list[float]]:
    """Merge config file and flags (a flag wins), check every rule, and parse experiment's ratios."""
    file_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    unknown = set(file_cfg) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(input="")
    for name, (_, choices, least, _) in _FIELDS.items():
        value = getattr(args, name, None)
        if value is None and name in file_cfg:
            value = file_cfg[name]
            # JSON values have exact types: an int may stand for a float, a bool for no number.
            if not any(type(value) is t or (t is float and type(value) is int) for t in _TYPES[name]):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in _TYPES[name])
                raise ValueError(f"config key {name!r} must be {names}, not {value!r}")
        if value is None:
            continue
        if choices and value not in choices:
            raise ValueError(f"{_flag(name)} must be one of {', '.join(choices)}, not {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{_flag(name)} must be at least {least}, not {value}")
        setattr(cfg, name, value)
    run = args.command[0]
    for name, (commands, *_) in _FIELDS.items():
        if run.upper() in commands and not getattr(cfg, name):
            raise ValueError(f"{_flag(name)} is required (flag or config file)")
    for name, broken, message in (  # rules across fields, checked where the run takes the field
        ("sim", cfg.sim == "sir" and cfg.alpha is None, "sir needs --alpha (transmission probability)"),
        ("measure", cfg.measure in PAIR_MEASURES and not (cfg.pairs or cfg.pairs_file),
         "random-walk betweenness needs --pairs N or --pairs-file"),
        ("ratios", cfg.omega_file is not None or cfg.omega_ratio is not None,
         "experiment sweeps --ratios; it takes no omega_file or omega_ratio"),
        ("omega_file", cfg.omega_file is not None and cfg.omega_ratio is not None,
         "--omega-file and --omega-ratio both choose omega; give one of them"),
        ("omega_ratio", cfg.omega_ratio is not None and not _is_ratio(cfg.omega_ratio),
         f"--omega-ratio must be a number in (0, 1], not {cfg.omega_ratio}"),
        ("state_dump", cfg.state_dump and cfg.measure != "soc-bc", "--state-dump applies to soc-bc only"),
        ("verify", cfg.verify and cfg.measure not in ("soc-bc", "soc-katz"),
         "--verify supports soc-bc and soc-katz"),
    ):
        if broken and run in _FIELDS[name][0].lower():
            raise ValueError(message)
    # Building the parameters checks the Katz alpha and the simulation's values, before any load.
    if cfg.measure in ("soc-katz", "katz") and run in _FIELDS["measure"][0].lower():
        KatzParams(cfg.alpha)
    if run in _FIELDS["sim"][0].lower():
        _sim_params(cfg, None)
    return cfg, _sweep_ratios("0.1" if cfg.ratios is None else cfg.ratios) if run == "e" else []


def _sweep_ratios(text: str) -> list[float]:
    """The refill ratios of a sweep, each in (0, 1] and with a seed key of its own."""
    try:
        ratios = [float(r) for r in text.split(",")]
    except ValueError:
        ratios = []
    if not (ratios and all(map(_is_ratio, ratios))):
        raise ValueError(f"--ratios must be comma-separated numbers in (0, 1], not {text!r}")
    keys = [_ratio_key(r) for r in ratios]
    if len(set(keys)) != len(keys):
        raise ValueError(f"--ratios {ratios} share a seed key int(ratio * 1000); space them 0.001 apart")
    return ratios


def _is_ratio(r: float) -> bool:
    """Whether r is a refill ratio, a number in (0, 1]; false for nan."""
    return 0 < r <= 1


def _ratio_key(ratio: float) -> int:
    """The ratio's part of a repetition's seed; a sweep's ratios must not share one."""
    return int(ratio * 1000)


def _inputs(cfg: ExperimentConfig, g: Graph, takes_pairs: bool) -> tuple[SocInstance, Pairs]:
    """The run's instance and, where a consumer ``takes_pairs``, its source-target pairs."""
    ids = g.label_to_id
    if cfg.omega_file:
        omega = []
        for lineno, lab in records(Path(cfg.omega_file).read_text().splitlines(), None):
            if lab not in ids:
                raise GraphParseError(f"omega label {lab!r} not in graph", lineno)
            omega.append(ids[lab])
    else:
        omega = [] if cfg.omega_ratio is None else sample_omega(g.n, cfg.omega_ratio, cfg.seed)
    inst = make_instance(g, omega, cfg.kappa)
    if takes_pairs and cfg.pairs_file:
        pairs = []
        for lineno, line in records(Path(cfg.pairs_file).read_text().splitlines(), None):
            toks = line.split()
            if len(toks) != 2:
                raise GraphParseError(f"pair line needs two labels: {line!r}", lineno)
            missing = [lab for lab in toks if lab not in ids]
            if missing:
                raise GraphParseError(f"pair label {missing[0]!r} not in graph", lineno)
            if toks[0] == toks[1]:
                raise GraphParseError(f"pair line has the same source and target: {line!r}", lineno)
            pairs.append((ids[toks[0]], ids[toks[1]]))
        if not pairs:
            raise ValueError("empty pairs file")
        return inst, tuple(pairs)
    if takes_pairs and cfg.pairs:
        return inst, tuple(sample_feasible_pairs(inst, cfg.pairs, cfg.seed)[0])
    return inst, None


def compute_measure(cfg: ExperimentConfig, inst: SocInstance, pairs: Pairs) -> ScoreVector:
    measure = cfg.measure
    if measure == "soc-katz":
        return soc_katz(inst, KatzParams(cfg.alpha))
    if measure == "katz":
        return standard_katz(inst.graph, KatzParams(cfg.alpha))
    if measure == "soc-bc":
        return soc_betweenness(inst, cfg.endpoints)
    if measure == "bc":
        return standard_betweenness(inst.graph, cfg.endpoints)
    if measure == "soc-rwbc":
        return soc_rwbc(inst, pairs)
    return rwbc_all_pairs(inst.graph, pairs)


def _sim_params(cfg: ExperimentConfig, pairs: Pairs) -> SirParams | HoppingParams:
    """The parameters of the run's simulation; building them checks them."""
    if cfg.sim == "sir":
        return SirParams(alpha=cfg.alpha, runs=cfg.runs, seed=cfg.seed)
    return HoppingParams(policy=cfg.policy, duration=cfg.duration, injection_rate=cfg.injection_rate,
                         seed=cfg.seed, pairs=pairs, max_injections=cfg.max_injections)


def simulation(cfg: ExperimentConfig, inst: SocInstance, pairs: Pairs) -> ScoreVector:
    """The realized scores of the run's simulation."""
    params = _sim_params(cfg, pairs)
    return sir_influence(inst, params) if cfg.sim == "sir" else particle_hopping(inst, params)


def _embedded(cfg: ExperimentConfig) -> dict:
    """The configuration written into outputs; where they go is not part of a run's identity."""
    embedded = asdict(cfg)
    del embedded["out"]
    return embedded


def _write_scores(sv: ScoreVector, cfg: ExperimentConfig, out: Path, stem: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    sv.meta["config"] = _embedded(cfg)
    sv.meta["version"] = __version__
    sv.write_csv(out / f"{stem}.csv")
    (out / f"{stem}.meta.json").write_text(json.dumps(sv.meta, sort_keys=True, indent=2) + "\n")


def cmd_centrality(cfg: ExperimentConfig, g: Graph) -> int:
    inst, pairs = _inputs(cfg, g, cfg.measure in PAIR_MEASURES)
    if cfg.state_dump:
        state_scores, sv = soc_betweenness_scores(inst, cfg.endpoints)
    else:
        sv = compute_measure(cfg, inst, pairs)
    if cfg.verify:
        code = _verify(cfg, inst, sv)
        if code:
            return code
    out = Path(cfg.out)
    _write_scores(sv, cfg, out, "scores")
    if cfg.state_dump:
        _write_state_dump(inst, state_scores, out)
    print(f"wrote {out / 'scores.csv'} ({len(sv)} nodes)")
    return 0


def _write_state_dump(inst, state_scores: np.ndarray, out: Path) -> None:
    g, kappa = inst.graph, inst.kappa
    # Block b of the states holds charge kappa - b.
    levels = state_scores.reshape(kappa + 1, g.n)
    with open(out / "scores.states.csv", "w") as fh:
        fh.write("node_label,charge,score\n")
        for b, row in enumerate(levels):
            for node, score in enumerate(row):
                fh.write(f"{g.labels[node]},{kappa - b},{float(score)!r}\n")


def _verify(cfg: ExperimentConfig, inst, sv: ScoreVector) -> int:
    if cfg.measure == "soc-bc":
        ref = brute_soc_bc(inst, cfg.endpoints)
    else:  # soc-katz, the one other measure _resolve lets --verify check
        ref = dense_soc_katz(inst, sv.meta["alpha"])
    worst = float(np.max(np.abs(ref.values - sv.values)))
    ok = worst <= 1e-8
    print(f"verify {cfg.measure}: max |kernel - oracle| = {worst:.3e} -> {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 2


def cmd_simulate(cfg: ExperimentConfig, g: Graph) -> int:
    inst, pairs = _inputs(cfg, g, cfg.sim == "hopping")
    out = Path(cfg.out)
    _write_scores(simulation(cfg, inst, pairs), cfg, out, "realized")
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
        taus = []
        for rep_dir in sorted(ratio_dir.glob("rep_*")):
            exp, real = rep_dir / "expected.csv", rep_dir / "realized.csv"
            if exp.exists() and real.exists():
                taus.append(_correlate_files(exp, real)["tau"])
        if taus:
            rows.append((float(ratio_dir.name.split("_", 1)[1]), taus))
    if not rows:
        raise ValueError(f"no ratio_*/rep_*/ score pairs under {root}")
    _write_summary(out, rows)
    return 0


def _write_summary(out: Path, rows: list[tuple[float, list[float]]]) -> None:
    """summary.csv: per (ratio, taus) row, the repetitions and the quantiles of their taus."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    with open(path, "w") as fh:
        fh.write("ratio,reps,tau_min,tau_q1,tau_median,tau_q3,tau_max\n")
        for ratio, taus in rows:
            q = np.quantile(taus, [0.0, 0.25, 0.5, 0.75, 1.0])
            fh.write(f"{ratio!r},{len(taus)}," + ",".join(repr(float(x)) for x in q) + "\n")
    print(f"wrote {path} ({len(rows)} ratios)")


def _run_rep(task: tuple[Graph, ExperimentConfig, float, int]) -> tuple[float, int, float]:
    g, cfg, ratio, rep = task
    seed = int(np.random.SeedSequence([cfg.seed, _ratio_key(ratio), rep]).generate_state(1)[0])
    cfg = replace(cfg, seed=seed, omega_ratio=ratio)
    inst, pairs = _inputs(cfg, g, cfg.measure in PAIR_MEASURES or cfg.sim == "hopping")
    expected = compute_measure(cfg, inst, pairs)
    out = Path(cfg.out) / f"ratio_{ratio}" / f"rep_{rep:02d}"
    _write_scores(expected, cfg, out, "expected")
    realized = simulation(cfg, inst, pairs)
    _write_scores(realized, cfg, out, "realized")
    y, z = align_scores(expected, realized)
    return ratio, rep, kendall_tau(y, z)


def cmd_experiment(cfg: ExperimentConfig, g: Graph, ratios: list[float]) -> int:
    tasks = [(g, cfg, r, k) for r in ratios for k in range(cfg.reps)]
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
    taus: dict[float, list[float]] = {}
    for ratio, _, tau in results:
        taus.setdefault(ratio, []).append(tau)
    _write_summary(out, list(taus.items()))  # this run's repetitions only
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        if args.command == "correlate":
            return cmd_correlate(args)
        cfg, ratios = _resolve(args)
        g = load_edge_list(cfg.input, cfg.format, cfg.directed)
        if args.command == "centrality":
            return cmd_centrality(cfg, g)
        if args.command == "simulate":
            return cmd_simulate(cfg, g)
        return cmd_experiment(cfg, g, ratios)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
