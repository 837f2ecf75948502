"""Seeded benchmark of the chargecent pipeline, end to end and per layer.

One run (the interface ``BENCHMARK.json`` declares)::

    python3 perfbench/run.py --workload spread --seed 1 --seconds 15 --trace 0

All four workloads, each untraced then traced, each run in a fresh process;
prints every end-to-end metric per workload, then the per-layer metrics::

    python3 perfbench/run.py [--seed N] [--seconds S]

Smoke test (tiny inputs, a few seconds per run): checks that every metric of
``BENCHMARK.json`` is reported with its unit and that no op failed::

    python3 perfbench/run.py --smoke

A run writes its inputs from the seed, times set-up (``import chargecent``,
``load_edge_list`` and ``make_instance``) in fresh child processes, then
repeats passes of the workload's CLI invocations (``chargecent.cli.main``,
in-process, one worker) for about ``--seconds``. With ``--trace 1`` untraced
and traced passes alternate; the traced ones time calls into each module
(see ``spans.py``). Each pass writes the same output tree, which must be
byte-identical across passes; the last one is checked against independent
recomputations. The last stdout line is the JSON result. Scratch files go
to ``.perfbench/`` at the repository root.

Reported times (``wall_s``, ``setup_s`` and the per-layer seconds) are
wall-clock seconds scaled by a calibration kernel timed around each pass and
each set-up sample (see ``calibrate.py``), because the speed this machine
leaves to one process drifts far more than the bounds allow. The raw median
pass time is reported too, as ``bench.raw_wall_s`` in the traced run.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads (children inherit this).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 5
# At least two passes, so output identity is always compared; traced runs need two of each.
MIN_PASSES = {0: 2, 1: 4}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chargecent
g = chargecent.load_edge_list(sys.argv[2], "snap-tsv", False)
chargecent.make_instance(g, range(0, g.n, max(1, round(1 / float(sys.argv[4])))), int(sys.argv[3]))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[5])
import calibrate
print(setup, calibrate.Calibration().seconds())
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ[k] for k in THREAD_VARS},
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                           capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, check=True).stdout
            env["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    if env["dirty"]:
        print("warning: the working tree is dirty; results may not match the commit", file=sys.stderr)
    return env


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def setup_time(inp) -> tuple[float, float]:
    """Set-up wall time in a fresh interpreter, and the calibration kernel's time after it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(inp.graph), str(inp.kappa), str(inp.ratio),
         str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    setup, kernel = proc.stdout.split()[-2:]
    return float(setup), float(kernel)


class Ops:
    """Attempted and failed ops: CLI invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def run_pass(cli_main, commands, ops: Ops, tracer=None) -> float:
    """Run one pass of CLI invocations; return their summed wall time."""
    wall = 0.0
    for argv in commands:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    rc = tracer.call("cli", cli_main, (argv,), {})
        except Exception:  # a crash is a failed op, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        wall += time.perf_counter() - t0
        ops.record(rc == 0, f"chargecent {' '.join(argv)} -> exit {rc}")
    return wall


def single_run(args) -> int:
    if not (SRC / "chargecent" / "__init__.py").is_file():
        print(f"error: no chargecent sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    try:
        import chargecent.cli
    except ImportError as exc:
        print(f"error: cannot import chargecent: {exc}", file=sys.stderr)
        return 1
    import calibrate
    import spans
    from workloads import WORKLOADS

    # The CLI configures INFO logging on first use; keep stderr to warnings.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    env = environment()
    calibration = calibrate.Calibration()  # its arrays stay resident: a fixed share of peak RSS
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inp = wl.generate(work / "input", args.seed, wl.sizes["smoke" if args.smoke else "full"])
    setup = [setup_time(inp) for _ in range(SETUP_REPS)]
    setup_cal = [t * calibrate.scale(k) for t, k in setup]

    out = work / "out"
    commands = wl.commands(inp, out)
    ops = Ops()
    walls: dict[bool, list[float]] = {False: [], True: []}  # raw seconds per pass
    cal_walls: dict[bool, list[float]] = {False: [], True: []}  # reference seconds
    tracers: list[spans.Tracer] = []
    absent: set[str] = set()
    digests = []
    kernel = [calibration.seconds()]  # brackets every pass
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(digests) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracers.append(spans.Tracer(pass_id=len(digests)))
            with spans.Instrumentation(tracers[-1]) as inst:
                wall = run_pass(chargecent.cli.main, commands, ops, tracers[-1])
            absent.update(inst.absent)
        else:
            wall = run_pass(chargecent.cli.main, commands, ops)
        kernel.append(calibration.seconds())
        factor = calibrate.scale((kernel[-2] + kernel[-1]) / 2)
        if traced:
            tracers[-1].scale = factor
        walls[traced].append(wall)
        cal_walls[traced].append(wall * factor)
        digests.append(tree_digest(out) if out.exists() else "")
        elapsed = time.perf_counter() - t_start
        if len(digests) >= MIN_PASSES[args.trace] and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops.record(len(set(digests)) == 1 and digests[0] != "",
               f"output tree identical across {len(digests)} passes")
    try:
        for name, ok, detail in wl.check(inp, out):
            ops.record(ok, f"{name}: {detail}")
    except Exception:  # a check that cannot run counts as one failed op
        traceback.print_exc()
        ops.record(False, "output checks raised")
    if absent:
        print(f"warning: absent from chargecent, reported as 0: {sorted(absent)}", file=sys.stderr)
    count_errors = set().union(*(t.count_errors for t in tracers))
    if count_errors:
        print(f"warning: counts unreadable from: {sorted(count_errors)}", file=sys.stderr)
    (work / "spans.json").write_text(json.dumps([sp for t in tracers for sp in t.spans]))

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(digests)} passes "
          f"in {elapsed:.1f} s")
    for name, samples in (("wall_s", cal_walls[False]), ("raw wall", walls[False]),
                          ("setup_s", setup_cal), ("raw setup", [t for t, _ in setup]),
                          ("calibration kernel", kernel)):
        q1, med, q3 = quartiles(samples)
        print(f"{name}: median {med:.4f} s over {len(samples)} samples (q1 {q1:.4f}, q3 {q3:.4f})")
    if args.trace:
        layers = [spans.layer_metrics(t.spans, t.scale) for t in tracers]
        run_level = {
            "cli.ops_attempted": ops.attempted,
            "cli.ops_failed": ops.failed,
            "bench.trace_overhead_frac":
                statistics.median(cal_walls[True]) / statistics.median(cal_walls[False]) - 1,
            "bench.raw_wall_s": statistics.median(walls[False]),
            "bench.calibration_s": statistics.median(kernel),
        }
        metrics = {name: {"value": run_level[name] if name in run_level
                          else statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(cal_walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_cal), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"failed_frac {ops.failed / ops.attempted:.4f} ratio ({ops.failed} of {ops.attempted} ops)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def all_runs(args) -> int:
    """Every workload untraced then traced, each in a fresh process; print and record."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (1 if args.smoke else declared["run_seconds"])
    results: dict[str, dict] = {}
    ok = True
    for name in [w["name"] for w in declared["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])

    def row(metric: str, unit: str, key: str) -> str:
        cells = []
        for name in results:
            m = results[name].get(key, {}).get("metrics", {}).get(metric)
            cells.append(f"{m['value']:>12.5g}" if m else f"{'-':>12}")
        return f"{metric:<36}{unit:>7}" + "".join(cells)

    header = f"{'metric':<36}{'unit':>7}" + "".join(f"{n:>12}" for n in results)
    print(header)
    for m in declared["end_to_end"]:
        print(row(m["name"], m["unit"], "trace0"))
    fracs = []
    for name in results:
        r = results[name].get("trace0", {"failed": 0, "attempted": 0})
        fracs.append(f"{r['failed'] / max(r['attempted'], 1):>12.5g}")
    print(f"{'failed_frac':<36}{'ratio':>7}" + "".join(fracs))
    print("\nper layer (traced run)\n" + header)
    for m in declared["per_layer"]:
        print(row(m["name"], m["unit"], "trace1"))
    WORK.mkdir(exist_ok=True)
    summary = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
               "env": environment(), "results": results}
    (WORK / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    if args.smoke:
        for section, key in (("end_to_end", "trace0"), ("per_layer", "trace1")):
            for m in declared[section]:
                for name in results:
                    got = results[name].get(key, {}).get("metrics", {}).get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        print(f"smoke: {name} {key} lacks {m['name']} [{m['unit']}]", file=sys.stderr)
                        ok = False
        for name, runs in results.items():
            for key, r in runs.items():
                if r["failed"] or not r["correct"]:
                    print(f"smoke: {name} {key} failed {r['failed']} of {r['attempted']} ops",
                          file=sys.stderr)
                    ok = False
        print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload (omit to run all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = ap.parse_args(argv)
    if args.workload is None:
        return all_runs(args)
    if args.seconds is None:
        ap.error("--seconds is required with --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
