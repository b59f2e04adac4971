"""dtlab benchmark: one closed-loop client running a workload's operations.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

One process runs the workload's fixed operation list (see workloads.py) pass
after pass, each operation started when the last returns, until the next
pass would end after ``--seconds`` (two passes at least).  The first pass's outputs are audited by
independent oracles (oracles.py); every later pass must reproduce them byte
for byte.  An operation fails if it raises, exits non-zero, or fails its
check.

``--trace 0`` reports the end-to-end metrics: the median pass wall time, the
median set-up time of three fresh processes (interpreter start, imports,
input generation, warm-up), and the process's peak resident set.
``--trace 1`` runs one untraced and one traced pass and reports per-layer
metrics from spans around dtlab's public functions (spans.py), plus a LAPACK
baseline timed on the very matrices the traced pass handed to
``linalg.eigenvalues``.  Spans are written to perfbench/results/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120
TRACE_ACCOUNTED_MIN = 0.95


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_dtlab():
    """Import dtlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "dtlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dtlab

    if Path(dtlab.__file__).resolve().parent != (SRC / "dtlab").resolve():
        raise SystemExit(f"error: imported dtlab from {dtlab.__file__}, not {SRC}")
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    return dtlab


def setup(workload: str, seed: int, scratch: Path):
    """Imports, inputs from the seed and a toy-size warm-up of every operation."""
    import_dtlab()
    import workloads

    ops = workloads.build(workload, seed)
    for op in workloads.warmup_ops(workload, seed):
        try:
            op.run(scratch / "warmup" / op.name)
        except Exception:  # noqa: BLE001 - warm-up only pays first-call costs
            pass
    shutil.rmtree(scratch / "warmup", ignore_errors=True)
    return ops


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, from its launch to the end of set-up."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


# ----------------------------------------------------------------------------
# Passes


def _feed(h, obj) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


def digest(result, out: Path) -> str:
    h = hashlib.sha256()
    _feed(h, result)
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                h.update(path.name.encode())
                h.update(path.read_bytes())
    return h.hexdigest()


@dataclasses.dataclass
class Pass:
    wall_s: float
    cpu_s: float
    op_s: dict
    results: dict
    errors: dict
    digests: dict = dataclasses.field(default_factory=dict)
    bytes_written: int = 0


def cpu_time() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def release_freed_memory() -> None:
    """Hand freed heap pages back to the OS, as a fresh dtlab process starts.

    Otherwise whether one operation's large temporaries reuse pages that an
    earlier operation left behind changes from pass to pass, and the peak
    resident set flips between two values (280 or 430 MB on
    density-moments).
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def run_pass(ops, out_root: Path) -> Pass:
    """Run every operation once; the pass time is the sum of operation times."""
    op_s, results, errors = {}, {}, {}
    cpu = 0.0
    for op in ops:
        release_freed_memory()
        cpu0, t = cpu_time(), time.perf_counter()
        try:
            results[op.name] = op.run(out_root / op.name)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - t
        cpu += cpu_time() - cpu0
    done = Pass(sum(op_s.values()), cpu, op_s, results, errors)
    for op in ops:
        done.digests[op.name] = digest(results.get(op.name), out_root / op.name)
    done.bytes_written = sum(
        p.stat().st_size for p in out_root.rglob("*") if p.is_file()
    ) if out_root.is_dir() else 0
    return done


def audit(ops, passes: list[Pass], first_out: Path) -> dict[str, str]:
    """Failure reasons keyed by 'pass<i>/<op>'; pass 0 is checked by oracles."""
    import oracles

    failures = {}
    first = passes[0]
    for op in ops:
        key = f"pass0/{op.name}"
        if op.name in first.errors:
            failures[key] = first.errors[op.name]
            continue
        try:
            op.check(first.results[op.name], first_out / op.name)
        except Exception as exc:  # noqa: BLE001 - any checker error fails the op
            failures[key] = f"{type(exc).__name__}: {exc}"
    for i, later in enumerate(passes[1:], start=1):
        for op in ops:
            key = f"pass{i}/{op.name}"
            if op.name in later.errors:
                failures[key] = later.errors[op.name]
            elif f"pass0/{op.name}" in failures:
                failures[key] = "first pass failed, nothing verified to compare"
            elif later.digests[op.name] != first.digests[op.name]:
                failures[key] = "output differs from the first pass"
    return failures


# ----------------------------------------------------------------------------
# Environment record


def blas_record() -> dict:
    """BLAS build and the thread count of every OpenBLAS loaded in-process."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "config": info.get("openblas configuration"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = blas_record()
    if any(n > nproc for n in blas["threads"].values()):
        print(f"warning: BLAS threads {blas['threads']} exceed nproc {nproc}",
              file=sys.stderr)
    return {
        "nproc": nproc,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------------
# Metrics


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: [(m["name"], m["unit"]) for m in spec[key]]
            for key in ("end_to_end", "per_layer")}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, untraced: Pass, traced: Pass, lapack: dict) -> dict:
    from spans import LAYERS, TRACED

    st = tracer.self_times()
    m = {f"{mod}.{fn}.self_s": st.get(f"{mod}.{fn}", 0.0) for mod, fn, _ in TRACED}
    eig = "linalg.eigenvalues"
    m[f"{eig}.calls"] = tracer.calls(eig)
    m[f"{eig}.us_per_eig"] = 1e6 * ratio(st.get(eig, 0.0), tracer.counts(eig, "eigs"))
    m["linalg.lapack_eigvals_s"] = lapack["seconds"]
    m["linalg.lapack_ratio"] = ratio(st.get(eig, 0.0), lapack["seconds"])
    m["linalg.eig_rel_err"] = lapack["max_rel_err"]
    ppm = "measures.pair_proximity_mass"
    m[f"{ppm}.calls"] = tracer.calls(ppm)
    m[f"{ppm}.pairs"] = tracer.counts(ppm, "pairs")
    m[f"{ppm}.ns_per_pair"] = 1e9 * ratio(st.get(ppm, 0.0), m[f"{ppm}.pairs"])
    grid = "brown.brown_logdet_grid"
    m[f"{grid}.cells"] = tracer.counts(grid, "cells")
    m[f"{grid}.ms_per_cell"] = 1e3 * ratio(st.get(grid, 0.0), m[f"{grid}.cells"])
    m["ensembles.freeness_check.products"] = tracer.counts(
        "ensembles.freeness_check", "products")
    mc = "dyson.log_separation_integral_mc"
    m[f"{mc}.draws"] = tracer.counts(mc, "draws")
    m[f"{mc}.useful_ratio"] = ratio(tracer.counts(mc, "trials"), m[f"{mc}.draws"])
    m["dimension.rows_kept_ratio"] = ratio(
        tracer.counts("dimension.dimension_scan", "rows"),
        tracer.counts("dimension.dimension_scan", "eps"))
    m["cli.bytes_written"] = traced.bytes_written
    for sub in ("sample", "brown", "eeps", "selberg", "scan", "freeness"):
        m[f"cli.{sub}.wall_s"] = sum(
            s.duration for s in tracer.spans
            if s.name == "cli.main" and s.counts.get("subcommand") == sub)
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(
            sum(v for k, v in st.items() if k.startswith(layer + ".")), traced.wall_s)
    m["trace.wall_s"] = traced.wall_s
    m["trace.accounted_share"] = ratio(tracer.top_level_time(), traced.wall_s)
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    m["process.cpu_s"] = untraced.cpu_s
    return m


def lapack_baseline(captured: list) -> dict:
    """np.linalg.eigvals on the traced pass's eigenvalue inputs (best of 3)."""
    import numpy as np

    import oracles

    seconds, worst = 0.0, 0.0
    for a, lam in captured:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            ref = np.linalg.eigvals(a)
            best = min(best, time.perf_counter() - t)
        seconds += best
        worst = max(worst, oracles.matched_rel_err(lam, ref))
    return {"seconds": seconds, "max_rel_err": worst, "matrices": len(captured)}


# ----------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spectrum", "scan", "density-moments"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: set up, print the monotonic clock, exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        ops = setup(args.workload, args.seed, scratch)
        if args.probe_setup:
            print(repr(monotonic()))
            return 0
        own_setup_s = monotonic() - _PROCESS_T0
        return measure(args, ops, scratch, own_setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, ops, scratch: Path, own_setup_s: float) -> int:
    declared = declared_metrics()
    env = environment()
    setup_runs = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    out, first_out = scratch / "out", scratch / "first"
    passes: list[Pass] = []
    trace_record = None

    def keep_or_drop(done: Pass) -> None:
        passes.append(done)
        if len(passes) == 1:
            out.rename(first_out)
        else:
            shutil.rmtree(out, ignore_errors=True)

    start = time.perf_counter()
    if args.trace:
        from spans import Tracer

        captured = []
        keep_or_drop(run_pass(ops, out))
        tracer = Tracer(on_eigenvalues=lambda a, lam: captured.append((a, lam)))
        origin = time.perf_counter()
        tracer.install()
        try:
            traced = run_pass(ops, out)
        finally:
            tracer.remove()
        keep_or_drop(traced)
        lapack = lapack_baseline(captured)
        metrics = layer_metrics(tracer, passes[0], traced, lapack)
        trace_record = {"spans": tracer.as_records(origin), "lapack": lapack}
        names = declared["per_layer"]
    else:
        while True:
            keep_or_drop(run_pass(ops, out))
            elapsed = time.perf_counter() - start
            next_end = elapsed + statistics.median(p.wall_s for p in passes)
            if len(passes) >= MIN_PASSES and next_end > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": peak_rss_mb,
        }
        names = declared["end_to_end"]

    failures = audit(ops, passes, first_out)
    correct = not failures
    if args.trace and metrics["trace.accounted_share"] < TRACE_ACCOUNTED_MIN:
        correct = False
        print(f"trace accounts for only {metrics['trace.accounted_share']:.3f} "
              "of the traced pass", file=sys.stderr)
    for key, reason in failures.items():
        print(f"FAILED {key}: {reason}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_runs_s": setup_runs,
        "own_setup_s": own_setup_s,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "op_s": p.op_s}
                   for p in passes],
        "failures": failures,
    }
    if trace_record is not None:
        report.update(trace_record, metrics=metrics)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({k: v for k, v in report.items() if k != "spans"}))
    for name, unit in names:
        print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    attempted = len(ops) * len(passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
