"""Benchmark of the tuckervar package, measured from outside the package.

    python3 perfbench/run.py --workload nnm-bound --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the next operation starts only after
the previous one returned and was checked. Workloads are listed in
``workloads.NAMES`` and explained in README.md. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")
PACKAGE_MODULES = (
    "tuckervar",
    "tuckervar.tensor",
    "tuckervar.var",
    "tuckervar.initialization",
    "tuckervar.solver",
    "tuckervar.fit",
    "tuckervar.storage",
    "tuckervar.benchmark",
    "tuckervar.cli",
)
SETUP_REPEATS = 31

# end-to-end metric -> unit; every value except setup_s and peak_rss_mb is
# aggregated over the operations that passed their checks, see per_group
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "w_rel_err": "ratio",
    "nnm_rel_err": "ratio",
    "objective_final": "objective",
    "forecast_mse": "mse",
    "solver_converged_frac": "fraction",
    "peak_rss_mb": "MiB",
}
SIZE_METRICS = ("panel_csv_bytes", "model_bytes", "diagnostics_bytes")


# On a 2-vCPU VM, an 80x400 SVD with 2 OpenBLAS threads alternated between
# 0.37 s and 0.90 s in phases of several seconds, while 1 thread held
# 0.35 +- 0.02 s; the 2-thread phases doubled nnm-bound fit time for whole runs.
BLAS_THREADS = 1


def cap_blas_threads() -> int:
    """Cap BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_package() -> list:
    """Import tuckervar afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "tuckervar" or n.startswith("tuckervar.")]:
        del sys.modules[name]
    modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
    if not os.path.abspath(modules[0].__file__).startswith(SRC + os.sep):
        raise ImportError(f"tuckervar was imported from {modules[0].__file__}, not {SRC}")
    return modules


def environment(np, seed: int, threads: int, work_dir: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "work_dir": os.path.relpath(work_dir, ROOT),
    }


def closed_loop(workload, tracer, seconds: float, trace: bool) -> list[dict]:
    """Run operations until ``seconds`` have passed, and at least one
    ``workload.cycle`` of them. Operation i belongs to group
    i % ``workload.cycle`` (its true tensor on the fit workloads). With
    ``trace`` every other cycle is recorded, so the untraced ones give the
    overhead."""
    cycle = workload.cycle
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < cycle * (2 if trace else 1) or time.perf_counter() < deadline:
        i = len(ops)
        traced = trace and (i // cycle) % 2 == 0
        record = {"op": i, "group": i % cycle, "traced": traced, "failures": []}
        try:
            inputs = workload.make_input(i)
            with tracer.recording(i) if record["traced"] else contextlib.nullcontext():
                start = time.perf_counter()
                output = workload.run(inputs, tracer)
                record["op_s"] = time.perf_counter() - start
            record["values"], record["failures"], record["extra"] = workload.check(inputs, output)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            record["failures"] = ["raised an exception"]
        for failure in record["failures"]:
            print(f"operation {i} failed: {failure}", file=sys.stderr)
        ops.append(record)
    return ops


def per_group(ok: list[dict], value, stat=statistics.median) -> float:
    """Mean over groups of ``stat`` of ``value(record)`` within each group,
    so that how many operations of each group a run holds does not count."""
    groups: dict[int, list[float]] = {}
    for r in ok:
        groups.setdefault(r["group"], []).append(value(r))
    return statistics.fmean(stat(v) for v in groups.values())


def end_to_end(ok: list[dict], setup_s: list[float]) -> dict:
    def median(key):
        return per_group(ok, lambda r: r["values"][key])

    values = {
        "setup_s": statistics.median(setup_s),
        "op_s": per_group(ok, lambda r: r["op_s"]),
        "w_rel_err": median("w_rel_err"),
        "nnm_rel_err": median("nnm_rel_err"),
        "objective_final": median("objective_final"),
        "forecast_mse": median("forecast_mse"),
        "solver_converged_frac": per_group(
            ok, lambda r: r["values"]["converged"], statistics.fmean
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracing, ok: list[dict], spans: list) -> dict:
    summaries = tracing.summarize(spans)
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    metrics = {
        name: {"value": per_group(traced, lambda r: fn(summaries[r["op"]])), "unit": unit}
        for name, (unit, fn) in tracing.PER_LAYER.items()
    }
    for name in SIZE_METRICS:
        value = statistics.median(r["extra"].get(name, 0) for r in ok)
        metrics[f"storage.{name}"] = {"value": value, "unit": "bytes"}

    def op_s(r):
        return r["op_s"]

    ratio = per_group(traced, op_s) / per_group(plain, op_s) if plain else 1.0
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "tuckervar", "__init__.py")):
        print(f"perfbench: no tuckervar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous import's garbage is not set-up time
            start = time.perf_counter()
            modules = import_package()
            workload = workloads.make(args.workload)
            workload.setup(modules[0], args.seed)
            setup_s.append(time.perf_counter() - start)
        workload.prepare(work_dir)

        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, modules) if args.trace else (lambda: None)
        try:
            ops = closed_loop(workload, tracer, args.seconds, bool(args.trace))
        finally:
            restore()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ok = [r for r in ops if not r["failures"]]
    if not ok or (args.trace and not any(r["traced"] for r in ok)):
        print("perfbench: no operation passed its checks", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "env": environment(np, args.seed, threads, work_dir),
        "samples": len(ok),
        "traced_samples": sum(r["traced"] for r in ok),
    }
    if "seconds" in ok[0]["extra"]:
        info["subcommand_s"] = {
            name: statistics.median(r["extra"]["seconds"][name] for r in ok)
            for name in ok[0]["extra"]["seconds"]
        }
    print(json.dumps(info))
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}.trace.jsonl"))
        metrics = per_layer(tracing, ok, tracer.spans)
    else:
        metrics = end_to_end(ok, setup_s)
    failed = len(ops) - len(ok)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
