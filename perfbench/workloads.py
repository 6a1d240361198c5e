"""The benchmark's workloads and the checks on their outputs.

Each workload draws the inputs of operation ``i`` from the run's seed
(untimed), calls into tuckervar once per operation (timed), then checks what
came back. ``check`` returns the operation's accuracy values, the list of
failed checks and extra per-operation numbers (file sizes, subcommand times).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

RANKS = (2, 2, 2)
SUPERDIAG = (2.0, 2.0)
NOISE = 0.5
# Box bound on the core. The true core diagonal is SUPERDIAG; at the default
# c=1 the core is clipped, the Tucker error stays flat in T (~0.9-1.1 over
# T=200..1600) and w_rel_err would measure the box bound, not the solver.
C = 2.0
ORTH_TOL = 1e-10
# relative slack for rounding when testing that the objective never increases
MONOTONE_SLACK = 1e-12
# CLI eval and benchmark.rolling_eval are bit-equal today; the slack admits
# only a change of summation order.
CROSS_PATH_RTOL = 1e-12


# FitWorkload cycles through the true tensors of the first four scenario
# seeds, operation i using TRUTH_SEEDS[i % 4], and draws the noise per
# operation. Fit time and accuracy differ between truths, so metrics are
# taken per truth and then averaged (see run.per_group); a run's mix of
# truths then does not move them.
TRUTH_SEEDS = (0, 1, 2, 3)


def op_seed_of(seed: int, i: int) -> int:
    """Seed of operation i."""
    return 1000 * seed + i


def unfold1(w: np.ndarray) -> np.ndarray:
    """Mode-1 unfolding [W_1 ... W_p] of an (m, m, p) tensor."""
    return w.transpose(0, 2, 1).reshape(w.shape[0], -1)


def lag_matrix(panel: np.ndarray, p: int, start: int) -> np.ndarray:
    """Rows (y_{t-1}, ..., y_{t-p}) for t = start .. len(panel) - 1."""
    end = panel.shape[0]
    return np.hstack([panel[start - lag : end - lag] for lag in range(1, p + 1)])


def check_estimate(w, core, factors, c: float, m: int, p: int) -> list[str]:
    failures = []
    if w.shape != (m, m, p) or not np.isfinite(w).all():
        failures.append(f"W_hat is not a finite ({m}, {m}, {p}) array")
    if float(np.max(np.abs(core))) > c:
        failures.append("a core entry exceeds the box bound c")
    defect = max(float(np.linalg.norm(a.T @ a - np.eye(a.shape[1]))) for a in factors)
    if defect > ORTH_TOL:
        failures.append(f"orthonormality defect {defect:.3e} exceeds {ORTH_TOL}")
    return failures


def check_monotone(trace) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    steps = np.diff(trace)
    if np.any(steps > MONOTONE_SLACK * np.maximum(1.0, np.abs(trace[:-1]))):
        return [f"solver objective increased by {float(steps.max()):.3e}"]
    return []


def rel_err(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def read_csv(path: str) -> np.ndarray:
    """Parse a numeric CSV with a header row, independently of tuckervar."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class FitWorkload:
    """``fit_panel`` on simulated panels of one size and one solver setting.

    Each panel has ``length`` training rows plus ``TAIL`` held-out rows that
    score one-step forecasts of the fitted model.
    """

    TAIL = 500
    cycle = len(TRUTH_SEEDS)

    def __init__(self, m: int, p: int, length: int, **solver) -> None:
        self.m, self.p, self.length, self.solver = m, p, length, solver

    def setup(self, tv, seed: int) -> None:
        self.tv, self.seed = tv, seed
        spec = tv.ScenarioSpec(
            m=self.m, p=self.p, ranks=RANKS, superdiag=SUPERDIAG, noise_scale=NOISE
        )
        self.truths = [tv.make_scenario(spec, s).w for s in TRUTH_SEEDS]
        self.covariance = NOISE**2 * np.eye(self.m)
        self.cfg = tv.StdgrConfig(c=C, **self.solver)

    def prepare(self, work_dir: str) -> None:
        pass

    def make_input(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        truth = self.truths[i % self.cycle]
        panel = self.tv.simulate(
            truth,
            self.covariance,
            length=self.length + self.TAIL,
            seed=op_seed_of(self.seed, i),
        )
        return truth, panel

    def run(self, inputs, tracer):
        _, panel = inputs
        return self.tv.fit_panel(panel[: self.length], self.p, self.cfg)

    def check(self, inputs, report):
        truth, panel = inputs
        result = report.result
        f = result.factors
        failures = check_estimate(
            report.w_hat, f.core, (f.a1, f.a2, f.a3), self.cfg.c, self.m, self.p
        )
        failures += check_monotone(result.objective_trace)
        if failures:
            return {}, failures, {}
        preds = lag_matrix(panel, self.p, self.length) @ unfold1(report.w_hat).T
        values = {
            "w_rel_err": rel_err(report.w_hat, truth),
            "nnm_rel_err": rel_err(report.nnm.w, truth),
            "objective_final": float(result.objective_trace[-1]),
            "forecast_mse": float(np.mean((panel[self.length :] - preds) ** 2)),
            "converged": float(result.converged),
        }
        return values, [], {}


class CliWorkload:
    """One in-process ``tuckervar.cli.main`` sequence per operation:
    simulate, fit, forecast, eval, rank-select and bench. The configs live in
    the run's work directory; each operation writes its files to a fresh
    ``op`` directory under it. On ext4, truncating or renaming over an
    existing file starts writeback of the new data, and after a few rounds
    each operation ran 0.5 s slower.

    ``simulate`` draws the truth and the noise from the operation's seed. The
    ``bench`` curve is the same in every operation (scenario seeds 0-3), so
    the accuracy values taken from it are exact functions of the code.
    """

    M, P, LENGTH = 30, 3, 20000
    HORIZON = 500
    TRAIN_FRACTION = 0.7
    BENCH_SCENARIO = {
        "m": 12,
        "p": 3,
        "ranks": list(RANKS),
        "superdiag": list(SUPERDIAG),
        "noise_scale": NOISE,
        "seeds": [0, 1, 2, 3],
        "sample_sizes": [200, 400, 800],
    }
    CURVE_HEADER = "method,T,upsilon,mean_error,stderr"
    cycle = 1

    def setup(self, tv, seed: int) -> None:
        self.tv, self.seed = tv, seed
        self.configs = {
            "simulate.json": {
                "scenario": {
                    "m": self.M,
                    "p": self.P,
                    "ranks": list(RANKS),
                    "superdiag": list(SUPERDIAG),
                    "noise_scale": NOISE,
                    "length": self.LENGTH,
                }
            },
            "bench.json": {"scenario": self.BENCH_SCENARIO, "solver": {"c": C}},
        }
        b = self.BENCH_SCENARIO
        spec = tv.ScenarioSpec(
            m=b["m"], p=b["p"], ranks=RANKS, superdiag=SUPERDIAG, noise_scale=NOISE
        )
        self.bench_truth_norm = float(
            np.mean([np.linalg.norm(tv.make_scenario(spec, s).w) for s in b["seeds"]])
        )

    def prepare(self, work_dir: str) -> None:
        """Write the config files (untimed, after set-up)."""
        self.dir = work_dir
        for name, doc in self.configs.items():
            with open(os.path.join(work_dir, name), "w") as handle:
                json.dump(doc, handle)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, "op", name)

    def make_input(self, i: int) -> int:
        op_dir = os.path.join(self.dir, "op")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.mkdir(op_dir)
        return op_seed_of(self.seed, i)

    def steps(self, op_seed: int) -> list[tuple[str, list[str]]]:
        panel, model = self.path("panel.csv"), self.path("model.json")
        p, frac = str(self.P), str(self.TRAIN_FRACTION)
        return [
            ("simulate", ["simulate", "--config", os.path.join(self.dir, "simulate.json"),
                          "--output", panel, "--seed", str(op_seed)]),
            ("fit", ["fit", "--input", panel, "--output", model, "--p", p, "--standardize",
                     "--train-fraction", frac, "--ranks", "2,2,2", "--c", str(C)]),
            ("forecast", ["forecast", "--model", model, "--input", panel, "--output",
                          self.path("forecast.csv"), "--horizon", str(self.HORIZON)]),
            ("eval", ["eval", "--model", model, "--input", panel, "--train-fraction", frac]),
            ("rank_select", ["rank-select", "--input", panel, "--p", p]),
            ("bench", ["bench", "--config", os.path.join(self.dir, "bench.json"),
                       "--output", self.path("curve.csv")]),
        ]

    def run(self, op_seed: int, tracer) -> dict:
        out = {"seconds": {}, "codes": {}, "stdout": {}}
        for name, argv in self.steps(op_seed):
            buf = io.StringIO()
            start = time.perf_counter()
            with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(buf):
                code = self.tv.cli.main(argv)
            out["seconds"][name] = time.perf_counter() - start
            out["codes"][name] = code
            out["stdout"][name] = buf.getvalue()
            if code not in (0, 2):
                break  # later subcommands read this one's files
        return out

    def check(self, op_seed: int, out: dict):
        codes = out["codes"]
        failures = [
            f"{name} exited {codes.get(name)}"
            for name, _ in self.steps(op_seed)
            if codes.get(name) not in (0, 2)
        ]
        if failures:
            return {}, failures, {}
        m, p = self.M, self.P

        with open(self.path("model.json")) as handle:
            doc = json.load(handle)
        core = np.reshape(doc["core"]["values"], doc["core"]["dims"], order="F")
        factors = tuple(
            np.reshape(doc[k]["values"], (doc[k]["rows"], doc[k]["cols"]), order="F")
            for k in ("a1", "a2", "a3")
        )
        w_hat = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        failures += check_estimate(w_hat, core, factors, C, m, p)

        with open(self.path("model.json.diagnostics.jsonl")) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        trace = [records[0]["objective_initial"]] + [r["objective"] for r in records[1:]]
        failures += check_monotone(trace)

        forecast = read_csv(self.path("forecast.csv"))
        if forecast.shape != (self.HORIZON, m) or not np.isfinite(forecast).all():
            failures.append(f"forecast CSV has shape {forecast.shape}, expected ({self.HORIZON}, {m})")

        eval_mse = json.loads(out["stdout"]["eval"])["mse"]
        library = self.tv.rolling_eval(
            read_csv(self.path("panel.csv")),
            self.TRAIN_FRACTION,
            p,
            self.tv.StdgrConfig(c=C, ranks=RANKS),
            standardize=True,
        )
        if not math.isclose(eval_mse, library.mse, rel_tol=CROSS_PATH_RTOL, abs_tol=0.0):
            failures.append(f"CLI eval MSE {eval_mse!r} != rolling_eval MSE {library.mse!r}")

        curve = self.read_curve()
        if curve is None:
            failures.append("bench curve CSV is malformed")
        if failures:
            return {}, failures, {}

        t_max = max(self.BENCH_SCENARIO["sample_sizes"])
        values = {
            "w_rel_err": curve[("graph_tucker", t_max)] / self.bench_truth_norm,
            "nnm_rel_err": curve[("nnm", t_max)] / self.bench_truth_norm,
            "objective_final": float(trace[-1]),
            "forecast_mse": float(eval_mse),
            "converged": float(codes["fit"] == 0),
        }
        extra = {
            "seconds": out["seconds"],
            "panel_csv_bytes": os.path.getsize(self.path("panel.csv")),
            "model_bytes": os.path.getsize(self.path("model.json")),
            "diagnostics_bytes": os.path.getsize(self.path("model.json.diagnostics.jsonl")),
        }
        return values, [], extra

    def read_curve(self) -> dict | None:
        """Mean absolute error per (method, T) from the bench curve CSV, or
        None unless it holds one finite row per method and sample size."""
        with open(self.path("curve.csv")) as handle:
            lines = handle.read().split()
        if not lines or lines[0] != self.CURVE_HEADER:
            return None
        rows = [line.split(",") for line in lines[1:]]
        curve = {(r[0], int(r[1])): float(r[3]) for r in rows}
        expected = {
            (method, t)
            for method in ("graph_tucker", "nnm")
            for t in self.BENCH_SCENARIO["sample_sizes"]
        }
        finite = all(math.isfinite(float(v)) for r in rows for v in r[2:])
        if set(curve) != expected or len(rows) != len(expected) or not finite:
            return None
        return curve


def make(name: str):
    """The workload called ``name``; see README.md for why each exists."""
    if name == "nnm-bound":
        return FitWorkload(m=80, p=5, length=1500, ranks="auto")
    if name == "solver-bound":
        # At tol=1e-5 the sweep count ranged 134-368 over noise draws of one
        # truth; to tol=1e-4 it is 41 on every draw of TRUTH_SEEDS, so fit
        # time measures the solver and not the seed.
        return FitWorkload(m=30, p=4, length=50000, ranks=RANKS, tol=1e-4, max_iter=500)
    if name == "cli-roundtrip":
        return CliWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("nnm-bound", "solver-bound", "cli-roundtrip")
