"""Command-line front end.

Subcommands: simulate, fit, forecast, eval, rank-select, bench.
Exit codes: 0 success (fit converged), 2 fit ran to the iteration cap,
64 usage error, 65 data format error, 70 internal error (a solver guarantee
broken).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import benchmark, var
from .fit import fit_panel
from .initialization import NnmConfig, nnm_estimate, ridge_constant, select_ranks
from .solver import StdgrConfig
from .storage import (
    PanelFormatError,
    atomic_write_text,
    load_model,
    model_document,
    read_panel_csv,
    save_diagnostics,
    save_model,
    write_panel_csv,
)
from .tensor import tucker_reconstruct
from .var import (
    build_design,
    mse,
    one_step_predictions,
    predict_one_step,
    simulate,
    spectral_radius,
    train_scaler,
)

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_MAX_ITER = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), which is taken
        raise UsageError(message)


# config section -> the dataclass it builds and the fields that flags override
# (each flag's dest is its field; the NNM's tol and max_iter have no flags)
_SECTIONS = {
    "scenario": (benchmark.ScenarioSpec, ()),
    "solver": (StdgrConfig, tuple(f.name for f in dataclasses.fields(StdgrConfig))),
    "nnm": (NnmConfig, ("lambda_nn",)),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise UsageError(f"unknown config sections: {sorted(unknown)}")
    for section, (cls, _) in _SECTIONS.items():
        settings = doc.get(section, {})
        if not isinstance(settings, dict):
            raise UsageError(f"config section '{section}' must be a JSON object")
        extra = set(settings) - {f.name for f in dataclasses.fields(cls)}
        if section == "scenario":
            extra.discard("length")  # the rows that simulate writes
        if extra:
            raise UsageError(f"unknown keys in config section '{section}': {sorted(extra)}")
    return doc


# argparse types for --ranks, --alpha and --gamma: they only split and convert,
# and StdgrConfig checks the count; argparse puts the flag before the message.
def _ranks_arg(text: str):
    if text == "auto":
        return text
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError('must be "auto" or three integers r1,r2,r3')


def _weights_arg(text: str):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number or a comma triple")
    return values[0] if len(values) == 1 else values


def _configured(section: str, config: dict, args=None):
    """The dataclass of a config section, built from the section's fields,
    each overridden by its flag when that was given; a bad value is a usage
    error that names its field."""
    cls, flags = _SECTIONS[section]
    # the scenario's length is not a field: simulate reads it itself
    settings = {k: v for k, v in config.get(section, {}).items() if k != "length"}
    settings.update((k, getattr(args, k)) for k in flags if getattr(args, k) is not None)
    try:
        return cls(**settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {section} configuration: {exc}")


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    spec = _configured("scenario", config)
    length = config["scenario"].get("length")
    if length is None:
        raise UsageError("scenario section must set 'length' (rows to write)")
    scenario = benchmark.make_scenario(spec, args.seed)
    panel = simulate(
        scenario.w, spec.covariance, length=length, seed=args.seed, burn_in=spec.burn_in
    )
    write_panel_csv(args.output, panel)
    truth = {
        "format": "tuckervar-truth",
        "m": spec.m,
        "p": spec.p,
        "ranks": list(spec.ranks),
        "superdiag_used": list(scenario.superdiag_used),
        "rescale_count": scenario.rescale_count,
        "noise_scale": spec.noise_scale,
        "seed": args.seed,
        "prng": var.PRNG_ALGORITHM,
        "w": [float(v) for v in scenario.w.ravel(order="F")],
    }
    atomic_write_text(args.output + ".truth.json", json.dumps(truth, indent=1) + "\n")
    print(f"wrote {length} rows to {args.output}")
    return EXIT_OK


def _read_panel(path: str) -> np.ndarray:
    try:
        _, panel = read_panel_csv(path)
    except OSError as exc:
        raise UsageError(f"cannot read panel: {exc}")
    return panel


def _require_rows(panel: np.ndarray, p: int) -> None:
    if panel.shape[0] < p + 2:
        raise PanelFormatError(f"panel has {panel.shape[0]} rows, need at least {p + 2}")


def _load_model(path: str) -> dict:
    try:
        return load_model(path)
    except (OSError, ValueError) as exc:
        raise PanelFormatError(f"cannot load model: {exc}")


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    cfg = _configured("solver", config, args)
    nnm_cfg = _configured("nnm", config, args)
    panel = _read_panel(args.input)
    _require_rows(panel, args.p)

    n_train = panel.shape[0]
    if args.train_fraction is not None:
        if not 0 < args.train_fraction <= 1:
            raise UsageError("train-fraction must lie in (0, 1]")
        n_train = int(args.train_fraction * panel.shape[0])
        if n_train < args.p + 2:
            raise PanelFormatError("training split too short for the lag order")
    train = panel[:n_train]

    scaler = None
    if args.standardize:
        mean, std = train_scaler(train)
        train = (train - mean) / std
        scaler = {"mean": mean, "std": std}

    report = fit_panel(train, args.p, cfg, nnm_cfg)
    save_model(args.output, model_document(report.result.factors, cfg, scaler))
    nnm = report.nnm
    save_diagnostics(
        args.output + ".diagnostics.jsonl",
        report.result,
        meta={
            "ranks": list(report.ranks),
            "ranks_selected": report.ranks_selected,
            "n_train": n_train,
            "nnm_iterations": nnm.iterations,
            "nnm_converged": nnm.converged,
            "lambda_nn": nnm.lambda_nn,
            "spectral_radius": spectral_radius(report.w_hat),
        },
    )
    if not nnm.converged:
        print(
            f"warning: the nuclear-norm initializer stopped after {nnm.iterations}"
            f" iterations without converging (nnm.max_iter={nnm_cfg.max_iter})",
            file=sys.stderr,
        )
    status = "converged" if report.result.converged else "hit the iteration cap"
    nnm_status = "converged" if nnm.converged else "did not converge"
    print(
        f"fit {status} after {report.result.iterations} iterations;"
        f" initializer {nnm_status} after {nnm.iterations} iterations;"
        f" ranks {report.ranks}; model written to {args.output}"
    )
    return EXIT_OK if report.result.converged else EXIT_MAX_ITER


def _apply_scaler(scaler: dict | None, panel: np.ndarray) -> np.ndarray:
    return panel if scaler is None else (panel - scaler["mean"]) / scaler["std"]


def cmd_forecast(args) -> int:
    model = _load_model(args.model)
    panel = _read_panel(args.input)
    w = tucker_reconstruct(model["factors"])
    m, _, p = w.shape
    if panel.shape[1] != m:
        raise UsageError(f"panel has {panel.shape[1]} variables, model expects {m}")
    if panel.shape[0] < p:
        raise UsageError(f"panel needs at least {p} rows to seed the forecast")
    if args.horizon < 1:
        raise UsageError("horizon must be >= 1")

    scaler = model["scaler"]
    scaled = _apply_scaler(scaler, panel)
    history = [scaled[-lag] for lag in range(1, p + 1)]
    preds = []
    # an overflowing forecast is reported below as a data error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(args.horizon):
            y = predict_one_step(w, np.concatenate(history))
            preds.append(y)
            history = [y] + history[: p - 1]
        preds = np.asarray(preds)
        if scaler is not None:
            preds = preds * scaler["std"] + scaler["mean"]
    finite = np.isfinite(preds).all(axis=1)
    if not finite.all():
        raise PanelFormatError(
            f"forecast step {int(np.argmin(finite)) + 1} is not finite; nothing written"
        )
    write_panel_csv(args.output, preds)
    print(f"wrote {args.horizon} forecast rows to {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.truth and args.pred:
        truth = _read_panel(args.truth)
        pred = _read_panel(args.pred)
        if truth.shape != pred.shape:
            raise UsageError(f"panel shapes differ: {truth.shape} vs {pred.shape}")
        value = mse(truth, pred)
        detail = {"mse": value, "n_test": int(truth.shape[0])}
    elif args.model and args.input:
        model = _load_model(args.model)
        panel = _read_panel(args.input)
        w = tucker_reconstruct(model["factors"])
        m, _, p = w.shape
        if panel.shape[1] != m:
            raise UsageError(f"panel has {panel.shape[1]} variables, model expects {m}")
        fraction = args.train_fraction if args.train_fraction is not None else 0.6
        if not 0 < fraction < 1:
            raise UsageError("train-fraction must lie in (0, 1)")
        scaled = _apply_scaler(model["scaler"], panel)
        n_train = int(fraction * scaled.shape[0])
        if n_train < p:
            raise UsageError("training split shorter than the lag order")
        preds = one_step_predictions(w, scaled, n_train)
        value = mse(scaled[n_train:], preds)
        detail = {"mse": value, "n_test": int(preds.shape[0]), "n_train": n_train}
    else:
        raise UsageError("eval needs either --truth and --pred, or --model and --input")
    text = json.dumps(detail)
    if args.output:
        atomic_write_text(args.output, text + "\n")
    print(text)
    return EXIT_OK


def cmd_rank_select(args) -> int:
    nnm_cfg = _configured("nnm", _load_config(args.config), args)
    panel = _read_panel(args.input)
    _require_rows(panel, args.p)
    design = build_design(panel, args.p)
    result = nnm_estimate(design, nnm_cfg)
    c_bar = ridge_constant(design.m, design.p, design.n_samples)
    ranks = select_ranks(result.w, c_bar)
    detail = {"ranks": list(ranks), "c_bar": c_bar, "nnm_converged": result.converged}
    text = json.dumps(detail)
    if args.output:
        atomic_write_text(args.output, text + "\n")
    print(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    spec = _configured("scenario", config)
    cfg = _configured("solver", config, args)
    nnm_cfg = _configured("nnm", config, args)
    rows = benchmark.error_curve(spec, cfg, nnm_cfg)
    lines = benchmark.curve_csv_lines(rows)
    atomic_write_text(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} curve rows to {args.output}")
    return EXIT_OK


def _add_solver_flags(parser) -> None:
    parser.add_argument("--ranks", type=_ranks_arg, help='"auto" or r1,r2,r3')
    parser.add_argument("--beta", type=float, help="core l1 weight")
    parser.add_argument(
        "--alpha", type=_weights_arg, help="graph weight, scalar or triple a1,a2,a3"
    )
    parser.add_argument(
        "--gamma", type=_weights_arg, help="coupling weight, scalar or triple g1,g2,g3"
    )
    parser.add_argument("--c", type=float, help="box bound on the core entries")
    parser.add_argument(
        "--abar1", dest="a_bar1", type=float, help="step multiplier for the gradient blocks"
    )
    parser.add_argument(
        "--abar2", dest="a_bar2", type=float, help="step multiplier for the auxiliary blocks"
    )
    parser.add_argument("--tol", type=float, help="relative-change stopping threshold")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
    parser.add_argument("--lambda-nn", dest="lambda_nn", type=float, help="nuclear-norm weight")
    parser.add_argument("--epsilon", type=float, help="Laplacian kernel bandwidth")


def build_parser() -> _Parser:
    parser = _Parser(prog="tuckervar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a synthetic panel")
    sim.add_argument("--config", required=True, help="JSON config with a scenario section")
    sim.add_argument("--output", required=True, help="panel CSV to write")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a transition tensor from a panel CSV")
    fit.add_argument("--input", required=True, help="panel CSV")
    fit.add_argument("--output", required=True, help="model file to write")
    fit.add_argument("--config", help="JSON config file")
    fit.add_argument("--p", type=int, required=True, help="lag order")
    fit.add_argument("--standardize", action="store_true")
    fit.add_argument("--train-fraction", dest="train_fraction", type=float)
    _add_solver_flags(fit)
    fit.set_defaults(func=cmd_fit)

    fc = sub.add_parser("forecast", help="multi-step forecast from a fitted model")
    fc.add_argument("--model", required=True)
    fc.add_argument("--input", required=True, help="panel CSV supplying the lags")
    fc.add_argument("--output", required=True, help="forecast CSV to write")
    fc.add_argument("--horizon", type=int, default=1)
    fc.set_defaults(func=cmd_forecast)

    ev = sub.add_parser("eval", help="mean squared error report")
    ev.add_argument("--truth", help="truth panel CSV")
    ev.add_argument("--pred", help="prediction panel CSV")
    ev.add_argument("--model", help="fitted model file")
    ev.add_argument("--input", help="panel CSV for held-out evaluation")
    ev.add_argument("--train-fraction", dest="train_fraction", type=float)
    ev.add_argument("--output", help="write the JSON report here as well")
    ev.set_defaults(func=cmd_eval)

    rs = sub.add_parser("rank-select", help="ridge-ratio rank selection")
    rs.add_argument("--input", required=True, help="panel CSV")
    rs.add_argument("--p", type=int, required=True, help="lag order")
    rs.add_argument("--config", help="JSON config file")
    rs.add_argument("--lambda-nn", dest="lambda_nn", type=float)
    rs.add_argument("--output")
    rs.set_defaults(func=cmd_rank_select)

    bench = sub.add_parser("bench", help="estimation-error curves on synthetic data")
    bench.add_argument("--config", required=True, help="JSON config with a scenario section")
    bench.add_argument("--output", required=True, help="curve CSV to write")
    _add_solver_flags(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PanelFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
