"""Command-line entry point.

Subcommands: bound, calibrate, privatize, attack, simulate, thm1, ctr.
Option precedence is inline flags over config-file values over defaults,
and the fully resolved configuration is echoed as a JSON line before any
work runs. Numeric output on stdout uses 6 significant digits unless
--full-precision is passed; result files always carry full precision.
A harness's (simulate, thm1, ctr) flags and config keys are the fields of
its config class in `experiments`, with their defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import experiments, mechanisms, metrics
from .attacks import marginal_guess, spa
from .data import _write_rows, load_csv, load_csv_features
from .metrics import UtilitySpec
from .models import LogisticHyper, TrainingDivergedError, load_model

CHECK_EXIT = 3


def _fmt(value, full_precision: bool):
    if isinstance(value, float) and math.isfinite(value) and not full_precision:
        return float(f"{value:.6g}")
    return value


def _record(record: dict, full_precision: bool) -> str:
    return experiments._json_text({k: _fmt(v, full_precision) for k, v in record.items()})


def _marginal(text: str) -> np.ndarray:
    """--marginal's comma-separated numbers as a float64 vector."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"--marginal must be comma-separated numbers, got {text!r}") from None


def _type_name(default) -> str:
    if isinstance(default, tuple):
        return f"a list of {_type_name(default[0])}"
    return "str" if default is None else type(default).__name__


def _type_ok(value, default) -> bool:
    """Whether a config-file value has the type of its default: an int
    passes for a float, a list for a tuple, a bool for neither."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_type_ok(v, default[0]) for v in value)
    if isinstance(value, bool):
        return False
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _as_default_type(value, default):
    """A config-file value that passed _type_ok, in its default's type: a
    list becomes a tuple and an int for a float becomes that float, so a
    file value runs and echoes as its flag spelling does."""
    if isinstance(default, tuple):
        return tuple(_as_default_type(v, default[0]) for v in value)
    return float(value) if isinstance(default, float) else value


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Apply flag > config-file > default precedence for every known key."""
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in file_values.items():
            if not _type_ok(value, defaults[key]):
                raise ValueError(
                    f"config key {key!r} must be {_type_name(defaults[key])}, got {value!r}"
                )
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = _as_default_type(file_values[key], default)
        else:
            resolved[key] = default
    return resolved


def _echo(resolved: dict) -> None:
    print("resolved-config " + experiments._json_text(resolved, sort_keys=True))


def _options_given(args) -> dict:
    """A command's parsed options, less the subcommand, its handler and the
    stdout-only --full-precision: the configuration privatize and attack echo."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "full_precision")}


def _term(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{args.kind} bound needs --{name.replace('_', '-')}")
    return value


# bound --kind -> its value from the parsed flags.
BOUNDS = {
    "universal": lambda a: metrics.universal_bound(a.epsilon, a.delta, _term(a, "B")),
    "advantage": lambda a: metrics.advantage_bound(a.epsilon, a.delta, _term(a, "exp_sup")),
    "weak-threat": lambda a: metrics.advantage_bound(a.epsilon, a.delta, _term(a, "exp_sup")),
    "generalization": lambda a: metrics.bound_factor(a.epsilon, a.delta),
    "reconstruction": lambda a: metrics.reconstruction_bound(
        a.epsilon, a.delta, _term(a, "domain_size")),
    "hoeffding": lambda a: metrics.hoeffding_lower_bound(a.epsilon, _term(a, "n")),
}


def cmd_bound(args) -> int:
    # The privacy parameters and any given --B or --exp-sup are checked
    # before the kind runs, so a kind rejects a bad value of a flag it ignores.
    metrics.bound_factor(args.epsilon, args.delta)
    if args.B is not None:
        metrics.universal_bound(args.epsilon, args.delta, args.B)
    if args.exp_sup is not None:
        metrics.advantage_bound(args.epsilon, args.delta, args.exp_sup)
    record = {
        "kind": args.kind, "epsilon": args.epsilon, "delta": args.delta,
        "B": args.B, "exp_sup": args.exp_sup, "domain_size": args.domain_size,
        "n": args.n, "value": BOUNDS[args.kind](args),
    }
    print(_record(record, args.full_precision))
    return 0


def cmd_calibrate(args) -> int:
    result = metrics.calibrate_epsilon(args.advantage, args.delta, args.B)
    record = {
        "advantage": args.advantage, "delta": args.delta, "B": args.B,
        "epsilon": result.epsilon, "feasible": result.feasible, "note": result.note,
    }
    print(_record(record, args.full_precision))
    return 0 if result.feasible else 1


def cmd_privatize(args) -> int:
    _echo(_options_given(args))
    dataset = load_csv(args.input, args.label_column)
    report = mechanisms.release(
        args.mechanism, dataset, args.epsilon,
        LogisticHyper(iterations=args.iterations), args.seed, top_k=args.top_k,
    )
    labels, note = report.labels, report.params.note
    _write_rows(args.output, ["row_index", "private_label"], range(len(labels)), labels)
    experiments.write_manifest(args.output, {
        "mechanism": args.mechanism, "epsilon": args.epsilon,
        "seed": args.seed, "accounting_rule": note,
        "input": args.input, "label_column": args.label_column,
    })
    print(f"wrote {len(labels)} privatized labels to {args.output}")
    return 0


def cmd_attack(args) -> int:
    _echo(_options_given(args))
    model = load_model(args.model)
    k = model.num_classes
    if args.label_column is not None:
        dataset = load_csv(args.input, args.label_column)
        features, true_labels = dataset.features, dataset.labels
        if true_labels.max() >= k:
            raise ValueError(
                f"{args.input}: label {true_labels.max()} is out of range for the "
                f"{k} classes of model {args.model}"
            )
    else:
        features, true_labels = load_csv_features(args.input), None
    if model.num_features is not None and features.shape[1] != model.num_features:
        raise ValueError(
            f"{args.input} has {features.shape[1]} feature columns but model {args.model} "
            f"takes {model.num_features}"
        )
    marginal = _marginal(args.marginal) if args.marginal is not None else None
    if marginal is not None:
        if marginal.size != k:
            raise ValueError(
                f"--marginal has {marginal.size} entries but model {args.model} has {k} classes"
            )
        marginal = metrics.probability_vector(marginal)
    if args.utility == "weighted":
        if marginal is None:
            raise ValueError("weighted utility needs --marginal")
        spec = UtilitySpec.weighted(marginal)
    else:
        spec = UtilitySpec.zero_one()
    if args.attack == "spa":
        inferred = spa(model, features, spec)
    elif marginal is None:
        raise ValueError("marginal-guess attack needs --marginal")
    else:
        inferred = marginal_guess(marginal, features.shape[0], spec)
    rows = range(len(inferred))
    if true_labels is None:
        _write_rows(args.output, ["row_index", "inferred_label"], rows, inferred)
    else:
        _write_rows(args.output, ["row_index", "inferred_label", "true_label"],
                    rows, inferred, true_labels)
        eau = metrics.eau_empirical(inferred, true_labels, spec)
        print(_record({"attack": args.attack, "empirical_eau": eau}, args.full_precision))
    return 0


# Harness subcommand -> its help line and the names, in `experiments`, of
# its config class, runner, result columns and check, plus the noun of its
# "wrote" line. Names are looked up at call time, so a rebound module
# attribute (a test's monkeypatch, a tracer's wrapper) is the one that runs.
HARNESSES = {
    "simulate": ("Gaussian-mixture EAU/advantage study",
                 "SimulationConfig", "run_simulation", "SIMULATION_COLUMNS",
                 "check_simulation", "cells"),
    "thm1": ("RR majority-vote lower-bound demonstration",
             "Thm1Config", "run_thm1_demo", "THM1_COLUMNS", "check_thm1", "rows"),
    "ctr": ("skewed click-prediction study",
            "CtrConfig", "run_ctr", "CTR_COLUMNS", "check_ctr", "cells"),
}


def _options(command: str) -> dict:
    """Option name -> default of a harness: its config class's fields."""
    config = getattr(experiments, HARNESSES[command][1])
    return {f.name: f.default for f in dataclasses.fields(config)}


def _converter(default):
    """argparse type of an option, by _type_ok's rule: a tuple default takes
    comma-separated items of its first item's type, None takes a string."""
    if isinstance(default, tuple):
        item = _converter(default[0])

        def convert(text: str) -> tuple:
            return tuple(item(v) for v in text.split(","))

        convert.__name__ = f"{item.__name__} list"  # argparse names it in errors
        return convert
    return str if default is None else type(default)


def cmd_harness(args) -> int:
    _help, config_name, run_name, columns_name, check_name, noun = HARNESSES[args.command]
    options = _options(args.command)
    if getattr(args, "preset", None) == "fig1-reduced":
        options["trials"] = 100
    resolved = _resolve(args, options)
    _echo(resolved)
    config = getattr(experiments, config_name)(**resolved)
    results = getattr(experiments, run_name)(config)
    experiments.write_results(
        results, args.output, args.format,
        columns=getattr(experiments, columns_name),
        manifest=experiments.config_manifest(config),
    )
    print(f"wrote {len(results)} {noun} to {args.output}")
    if args.check:
        violations = getattr(experiments, check_name)(results)
        for v in violations:
            print("violation: " + v, file=sys.stderr)
        return CHECK_EXIT if violations else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labeldp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate a closed-form advantage bound")
    p.add_argument("--kind", default="universal", choices=list(BOUNDS))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--exp-sup", dest="exp_sup", type=float, default=None)
    p.add_argument("--domain-size", dest="domain_size", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("calibrate", help="invert the universal bound for epsilon")
    p.add_argument("--advantage", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("privatize", help="privatize the labels of a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--mechanism", default="rr", choices=["rr", "alibi", "lp2st"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=2)
    p.add_argument("--iterations", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("attack", help="run a label inference attack on a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--label-column", dest="label_column", default=None)
    p.add_argument("--attack", default="spa", choices=["spa", "marginal-guess"])
    p.add_argument("--utility", default="zero-one", choices=["zero-one", "weighted"])
    p.add_argument("--marginal", default=None, help="comma-separated marginal, e.g. 0.97,0.03")
    p.add_argument("--output", required=True)
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_attack)

    for command, (help_text, *_names) in HARNESSES.items():
        p = sub.add_parser(command, help=help_text)
        if command == "simulate":
            p.add_argument("--preset", choices=["fig1", "fig1-reduced"], default="fig1")
        p.add_argument("--config", default=None, help="JSON config file")
        for name, default in _options(command).items():
            flag = "--csv" if name == "csv_path" else "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=_converter(default), default=None)
        p.add_argument("--output", required=True)
        p.add_argument("--format", default="csv", choices=["csv", "structured-records"])
        p.add_argument("--check", action="store_true")
        p.set_defaults(func=cmd_harness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
