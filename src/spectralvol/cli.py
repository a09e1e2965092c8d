"""Command-line front end.

Subcommands::

    spectralvol basis-check --max-dim D --out F
    spectralvol estimate --input F --kind K --m M [--q Q]
    spectralvol experiment --config F --out-dir D [--seed S] [--threads N]

Exit codes follow the sysexits convention: 0 success, 1 invariant or
assertion failure, 2 I/O failure, 64 usage error, 65 malformed data,
78 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from .errors import ResultOverflow, SpectralVolError
from .estimators import EstimatorKind, _real_estimate, mm_fourier_complex, result_csv_rows
from .experiments import ExperimentConfig, _study_name, check_experiment, run_experiment
from .market import (
    ConstantDrift,
    ConstantVol,
    NoiseModel,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    increments,
    read_observations_csv,
)

EX_OK = 0
EX_FAIL = 1
EX_IOERR = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_CONFIG = 78

CHECK_TOLERANCE = 1e-9

#: Largest ``basis-check --max-dim``: the sweep builds dense D x D matrices for
#: every D up to it, so its cost grows as D^4 (about 8 s at 513, 2 min at 1025).
MAX_CHECK_DIM = 1025


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spectralvol")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("basis-check", help="orthogonality/diagonalization self-check")
    check.add_argument("--max-dim", type=int, required=True)
    check.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="estimate integrated volatility from a CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--kind", required=True, choices=[k.value for k in EstimatorKind])
    est.add_argument("--m", type=int, required=True)
    est.add_argument("--q", type=int, default=0, help="frequency shift; mm_fourier_complex only")

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; changes neither the output nor how the work runs",
    )
    return parser


def _basis_check_rows(max_dim: int):
    for jac, kind in basis_mod.DIAGONALIZING_BASIS.items():
        odd = kind is basis_mod.BasisKind.FOURIER_REAL  # its Jacobi matrix needs odd dim >= 3
        for dim in range(3 if odd else 1, max_dim + 1, 2 if odd else 1):
            b = basis_mod.build_basis(kind, dim)
            orth = float(np.max(np.abs(b.T @ b - np.eye(dim))))
            jmat = basis_mod.build_jacobi(jac, dim)
            lam = basis_mod.eigenvalues_closed_form(jac, dim)
            diag = float(np.max(np.abs(b.T @ jmat @ b - np.diag(lam))))
            yield kind.value, dim, orth, diag


def cmd_basis_check(max_dim: int, out_path: str) -> int:
    if not 3 <= max_dim <= MAX_CHECK_DIM:
        print(f"error: --max-dim must be in [3, {MAX_CHECK_DIM}]", file=sys.stderr)
        return EX_USAGE
    try:
        with open(out_path, "w", newline="") as fh:
            rows = list(_basis_check_rows(max_dim))
            fh.write("kind,dim,orthogonality_error,diagonalization_error\n")
            for kind, dim, orth, diag in rows:
                fh.write(f"{kind},{dim},{orth!r},{diag!r}\n")
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EX_IOERR
    worst = max(max(orth, diag) for _, _, orth, diag in rows)
    print(f"basis-check: {len(rows)} rows, worst error {worst:.3e}")
    return EX_OK if worst < CHECK_TOLERANCE else EX_FAIL


def cmd_estimate(input_path: str, kind: str, m: int, q: int) -> int:
    kind = EstimatorKind(kind)
    if q and kind is not EstimatorKind.MM_FOURIER_COMPLEX:
        print(f"error: --q applies to mm_fourier_complex only, not {kind.value}", file=sys.stderr)
        return EX_USAGE
    try:
        with open(input_path, newline="", encoding="utf-8-sig") as fh:
            obs = read_observations_csv(fh)
        deltas = increments(obs)
    except OSError as exc:
        print(f"error: cannot read {input_path}: {exc}", file=sys.stderr)
        return EX_DATAERR
    except (SpectralVolError, ValueError) as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return EX_DATAERR
    try:
        if kind is EstimatorKind.MM_FOURIER_COMPLEX:
            result = mm_fourier_complex([obs], q, m)
        else:
            result = _real_estimate(kind, [deltas], m)
    except SpectralVolError as exc:  # the data's scale, or the arguments
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR if isinstance(exc, ResultOverflow) else EX_USAGE
    for row in result_csv_rows(result):
        print(row)
    return EX_OK


class ConfigError(Exception):
    pass


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _flag(text: str) -> bool:
    """true/yes/1/on or false/no/0/off, in any case, as configparser reads booleans."""
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"expected a boolean, got {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _listed(parse):
    """A parser of comma-separated items, each read by ``parse``; empty items are skipped."""
    return lambda text: tuple(parse(item.strip()) for item in text.split(",") if item.strip())


# Each section's keys, with the value an absent key takes and the parser of
# its text (configparser has stripped it).  The unknown-key check, the
# defaults and the parsing all read this table; no other list of keys exists.
_CONFIG_KEYS = {
    "simulation": {
        "vol": ("constant", str.lower),
        "vol_level": (1.0, _number),
        "breakpoints": ((), _listed(_number)),
        "levels": ((), _listed(_number)),
        "mean_level": (1.0, _number),
        "reversion_rate": (1.0, _number),
        "vol_of_vol": (0.5, _number),
        "initial_level": (1.0, _number),
        "drift": ("zero", str.lower),
        "drift_level": (0.0, _number),
        "n_schedule": ((), _listed(int)),
        "refinement": (1, int),
    },
    "noise": {
        "variance": (0.0, _number),
        "include_initial": (True, _flag),
        "include_terminal": (True, _flag),
    },
    "estimators": {"kinds": ((), _listed(EstimatorKind))},
    "experiment": {
        "type": ("", lambda text: _study_name(text.lower())),
        "replications": (100, int),
        "m_exponent": (None, _number),
        "base_seed": (0, int),
        "threads": (1, int),
    },
}


def parse_config(path: str, seed_override=None, threads_override=None):
    """Parse the INI experiment config into (experiment_type, ExperimentConfig).

    Raises :class:`ConfigError` for a key whose value does not parse (named
    as ``[section] key``, also when its model does not read it) and for a
    config the experiment cannot run, such as a cutoff out of range at some
    n or a design the study does not support.  The thread count is accepted
    and checked, but runs do not depend on it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - set(_CONFIG_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    v = {}  # every key of the table, parsed or at its default
    for section, keys in _CONFIG_KEYS.items():
        if section not in parser:
            raise ConfigError(f"missing section [{section}]")
        for key, (default, parse) in keys.items():
            text = parser[section].get(key)
            try:
                v[key] = default if text is None else parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    for section, key in (("simulation", "n_schedule"), ("estimators", "kinds"),
                         ("experiment", "type")):
        if not v[key]:
            raise ConfigError(f"[{section}] {key} is required")
    try:
        if v["vol"] == "constant":
            vol = ConstantVol(v["vol_level"])
        elif v["vol"] == "piecewise":
            vol = PiecewiseVol(v["breakpoints"], v["levels"])
        elif v["vol"] == "ou":
            vol = OrnsteinUhlenbeckVol(v["mean_level"], v["reversion_rate"], v["vol_of_vol"],
                                       v["initial_level"])
        else:
            raise ConfigError(f"[simulation] vol: unknown model {v['vol']!r}")

        if v["drift"] == "zero":
            drift = ZeroDrift()
        elif v["drift"] == "constant":
            drift = ConstantDrift(v["drift_level"])
        else:
            raise ConfigError(f"[simulation] drift: unknown model {v['drift']!r}")

        config = ExperimentConfig(
            kinds=v["kinds"], n_schedule=v["n_schedule"], vol=vol, drift=drift,
            noise=NoiseModel(v["variance"], v["include_initial"], v["include_terminal"]),
            replications=v["replications"], m_exponent=v["m_exponent"], refinement=v["refinement"],
            base_seed=v["base_seed"] if seed_override is None else seed_override,
            threads=v["threads"] if threads_override is None else threads_override,
        )
        check_experiment(v["type"], config)
    except SpectralVolError as exc:
        raise ConfigError(str(exc)) from exc
    return v["type"], config


def cmd_experiment(config_path: str, out_dir: str, seed, threads) -> int:
    try:
        experiment, config = parse_config(config_path, seed, threads)
        # The output is opened before the study runs, so a bad --out-dir fails at once.
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{experiment}.csv"
        with open(path, "w", newline="") as fh:
            try:
                summary = run_experiment(experiment, config)
                summary.write_csv(fh)
            except BaseException:  # a failed study leaves no partial CSV behind
                path.unlink()
                raise
    except (ConfigError, SpectralVolError) as exc:  # a bad config, or results that overflow
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EX_IOERR

    ok = summary.all_ok
    flags = " ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed in summary.checks)
    bounds = sum(1 for r in summary.rows if r.bound_satisfied is False)
    print(
        f"experiment={experiment} rows={len(summary.rows)} "
        f"bound_violations={bounds}{(' ' + flags) if flags else ''} "
        f"=> {'ok' if ok else 'FAIL'}"
    )
    return EX_OK if ok else EX_FAIL


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    if args.command == "basis-check":
        return cmd_basis_check(args.max_dim, args.out)
    if args.command == "estimate":
        return cmd_estimate(args.input, args.kind, args.m, args.q)
    return cmd_experiment(args.config, args.out_dir, args.seed, args.threads)


if __name__ == "__main__":
    sys.exit(main())
