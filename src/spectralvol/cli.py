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
from .errors import SpectralVolError
from .estimators import (
    EstimatorKind,
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    result_csv_rows,
    siml,
)
from .experiments import ExperimentConfig, check_experiment, run_experiment
from .market import (
    ConstantDrift,
    ConstantVol,
    NoiseModel,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    read_observations_csv,
)

EX_OK = 0
EX_FAIL = 1
EX_IOERR = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_CONFIG = 78

CHECK_TOLERANCE = 1e-9


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
    est.add_argument("--q", type=int, default=0)

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
    pairs = [
        (basis_mod.BasisKind.SIML_COSINE, basis_mod.JacobiKind.JN, range(1, max_dim + 1)),
        (basis_mod.BasisKind.DST_SINE, basis_mod.JacobiKind.JN_TILDE_PRIME, range(1, max_dim + 1)),
        (basis_mod.BasisKind.FOURIER_REAL, basis_mod.JacobiKind.JN_TILDE, range(3, max_dim + 1, 2)),
    ]
    for kind, jac, dims in pairs:
        for dim in dims:
            b = basis_mod.build_basis(kind, dim).entries
            orth = float(np.max(np.abs(b.T @ b - np.eye(dim))))
            jmat = basis_mod.build_jacobi(jac, dim)
            lam = basis_mod.eigenvalues_closed_form(jac, dim)
            diag = float(np.max(np.abs(b.T @ jmat @ b - np.diag(lam))))
            yield kind.value, dim, orth, diag


def cmd_basis_check(max_dim: int, out_path: str) -> int:
    if max_dim < 3:
        print("error: --max-dim must be >= 3", file=sys.stderr)
        return EX_USAGE
    rows = list(_basis_check_rows(max_dim))
    try:
        with open(out_path, "w", newline="") as fh:
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
    try:
        with open(input_path, newline="") as fh:
            obs = read_observations_csv(fh)
    except OSError as exc:
        print(f"error: cannot read {input_path}: {exc}", file=sys.stderr)
        return EX_DATAERR
    except (SpectralVolError, ValueError) as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return EX_DATAERR
    if len(obs.values) < 2:
        print("error: need at least 2 rows", file=sys.stderr)
        return EX_DATAERR

    kind = EstimatorKind(kind)
    deltas = np.diff(obs.values)
    try:
        if kind is EstimatorKind.SIML:
            result = siml([deltas], m)
        elif kind is EstimatorKind.INA_SINE:
            result = ina([deltas], m)
        elif kind is EstimatorKind.MM_FOURIER_REAL_ZERO:
            result = mm_fourier_real_zero([deltas], m)
        else:
            result = mm_fourier_complex([obs], q, m)
    except SpectralVolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    for row in result_csv_rows(result):
        print(row)
    return EX_OK


_KNOWN_KEYS = {
    "simulation": {
        "vol",
        "vol_level",
        "breakpoints",
        "levels",
        "mean_level",
        "reversion_rate",
        "vol_of_vol",
        "initial_level",
        "drift",
        "drift_level",
        "n_schedule",
        "refinement",
    },
    "noise": {"variance", "include_initial", "include_terminal"},
    "estimators": {"kinds"},
    "experiment": {"type", "replications", "m_exponent", "base_seed", "threads"},
}


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def parse_config(path: str, seed_override=None, threads_override=None):
    """Parse the INI experiment config into (experiment_type, ExperimentConfig).

    Raises :class:`ConfigError` for a config the experiment cannot run, such
    as a cutoff out of range at some n or a design the study does not
    support.  The thread count is accepted and checked, but runs do not
    depend on it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for section in ("simulation", "noise", "estimators", "experiment"):
        if section not in parser:
            raise ConfigError(f"missing section [{section}]")

    sim = parser["simulation"]
    vol_name = sim.get("vol", "constant").strip().lower()
    if vol_name == "constant":
        vol = ConstantVol(_parse_float(sim.get("vol_level", "1.0")))
    elif vol_name == "piecewise":
        bps = tuple(_parse_float(v) for v in sim.get("breakpoints", "").split(",") if v.strip())
        lvs = tuple(_parse_float(v) for v in sim.get("levels", "").split(",") if v.strip())
        vol = PiecewiseVol(bps, lvs)
    elif vol_name == "ou":
        vol = OrnsteinUhlenbeckVol(
            mean_level=_parse_float(sim.get("mean_level", "1.0")),
            reversion_rate=_parse_float(sim.get("reversion_rate", "1.0")),
            vol_of_vol=_parse_float(sim.get("vol_of_vol", "0.5")),
            initial_level=_parse_float(sim.get("initial_level", "1.0")),
        )
    else:
        raise ConfigError(f"unknown vol model {vol_name!r}")

    drift_name = sim.get("drift", "zero").strip().lower()
    if drift_name == "zero":
        drift = ZeroDrift()
    elif drift_name == "constant":
        drift = ConstantDrift(_parse_float(sim.get("drift_level", "0.0")))
    else:
        raise ConfigError(f"unknown drift model {drift_name!r}")

    schedule = tuple(
        int(v.strip()) for v in sim.get("n_schedule", "").split(",") if v.strip()
    )
    if not schedule:
        raise ConfigError("simulation.n_schedule is required")

    noise_sec = parser["noise"]
    noise = NoiseModel(
        variance=_parse_float(noise_sec.get("variance", "0.0")),
        include_initial=_parse_bool(noise_sec.get("include_initial", "true")),
        include_terminal=_parse_bool(noise_sec.get("include_terminal", "true")),
    )

    kinds = tuple(
        EstimatorKind(v.strip())
        for v in parser["estimators"].get("kinds", "").split(",")
        if v.strip()
    )

    exp = parser["experiment"]
    experiment = exp.get("type", "").strip().lower()
    m_exp = exp.get("m_exponent", None)
    base_seed = int(exp.get("base_seed", "0"))
    threads = int(exp.get("threads", "1"))
    if seed_override is not None:
        base_seed = seed_override
    if threads_override is not None:
        threads = threads_override

    try:
        config = ExperimentConfig(
            kinds=kinds,
            n_schedule=schedule,
            vol=vol,
            drift=drift,
            noise=noise,
            replications=int(exp.get("replications", "100")),
            base_seed=base_seed,
            m_exponent=None if m_exp is None else _parse_float(m_exp),
            refinement=int(sim.get("refinement", "1")),
            threads=threads,
        )
        check_experiment(experiment, config)
    except SpectralVolError as exc:
        raise ConfigError(str(exc)) from exc
    return experiment, config


def cmd_experiment(config_path: str, out_dir: str, seed, threads) -> int:
    try:
        experiment, config = parse_config(config_path, seed, threads)
    except (ConfigError, SpectralVolError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG

    summary = run_experiment(experiment, config)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{experiment}.csv", "w", newline="") as fh:
            summary.write_csv(fh)
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
