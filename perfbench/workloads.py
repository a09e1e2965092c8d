"""The two benchmark workloads: seeded inputs, the timed call, the verifier.

Every workload is a closed loop with one client.  Inputs are generated from
the seed before timing starts; the timed call receives only those inputs and
goes through spectralvol's public functions, looked up as module attributes
so that the tracer's wrappers see them.

Each workload exposes:

* ``op(i, two_threads=False)`` -- the i-th timed call; returns its output;
* ``count(output)`` -- how many operations (for ``ops_per_s``) it holds;
* ``group(output)`` -- what the call computed, for grouping equal work;
* ``verify(output)`` -- the number of those operations that failed a check,
  with the names of the failed checks;
* ``latency_calls`` -- how many timed calls the latency metrics use;
* ``latency_unit`` -- how many consecutive calls make one latency sample;
* ``trace_calls`` -- the fixed (index, two_threads) calls a traced pass makes;
* ``check_calls`` -- indices of untimed ``--threads 2`` calls an untraced run
  adds for the verifier.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import spectralvol.cli as cli
import spectralvol.estimators as est
import spectralvol.experiments as experiments
import spectralvol.likelihood as lik
import spectralvol.market as market

DEFAULT_SEED = 11
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Values may move in the last bits when a later change reorders sums (batched
# products, FFT transforms); a different optimizer may stop elsewhere inside
# its tolerance.  These bounds allow that and nothing statistical.
MC_RTOL = 1e-9
ESTIMATE_RTOL = 1e-9
MLE_PARAM_RTOL = 1e-4
MLE_LOGLIK_RTOL = 1e-7
# A fit counts as the maximum when at most this share of |L| is left to gain.
MLE_GAIN_RTOL = 1e-12


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


class McConfigs:
    """The five shipped configs at --threads 1, then contrast.cfg at --threads 2.

    One operation is one Monte Carlo replication.  The seed replaces the
    configs' base_seed through parse_config's seed override.
    """

    name = "mc_configs"
    CONFIGS = ("prop1", "prop2", "ina_bound", "consistency", "contrast")
    T2_CONFIG = "contrast"
    NUMERIC = ("true_value", "mean", "bias", "rmse", "se_mean", "std_err_mean",
               "std_err_var", "noise_mc_mean", "noise_exact", "bound_value")

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.paths = {c: str(root / "configs" / f"{c}.cfg") for c in self.CONFIGS}
        # One latency sample is a pass over the five configs: single config
        # runs of 0.2-0.4 s spread too much on a shared machine.
        self.latency_unit = len(self.CONFIGS)
        self.latency_calls = 6 * self.latency_unit
        self.trace_calls = [(i, False) for i in range(self.latency_unit)] + [(0, True)]
        self.check_calls = [0]
        self.reference = None
        self.t1_csv: dict[str, str] = {}

    def op(self, i: int, two_threads: bool = False) -> dict:
        config = self.T2_CONFIG if two_threads else self.CONFIGS[i % len(self.CONFIGS)]
        experiment, cfg = cli.parse_config(self.paths[config], self.seed, 2 if two_threads else 1)
        summary = experiments.run_experiment(experiment, cfg)
        buf = io.StringIO()
        summary.write_csv(buf)
        return {
            "config": config,
            "threads": cfg.threads,
            "csv": buf.getvalue(),
            "noise": cfg.noise,
            "replications": cfg.replications * len(cfg.n_schedule),
        }

    def count(self, output: dict) -> int:
        return output["replications"]

    def group(self, output: dict) -> str:
        return output["config"]

    def verify(self, output: dict) -> tuple[int, list[str]]:
        failed = []
        rows = list(csv.DictReader(io.StringIO(output["csv"])))
        if not rows:
            failed.append("rows_present")
        for row in rows:
            cells = [row[c] for c in self.NUMERIC if row[c] != ""]
            if not all(math.isfinite(float(v)) for v in cells):
                failed.append("finite")
            if row["noise_exact"] != "":
                noise = output["noise"]
                fresh = est.noise_expectation_exact(
                    row["kind"], int(row["n"]), int(row["m"]), noise.variance,
                    include_initial=noise.include_initial,
                    include_terminal=noise.include_terminal,
                )
                if not close(float(row["noise_exact"]), fresh, 1e-12):
                    failed.append("noise_exact_oracle")
        if output["threads"] == 1:
            self.t1_csv.setdefault(output["config"], output["csv"])
        elif output["csv"] != self.t1_csv.get(output["config"]):
            failed.append("threads_byte_identical")
        if self.reference is not None and not self._matches_reference(output, rows):
            failed.append("reference")
        return (output["replications"] if failed else 0), sorted(set(failed))

    def _matches_reference(self, output: dict, rows: list[dict]) -> bool:
        ref_rows = list(csv.DictReader(io.StringIO(self.reference["mc_configs"][output["config"]])))
        if len(ref_rows) != len(rows):
            return False
        for row, ref in zip(rows, ref_rows):
            for col, ref_value in ref.items():
                if col == "bound_satisfied":
                    continue
                if col in self.NUMERIC and ref_value != "":
                    if row[col] == "" or not close(float(row[col]), float(ref_value), MC_RTOL):
                        return False
                elif row[col] != ref_value:
                    return False
        return True

    def bound_flags_false(self, output: dict) -> int:
        return output["csv"].count(",false\n")

    def corrupt(self, output: dict) -> dict:
        lines = output["csv"].splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[6] = "nan"  # the `mean` column
        lines[1] = ",".join(cells)
        return dict(output, csv="".join(lines))

    def reference_values(self) -> dict:
        return {c: self.op(i)["csv"] for i, c in enumerate(self.CONFIGS)}


class DeskSeries:
    """One day's observed series per request, as time,value,latent,noise CSV text.

    Bar counts are the 1-minute, 15-second and 5-second bars of a 6.5-hour
    session, in blocks of three holding each count once, in seeded order.
    For each bar count the noise variances are log-uniform over the shipped
    configs' range, one from each of PER_SIZE equal strata in seeded order, and
    half of the series have a noisy first observation.  Stratifying keeps the
    share of hard fits (low noise at 390 bars, where the noise variance MLE
    sits on its zero boundary) about the same at every seed.  A pass is one
    block of three; the pool is cycled.  One operation is one request.
    """

    name = "desk_series"
    BAR_COUNTS = (390, 1560, 4680)
    NOISE_RANGE = (2.5e-5, 1e-2)
    VOL_LEVEL = 1.0
    PER_SIZE = 24
    POOL = PER_SIZE * len(BAR_COUNTS)
    TRACE_REQUESTS = 12

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        sizes = np.concatenate([rng.permutation(self.BAR_COUNTS) for _ in range(self.PER_SIZE)])
        log_lo, log_hi = (math.log(v) for v in self.NOISE_RANGE)
        draws = {}
        for n in self.BAR_COUNTS:
            u = (rng.permutation(self.PER_SIZE) + rng.random(self.PER_SIZE)) / self.PER_SIZE
            noisy = rng.permutation(np.arange(self.PER_SIZE) % 2 == 0)
            draws[n] = iter(zip(np.exp(log_lo + u * (log_hi - log_lo)), noisy))
        self.requests = []
        for i, n in enumerate(int(v) for v in sizes):
            nu, noisy_start = next(draws[n])
            path_seed, noise_seed = np.random.SeedSequence((seed, 1, i)).generate_state(2)
            scheme = market.EquidistantScheme(n)
            path = market.simulate_latent(
                market.ConstantVol(self.VOL_LEVEL), market.ZeroDrift(), scheme,
                refinement=1, rng_seed=int(path_seed),
            )
            obs = market.observe(
                path, market.NoiseModel(float(nu), include_initial=bool(noisy_start)), scheme,
                rng_seed=int(noise_seed),
            )
            buf = io.StringIO()
            market.write_observations_csv(obs, buf)
            self.requests.append(buf.getvalue())
        self.latency_calls = self.POOL
        self.latency_unit = 1
        self.trace_calls = [(i, False) for i in range(self.TRACE_REQUESTS)]
        self.check_calls = []
        self.reference = None
        self.unconverged_at_maximum = 0

    def op(self, i: int, two_threads: bool = False) -> dict:
        index = i % self.POOL
        obs = market.read_observations_csv(io.StringIO(self.requests[index]))
        dy = np.diff(obs.values)
        n = len(dy)
        m = int(math.floor(n**0.4))
        cosine = est.siml([dy], m).value[0, 0]
        sine = est.ina([dy], m).value[0, 0]
        fourier = est.mm_fourier_complex([obs], 0, m).value[0, 0]
        z = lik.spectral_transform(dy)
        init = lik.LikelihoodParams(c=lik.maximize_L1(z, m), nu=lik.noise_variance_estimate(z, n // 4))
        fit = lik.joint_mle(z, init)
        return {"index": index, "dy": dy, "m": m, "siml": cosine, "ina": sine,
                "fourier": fourier, "z": z, "init": init, "fit": fit}

    def count(self, output: dict) -> int:
        return 1

    def group(self, output: dict) -> int:
        return len(output["dy"])

    def verify(self, output: dict) -> tuple[int, list[str]]:
        failed = []
        dy, z, fit = output["dy"], output["z"], output["fit"]
        n = len(dy)
        outputs = np.array([output["siml"], output["ina"], output["fourier"].real,
                            output["fourier"].imag, fit.params.c, fit.params.nu,
                            fit.log_likelihood])
        if not (np.all(np.isfinite(outputs)) and np.all(np.isfinite(z.z))):
            failed.append("finite")
        energy = n * float(np.sum(dy**2))
        if not close(float(np.sum(z.z**2)), energy, 1e-10):
            failed.append("parseval")
        if not close(output["siml"], lik.maximize_L1(z, output["m"]), 1e-10):
            failed.append("siml_is_L1_maximizer")
        if not abs(output["fourier"].imag) <= 1e-12 * abs(output["fourier"].real):
            failed.append("fourier_q0_real")
        if fit.log_likelihood < lik.log_likelihood(z, output["init"]):
            failed.append("mle_not_below_init")
        if not self.mle_at_maximum(output):
            failed.append("mle_at_maximum")
        elif not fit.converged:
            self.unconverged_at_maximum += 1
        if self.reference is not None and not self._matches_reference(output):
            failed.append("reference")
        return (1 if failed else 0), failed

    @staticmethod
    def mle_at_maximum(output: dict) -> bool:
        """Whether the fit is the likelihood's maximum over c > 0, nu >= 0.

        Inside the domain the Hessian of L(c, nu) must be negative definite
        and a Newton step from the fit must gain at most MLE_GAIN_RTOL of |L|.
        On the boundary nu = 0 the likelihood peaks at c0 = mean(z_k^2); that
        point is the maximum when the nu-score there, proportional to
        sum a_k (z_k^2 - c0), is not positive, and the fit must then reach its
        likelihood.  joint_mle works in log c and log nu, so near or on the
        boundary it can stop at the maximum without meeting its stopping rule.
        """
        fit = output["fit"]
        z2 = output["z"].z ** 2
        n = len(z2)
        a = lik.a_coefficients(n)
        slack = MLE_GAIN_RTOL * abs(fit.log_likelihood)
        d = fit.params.c + a * fit.params.nu
        g = 0.5 * (z2 - d) / d**2
        h = 0.5 / d**2 - z2 / d**3
        grad = np.array([g.sum(), (a * g).sum()])
        hess = np.array([[h.sum(), (a * h).sum()], [(a * h).sum(), (a * a * h).sum()]])
        if np.all(np.linalg.eigvalsh(hess) < 0):
            if 0.5 * float(grad @ np.linalg.solve(-hess, grad)) <= slack:
                return True
        c0 = float(np.mean(z2))
        at_c0 = -0.5 * n * math.log(c0) - 0.5 * n
        return float(np.sum(a * (z2 - c0))) <= 0.0 and fit.log_likelihood >= at_c0 - slack

    def _matches_reference(self, output: dict) -> bool:
        ref = self.reference["desk_series"][output["index"]]
        fit = output["fit"]
        # Near the boundary nu is poorly determined; there it matches when the
        # fitted variances c + a_k nu (a_k < 4n) agree to MLE_PARAM_RTOL.
        nu_gap = 4 * len(output["dy"]) * abs(fit.params.nu - ref["nu"])
        return (
            close(output["siml"], ref["siml"], ESTIMATE_RTOL)
            and close(output["ina"], ref["ina"], ESTIMATE_RTOL)
            and close(output["fourier"].real, ref["fourier"], ESTIMATE_RTOL)
            and close(fit.params.c, ref["c"], MLE_PARAM_RTOL)
            and (close(fit.params.nu, ref["nu"], MLE_PARAM_RTOL)
                 or nu_gap <= MLE_PARAM_RTOL * ref["c"])
            and close(fit.log_likelihood, ref["loglik"], MLE_LOGLIK_RTOL)
        )

    def bound_flags_false(self, output: dict) -> int:
        return 0

    def corrupt(self, output: dict) -> dict:
        return dict(output, siml=output["siml"] * (1.0 + 1e-6))

    def reference_values(self) -> list[dict]:
        values = []
        for i in range(self.POOL):
            out = self.op(i)
            values.append({"siml": out["siml"], "ina": out["ina"], "fourier": out["fourier"].real,
                           "c": out["fit"].params.c, "nu": out["fit"].params.nu,
                           "loglik": out["fit"].log_likelihood})
        return values


WORKLOADS = {w.name: w for w in (McConfigs, DeskSeries)}
