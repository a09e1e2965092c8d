"""Spectral estimators of integrated volatility under microstructure noise."""

from .basis import (
    BasisKind,
    JacobiKind,
    basis_columns,
    build_basis,
    build_jacobi,
    cosine_square_sum,
    eigenvalues_closed_form,
)
from .estimators import (
    EstimateResult,
    EstimatorKind,
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    noise_expectation_exact,
    noise_functional,
    siml,
)
from .experiments import (
    ExperimentConfig,
    McRow,
    McSummary,
    run_experiment,
)
from .likelihood import (
    LikelihoodDecomposition,
    LikelihoodParams,
    MleResult,
    PartitionChoice,
    SpectralCoefficients,
    a_coefficients,
    decompose,
    joint_mle,
    log_likelihood,
    maximize_L1,
    noise_variance_estimate,
    spectral_transform,
)
from .market import (
    ConstantDrift,
    ConstantVol,
    EquidistantScheme,
    LatentPath,
    NoiseModel,
    ObservationSeries,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    derive_seed,
    increments,
    observe,
    simulate_latent,
    simulate_latent_correlated,
)

__version__ = "0.1.0"
