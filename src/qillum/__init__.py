"""Quantum-estimation toolkit for quantum illumination.

Computes the Fisher information of reflectivity estimation for arbitrary
Schmidt-form signal-idler transmitters, constructs the optimal local
estimator observable, and Monte Carlo-simulates the object-detection
hypothesis test with its error-probability exponents.
"""

from .fock import (DensityOperator, DimensionError, TruncationError,
                   annihilation, beamsplitter_unitary, eig_hermitian,
                   thermal_weights)
from .states import (SchmidtState, cat_idler_eigenvalues, cat_state,
                     cat_state_infinite_d, coherent, max_entangled_fock,
                     schmidt_decompose, state_from_family, tmsv)
from .qfi import (ConvergenceError, QfiReport, converge_cutoff, qfi_bounds,
                  qfi_cat_direct, qfi_gaussian_closed, qfi_schmidt)
from .estimator import (MomentBoundReport, ObservableSpectrum,
                        OutcomeDistribution, eta_derivative, mgf_empirical,
                        mgf_radius, moment_bound_check, outcome_distribution,
                        received_state, sld_observable, unbiasedness_check)
from .sim import (ErrorReport, ProtocolConfig, UnresolvedStatisticsError,
                  classical_error_closed, gaussian_rate_fit,
                  prepare_distributions, run_protocol, sample_means,
                  wilson_interval, xi_sweep)

__version__ = "0.1.0"
