"""Numerical laboratory for critical-line second-moment ladders and the
alpha-sequence factorization identity."""

from .errors import (CalibrationError, DegenerateConfigurationError,
                     DomainError, PrecisionError, RangeError,
                     TableIntegrityError, ZetaLadderError)
from .factorization import (AlphaSequence, FactorizationReport,
                            SpectrumEntry, build_alpha_sequence, factorize,
                            find_eta, lambda_factor, local_spectrum,
                            multiform_G)
from .kernels import backend_name
from .ladder import (IterateDirection, LadderConfig, LadderPoint,
                     PrimePiTable, calibrate_c0, euler_constant, phi1,
                     phi1_inverse, phi1_iterates, pi_count)
from .quadrature import (MomentReport, PanelChain, SecondMomentTable,
                         adaptive_integrate, admissible_h_range,
                         cumulative_I, hl_moment, load_table, save_table,
                         z2_chain, z_chain)
from .special import (CriticalPoint, em_zeta_half, riemann_siegel_z, tau,
                      theta, z_phase)

__version__ = "0.1.0"
