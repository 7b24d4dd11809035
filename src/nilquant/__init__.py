"""nilquant: Berezin-Toeplitz quantization, Weyl systems, coherent states and
pseudo-differential operators on connected simply connected nilpotent Lie
groups, in exponential coordinates, at desk scale.

The phase space is the product of the group with the dual of its Lie algebra;
the group law is the polynomial BCH product defined by structure constants.
See the README for the layout and the `verify` module for the full identity
suite.
"""

from .algebra import LieAlgebra, abelian, engel, heisenberg, preset, validate_algebra
from .berezin import (BerezinConfig, berezin_matrix, berezin_weak, multiplier_field,
                      schatten_bound_check, toeplitz_kernel)
from .ccr import (CcrContext, deriv_L, deriv_R, eps_field, lambda_field, mult_M,
                  trans_L, trans_R, verify_ccr)
from .coherent import (PhasePoint, Window, bargmann, bargmann_adjoint, coherent_state,
                       fourier_wigner, make_window, projector, reproducing_kernel,
                       weyl, weyl_adjoint, weyl_compose_factor)
from .covariant import (CovSymbol, berezin_transform, c0_decay_check, cov_at, cov_full,
                        kernel_from_cov, norm_bound_check, norm_bound_checks, square_adjoint,
                        square_compose)
from .fields import Field, GaussianFactor, XiSamples, gaussian, gridded_field, sample_xi
from .grids import Grid, XiGrid
from .magnetic import (MagneticField, VectorPotential, circulation, flux_triangle,
                       landau_potential, linear3_potential, mag_berezin, mag_coherent,
                       mag_translation, mag_weyl, mag_wigner, segment, zero_potential)
from .operators import OperatorMatrix
from .pseudodiff import (RecoveredSymbol, WeylOperator, berezin_symbol, op_quantize,
                         symbol_from_kernel)
from .symbols import (DeltaSymbol, GaussianSymbol, PhaseSymbol, XOnlySymbol,
                      XiOnlySymbol)
from .tau import (TauMap, berezin_tau, op_quantize_tau, symmetric_tau, tau_tilde,
                  weyl_tau)
from .transforms import fourier, inner, integrate, inverse_fourier, l2_norm, \
    script_fourier, script_fourier_inv
from .verify import run_suites

__version__ = "0.1.0"
