"""Conformal Killing fields on R^3, magnetic fields parallel to them, and
numerical probes of the zero-mode question for sigma.(-i grad - A).

The package verifies the pointwise differential identities of the CKF
geometry with exact (jet) derivatives, traces closed field lines and their
loop integrals, quantizes the transport eigenvalues along closed orbits,
and contrasts discretized spectra of no-zero-mode fields against the
classical zero-mode control.
"""

__version__ = "0.1.0"

from .ckf import (CanonicalForm, CkfParams, classify, eval_ckf, field_cr,
                  field_iso, field_ro, field_ud, frame_quantities,
                  is_simple_rotation, reconstruct, simple_rotation_residual)
from .errors import (BlowUp, CkfieldError, ConstructionFailed,
                     FrameUndefined, FreeZeroMode, GridTooLarge,
                     IntegrationFailed, NoConvergence, NotAdmissible,
                     NotClosed, NotParallel, NotSimpleRotation,
                     SectorMismatch, SupportViolation, UnknownIdentity,
                     ZeroField)
from .flows import (CurveTrace, FixedPointCensus, LoopIntegrals,
                    cr_orbit_seed, fixed_point_census, integrate_curve,
                    loop_integrals, planarity_and_curvature)
from .grid import (GridOperator, GridSpec, SweepResult, assemble,
                   free_sigma_min, scaling_sweep, sigma_min,
                   zeromode_residual_on_grid)
from .holonomy import (HolonomyResult, admissible_spectrum, frame_spinor,
                       transport)
from .identities import IdentityReport, check_identity, run_identity_suite
from .potentials import (PotentialSpec, Profile, axial, construct_losyau,
                         eval_field, eval_potential, gauged, hopfbase,
                         lossyau, modulated, parallelism_residual,
                         parent_field, scaled, spec_from_dict)
from .quadrature import QuadBox, box_axes, gl2_axis, periodic_trapezoid
from .spinops import (CHI0_PRIME_MAX, CutoffPair, apply_D, apply_Q, apply_S,
                      chi0_prime, commutator_residuals, cutoff_bound_check,
                      grad_chi_R, norm_decomposition_check)
from .spinors import SpinorField, bump_packet, gaussian_packet, losyau_mode

__all__ = [name for name in dir() if not name.startswith("_")]
