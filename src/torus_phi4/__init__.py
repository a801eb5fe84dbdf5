"""Desk-scale numerical laboratory for the complex quartic field theory on
the two-dimensional torus.

The package provides exact dealiased spectral transforms for the retained
mode ball, renormalized cubic nonlinearities, Gibbs/free-field sampling,
exact Ornstein-Uhlenbeck noise integrators for the damped Schrodinger flow,
Wiener-chaos tooling, stochastic-object regularity scans, twisted space-time
spectral analysis, lattice-point counting and sparse tensor norms, and a
seeded experiment harness with a command-line front end.
"""

__version__ = "0.1.0"

from .spectral import bracket, ModeLattice, FourierField, sobolev_norm
from .nonlinearity import (mass, quartic_mean, cubic, resonant, nonpairing,
                           renormalized_cubic, wick_cubic, conserved_energy,
                           oracle_trilinear)
from .gibbs import (mode_variance_sum, sample_gff, renormalized_potential,
                    wick_potential, wick_action, sample_gibbs_pcn_chains,
                    check_exponential_moments)
from .noise import NoisePath, lockstep_increments
from .flows import (linear_evolution, DynamicsConfig, Trajectory, evolve,
                    lockstep, linear_distance, MassBlowUpError,
                    extract_remainder, gauge_phase, apply_gauge, duhamel,
                    picard_remainder, PicardResult)
from .chaos import (CellGrid, ChaosKernel, multi_integral, kernel_inner,
                    symmetrize, cubic_via_chaos, hypercontractivity_ratio)
from .objects import ObjectBundle, build_bundle, regularity_scan
from .xsb import (smooth_bump, trajectory_window,
                  TwistedSpectrum, twisted_transform, xsb_norm,
                  sup_time_sobolev, duhamel_symbol, symbol_decay_sweep,
                  symbol_lipschitz_sweep, l4_ratio_scan)
from .counting import (resonance_phase, CountQuery, count_set, SparseTensor,
                       build_tensor, fiber, matricization_norm, tensor_norms,
                       fiber_norm_sup, verify_tensor_bounds)
