"""Stability regions and direct simulation for fractional-order coupled map lattices.

A ring (or torus) of sites evolves under a discrete fractional-order
iteration whose power-law kernel keeps the entire history in play.  The
synchronized fixed point of such a lattice is stable exactly when every
eigenvalue of the connectivity matrix lies inside an order-dependent
region of the complex plane.  This package computes those spectra and
regions in closed form where they exist, falls back to a self-contained
dense eigensolver where they do not, and simulates the lattices directly
so both routes can be checked against each other.
"""

from .fractional import (
    FractionalOrderError,
    binomial_phi,
    caputo_difference,
    fractional_sum,
    kernel_weights,
    memory_convolution,
    validate_order,
)
from .spectra import (
    BlockCirculantSpec,
    Circulant,
    CirculantSpec,
    Spectrum,
    asymmetric_eigenvalues,
    block_circulant_eigenvalues,
    circulant_eigenvalues,
    dense_eigenvalues,
    symmetric_eigenvalues,
)
from .stability import (
    AsymmetricRegion,
    BoundaryCurve,
    Quadrilateral,
    RealInterval,
    Verdict,
    asymmetric_region,
    boundary_beta,
    boundary_gamma,
    boundary_gamma_infinity,
    classify_spectrum,
    eigenvalue_in_region,
    innermost_cardioid_index,
    real_interval,
    symmetric_region,
    thermodynamic_region,
)
from .dynamics import (
    Equilibrium,
    MapSpec,
    SweepCell,
    Trajectory,
    circle_map,
    classify_trajectory,
    cubic_map,
    eval_map,
    eval_map_derivative,
    find_homogeneous_equilibrium,
    linear_map,
    linearize_at,
    logistic_map,
    negated_map,
    scaled_map,
    seeded_state,
    simulate_linear,
    simulate_nonlinear,
    sweep,
)

__version__ = "0.1.0"
