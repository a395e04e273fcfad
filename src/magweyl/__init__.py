"""Magnetic Weyl calculus on finite box grids.

Twisted kernel algebra with magnetic 2-cocycles, phase-space product of
symbols, constructive resolvents of perturbed kinetic symbols and spectral
experiments (asymptotic unions, fibered models).  Non-propagation
estimates for states filtered into spectral gaps of the asymptotic
operators are planned; nothing here implements them yet.
"""

from .fields import (
    MagneticField,
    VectorPotential,
    GaugeFunction,
    lambda_a,
    flux_triangle,
    omega_b,
    gamma_b,
    transversal_gauge,
    gauge_shift,
)
from .grid import (
    BoxGrid,
    MomentumGrid,
    PhaseGridFunction,
    KernelSample,
    partial_fourier,
    partial_fourier_inv,
)
from .crossed import (
    OperatorMatrix,
    BandedOperator,
    delta_kernel,
    multiplier_kernel,
    kernel_from_func,
    kernel_lincomb,
    l1_norm,
    twisted_product,
    twisted_product_reference,
    twisted_involution,
    rep,
    rep_banded,
    op_norm,
)
from .moyal import (
    Symbol,
    CutoffFamily,
    moyal,
    moyal_direct,
    moyal_nonmagnetic,
    op_weyl,
    involution,
    regularize,
    trim_kernel,
)
from .resolvent import (
    DefectReport,
    ResolventElement,
    pointwise_inverse,
    defect,
    find_a0,
    neumann_inverse,
    moyal_inverse,
    resolvent,
    resolvent_with_potential,
    estimate_audit,
    report_text,
)
from .spectral import (
    SchrodingerSpec,
    assemble,
    eig,
    essential_estimate,
    asymptotic_spectra,
    fibered_spectrum,
    landau_oracle,
    hausdorff,
)

__version__ = "0.1.0"
