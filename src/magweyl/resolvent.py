"""Constructive inverses in the twisted kernel algebra.

For an elliptic momentum symbol h bounded below, the shifted symbol
h_a = h + a with a ≥ -inf h + 1 has the pointwise inverse 1/(h+a), a
symbol of the opposite growth type.  Composing the two in the algebra
does not give the unit; it gives 1 plus a defect kernel whose L¹ norm
decays as a grows.  Once the defect is small the unitized element
1 + defect inverts by a Neumann series, and

    h_a^(-1) = (1/(h+a)) ⋄ (1 + defect_right)^(-1)
             = (1 + defect_left)^(-1) ⋄ (1/(h+a))

is a two-sided inverse of h_a inside the algebra.  Points off the real
axis (or left of -a0) are reached from the anchor x0 = -a0 - 1 by the
continuation

    Φ(r_ζ) = Φ(r_x) ⋄ (1 + (x - ζ) Φ(r_x))^(-1),

stepping along the straight segment from x0 to the target with step
length 0.5/‖current‖₁, so every Neumann radius along the way is ≤ 1/2.
A bounded potential enters as a multiplier kernel through one more
Neumann inversion.

Everything here returns kernels together with computed residuals; the
audit routine fits the observed growth and decay rates against the
envelopes the construction is built on.

Intermediate products suppress the per-call clipped-tail warning and
the accumulated tail is surfaced once on the final kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .crossed import (
    TAIL_WARN_FRACTION,
    UnitizedKernel,
    delta_kernel,
    kernel_lincomb,
    l1_norm,
    multiplier_kernel,
    twisted_product,
)
from .fields import MagneticField, gamma_b
from .grid import BoxGrid, KernelSample, PhaseGridFunction, partial_fourier_inv
from .moyal import CutoffFamily, Symbol, trim_kernel

__all__ = [
    "DefectReport",
    "ResolventElement",
    "pointwise_inverse",
    "defect",
    "find_a0",
    "neumann_inverse",
    "moyal_inverse",
    "resolvent",
    "resolvent_with_potential",
    "estimate_audit",
    "report_text",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class DefectReport:
    """Defect h_a ⋄ (1/h_a) - 1 together with its cutoff-sweep evidence."""

    a: float
    kernel: KernelSample
    norm: float
    sweep: Dict[str, list] = dc_field(default_factory=dict)
    converged: bool = True
    per_j: Optional[list] = None

    @property
    def grid(self) -> BoxGrid:
        return self.kernel.grid


@dataclass
class ResolventElement:
    """Algebra element representing (h - z)^(-1); scalar part is always 0."""

    element: UnitizedKernel
    z: complex
    residual: float
    meta: Dict = dc_field(default_factory=dict)

    @property
    def kernel(self) -> KernelSample:
        return self.element.kernel

    def norm(self) -> float:
        return l1_norm(self.element.kernel)


# ---------------------------------------------------------------------------
# symbol plumbing
# ---------------------------------------------------------------------------


def _h_func(h) -> Callable:
    return h.func if isinstance(h, Symbol) else h


def _h_order(h, default: float = 2.0) -> float:
    return float(h.order) if isinstance(h, Symbol) else float(default)


def _real_symbol_values(vals: np.ndarray, message: str) -> np.ndarray:
    """Real part of sampled symbol values, refusing imaginary parts above
    1e-12 relative to max(1, max|h|)."""
    if np.iscomplexobj(vals):
        scale = max(float(np.abs(vals).max()), 1.0)
        if float(np.abs(vals.imag).max()) > 1e-12 * scale:
            raise ValueError(message)
        vals = vals.real
    return vals


def _grid_infimum(hf: Callable, grid: BoxGrid) -> float:
    vals = np.asarray(hf(grid.momentum().mesh()))
    return float(_real_symbol_values(vals, "symbol must be real-valued below the shift").min())


def _check_shift(a: float, lo: float) -> None:
    """The shift must lift h to h + a >= 1, given lo = inf h."""
    if a < -lo + 1.0 - 1e-12:
        raise ValueError(
            f"shift too small: a = {a:.6g} < -inf h + 1 = {-lo + 1.0:.6g}"
        )


def _check_elliptic_declaration(h) -> None:
    # unbounded symbols must declare their ellipticity constants; plain
    # callables are admitted on the strength of the grid infimum alone
    if isinstance(h, Symbol) and h.order > 0 and h.elliptic is None:
        raise ValueError(
            "symbol of positive order must declare ellipticity constants"
        )


def _momentum_kernel(func: Callable, grid: BoxGrid, trim_tol: float = 1e-15) -> KernelSample:
    f = PhaseGridFunction.sample(func, grid, q_independent=True)
    return trim_kernel(partial_fourier_inv(f), trim_tol)


def pointwise_inverse(h: Symbol, a: float, grid: Optional[BoxGrid] = None) -> Symbol:
    """The symbol 1/(h+a), declared with the opposite growth order.

    The precondition a ≥ -inf h + 1 guarantees h + a ≥ 1, so the inverse
    is bounded by 1 and inherits type -s envelopes from an elliptic h of
    type s.  The infimum is taken over the grid momentum mesh when a grid
    is supplied, over a radial reference sample otherwise.
    """
    if grid is not None:
        lo = _grid_infimum(h.func, grid)
    else:
        pts = np.concatenate([np.zeros((1, h.dim)), h._sample_points(40.0, 128)])
        vals = np.asarray(h.func(pts), dtype=float)
        lo = float(vals.min())
    _check_shift(a, lo)
    hf = h.func

    def inv(p):
        return 1.0 / (np.asarray(hf(p)) + a)

    return Symbol(dim=h.dim, func=inv, order=-h.order, fd_step=h.fd_step)


# ---------------------------------------------------------------------------
# defect of the pointwise inverse
# ---------------------------------------------------------------------------


def _defect_kernel(
    hf: Callable,
    a: float,
    field: MagneticField,
    grid: BoxGrid,
    *,
    scheme: str = "linear",
    order: int = 8,
    trim_tol: float = 1e-15,
) -> Tuple[KernelSample, KernelSample, KernelSample]:
    """(kernel of h_a, kernel of 1/h_a, right defect h_a ⋄ h_a^{-1} - 1)."""
    kha = _momentum_kernel(lambda p: np.asarray(hf(p)) + a, grid, trim_tol)
    kinv = _momentum_kernel(lambda p: 1.0 / (np.asarray(hf(p)) + a), grid, trim_tol)
    prod = twisted_product(kha, kinv, field, scheme=scheme, order=order, tail_warn=np.inf)
    f = kernel_lincomb([(1.0, prod), (-1.0, delta_kernel(grid))])
    return kha, kinv, f


def defect(
    h,
    a: float,
    field: MagneticField,
    grid: BoxGrid,
    *,
    scheme: str = "linear",
    order: int = 8,
    sweep: bool = True,
    cutoffs: Optional[CutoffFamily] = None,
    scales: Optional[np.ndarray] = None,
    sweep_rtol: float = 5e-2,
    sweep_atol: float = 5e-3,
    trim_tol: float = 1e-15,
) -> DefectReport:
    """Defect report for the shifted pointwise inverse.

    The reported kernel is the full-window product minus the unit and the
    reported norm is exactly its L¹ norm.  The sweep replays the product
    with plateau-cutoff regularizations χ_n·h_a at a ladder of scales
    inside the momentum zone, each compared against its own limit symbol
    χ_n.  The last two rungs must agree to ``sweep_rtol`` relative or
    ``sweep_atol`` absolute, otherwise the window cannot support the
    symbol and a RuntimeError carries the trace.  The gap between the
    last rung and the full-window norm is recorded but not gated: the
    radial cutoff never reaches the corners of the square momentum zone,
    so a structural offset remains even for well-resolved symbols.
    """
    hf = _h_func(h)
    _check_elliptic_declaration(h)
    _check_shift(a, _grid_infimum(hf, grid))
    _, kinv, f = _defect_kernel(hf, a, field, grid, scheme=scheme, order=order, trim_tol=trim_tol)
    norm = l1_norm(f)
    report = DefectReport(a=float(a), kernel=f, norm=norm)

    if sweep:
        if cutoffs is None:
            cutoffs = CutoffFamily()
        if scales is None:
            # support of χ_n is |p| ≤ 2n; keep it inside the zone
            top = 0.5 * grid.momentum().p_max
            scales = top * np.array([0.4, 0.55, 0.75, 1.0])
        scales = np.asarray(scales, dtype=float)
        norms = []
        for s in scales:
            ha_cut = cutoffs.compose(lambda p: np.asarray(hf(p)) + a, s)
            kcut = _momentum_kernel(ha_cut, grid, trim_tol)
            base = _momentum_kernel(lambda p, s=s: cutoffs.scaled(p, s), grid, trim_tol)
            prod = twisted_product(kcut, kinv, field, scheme=scheme, order=order, tail_warn=np.inf)
            norms.append(l1_norm(kernel_lincomb([(1.0, prod), (-1.0, base)])))
        report.sweep = {
            "scale": [float(s) for s in scales],
            "norm": norms,
            "full_gap": abs(norms[-1] - norm),
        }
        gap = abs(norms[-1] - norms[-2])
        if gap > max(sweep_rtol * abs(norms[-1]), sweep_atol):
            report.converged = False
            raise RuntimeError(
                "cutoff sweep did not stabilize: "
                + ", ".join(f"{s:.3g}->{n:.6e}" for s, n in zip(report.sweep["scale"], norms))
            )
    return report


def find_a0(
    h,
    field: MagneticField,
    grid: BoxGrid,
    *,
    margin: float = 0.1,
    budget: int = 14,
    scheme: str = "linear",
    order: int = 8,
    return_trace: bool = False,
):
    """Smallest admissible shift on the doubling ladder a_k = a_min + 2^k - 1.

    a_min = -inf h + 1 is the positivity floor; the ladder stops at the
    first rung whose defect norm is below 1 - margin.  Field-free symbols
    return the floor immediately (the defect vanishes identically).  The
    search is deterministic: same inputs, same rung, bit for bit.
    """
    hf = _h_func(h)
    _check_elliptic_declaration(h)
    a_min = -_grid_infimum(hf, grid) + 1.0
    trace = []
    for k in range(budget):
        a = a_min + (2.0 ** k - 1.0)
        _, _, f = _defect_kernel(hf, a, field, grid, scheme=scheme, order=order)
        norm = l1_norm(f)
        trace.append((a, norm))
        if norm < 1.0 - margin:
            return (a, trace) if return_trace else a
    raise RuntimeError(
        f"defect norm still {trace[-1][1]:.3f} at a = {trace[-1][0]:.6g} "
        f"after {budget} rungs; enlarge the grid or raise the budget"
    )


# ---------------------------------------------------------------------------
# Neumann inversion in the minimal unitization
# ---------------------------------------------------------------------------


def _inv_one_plus(
    g: KernelSample,
    field: MagneticField,
    *,
    tol: float = 1e-10,
    maxterms: int = 200,
    scheme: str = "linear",
    order: int = 8,
    series_trim: float = 1e-13,
) -> Tuple[KernelSample, Dict]:
    """Kernel part w of (1 + g)^(-1) = 1 + w, by the alternating series.

    ``series_trim`` drops displacement rows relatively below it from each
    running term; decaying kernels then shrink their window as the series
    progresses instead of paying full-window convolutions throughout.
    """
    gn = l1_norm(g)
    if gn >= 1.0:
        raise ValueError(f"Neumann radius exceeded: ‖g‖₁ = {gn:.6f} ≥ 1")
    neg = trim_kernel(kernel_lincomb([(-1.0, g)]), series_trim)
    term = neg
    acc = neg
    terms = 1
    while l1_norm(term) >= tol:
        if terms >= maxterms:
            raise RuntimeError(
                f"Neumann series stalled after {maxterms} terms "
                f"(last term {l1_norm(term):.3e}, radius {gn:.3f})"
            )
        term = trim_kernel(
            twisted_product(term, neg, field, scheme=scheme, order=order, tail_warn=np.inf),
            series_trim,
        )
        acc = kernel_lincomb([(1.0, acc), (1.0, term)])
        terms += 1
    info = {
        "terms": terms,
        "radius": gn,
        "last_term": l1_norm(term),
        "remainder_bound": tol / (1.0 - gn),
    }
    return acc, info


def neumann_inverse(
    u: UnitizedKernel,
    field: MagneticField,
    tol: float = 1e-10,
    *,
    maxterms: int = 200,
    scheme: str = "linear",
    order: int = 8,
    series_trim: float = 1e-13,
) -> UnitizedKernel:
    """Inverse of u = μ + g in the unitized algebra, ‖g/μ‖₁ < 1 required.

    The series for (1 + g/μ)^(-1) is truncated once the running term
    drops below ``tol``; the exact truncation remainder is then bounded
    by tol/(1 - ‖g/μ‖₁).  The computed two-sided residual ‖u ⋄ result - 1‖
    and the term count land in the result kernel's meta.
    """
    mu = complex(u.scalar)
    if mu == 0:
        raise ValueError("unit part vanishes; not invertible in the unitization")
    if u.kernel is None:
        return UnitizedKernel(scalar=1.0 / mu, kernel=None)
    v = kernel_lincomb([(1.0 / mu, u.kernel)])
    w, info = _inv_one_plus(v, field, tol=tol, maxterms=maxterms, scheme=scheme, order=order,
                            series_trim=series_trim)
    result = UnitizedKernel(scalar=1.0 / mu, kernel=kernel_lincomb([(1.0 / mu, w)]))
    check = u.product(result, field, scheme=scheme, order=order, tail_warn=np.inf)
    residual = abs(check.scalar - 1.0)
    if check.kernel is not None:
        residual += l1_norm(check.kernel)
    result.kernel.meta["neumann"] = dict(info, residual=float(residual))
    return result


# ---------------------------------------------------------------------------
# inverses of shifted symbols
# ---------------------------------------------------------------------------


def _surface_tail(k: KernelSample, context: str) -> None:
    scale = l1_norm(k)
    if scale > 0 and k.tail_mass > TAIL_WARN_FRACTION * scale:
        warnings.warn(
            f"{context} carries {k.tail_mass:.3e} of clipped L1 mass "
            f"(relative {k.tail_mass / scale:.3e}); enlarge the box",
            stacklevel=3,
        )


def moyal_inverse(
    h,
    a: float,
    field: MagneticField,
    grid: BoxGrid,
    *,
    scheme: str = "linear",
    order: int = 8,
    tol: float = 1e-10,
    trim_tol: float = 1e-15,
    series_trim: float = 1e-13,
) -> ResolventElement:
    """Two-sided algebra inverse of h + a at a real admissible shift.

    Builds the right route (1/h_a) ⋄ (1 + F_r)^(-1) and the left route
    (1 + F_l)^(-1) ⋄ (1/h_a), reports their L¹ discrepancy, and returns
    the right route with both one-sided residuals computed against the
    kernel of h_a.
    """
    hf = _h_func(h)
    _check_elliptic_declaration(h)
    _check_shift(a, _grid_infimum(hf, grid))
    kha, kinv, f_right = _defect_kernel(hf, a, field, grid, scheme=scheme, order=order, trim_tol=trim_tol)
    dn = l1_norm(f_right)
    if dn >= 1.0:
        raise ValueError(
            f"defect norm {dn:.3f} ≥ 1 at a = {a:.6g}; raise the shift (see find_a0)"
        )
    prod_left = twisted_product(kinv, kha, field, scheme=scheme, order=order, tail_warn=np.inf)
    f_left = kernel_lincomb([(1.0, prod_left), (-1.0, delta_kernel(grid))])

    w_r, info_r = _inv_one_plus(f_right, field, tol=tol, scheme=scheme, order=order,
                                series_trim=series_trim)
    w_l, info_l = _inv_one_plus(f_left, field, tol=tol, scheme=scheme, order=order,
                                series_trim=series_trim)
    phi = kernel_lincomb([
        (1.0, kinv),
        (1.0, twisted_product(kinv, w_r, field, scheme=scheme, order=order, tail_warn=np.inf)),
    ])
    phi_left = kernel_lincomb([
        (1.0, kinv),
        (1.0, twisted_product(w_l, kinv, field, scheme=scheme, order=order, tail_warn=np.inf)),
    ])
    phi = trim_kernel(phi, series_trim)
    phi_left = trim_kernel(phi_left, series_trim)
    discrepancy = l1_norm(kernel_lincomb([(1.0, phi), (-1.0, phi_left)]))

    delta = delta_kernel(grid)
    res_r = l1_norm(kernel_lincomb([
        (1.0, twisted_product(kha, phi, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
    ]))
    res_l = l1_norm(kernel_lincomb([
        (1.0, twisted_product(phi, kha, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
    ]))
    _surface_tail(phi, "inverse kernel")
    meta = {
        "defect_norm": dn,
        "defect_norm_left": l1_norm(f_left),
        "neumann_right": info_r,
        "neumann_left": info_l,
        "discrepancy": discrepancy,
        "residual_right": res_r,
        "residual_left": res_l,
    }
    return ResolventElement(
        element=UnitizedKernel(scalar=0.0, kernel=phi),
        z=complex(-a),
        residual=max(res_r, res_l),
        meta=meta,
    )


def resolvent(
    h,
    field: MagneticField,
    grid: BoxGrid,
    z: complex,
    *,
    a0: Optional[float] = None,
    scheme: str = "linear",
    order: int = 8,
    tol: float = 1e-10,
    max_halvings: int = 12,
    max_steps: int = 400,
    series_trim: float = 1e-13,
) -> ResolventElement:
    """Resolvent kernel at any z off the spectrum-bearing half-line.

    Starts from the anchored inverse at x0 = -a0 - 1 and continues along
    the straight segment to z, each step ζ -> ζ' solving

        Φ(r_ζ') = Φ(r_ζ) ⋄ (1 + (ζ - ζ') Φ(r_ζ))^(-1)

    with step length 0.5/‖Φ(r_ζ)‖₁ so the Neumann radius stays at 1/2.
    Steps that still fail are halved, at most ``max_halvings`` times in a
    row.  The endpoint is audited with both one-sided residuals against
    the kernel of h - z and with the resolvent identity back to the
    anchor.
    """
    z = complex(z)
    hf = _h_func(h)
    if a0 is None:
        a0 = find_a0(h, field, grid, scheme=scheme, order=order)
    if z.imag == 0.0 and z.real >= -a0:
        raise ValueError(
            f"z = {z:.6g} must be non-real or lie left of -a0 = {-a0:.6g}"
        )
    x0 = -a0 - 1.0
    anchor = moyal_inverse(h, -x0, field, grid, scheme=scheme, order=order, tol=tol,
                           series_trim=series_trim)
    phi = anchor.kernel
    z_cur = complex(x0)
    path = [(z_cur, l1_norm(phi))]
    halvings_total = 0
    steps = 0

    while z_cur != z:
        if steps >= max_steps:
            raise RuntimeError(f"continuation exceeded {max_steps} steps at z = {z_cur:.6g}")
        nrm = l1_norm(phi)
        step = 0.5 / nrm
        rest = z - z_cur
        target = z if abs(rest) <= step else z_cur + rest / abs(rest) * step
        halvings = 0
        while True:
            try:
                g = kernel_lincomb([(z_cur - target, phi)])
                w, _ = _inv_one_plus(g, field, tol=tol, scheme=scheme, order=order,
                                     series_trim=series_trim)
                break
            except (ValueError, RuntimeError):
                if halvings >= max_halvings:
                    raise RuntimeError(
                        f"continuation stalled at z = {z_cur:.6g} "
                        f"after {max_halvings} step halvings"
                    )
                halvings += 1
                halvings_total += 1
                target = z_cur + (target - z_cur) / 2.0
        phi = trim_kernel(kernel_lincomb([
            (1.0, phi),
            (1.0, twisted_product(phi, w, field, scheme=scheme, order=order, tail_warn=np.inf)),
        ]), series_trim)
        z_cur = target
        steps += 1
        path.append((z_cur, l1_norm(phi)))

    delta = delta_kernel(grid)
    khz = _momentum_kernel(lambda p: np.asarray(hf(p)) - z, grid)
    res_r = l1_norm(kernel_lincomb([
        (1.0, twisted_product(khz, phi, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
    ]))
    res_l = l1_norm(kernel_lincomb([
        (1.0, twisted_product(phi, khz, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
    ]))
    # resolvent identity against the anchor: Φ_z - Φ_x0 = (z - x0) Φ_z ⋄ Φ_x0
    ident = l1_norm(kernel_lincomb([
        (1.0, phi),
        (-1.0, anchor.kernel),
        (-(z - x0), twisted_product(phi, anchor.kernel, field, scheme=scheme, order=order, tail_warn=np.inf)),
    ]))
    _surface_tail(phi, "resolvent kernel")
    meta = {
        "a0": a0,
        "anchor": x0,
        "steps": steps,
        "halvings": halvings_total,
        "path": path,
        "residual_right": res_r,
        "residual_left": res_l,
        "identity_residual": ident,
        "anchor_residual": anchor.residual,
    }
    if z.imag != 0.0:
        meta["norm_bound"] = 1.0 / abs(z.imag)
    return ResolventElement(
        element=UnitizedKernel(scalar=0.0, kernel=phi),
        z=z,
        residual=max(res_r, res_l),
        meta=meta,
    )


def resolvent_with_potential(
    h,
    v: Callable,
    field: MagneticField,
    grid: BoxGrid,
    z: complex,
    *,
    base: Optional[ResolventElement] = None,
    scheme: str = "linear",
    order: int = 8,
    tol: float = 1e-10,
    series_trim: float = 1e-13,
) -> ResolventElement:
    """Resolvent of h + V for a bounded multiplier V, perturbing from V = 0.

    Φ_{h+V}(r_z) = Φ_h(r_z) ⋄ (1 + V ⋄ Φ_h(r_z))^(-1) requires the
    perturbation norm ‖V ⋄ Φ‖₁ < 1; the error message suggests moving z
    away from the real axis when it is not.  A precomputed base resolvent
    at the same z may be passed to skip the continuation.
    """
    z = complex(z)
    if base is None:
        base = resolvent(h, field, grid, z, scheme=scheme, order=order, tol=tol,
                         series_trim=series_trim)
    elif base.z != z:
        raise ValueError("base resolvent was computed at a different z")
    phi = base.kernel
    kv = multiplier_kernel(v, grid)
    g = twisted_product(kv, phi, field, scheme=scheme, order=order, tail_warn=np.inf)
    gn = l1_norm(g)
    if gn >= 1.0:
        raise ValueError(
            f"perturbation norm ‖V⋄Φ‖₁ = {gn:.3f} ≥ 1; "
            "increase |Im z| or shrink the potential"
        )
    w, info = _inv_one_plus(g, field, tol=tol, scheme=scheme, order=order,
                            series_trim=series_trim)
    corr = trim_kernel(
        twisted_product(phi, w, field, scheme=scheme, order=order, tail_warn=np.inf),
        series_trim,
    )
    phi_v = trim_kernel(kernel_lincomb([(1.0, phi), (1.0, corr)]), series_trim)

    hf = _h_func(h)
    delta = delta_kernel(grid)
    khz = _momentum_kernel(lambda p: np.asarray(hf(p)) - z, grid)
    # (h - z + V) ⋄ (Φ + corr) - 1 assembled piecewise: Φ does not decay at
    # the box edge, so folding it into one base-dependent array would make
    # the stiff momentum factor read zeros past the boundary; split apart,
    # every factor pair extends validly (corr and V-products decay in the
    # base point, the rest is base-independent or has an attached callable)
    res_r = l1_norm(kernel_lincomb([
        (1.0, twisted_product(khz, phi, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
        (1.0, twisted_product(khz, corr, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (1.0, g),
        (1.0, twisted_product(kv, corr, field, scheme=scheme, order=order, tail_warn=np.inf)),
    ]))
    res_l = l1_norm(kernel_lincomb([
        (1.0, twisted_product(phi, khz, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (-1.0, delta),
        (1.0, twisted_product(corr, khz, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (1.0, twisted_product(phi, kv, field, scheme=scheme, order=order, tail_warn=np.inf)),
        (1.0, twisted_product(corr, kv, field, scheme=scheme, order=order, tail_warn=np.inf)),
    ]))
    _surface_tail(phi_v, "perturbed resolvent kernel")
    meta = {
        "perturbation_norm": gn,
        "neumann": info,
        "residual_right": res_r,
        "residual_left": res_l,
        "base_residual": base.residual,
    }
    return ResolventElement(
        element=UnitizedKernel(scalar=0.0, kernel=phi_v),
        z=z,
        residual=max(res_r, res_l),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# estimate audit
# ---------------------------------------------------------------------------


def _gamma_growth(field: MagneticField, dim: int, rng: np.random.Generator, fd_step: float = 1e-3):
    """Envelope fit for first derivatives of γ^B in the leg endpoints.

    Samples |∂ γ^B(q; t·u, t·v)| over base points and directions at a
    geometric ladder of scales t, then fits log|∂γ| against log⟨t⟩.  The
    fitted degree plays the role of s₁ + s₂ in the polynomial envelope
    c⟨x⟩^{s₁}⟨y⟩^{s₂}; a flat or empty fit reports degree and constant 0.
    """
    qs = rng.uniform(-3.0, 3.0, size=(6, dim))
    us = rng.normal(size=(4, dim))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    vs = rng.normal(size=(4, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    ts = np.geomspace(0.5, 8.0, 6)
    out = {}
    for leg in ("x", "y"):
        env = []
        for t in ts:
            worst = 0.0
            for q in qs:
                for u, v in zip(us, vs):
                    x, y = t * u, t * v
                    e = np.zeros(dim)
                    e[0] = fd_step
                    if leg == "x":
                        hi = gamma_b(field, q, x + e, y)
                        lo = gamma_b(field, q, x - e, y)
                    else:
                        hi = gamma_b(field, q, x, y + e)
                        lo = gamma_b(field, q, x, y - e)
                    worst = max(worst, float(np.abs(hi - lo)) / (2.0 * fd_step))
            env.append(worst)
        env = np.asarray(env)
        if env.max() <= 1e-10:
            out[f"degree_{leg}"] = 0.0
            out[f"constant_{leg}"] = 0.0
            continue
        w = np.sqrt(1.0 + ts * ts)
        deg = float(np.polyfit(np.log(w), np.log(np.maximum(env, 1e-300)), 1)[0])
        out[f"degree_{leg}"] = deg
        out[f"constant_{leg}"] = float(np.max(env / w ** deg))
    return out


def _defect_scaling(hf, field, grid, ladder, mu, *, scheme, order):
    norms = []
    for a in ladder:
        _, _, f = _defect_kernel(hf, a, field, grid, scheme=scheme, order=order)
        norms.append(l1_norm(f))
    la = np.log(np.asarray(ladder, dtype=float))
    ln = np.log(np.maximum(norms, 1e-300))
    exponent = float(np.polyfit(la, ln, 1)[0]) if len(ladder) > 1 else 0.0
    target = -1.0 / mu
    return {
        "a": [float(a) for a in ladder],
        "norm": norms,
        "exponent": exponent,
        "target": target,
        "mu": mu,
        "within_30pct": bool(abs(exponent - target) <= 0.3 * abs(target)),
    }


def _seminorm_domination(dim, grids, widths, t, trim_tol=1e-15):
    """Ratio ‖𝓕⁻¹f‖₁ / max_{|α|≤2} sup_p ⟨p⟩^{-t+|α|}|∂^α f| on Gaussians.

    The kernel L¹ norm of a negative-type symbol is dominated by finitely
    many weighted sup seminorms; the audit reports the observed constant
    per grid and its spread across grids.
    """
    per_grid = []
    for grid in grids:
        worst = 0.0
        ratios = {}
        for wdt in widths:
            f = lambda p, wdt=wdt: np.exp(-wdt * np.sum(np.asarray(p) ** 2, axis=-1))
            sem = max(Symbol(dim=dim, func=f, order=t).spot_check().values())
            l1 = l1_norm(_momentum_kernel(f, grid, trim_tol))
            ratios[wdt] = l1 / sem
            worst = max(worst, l1 / sem)
        per_grid.append({"n": grid.n, "half_length": grid.half_length,
                         "constant": worst, "ratios": ratios})
    consts = [g["constant"] for g in per_grid]
    spread = (max(consts) - min(consts)) / max(consts) if consts else 0.0
    return {"t": t, "per_grid": per_grid, "spread": float(spread)}


def estimate_audit(h, field: MagneticField, config: Optional[Dict] = None) -> Dict:
    """Numerical audit of the envelopes behind the inversion construction.

    Three report-only sections; nothing here gates the production route.

    * ``gamma_growth``: fitted polynomial degree and constant for first
      derivatives of γ^B in the two leg endpoints.
    * ``defect_scaling``: defect norms along a shift ladder and the
      fitted decay exponent against the predicted -1/μ, μ = max{1,s}+0.1.
    * ``seminorm_domination``: observed constant dominating kernel L¹
      norms by weighted sup seminorms on a Gaussian family, per grid.
    """
    cfg = dict(config or {})
    grid = cfg.get("grid")
    if grid is None:
        grid = BoxGrid(dim=field.dim, half_length=6.0, n=48)
    dim = grid.dim
    s = _h_order(h, default=float(cfg.get("order", 2.0)))
    mu = float(cfg.get("mu", max(1.0, s) + 0.1))
    ladder = cfg.get("a_ladder", (16.0, 32.0, 64.0, 128.0, 256.0))
    widths = cfg.get("widths", (0.6, 1.0, 1.6))
    t = float(cfg.get("t", -1.0))
    grids = cfg.get("grids")
    if grids is None:
        grids = [grid, BoxGrid(dim=dim, half_length=grid.half_length, n=2 * grid.n)]
    scheme = cfg.get("scheme", "linear")
    order = int(cfg.get("order_quad", 8))
    rng = np.random.default_rng(int(cfg.get("seed", 7)))

    hf = _h_func(h)
    return {
        "gamma_growth": _gamma_growth(field, dim, rng),
        "defect_scaling": _defect_scaling(hf, field, grid, ladder, mu, scheme=scheme, order=order),
        "seminorm_domination": _seminorm_domination(dim, grids, widths, t),
    }


# ---------------------------------------------------------------------------
# structured-text reports
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def report_text(obj) -> str:
    """Serialize a report as key: value lines plus CSV tables.

    Scalar fields come first, one ``key: value`` per line; each table
    follows after a blank line as a ``name:`` header, a CSV column row,
    and CSV data rows.  Floats use 17 significant digits throughout.
    """
    lines: List[str] = []
    tables: List[Tuple[str, List[str], List[list]]] = []
    if isinstance(obj, DefectReport):
        lines += [
            "kind: defect",
            f"a: {_fmt(obj.a)}",
            f"norm: {_fmt(obj.norm)}",
            f"converged: {str(obj.converged).lower()}",
            f"dim: {obj.grid.dim}",
            f"n: {obj.grid.n}",
            f"half_length: {_fmt(float(obj.grid.half_length))}",
        ]
        if obj.sweep:
            rows = list(zip(obj.sweep["scale"], obj.sweep["norm"]))
            tables.append(("sweep", ["scale", "norm"], rows))
    elif isinstance(obj, ResolventElement):
        lines += [
            "kind: resolvent",
            f"z: {_fmt(complex(obj.z))}",
            f"residual: {_fmt(obj.residual)}",
            f"norm: {_fmt(obj.norm())}",
        ]
        for key, val in sorted(obj.meta.items()):
            if isinstance(val, (int, float, complex)):
                lines.append(f"{key}: {_fmt(val)}")
        path = obj.meta.get("path")
        if path:
            rows = [(p.real, p.imag, n) for p, n in path]
            tables.append(("path", ["re_z", "im_z", "norm"], rows))
    elif isinstance(obj, dict) and "defect_scaling" in obj:
        gg = obj["gamma_growth"]
        ds = obj["defect_scaling"]
        sd = obj["seminorm_domination"]
        lines += ["kind: audit"]
        for key in sorted(gg):
            lines.append(f"gamma_{key}: {_fmt(gg[key])}")
        for key in ("exponent", "target", "mu"):
            lines.append(f"defect_{key}: {_fmt(ds[key])}")
        lines.append(f"defect_within_30pct: {str(ds['within_30pct']).lower()}")
        lines.append(f"seminorm_t: {_fmt(sd['t'])}")
        lines.append(f"seminorm_spread: {_fmt(sd['spread'])}")
        tables.append(("defect_ladder", ["a", "norm"], list(zip(ds["a"], ds["norm"]))))
        rows = [(g["n"], g["constant"]) for g in sd["per_grid"]]
        tables.append(("seminorm_constants", ["n", "constant"], rows))
    else:
        raise TypeError(f"no serialization for {type(obj).__name__}")

    out = "\n".join(lines)
    for name, cols, rows in tables:
        out += f"\n\n{name}:\n" + ",".join(cols)
        for row in rows:
            out += "\n" + ",".join(_fmt(float(v)) if not isinstance(v, str) else v for v in row)
    return out + "\n"
