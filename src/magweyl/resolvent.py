"""Constructive inverses in the twisted kernel algebra.

For an elliptic momentum symbol h bounded below, the shifted symbol
h_a = h + a with a ≥ -inf h + 1 has the pointwise inverse 1/(h+a), a
symbol of the opposite growth type.  Composing the two in the algebra
does not give the unit; it gives 1 plus a defect kernel whose L¹ norm
decays as a grows.  The box algebra is unital, with ``delta_kernel`` its
unit, so once the defect is small 1 + defect inverts by a Neumann series
in the algebra itself, and

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

Everything here returns kernels together with computed residuals.  The
audit checks the envelope the construction is built on: the defect of
the pointwise inverse decays at least like a^(-1/μ) along a shift
ladder, which is what lets ``find_a0`` stop.

The construction runs one fixed configuration:

* Neumann series: stop once a term's L¹ norm drops below 1e-10
  (``_TOL``), give up after 200 terms (``_MAX_TERMS``), and drop
  displacement rows relatively below 1e-13 from every running term and
  assembled inverse (``_SERIES_TRIM``).
* Continuation: at most 400 steps (``_MAX_STEPS``).
* Shift search and defect sweep: ``find_a0`` stops at the first rung
  whose defect norm is below 1 - 0.1 (``_A0_MARGIN``); the last two
  sweep rungs must agree to 5e-2 relative or 5e-3 absolute
  (``_SWEEP_RTOL``, ``_SWEEP_ATOL``).
* Audit: Gaussian widths 0.6, 1.0, 1.6 and weight exponent t = -1 for
  the seminorm check (``_AUDIT_WIDTHS``, ``_AUDIT_T``).

Each input has one guard, run before the first product.  Every public
entry samples the symbol once through ``moyal._symbol_samples``, and each
momentum kernel is built from those samples hv (hv + a, 1/(hv + a),
hv - z) by ``moyal._momentum_kernel``.  ``_defect_kernel``, shared by
every defect, runs the shift guard ``_check_shift`` (a shift not finite
or below -inf h + 1).  z's guard is ``_finite_z``, V's
``grid._node_values`` through ``multiplier_kernel``, on the nodes and, in
the first product, at the half-lattice points it reads V at; every
Neumann series runs through ``_inv_one_plus``, which refuses a radius not
below 1, NaN included, with its caller's remedy.  ``find_a0`` refuses a
budget that is not a whole number of rungs, at least one, and
``_defect_scaling`` a shift ladder that is not finite, non-empty,
positive and strictly increasing, or whose first rung fails the shift
guard.

Each inverse has one route and one audit.  ``_times_inverse`` makes
Φ ⋄ (1 + g)^(-1) = Φ + Φ ⋄ w (or its left mirror) from one series: both
routes of ``moyal_inverse`` and every continuation step of ``resolvent``.
``_residuals`` returns the right and left residuals ‖op ⋄ Φ - 1‖₁ and
‖Φ ⋄ op - 1‖₁ of every inverse returned, with op and Φ given as sums of
factors whose pairs are expanded op-major.

Interpolation and quadrature options live on the algebra layer
(``twisted_product``, ``rep``, ``moyal``); every product here takes its
defaults.  Intermediate products suppress the per-call clipped-tail
warning and the accumulated tail is surfaced once on the final kernel,
through the product's own rule, ``crossed._warn_dropped``.

A base-point dependent kernel holds n^N d^N complex values (15.7 MB at
n=32 in two dimensions), so each kernel-size array has one owner and one
live copy per role.  ``_inv_one_plus`` owns its input g and negates it in
place into the fixed factor -g; it adds each term into the running sum in
place and, once the term's norm is read, moves the term to the tilde sheet
in place, so the next product reads it without a sheared copy.  A series
thus holds four kernel-size arrays: the sum, -g, the left factor and the
product, besides the product's GEMM tiles.  A residual check
(``_minus_unit``) adds each product into one running sum as it is made.
Every in-place step makes the additions of the copying route in the same
order, so kernels and residuals are the same bit for bit; only the sign of
an exact zero inside the series may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .crossed import (
    delta_kernel,
    kernel_lincomb,
    l1_norm,
    multiplier_kernel,
    twisted_product,
    _add_into,
    _to_tilde,
    _warn_dropped,
)
from .fields import MagneticField
from .grid import BoxGrid, KernelSample
from .moyal import CutoffFamily, Symbol, _momentum_kernel, _symbol_samples, trim_kernel

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

_TOL = 1e-10
_MAX_TERMS = 200
_SERIES_TRIM = 1e-13
_MAX_STEPS = 400
_A0_MARGIN = 0.1
_SWEEP_RTOL = 5e-2
_SWEEP_ATOL = 5e-3
_AUDIT_WIDTHS = (0.6, 1.0, 1.6)
_AUDIT_T = -1.0
_AUDIT_KEYS = ("grid", "grids", "a_ladder")


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

    @property
    def grid(self) -> BoxGrid:
        return self.kernel.grid


@dataclass
class ResolventElement:
    """Kernel of (h - z)^(-1) in the algebra, with its residual and audit."""

    kernel: KernelSample
    z: complex
    residual: float
    meta: Dict = dc_field(default_factory=dict)

    def norm(self) -> float:
        return l1_norm(self.kernel)


# ---------------------------------------------------------------------------
# symbol plumbing
# ---------------------------------------------------------------------------


def _check_shift(hv: np.ndarray, a: float) -> None:
    """The shift must be finite and lift h to h + a >= 1 on its samples hv."""
    floor = 1.0 - float(hv.min())
    if not np.isfinite(a):
        raise ValueError(f"shift a = {a} must be finite")
    if a < floor - 1e-12:
        raise ValueError(f"shift too small: a = {a:.6g} < -inf h + 1 = {floor:.6g}")


def _finite_z(z) -> complex:
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"z = {z} must be finite")
    return z


def _product(a: KernelSample, b: KernelSample, field: MagneticField, sheet: str = "centered") -> KernelSample:
    # per-product tail warnings are off; _surface_tail reports the sum once
    return twisted_product(a, b, field, tail_warn=np.inf, sheet=sheet)


def _minus_unit(
    pairs: List[Tuple[KernelSample, KernelSample]], field: MagneticField, sheet: str = "centered"
) -> KernelSample:
    """p₁ - 1 + p₂ + ... for the products p_i = a_i ⋄ b_i of the factor
    pairs of op ⋄ Φ (or Φ ⋄ op) expanded: the defect of an inverse, whose
    L¹ norm is the residual.

    Each product is added into one running sum as soon as it is made, so
    one product is alive at a time.  The unit enters second, which fixes
    the order the sum rounds in.
    """
    (a, b), *rest = pairs
    first = _product(a, b, field, sheet)
    acc = kernel_lincomb([(1.0, first), (-1.0, delta_kernel(first.grid))])
    del first
    for a, b in rest:
        acc = _add_into(acc, _product(a, b, field, sheet))
    return acc


def _residuals(
    ops: List[KernelSample], phis: List[KernelSample], field: MagneticField, sheet: str = "centered"
) -> Tuple[float, float]:
    """Right and left residuals ‖op ⋄ Φ - 1‖₁ and ‖Φ ⋄ op - 1‖₁ of Φ = Σ phis
    as an inverse of op = Σ ops, the factor pairs expanded op-major."""
    right = l1_norm(_minus_unit([(o, p) for o in ops for p in phis], field, sheet))
    left = l1_norm(_minus_unit([(p, o) for o in ops for p in phis], field, sheet))
    return right, left


def pointwise_inverse(h: Symbol, a: float, grid: Optional[BoxGrid] = None) -> Symbol:
    """The symbol 1/(h+a), declared with the opposite growth order.

    The precondition a ≥ -inf h + 1 guarantees h + a ≥ 1, so the inverse
    is bounded by 1 and inherits type -s envelopes from an elliptic h of
    type s.  The infimum is taken over the grid momentum mesh when a grid
    is supplied, otherwise over the radial reference sample whose radius
    and size are listed in :mod:`magweyl.moyal`; either way the sampled
    values must be real and finite.  A plain callable (no order) is refused.
    """
    if not isinstance(h, Symbol):
        raise ValueError("pointwise_inverse needs a Symbol: its inverse declares the order -s")
    _check_shift(_symbol_samples(h, grid), a)
    hf = h.func

    def inv(p):
        return 1.0 / (np.asarray(hf(p)) + a)

    return Symbol(dim=h.dim, func=inv, order=-h.order)


# ---------------------------------------------------------------------------
# defect of the pointwise inverse
# ---------------------------------------------------------------------------


def _defect_kernel(
    hv: np.ndarray, a: float, field: MagneticField, grid: BoxGrid
) -> Tuple[KernelSample, KernelSample, KernelSample]:
    """(kernel of h_a, kernel of 1/h_a, right defect h_a ⋄ h_a^{-1} - 1) from samples hv."""
    _check_shift(hv, a)
    kha = _momentum_kernel(hv + a, grid)
    kinv = _momentum_kernel(1.0 / (hv + a), grid)
    return kha, kinv, _minus_unit([(kha, kinv)], field)


def defect(
    h,
    a: float,
    field: MagneticField,
    grid: BoxGrid,
    *,
    scales: Optional[np.ndarray] = None,
) -> DefectReport:
    """Defect report for the shifted pointwise inverse.

    The reported kernel is the full-window product minus the unit and the
    reported norm is exactly its L¹ norm.  The sweep replays the product
    with plateau-cutoff regularizations χ_n·h_a at a ladder of ``scales``
    (by default four inside the momentum zone), each compared against its
    own limit symbol χ_n.  The last two rungs must agree to 5e-2 relative
    or 5e-3 absolute, otherwise the window cannot support the symbol and a
    RuntimeError carries the trace.  The gap between the last rung and the
    full-window norm is recorded but not gated: the radial cutoff never
    reaches the corners of the square momentum zone, so a structural
    offset remains even for well-resolved symbols.

    The sweep gate is meaningful for constant fields.  Under a variable
    field the sweep products χ_n·h_a ⋄ (1/h_a) depend on the base point
    and carry box-edge mass that the full-window defect does not, since
    base-point dependent kernels are zero-extended past the box edge
    instead of clamped: with B = 0.5 + 0.5 exp(-|x|^2) on
    ``BoxGrid(2, 4.0, 24)`` at a = 4 the sweep reads 2.17, 2.12, 1.93,
    1.84, and the RuntimeError says so.
    """
    hv = _symbol_samples(h, grid)
    _, kinv, f = _defect_kernel(hv, a, field, grid)
    norm = l1_norm(f)
    report = DefectReport(a=float(a), kernel=f, norm=norm)

    cutoffs = CutoffFamily()
    if scales is None:
        # support of χ_n is |p| ≤ 2n; keep it inside the zone
        top = 0.5 * grid.momentum().p_max
        scales = top * np.array([0.4, 0.55, 0.75, 1.0])
    scales = np.asarray(scales, dtype=float)
    pmesh = grid.momentum().mesh()
    norms = []
    for s in scales:
        chi = cutoffs.scaled(pmesh, s)
        kcut = _momentum_kernel((hv + a) * chi, grid)
        base = _momentum_kernel(chi, grid)
        norms.append(l1_norm(kernel_lincomb([(1.0, _product(kcut, kinv, field)), (-1.0, base)])))
    report.sweep = {
        "scale": [float(s) for s in scales],
        "norm": norms,
        "full_gap": abs(norms[-1] - norm),
    }
    gap = abs(norms[-1] - norms[-2])
    if gap > max(_SWEEP_RTOL * abs(norms[-1]), _SWEEP_ATOL):
        msg = "cutoff sweep did not stabilize: " + ", ".join(
            f"{s:.3g}->{n:.6e}" for s, n in zip(report.sweep["scale"], norms)
        )
        if not field.is_constant:
            msg += (
                "; under a variable field the sweep products carry box-edge mass that "
                "the full-window defect does not (base-point dependent kernels are "
                "zero-extended past the box edge, not clamped), "
                "so the sweep gate is meaningful for constant fields only"
            )
        raise RuntimeError(msg)
    return report


def find_a0(
    h,
    field: MagneticField,
    grid: BoxGrid,
    *,
    budget: int = 14,
    return_trace: bool = False,
):
    """Smallest admissible shift on the doubling ladder a_k = a_min + 2^k - 1.

    a_min = -inf h + 1 is the positivity floor; the ladder stops at the
    first rung whose defect norm is below 0.9 and refuses a norm that is
    not finite.  Field-free symbols return the floor immediately (the
    defect vanishes identically).  The search is deterministic: same
    inputs, same rung, bit for bit.  A ``budget`` that is not a whole
    number of rungs, at least one, is refused before any product.
    """
    if not (isinstance(budget, (int, np.integer)) and budget >= 1):
        raise ValueError(f"budget = {budget} must be a whole number of rungs, at least one")
    hv = _symbol_samples(h, grid)
    a_min = -float(hv.min()) + 1.0
    trace = []
    for k in range(budget):
        a = a_min + (2.0 ** k - 1.0)
        _, _, f = _defect_kernel(hv, a, field, grid)
        norm = l1_norm(f)
        trace.append((a, norm))
        if not np.isfinite(norm):
            raise ValueError(
                f"defect norm is {norm} at a = {a:.6g}; the field or the symbol "
                "is not finite on the grid"
            )
        if norm < 1.0 - _A0_MARGIN:
            return (a, trace) if return_trace else a
    raise RuntimeError(
        f"defect norm still {trace[-1][1]:.3f} at a = {trace[-1][0]:.6g} "
        f"after {budget} rungs; enlarge the grid or raise the budget"
    )


# ---------------------------------------------------------------------------
# Neumann inversion against the unit
# ---------------------------------------------------------------------------


def _inv_one_plus(g: KernelSample, field: MagneticField, remedy: str) -> Tuple[KernelSample, Dict]:
    """Kernel part w of (1 + g)^(-1) = 1 + w, by the alternating series.

    A Neumann radius ‖g‖₁ not below 1, NaN included, is refused with the
    caller's ``remedy``.  The series owns g: its complex values are negated
    in place and become the fixed factor -g, so the caller passes an array
    it does not read again.  Each running term is trimmed by ``_SERIES_TRIM``;
    decaying kernels then shrink their window as the series progresses
    instead of paying full-window convolutions throughout.  The fixed right
    factor -g is sheared once and passed tilde-tagged to every product of
    the series, the first one, (-g) ⋄ (-g), on both sides; the running sum
    starts from a copy.  Each later term is added into the sum in place
    (``_add_into``); once its norm is read on the centered sheet it moves
    to the tilde sheet in place (``_to_tilde(term, inplace=True)``) and is
    the next product's left factor without a sheared copy.  A product then
    bounds its clipped tail by the left factor's sup over the tilde sheet,
    as it does for -g: a bound as valid and no larger (the benchmark's
    perturbed kernel at n=32 records 0.025566262 where a centered left
    factor gave 0.025567258), while values and residuals stay the same bit
    for bit.  A base-point dependent series holds four kernel-size arrays,
    the sum, -g, the left factor and the product, besides the product's
    tiles; five when the trim cuts g's window, as -g is then a copy and the
    caller's argument stays alive.
    """
    gn = l1_norm(g)
    if not gn < 1.0:
        raise ValueError(f"Neumann radius ‖g‖₁ = {gn:.6f} is not below 1; {remedy}")
    np.negative(g.values, out=g.values)
    # without g's callable, which the negation leaves stale
    first = trim_kernel(
        KernelSample(g.grid, g.values, g.q_independent, tail_mass=g.tail_mass, sheet=g.sheet),
        _SERIES_TRIM,
    )
    acc = first.copy()
    neg = term = _to_tilde(first, inplace=True)
    terms = 1
    term_norm = l1_norm(acc)
    while term_norm >= _TOL:
        if terms >= _MAX_TERMS:
            raise RuntimeError(
                f"Neumann series stalled after {_MAX_TERMS} terms "
                f"(last term {term_norm:.3e}, radius {gn:.3f})"
            )
        term = trim_kernel(_product(term, neg, field), _SERIES_TRIM)
        acc = _add_into(acc, term)
        terms += 1
        term_norm = l1_norm(term)
        if term_norm >= _TOL:
            term = _to_tilde(term, inplace=True)
    info = {
        "terms": terms,
        "radius": gn,
        "last_term": term_norm,
        "remainder_bound": _TOL / (1.0 - gn),
    }
    return acc, info


def _times_inverse(
    phi: KernelSample, g: KernelSample, field: MagneticField, remedy: str, left: bool = False
) -> Tuple[KernelSample, Dict]:
    """φ ⋄ (1 + g)^(-1) = trim(φ + φ ⋄ w), or (1 + g)^(-1) ⋄ φ = trim(φ + w ⋄ φ)
    with ``left``, where (1 + g)^(-1) = 1 + w; with the series info.  The
    series owns g (see ``_inv_one_plus``); w is released on return."""
    w, info = _inv_one_plus(g, field, remedy)
    prod = _product(w, phi, field) if left else _product(phi, w, field)
    return trim_kernel(kernel_lincomb([(1.0, phi), (1.0, prod)]), _SERIES_TRIM), info


def neumann_inverse(g: KernelSample, field: MagneticField) -> KernelSample:
    """Kernel part w of (1 + g)^(-1) = 1 + w, the unit being ``delta_kernel``.

    ‖g‖₁ < 1 is required; a caller inverting μ + g for a scalar μ ≠ 0
    passes g/μ, and (μ + g)^(-1) = (1 + w)/μ.  The series runs on a copy,
    so g is left unchanged.  It is truncated once the running term drops
    below 1e-10; the exact truncation remainder is then bounded by
    1e-10/(1 - ‖g‖₁).  The series info and the computed residual
    ‖(1 + g) ⋄ (1 + w) - 1‖₁ = ‖g + w + g ⋄ w‖₁ land in
    ``w.meta["neumann"]``.
    """
    w, info = _inv_one_plus(kernel_lincomb([(1.0, g)]), field, "scale g down against the unit")
    residual = l1_norm(kernel_lincomb([(1.0, g), (1.0, w), (1.0, _product(g, w, field))]))
    w.meta["neumann"] = dict(info, residual=float(residual))
    return w


# ---------------------------------------------------------------------------
# inverses of shifted symbols
# ---------------------------------------------------------------------------


def _surface_tail(k: KernelSample, name: str) -> None:
    """Warn once, through the product's rule, when the products that built
    ``k`` dropped too much L¹ mass relative to ‖k‖₁; the warning points at
    the caller of the public entry."""
    _warn_dropped(k.tail_mass, l1_norm(k), f"the {name}'s products dropped", "enlarge the box", stacklevel=4)


def moyal_inverse(h, a: float, field: MagneticField, grid: BoxGrid) -> ResolventElement:
    """Two-sided algebra inverse of h + a at a real admissible shift.

    Builds the right route (1/h_a) ⋄ (1 + F_r)^(-1) and the left route
    (1 + F_l)^(-1) ⋄ (1/h_a), reports their L¹ discrepancy, and returns
    the right route with both one-sided residuals computed against the
    kernel of h_a.
    """
    kha, kinv, f_right = _defect_kernel(_symbol_samples(h, grid), a, field, grid)
    remedy = f"raise the shift a = {a:.6g} (see find_a0)"
    phi, info_r = _times_inverse(kinv, f_right, field, remedy)
    f_left = _minus_unit([(kinv, kha)], field)
    phi_left, info_l = _times_inverse(kinv, f_left, field, remedy, left=True)
    discrepancy = l1_norm(kernel_lincomb([(1.0, phi), (-1.0, phi_left)]))

    res_r, res_l = _residuals([kha], [phi], field)
    _surface_tail(phi, "inverse kernel")
    meta = {
        "defect_norm": info_r["radius"],
        "defect_norm_left": info_l["radius"],
        "neumann_right": info_r,
        "neumann_left": info_l,
        "discrepancy": discrepancy,
        "residual_right": res_r,
        "residual_left": res_l,
    }
    return ResolventElement(kernel=phi, z=complex(-a), residual=max(res_r, res_l), meta=meta)


def resolvent(
    h,
    field: MagneticField,
    grid: BoxGrid,
    z: complex,
    *,
    a0: Optional[float] = None,
) -> ResolventElement:
    """Resolvent kernel at any z off the spectrum-bearing half-line.

    Starts from the anchored inverse at x0 = -a0 - 1 and continues along
    the straight segment to z, each step ζ -> ζ' solving

        Φ(r_ζ') = Φ(r_ζ) ⋄ (1 + (ζ - ζ') Φ(r_ζ))^(-1)

    with step length 0.5/‖Φ(r_ζ)‖₁ so the Neumann radius stays at 1/2;
    the L¹ norm is sub-multiplicative, so every step's series converges
    and an error inside a step propagates.  The continuation gives up
    after 400 steps.  The endpoint is audited with both one-sided
    residuals against the kernel of h - z and with the resolvent identity
    back to the anchor.

    For a variable field these residuals measure the box edge, not the
    solve: the kernel of h - z reaches past the box while the base-point
    dependent Φ is zero-extended, so the edge rows carry O(1) mass.  With
    B = 0.5 + 0.5 exp(-|x|^2) on ``BoxGrid(2, 3.0, 12)`` at z = -1 + i the
    residual reads 2.41, while rep(Φ) is within 1.3e-3 of the dense
    inverse of rep(h - z) at distance 1.5 from the edge.
    """
    z = _finite_z(z)
    hv = _symbol_samples(h, grid)
    if a0 is None:
        a0 = find_a0(h, field, grid)
    if z.imag == 0.0 and z.real >= -a0:
        raise ValueError(
            f"z = {z:.6g} must be non-real or lie left of -a0 = {-a0:.6g}"
        )
    x0 = -a0 - 1.0
    anchor = moyal_inverse(h, -x0, field, grid)
    phi = anchor.kernel
    z_cur = complex(x0)
    nrm = l1_norm(phi)
    path = [(z_cur, nrm)]
    steps = 0
    # each step's radius is 1/2 by construction; only a non-finite kernel fails
    remedy = "the continued kernel is not finite"

    while z_cur != z:
        if steps >= _MAX_STEPS:
            raise RuntimeError(f"continuation exceeded {_MAX_STEPS} steps at z = {z_cur:.6g}")
        step = 0.5 / nrm
        rest = z - z_cur
        target = z if abs(rest) <= step else z_cur + rest / abs(rest) * step
        phi, _ = _times_inverse(phi, kernel_lincomb([(z_cur - target, phi)]), field, remedy)
        z_cur = target
        steps += 1
        nrm = l1_norm(phi)
        path.append((z_cur, nrm))

    khz = _momentum_kernel(hv - z, grid)
    res_r, res_l = _residuals([khz], [phi], field)
    # resolvent identity against the anchor: Φ_z - Φ_x0 = (z - x0) Φ_z ⋄ Φ_x0
    ident = l1_norm(kernel_lincomb([
        (1.0, phi),
        (-1.0, anchor.kernel),
        (-(z - x0), _product(phi, anchor.kernel, field)),
    ]))
    _surface_tail(phi, "resolvent kernel")
    meta = {
        "a0": a0,
        "anchor": x0,
        "steps": steps,
        "path": path,
        "residual_right": res_r,
        "residual_left": res_l,
        "identity_residual": ident,
        "anchor_residual": anchor.residual,
    }
    if z.imag != 0.0:
        meta["norm_bound"] = 1.0 / abs(z.imag)
    return ResolventElement(kernel=phi, z=z, residual=max(res_r, res_l), meta=meta)


def resolvent_with_potential(
    h,
    v: Callable,
    field: MagneticField,
    grid: BoxGrid,
    z: complex,
    *,
    base: Optional[ResolventElement] = None,
) -> ResolventElement:
    """Resolvent of h + V for a bounded multiplier V, perturbing from V = 0.

    Φ_{h+V}(r_z) = Φ_h(r_z) ⋄ (1 + V ⋄ Φ_h(r_z))^(-1) requires the
    perturbation norm ‖V ⋄ Φ‖₁ < 1; the error message suggests moving z
    away from the real axis when it is not.  A precomputed base resolvent
    at the same z may be passed to skip the continuation.  z, the symbol
    and the samples of V are checked before the first product.

    The kernel comes back tagged ``sheet="tilde"``: the correction Φ ⋄ w
    and the residual check run on that sheet, where every base point of the
    product lies on the lattice and the algebra is exact, so the residual
    describes the kernel returned.  ``twisted_involution``,
    ``partial_fourier`` and the reference product refuse that sheet;
    ``twisted_product(kernel, delta_kernel(grid), field)`` recenters it.

    The call holds four kernel-size arrays at a time, besides a product's
    GEMM tiles and the base kernel: the series' sum, -V ⋄ Φ, left factor
    and product (V ⋄ Φ is handed to the series, which negates it in
    place), then in the residual checks the correction, the kernel, the
    running sum and one product.  The products of the thin factors take
    no GEMM tiles: V multiplies one displacement slab at a time from one
    table of its values at the distinct points the product reads, and the
    3x3 stencil of h - z is summed tap by tap, one base row of the output
    at a time.  w is released once the correction exists, and base.kernel
    is read, never written.  With the benchmark's symbol, field, V and z a
    repeated call on ``BoxGrid(2, 6.0, 24)`` peaks at 5.00 times the
    returned kernel's size, within a Neumann product's GEMM tiles, and at
    4.51 times at n=32.
    """
    z = _finite_z(z)
    hv = _symbol_samples(h, grid)
    kv = multiplier_kernel(v, grid)
    if base is None:
        base = resolvent(h, field, grid, z)
    elif base.z != z:
        raise ValueError("base resolvent was computed at a different z")
    phi = base.kernel
    w, info = _inv_one_plus(
        _product(kv, phi, field), field, "increase |Im z| or shrink the potential"
    )
    phi = _to_tilde(phi)
    corr = trim_kernel(_product(phi, w, field, "tilde"), _SERIES_TRIM)
    del w
    phi_v = trim_kernel(kernel_lincomb([(1.0, phi), (1.0, corr)]), _SERIES_TRIM)

    khz = _momentum_kernel(hv - z, grid)
    # (h - z + V) ⋄ (Φ + corr) - 1 assembled piecewise: Φ does not decay at
    # the box edge, so folding it into one base-dependent array would make
    # the stiff momentum factor read zeros past the boundary; split apart,
    # every factor pair extends validly (corr and V-products decay in the
    # base point, the rest is base-independent or has an attached callable)
    res_r, res_l = _residuals([khz, kv], [phi, corr], field, "tilde")
    _surface_tail(phi_v, "perturbed resolvent kernel")
    meta = {
        "perturbation_norm": info["radius"],
        "neumann": info,
        "residual_right": res_r,
        "residual_left": res_l,
        "base_residual": base.residual,
    }
    return ResolventElement(kernel=phi_v, z=z, residual=max(res_r, res_l), meta=meta)


# ---------------------------------------------------------------------------
# estimate audit
# ---------------------------------------------------------------------------


def _defect_scaling(hv, field, grid, ladder, mu):
    """Defect norms along the shift ladder, from the samples hv of h, and
    their envelope norm(a₀)·(a/a₀)^(-1/μ) from the first rung a₀.  The
    ladder must be finite, non-empty, positive and strictly increasing,
    0 < a₀ < a₁ < ..., the ladders the envelope is defined for, and a₀
    must pass the shift guard, so every rung clears its floor."""
    a = np.asarray(ladder, dtype=float)
    ok = a.ndim == 1 and a.size > 0 and bool(np.all(np.isfinite(a)))
    if ok:
        _check_shift(hv, a[0])
    if not (ok and a[0] > 0 and np.all(np.diff(a) > 0)):
        raise ValueError(
            f"shift ladder must be finite, non-empty, positive and strictly increasing, got {ladder}"
        )
    norms = np.array([l1_norm(_defect_kernel(hv, s, field, grid)[2]) for s in a])
    envelope = norms[0] * (a / a[0]) ** (-1.0 / mu)
    return {
        "a": a.tolist(),
        "norm": norms.tolist(),
        "mu": mu,
        "envelope": envelope.tolist(),
        "within_envelope": bool(np.all(norms <= envelope)),
    }


def _seminorm_domination(dim, grids):
    """Ratio ‖𝓕⁻¹f‖₁ / max_{|α|≤2} sup_p ⟨p⟩^{-t+|α|}|∂^α f| on Gaussians.

    The kernel L¹ norm of a negative-type symbol is dominated by finitely
    many weighted sup seminorms; the constant is the largest ratio over
    the Gaussian family, one per grid, and its relative spread across the
    grids says whether the grids resolve it.
    """
    gaussians = [lambda p, w=w: np.exp(-w * np.sum(np.asarray(p) ** 2, axis=-1)) for w in _AUDIT_WIDTHS]
    sems = [max(Symbol(dim=dim, func=f, order=_AUDIT_T).spot_check().values()) for f in gaussians]
    per_grid = []
    for g in grids:
        pmesh = g.momentum().mesh()
        const = max(l1_norm(_momentum_kernel(f(pmesh), g)) / s for f, s in zip(gaussians, sems))
        per_grid.append({"n": g.n, "half_length": g.half_length, "constant": const})
    consts = [g["constant"] for g in per_grid]
    spread = (max(consts) - min(consts)) / max(consts) if consts else 0.0
    return {"t": _AUDIT_T, "per_grid": per_grid, "spread": float(spread)}


def estimate_audit(h, field: MagneticField, config: Optional[Dict] = None) -> Dict:
    """Numerical check of the envelopes behind the inversion construction.

    Each section carries a one-sided bound:

    * ``defect_scaling``: defect norms ‖h_a ⋄ (1/h_a) - 1‖₁ along a shift
      ladder a₀ < a₁ < ..., and ``within_envelope``: whether every rung is
      at most norm(a₀)·(a/a₀)^(-1/μ), μ = max{1,s}+0.1 with s the
      symbol's order (2 for a plain callable).  ``find_a0`` stops because
      the defect decays at least that fast; faster decay passes.
    * ``seminorm_domination``: the constant dominating kernel L¹ norms by
      weighted sup seminorms on a Gaussian family, per grid, and its
      relative ``spread`` across the grids, small when they resolve it.

    ``config`` may set ``grid`` (the box of the defect ladder, n=48 over
    [-6, 6]^N by default), ``grids`` (the seminorm grids, by default that
    box and its doubling) and ``a_ladder``; any other key is refused.
    """
    cfg = dict(config or {})
    unknown = [k for k in cfg if k not in _AUDIT_KEYS]
    if unknown:
        raise ValueError(f"unknown estimate_audit config key(s): {', '.join(map(repr, unknown))}")
    grid = cfg.get("grid")
    if grid is None:
        grid = BoxGrid(dim=field.dim, half_length=6.0, n=48)
    dim = grid.dim
    mu = max(1.0, float(h.order) if isinstance(h, Symbol) else 2.0) + 0.1
    ladder = cfg.get("a_ladder", (16.0, 32.0, 64.0, 128.0, 256.0))
    grids = cfg.get("grids")
    if grids is None:
        grids = [grid, BoxGrid(dim=dim, half_length=grid.half_length, n=2 * grid.n)]

    return {
        "defect_scaling": _defect_scaling(_symbol_samples(h, grid), field, grid, ladder, mu),
        "seminorm_domination": _seminorm_domination(dim, grids),
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
        ds = obj["defect_scaling"]
        sd = obj["seminorm_domination"]
        lines += [
            "kind: audit",
            f"defect_mu: {_fmt(ds['mu'])}",
            f"defect_within_envelope: {str(ds['within_envelope']).lower()}",
            f"seminorm_t: {_fmt(sd['t'])}",
            f"seminorm_spread: {_fmt(sd['spread'])}",
        ]
        rows = list(zip(ds["a"], ds["norm"], ds["envelope"]))
        tables.append(("defect_ladder", ["a", "norm", "envelope"], rows))
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
