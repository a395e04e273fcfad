"""Twisted kernel algebra and its representation on the box.

Kernels φ(q;x) over (base point, displacement) carry the product

    (φ ⋄ ψ)(q;x) = Σ_y Δ^N φ(q+(y-x)/2; y) ψ(q+y/2; x-y) ω^B(q-x/2; y, x-y)

the involution φ^◇(q;x) = conj(φ(q;-x)) and the norm
‖φ‖₁ = Σ_x sup_q |φ(q;x)| Δ^N.  The representation attaches circulation
phases:  M[x,y] = Δ^N λ^A(x; y-x) φ((x+y)/2; y-x).

Internally products and representations work on the sheared sheet
φ~(r;x) := φ(r + x/2; x), where the product becomes a shifted convolution

    (φ ⋄ ψ)~(r;x) = Σ_{y+w=x} Δ^N φ~(r;y) ψ~(r+y;w) ω^B(r;y,w)

with all base points on the lattice.  The 2-cocycle is evaluated through
the circulation factorization ω^B(r;y,w) = Λ(r;y) Λ(r+y;w) conj(Λ(r;y+w))
with Λ = λ^{A₀} for an internal transversal-gauge potential A₀ of B; this
is an exact identity (verified against direct flux quadrature by
``twisted_product_reference``), so the phases can be absorbed into the
factors and the inner loop reduces to a plain shifted convolution.  Sampled
values at off-lattice base points come from the kernel's exact callable
when present, else from symmetric interpolation (linear by default; linear
never overshoots, which keeps ‖rep(φ)‖ ≤ ‖φ‖₁ exact).

Base points beyond the box: kernels are zero there in truncated mode (the
operator acts on the box), so shifted factors zero-extend; base-point
independent kernels describe translation-covariant operators and their
values extend unchanged.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.signal import fftconvolve

from .fields import (
    MagneticField,
    VectorPotential,
    omega_b,
    transversal_gauge,
)
from .grid import (
    BoxGrid,
    KernelSample,
    PhaseGridFunction,
    partial_fourier_inv,
    shift_q,
    _shift_axis_int,
)

__all__ = [
    "KernelElement",
    "OperatorMatrix",
    "UnitizedKernel",
    "BandedOperator",
    "delta_kernel",
    "multiplier_kernel",
    "kernel_from_func",
    "l1_norm",
    "twisted_involution",
    "kernel_lincomb",
    "twisted_product",
    "twisted_product_reference",
    "rep",
    "rep_banded",
    "op_weyl",
    "op_norm",
    "save_matrix_bin",
    "load_matrix_bin",
    "save_matrix_csv",
    "load_matrix_csv",
]

# tail fraction of ||phi||1*||psi||1 above which a product attaches a warning
TAIL_WARN_FRACTION = 1e-2

# node pairs (or matrix entries) handled per block when a dense matrix is
# filled or scanned; keeps the circulation quadrature's temporaries small
_PAIR_BLOCK = 8192

# algebra elements are kernel samples with finite ‖·‖₁; the alias names the
# role they play here
KernelElement = KernelSample


# ---------------------------------------------------------------------------
# basic elements
# ---------------------------------------------------------------------------


def delta_kernel(grid: BoxGrid) -> KernelSample:
    """Unit of the algebra: point mass at displacement 0, height 1/Δ^N."""
    dim = grid.dim
    values = np.zeros((1,) * dim, dtype=complex)
    values[(0,) * dim] = 1.0 / grid.cell_volume

    def func(q, x):
        q = np.asarray(q, dtype=float)
        x = np.asarray(x, dtype=float)
        on = np.all(np.abs(x) < grid.delta / 4, axis=-1)
        shape = np.broadcast_shapes(q.shape[:-1], x.shape[:-1])
        return np.where(on, 1.0 / grid.cell_volume, 0.0) * np.ones(shape)

    return KernelSample(grid=grid, values=values, q_independent=True, func=func)


def multiplier_kernel(v: Callable, grid: BoxGrid) -> KernelSample:
    """Kernel of the multiplication operator u ↦ v(Q)u."""
    dim = grid.dim
    vals = np.atleast_1d(np.asarray(v(grid.mesh()), dtype=complex)) / grid.cell_volume

    def func(q, x):
        q = np.asarray(q, dtype=float)
        x = np.asarray(x, dtype=float)
        on = np.all(np.abs(x) < grid.delta / 4, axis=-1)
        base = np.asarray(v(q), dtype=complex) / grid.cell_volume
        return np.where(on, base, 0.0)

    if np.all(vals == vals.flat[0]):
        # constant samples have no base-point dependence; storing the single
        # height keeps downstream products on the exact q-independent paths
        values = np.full((1,) * dim, vals.flat[0])
        return KernelSample(grid=grid, values=values, q_independent=True, func=func)
    values = vals.reshape(vals.shape + (1,) * dim)
    return KernelSample(grid=grid, values=values, q_independent=False, func=func)


def kernel_from_func(
    func: Callable,
    grid: BoxGrid,
    disp_count: Optional[int] = None,
    q_independent: bool = False,
    attach_func: bool = True,
) -> KernelSample:
    """Sample a kernel callable func(q, x) on the (base, displacement) lattice."""
    if disp_count is None:
        disp_count = grid.max_disp_count()
    dim = grid.dim
    dax = grid.disp_axis(disp_count)
    dmesh = np.stack(np.meshgrid(*([dax] * dim), indexing="ij"), axis=-1)
    if q_independent:
        zero = np.zeros(dim)
        values = np.asarray(func(zero, dmesh), dtype=complex)
    else:
        q = grid.mesh().reshape((grid.n,) * dim + (1,) * dim + (dim,))
        x = dmesh.reshape((1,) * dim + (disp_count,) * dim + (dim,))
        values = np.asarray(func(q, x), dtype=complex)
    return KernelSample(
        grid=grid,
        values=values,
        q_independent=q_independent,
        func=func if attach_func else None,
    )


def l1_norm(k: KernelSample) -> float:
    """Σ_x sup_q |φ(q;x)| Δ^N."""
    return float(k.sup_over_q().sum()) * k.grid.cell_volume


def twisted_involution(k: KernelSample) -> KernelSample:
    """φ^◇(q;x) = conj(φ(q;-x)); exact on the lattice."""
    dim = k.grid.dim
    flip = (slice(None),) * (k.values.ndim - dim) + (slice(None, None, -1),) * dim
    values = np.conj(k.values[flip])
    func = None
    if k.func is not None:
        orig = k.func

        def func(q, x):
            return np.conj(orig(q, -np.asarray(x)))

    return KernelSample(
        grid=k.grid,
        values=values,
        q_independent=k.q_independent,
        func=func,
        tail_mass=k.tail_mass,
    )


def kernel_lincomb(terms) -> KernelSample:
    """Σ c_i φ_i with displacement windows unified to the widest one.

    Mixed base-point dependence broadcasts the independent factors.  The
    exact callables are dropped (the sum is a new object).
    """
    terms = [(complex(c), k) for c, k in terms]
    if not terms:
        raise ValueError("empty linear combination")
    grid = terms[0][1].grid
    dim = grid.dim
    if any(k.grid != grid for _, k in terms):
        raise ValueError("kernels live on different grids")
    q_independent = all(k.q_independent for _, k in terms)
    count = max(k.disp_count for _, k in terms)
    kmax = count // 2
    shape = ((grid.n,) * dim if not q_independent else ()) + (count,) * dim
    out = np.zeros(shape, dtype=complex)
    tail = 0.0
    for c, k in terms:
        kk = k.disp_count // 2
        sl = (slice(None),) * (len(shape) - dim) + (slice(kmax - kk, kmax + kk + 1),) * dim
        if q_independent or not k.q_independent:
            out[sl] += c * k.values
        else:
            out[sl] += c * k.as_q_dependent()
        tail += abs(c) * k.tail_mass
    return KernelSample(grid=grid, values=out, q_independent=q_independent, tail_mass=tail)


# ---------------------------------------------------------------------------
# sheared-sheet machinery
# ---------------------------------------------------------------------------


def _tilde_values(k: KernelSample, scheme: str, pad: int = 0) -> np.ndarray:
    """φ~(r;x) = φ(r + x/2; x) for every displacement node.

    Exact via the kernel's callable when present; base-point independent
    kernels are unaffected by the shear.  With ``pad`` the base mesh is
    extended by that many lattice steps per face: callables are evaluated
    there directly, plain arrays are zero-extended.
    """
    if k.q_independent:
        return k.values.astype(complex, copy=False)
    grid = k.grid
    dim = grid.dim
    d = k.disp_count
    kk = d // 2
    if k.func is not None:
        mesh = _ext_mesh(grid, pad) if pad else grid.mesh()
        dax = grid.disp_axis(d)
        out = np.empty(mesh.shape[:-1] + (d,) * dim, dtype=complex)
        for j in np.ndindex(*(d,) * dim):
            u = np.array([dax[i] for i in j])
            out[(Ellipsis,) + j] = k.func(mesh + 0.5 * u, u)
        return out
    out = np.empty(k.values.shape, dtype=complex)
    for j in np.ndindex(*(d,) * dim):
        steps = [i - kk for i in j]
        out[(Ellipsis,) + j] = shift_q(k.values[(Ellipsis,) + j], grid, steps, scheme=scheme)
    if pad:
        out = np.pad(out, [(pad, pad)] * dim + [(0, 0)] * dim)
    return out


def _centered_from_tilde(vals: np.ndarray, grid: BoxGrid, q_independent: bool, scheme: str) -> np.ndarray:
    """Undo the shear: φ(q;x) = φ~(q - x/2; x)."""
    if q_independent:
        return vals
    dim = grid.dim
    d = vals.shape[-1]
    kk = d // 2
    out = np.empty(vals.shape, dtype=complex)
    for j in np.ndindex(*(d,) * dim):
        steps = [-(i - kk) for i in j]
        out[(Ellipsis,) + j] = shift_q(vals[(Ellipsis,) + j], grid, steps, scheme=scheme)
    return out


def _ext_mesh(grid: BoxGrid, pad: int) -> np.ndarray:
    """Node mesh extended by ``pad`` lattice steps beyond each face."""
    ax = (np.arange(grid.n + 2 * pad) - pad - (grid.n - 1) / 2.0) * grid.delta
    return np.stack(np.meshgrid(*([ax] * grid.dim), indexing="ij"), axis=-1)


def _lambda_factors(
    pot: VectorPotential, grid: BoxGrid, disp_count: int, pad: int = 0, order: int = 8
) -> np.ndarray:
    """Table Λ[r; u] = λ^{A}(r; u) over (extended) base mesh and window."""
    dim = grid.dim
    mesh = _ext_mesh(grid, pad)
    dax = grid.disp_axis(disp_count)
    shape = mesh.shape[:-1] + (disp_count,) * dim
    out = np.empty(shape, dtype=complex)
    for j in np.ndindex(*(disp_count,) * dim):
        u = np.array([dax[i] for i in j])
        out[(Ellipsis,) + j] = np.exp(-1j * pot.circulation(mesh, u, order=order))
    return out


def _accum_numpy(out, a, b, offs, pad, dim):
    """Generic shifted-convolution accumulation, any dimension.

    out[r; y+w+off] += a[r; y] * b[r+y+pad; w], vectorized over (r, w) for
    each displacement node y of the left factor.
    """
    n = out.shape[0]
    da = a.shape[-1]
    db = b.shape[-1]
    ka = (da - 1) // 2
    do = out.shape[-1]
    nb = b.shape[0]
    for j in np.ndindex(*(da,) * dim):
        s = [i - ka for i in j]
        # valid base range so that r + s + pad indexes b
        rlo = [max(0, -si - pad) for si in s]
        rhi = [min(n, nb - si - pad) for si in s]
        if any(hi <= lo for lo, hi in zip(rlo, rhi)):
            continue
        # output window for this y: o = y + w + off in [0, do)
        wlo = [max(0, -offs - ji) for ji in j]
        whi = [min(db, do - offs - ji) for ji in j]
        if any(hi <= lo for lo, hi in zip(wlo, whi)):
            continue
        asl = tuple(slice(lo, hi) for lo, hi in zip(rlo, rhi)) + j
        bsl = tuple(
            slice(lo + si + pad, hi + si + pad) for lo, hi, si in zip(rlo, rhi, s)
        ) + tuple(slice(lo, hi) for lo, hi in zip(wlo, whi))
        osl = tuple(slice(lo, hi) for lo, hi in zip(rlo, rhi)) + tuple(
            slice(ji + lo + offs, ji + hi + offs) for ji, lo, hi in zip(j, wlo, whi)
        )
        out[osl] += a[asl][(Ellipsis,) + (None,) * dim] * b[bsl]


def _clip_mass(sup_a, sup_b, keep_count, cell):
    """L1 mass of the product falling outside the kept output window."""
    full = fftconvolve(sup_a, sup_b)
    total = full.sum()
    kfull = (full.shape[0] - 1) // 2
    kk = keep_count // 2
    sl = tuple(slice(kfull - kk, kfull + kk + 1) for _ in range(full.ndim))
    kept = full[sl].sum()
    return float(max(total - kept, 0.0)) * cell * cell


# ---------------------------------------------------------------------------
# the twisted product
# ---------------------------------------------------------------------------


def _product_qindep_const(phi, psi, field, out_count):
    """Translation-invariant fast path: both kernels base-point independent
    and the field constant, so the cocycle depends only on (y, w)."""
    grid = phi.grid
    dim = grid.dim
    da, db = phi.disp_count, psi.disp_count
    ka, kb = da // 2, db // 2
    dfull = da + db - 1
    axa = grid.disp_axis(da)
    axb = grid.disp_axis(db)
    bmat = field.constant if field.constant is not None else np.zeros((dim, dim))
    acc = np.zeros((dfull,) * dim, dtype=complex)
    bx = np.stack(np.meshgrid(*([axb] * dim), indexing="ij"), axis=-1)
    for j in np.ndindex(*(da,) * dim):
        av = phi.values[j]
        if av == 0:
            continue
        y = np.array([axa[i] for i in j])
        # flux of the constant field over the (y, w) triangle
        flux = 0.5 * np.einsum("...j,j->...", bx, bmat.T @ y)
        block = av * np.exp(-1j * flux) * psi.values
        osl = tuple(slice(ji, ji + db) for ji in j)
        acc[osl] += block
    acc *= grid.cell_volume
    kfull = (dfull - 1) // 2
    kk = out_count // 2
    sl = tuple(slice(kfull - kk, kfull + kk + 1) for _ in range(dim))
    kept = acc[sl].copy()
    clipped = float((np.abs(acc).sum() - np.abs(kept).sum())) * grid.cell_volume
    return kept, clipped


def _product_general(phi, psi, field, out_count, scheme, order, sheet="centered"):
    """Sheared-sheet accumulation with circulation-dressed factors."""
    grid = phi.grid
    dim = grid.dim
    da, db = phi.disp_count, psi.disp_count
    ka, kb = da // 2, db // 2
    kout = out_count // 2
    off = kout - ka - kb

    pot = transversal_gauge(field, order=order)
    # the right factor is read at shifted base points r + y; callables and
    # base-point independent kernels extend past the box, arrays do not
    pad = ka if (psi.q_independent or psi.func is not None) else 0
    a = _tilde_values(phi, scheme)
    b = _tilde_values(psi, scheme, pad=pad)
    if not field.is_zero:
        # gauge dressing turns the twisted sum into a plain shifted convolution
        a = _lambda_factors(pot, grid, da, pad=0, order=order) * a
        b = _lambda_factors(pot, grid, db, pad=pad, order=order) * b
    # ensure both factors carry base axes (the dressing already adds them
    # unless the field is zero and the factor is base-point independent)
    if a.ndim == dim:
        a = np.broadcast_to(a.reshape((1,) * dim + a.shape), (grid.n,) * dim + a.shape).copy()
    if b.ndim == dim:
        nb = grid.n + 2 * pad
        b = np.broadcast_to(b.reshape((1,) * dim + b.shape), (nb,) * dim + b.shape).copy()

    out = np.zeros((grid.n,) * dim + (out_count,) * dim, dtype=complex)
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    _accum_numpy(out, a, b, off, pad, dim)
    out *= grid.cell_volume

    # undress: out~ = conj(Λ(r;x)) * acc(r;x)
    if not field.is_zero:
        mesh = grid.mesh()
        dax = grid.disp_axis(out_count)
        for j in np.ndindex(*(out_count,) * dim):
            u = np.array([dax[i] for i in j])
            out[(Ellipsis,) + j] *= np.exp(1j * pot.circulation(mesh, u, order=order))

    if sheet == "tilde":
        vals = out
    else:
        vals = _centered_from_tilde(out, grid, False, scheme)
    sup_a = phi.sup_over_q()
    sup_b = psi.sup_over_q()
    clipped = _clip_mass(sup_a, sup_b, out_count, grid.cell_volume)
    return vals, clipped


def _mult_left(phi, psi, scheme, sheet="centered"):
    """(v ⋄ ψ)(q;x) = v(q - x/2) ψ(q;x) for a displacement-0 left factor.

    On the sheared sheet the shift drops out: (v ⋄ ψ)~(r;x) = v(r) ψ~(r;x).
    """
    grid = phi.grid
    dim = grid.dim
    d = psi.disp_count
    kk = d // 2
    dax = grid.disp_axis(d)
    if phi.q_independent:
        c = phi.values[(0,) * dim] * grid.cell_volume
        vals = _tilde_values(psi, scheme) if sheet == "tilde" else psi.values
        return (c * vals).astype(complex), 0.0
    out = np.empty((grid.n,) * dim + (d,) * dim, dtype=complex)
    mesh = grid.mesh()
    vq = phi.values[(Ellipsis,) + (0,) * dim] * grid.cell_volume
    if sheet == "tilde":
        # base point is r itself, so the stored samples apply unshifted
        tb = _tilde_values(psi, scheme)
        for j in np.ndindex(*(d,) * dim):
            psij = tb[j] if psi.q_independent else tb[(Ellipsis,) + j]
            out[(Ellipsis,) + j] = vq * psij
        return out, 0.0
    for j in np.ndindex(*(d,) * dim):
        u = np.array([dax[i] for i in j])
        if phi.func is not None:
            vv = phi.func(mesh - 0.5 * u, np.zeros(dim)) * grid.cell_volume
        else:
            vv = shift_q(vq, grid, [-(i - kk) for i in j], scheme=scheme)
        psij = psi.values[j] if psi.q_independent else psi.values[(Ellipsis,) + j]
        out[(Ellipsis,) + j] = vv * psij
    return out, 0.0


def _mult_right(phi, psi, scheme, sheet="centered"):
    """(φ ⋄ v)(q;x) = φ(q;x) v(q + x/2) for a displacement-0 right factor.

    Sheared form: (φ ⋄ v)~(r;x) = φ~(r;x) v(r + x).
    """
    grid = phi.grid
    dim = grid.dim
    d = phi.disp_count
    kk = d // 2
    dax = grid.disp_axis(d)
    if psi.q_independent:
        c = psi.values[(0,) * dim] * grid.cell_volume
        vals = _tilde_values(phi, scheme) if sheet == "tilde" else phi.values
        return (c * vals).astype(complex), 0.0
    out = np.empty((grid.n,) * dim + (d,) * dim, dtype=complex)
    mesh = grid.mesh()
    vq = psi.values[(Ellipsis,) + (0,) * dim] * grid.cell_volume
    if sheet == "tilde":
        ta = _tilde_values(phi, scheme)
        for j in np.ndindex(*(d,) * dim):
            u = np.array([dax[i] for i in j])
            if psi.func is not None:
                vv = psi.func(mesh + u, np.zeros(dim)) * grid.cell_volume
            else:
                vv = shift_q(vq, grid, [2 * (i - kk) for i in j], scheme=scheme)
            phij = ta[j] if phi.q_independent else ta[(Ellipsis,) + j]
            out[(Ellipsis,) + j] = vv * phij
        return out, 0.0
    for j in np.ndindex(*(d,) * dim):
        u = np.array([dax[i] for i in j])
        if psi.func is not None:
            vv = psi.func(mesh + 0.5 * u, np.zeros(dim)) * grid.cell_volume
        else:
            vv = shift_q(vq, grid, [i - kk for i in j], scheme=scheme)
        phij = phi.values[j] if phi.q_independent else phi.values[(Ellipsis,) + j]
        out[(Ellipsis,) + j] = vv * phij
    return out, 0.0


def twisted_product(
    phi: KernelSample,
    psi: KernelSample,
    field: MagneticField,
    *,
    scheme: str = "linear",
    order: int = 8,
    out_disp_count: Optional[int] = None,
    tail_warn: float = TAIL_WARN_FRACTION,
    sheet: str = "centered",
) -> KernelSample:
    """The ⋄-product of two kernels twisted by the field's 2-cocycle.

    The output displacement window defaults to the largest representable
    one; mass pushed past it is recorded in ``tail_mass`` (plus the inputs'
    inherited tails) and a warning is attached when the total exceeds
    ``tail_warn`` relative to ‖φ‖₁‖ψ‖₁.

    ``sheet="tilde"`` returns the raw sheared-sheet values
    out~(r;x) = out(r + x/2; x) instead of recentering them.  Every base
    point of the accumulation lies on the node lattice there, so that form
    is free of the half-step interpolation the centered output needs on odd
    displacement rows; it is the right object for cross-route validation.
    """
    if phi.grid != psi.grid:
        raise ValueError("kernels live on different grids")
    grid = phi.grid
    if field.dim != grid.dim:
        raise ValueError("field dimension does not match the grid")
    if sheet not in ("centered", "tilde"):
        raise ValueError("sheet must be 'centered' or 'tilde'")
    dim = grid.dim
    natural = phi.disp_count + psi.disp_count - 1
    if out_disp_count is None:
        out_count = min(natural, grid.max_disp_count())
    else:
        if out_disp_count % 2 != 1:
            raise ValueError("output displacement count must be odd")
        out_count = min(out_disp_count, grid.max_disp_count())

    q_independent = False
    if phi.disp_count == 1:
        vals, clipped = _mult_left(phi, psi, scheme, sheet)
        q_independent = phi.q_independent and psi.q_independent
        out_count = psi.disp_count
    elif psi.disp_count == 1:
        vals, clipped = _mult_right(phi, psi, scheme, sheet)
        q_independent = phi.q_independent and psi.q_independent
        out_count = phi.disp_count
    elif phi.q_independent and psi.q_independent and (field.is_constant or field.is_zero):
        # base-point independent values are shear-invariant, same array
        # serves both sheets
        vals, clipped = _product_qindep_const(phi, psi, field, out_count)
        q_independent = True
    else:
        vals, clipped = _product_general(phi, psi, field, out_count, scheme, order, sheet)

    tail = clipped + phi.tail_mass * l1_norm(psi) + l1_norm(phi) * psi.tail_mass
    out = KernelSample(
        grid=grid,
        values=vals,
        q_independent=q_independent,
        tail_mass=tail,
    )
    if sheet == "tilde":
        out.meta["sheet"] = "tilde"
    scale = l1_norm(phi) * l1_norm(psi)
    if scale > 0 and tail > tail_warn * scale:
        out.meta["tail_warning"] = True
        warnings.warn(
            f"twisted product discarded {tail:.3e} of L1 mass "
            f"(relative {tail / scale:.3e}); enlarge the displacement window",
            stacklevel=2,
        )
    return out


def twisted_product_reference(
    phi: KernelSample,
    psi: KernelSample,
    field: MagneticField,
    *,
    scheme: str = "linear",
    order: int = 8,
    out_disp_count: Optional[int] = None,
    sheet: str = "centered",
) -> KernelSample:
    """Direct evaluation of the ⋄-sum with per-pair flux quadrature.

    Independent route used to validate the production path: no gauge
    dressing, the 2-cocycle is integrated afresh for every displacement
    pair.  Cost grows with the fourth power of the window size, so keep
    grids small.  ``sheet`` as in :func:`twisted_product`; on the tilde
    sheet every factor sits at an on-lattice base point, so the two routes
    must agree there to quadrature accuracy.
    """
    if phi.grid != psi.grid:
        raise ValueError("kernels live on different grids")
    if sheet not in ("centered", "tilde"):
        raise ValueError("sheet must be 'centered' or 'tilde'")
    grid = phi.grid
    dim = grid.dim
    da, db = phi.disp_count, psi.disp_count
    natural = da + db - 1
    out_count = min(natural if out_disp_count is None else out_disp_count, grid.max_disp_count())
    kout = out_count // 2
    axa = grid.disp_axis(da)
    axb = grid.disp_axis(db)
    axo = grid.disp_axis(out_count)
    mesh = grid.mesh()
    pa = phi.as_q_dependent()
    pb = psi.as_q_dependent()
    ka, kb = da // 2, db // 2
    n = grid.n
    tilde = sheet == "tilde"
    ta = _tilde_values(phi, scheme) if (tilde and not phi.q_independent and phi.func is None) else None
    tb = _tilde_values(psi, scheme) if (tilde and not psi.q_independent and psi.func is None) else None
    out = np.zeros((n,) * dim + (out_count,) * dim, dtype=complex)
    for jo in np.ndindex(*(out_count,) * dim):
        x = np.array([axo[i] for i in jo])
        acc = np.zeros((n,) * dim, dtype=complex)
        for jy in np.ndindex(*(da,) * dim):
            y = np.array([axa[i] for i in jy])
            w = x - y
            jw = tuple(int(round(wi / grid.delta)) + kb for wi in w)
            if any(i < 0 or i >= db for i in jw):
                continue
            # factor values at shifted base points
            if tilde:
                # out~(r;x) = sum_y φ~(r;y) ψ~(r+y;x-y) ω^B(r;y,x-y)
                if phi.q_independent:
                    fa = pa[(0,) * dim + jy]
                elif phi.func is not None:
                    fa = phi.func(mesh + 0.5 * y, y)
                else:
                    fa = ta[(Ellipsis,) + jy]
                if psi.q_independent:
                    fb = pb[(0,) * dim + jw]
                elif psi.func is not None:
                    fb = psi.func(mesh + y + 0.5 * w, w)
                else:
                    fb = shift_q(
                        tb[(Ellipsis,) + jw],
                        grid,
                        [2 * (i - ka) for i in jy],
                        scheme=scheme,
                    )
                om = omega_b(field, mesh, y, w, order=order)
            else:
                if phi.q_independent:
                    fa = pa[(0,) * dim + jy]
                elif phi.func is not None:
                    fa = phi.func(mesh + 0.5 * (y - x), y)
                else:
                    fa = shift_q(
                        phi.values[(Ellipsis,) + jy],
                        grid,
                        [int(round((yi - xi) / grid.delta)) for yi, xi in zip(y, x)],
                        scheme=scheme,
                    )
                if psi.q_independent:
                    fb = pb[(0,) * dim + jw]
                elif psi.func is not None:
                    fb = psi.func(mesh + 0.5 * y, w)
                else:
                    fb = shift_q(
                        psi.values[(Ellipsis,) + jw],
                        grid,
                        [int(round(yi / grid.delta)) for yi in y],
                        scheme=scheme,
                    )
                om = omega_b(field, mesh - 0.5 * x, y, w, order=order)
            acc = acc + fa * fb * om
        out[(Ellipsis,) + jo] = acc * grid.cell_volume
    if phi.q_independent and psi.q_independent and (field.is_constant or field.is_zero):
        res = KernelSample(grid=grid, values=out[(0,) * dim], q_independent=True)
    else:
        res = KernelSample(grid=grid, values=out, q_independent=False)
    if tilde:
        res.meta["sheet"] = "tilde"
    return res


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Dense operator on the box nodes, rows/columns in C order."""

    mat: np.ndarray
    grid: BoxGrid
    hermitian: bool = False

    def __post_init__(self):
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if self.mat.shape[0] != self.grid.size:
            raise ValueError("matrix dimension does not match the grid")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.mat @ other.mat, self.grid)
        return self.mat @ other


@dataclass
class BandedOperator:
    """Matrix-free operator Σ_u c(x;u) shift_u, one band per displacement."""

    grid: BoxGrid
    coeffs: np.ndarray  # (n,)*dim + (d,)*dim
    periodic: bool = False

    @property
    def disp_count(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def shape(self):
        return (self.size, self.size)

    @property
    def dtype(self):
        return self.coeffs.dtype

    def matvec(self, v: np.ndarray) -> np.ndarray:
        grid = self.grid
        dim = grid.dim
        d = self.disp_count
        kk = d // 2
        arr = np.asarray(v).reshape((grid.n,) * dim)
        out = np.zeros_like(arr, dtype=complex)
        for j in np.ndindex(*(d,) * dim):
            c = self.coeffs[(Ellipsis,) + j]
            shifted = arr
            for ax, i in enumerate(j):
                shifted = _shift_axis_int(shifted, ax, i - kk, self.periodic)
            out += c * shifted
        return out.reshape(v.shape)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        # adjoint: out(y) = Σ_u conj(c(y-u; u)) v(y-u)
        grid = self.grid
        dim = grid.dim
        d = self.disp_count
        kk = d // 2
        arr = np.asarray(v).reshape((grid.n,) * dim)
        out = np.zeros_like(arr, dtype=complex)
        for j in np.ndindex(*(d,) * dim):
            term = np.conj(self.coeffs[(Ellipsis,) + j]) * arr
            for ax, i in enumerate(j):
                term = _shift_axis_int(term, ax, -(i - kk), self.periodic)
            out += term
        return out.reshape(v.shape)

    def to_dense(self) -> np.ndarray:
        grid = self.grid
        dim = grid.dim
        n = grid.n
        d = self.disp_count
        kk = d // 2
        size = grid.size
        mat = np.zeros((size, size), dtype=complex)
        flat = np.arange(size).reshape((n,) * dim)
        for j in np.ndindex(*(d,) * dim):
            s = [i - kk for i in j]
            if self.periodic:
                rows = flat
                cols = flat
                for ax, si in enumerate(s):
                    cols = np.roll(cols, -si, axis=ax)
                mat[rows.ravel(), cols.ravel()] += self.coeffs[(Ellipsis,) + j].ravel()
            else:
                rsl = tuple(slice(max(0, -si), min(n, n - si)) for si in s)
                csl = tuple(slice(max(0, si), min(n, n + si)) for si in s)
                rows = flat[rsl].ravel()
                cols = flat[csl].ravel()
                mat[rows, cols] += self.coeffs[rsl + j].ravel()
        return mat


def _sheared_coefficients(kernel: KernelSample, scheme: str) -> np.ndarray:
    """φ~(x;u) as stored for tilde-tagged kernels (``meta["sheet"] ==
    "tilde"``, no interpolation enters), else from :func:`_tilde_values`."""
    if kernel.meta.get("sheet") == "tilde":
        return kernel.values.astype(complex, copy=False)
    return _tilde_values(kernel, scheme)


def _hermitian_residual(mat: np.ndarray) -> float:
    """max|M - M*| / max|M| (0 for M = 0), scanned over row blocks so no
    full-size temporary is made."""
    size = mat.shape[0]
    step = max(1, _PAIR_BLOCK // size)
    scale = worst = 0.0
    for start in range(0, size, step):
        rows = mat[start:start + step]
        scale = max(scale, float(np.abs(rows).max()))
        worst = max(worst, float(np.abs(rows - mat[:, start:start + step].conj().T).max()))
    return worst / scale if scale > 0 else 0.0


def rep_banded(
    pot: VectorPotential,
    kernel: KernelSample,
    *,
    scheme: str = "linear",
    order: int = 8,
) -> BandedOperator:
    """Representation as a banded operator: c(x;u) = Δ^N λ^A(x;u) φ~(x;u).

    The matrix-free form of :func:`rep`, for ``matvec``/``rmatvec`` users.
    """
    grid = kernel.grid
    dim = grid.dim
    d = kernel.disp_count
    tilde = _sheared_coefficients(kernel, scheme)
    if kernel.q_independent:
        tilde = np.broadcast_to(
            tilde.reshape((1,) * dim + tilde.shape), (grid.n,) * dim + tilde.shape
        )
    mesh = grid.mesh()
    dax = grid.disp_axis(d)
    coeffs = np.empty((grid.n,) * dim + (d,) * dim, dtype=complex)
    for j in np.ndindex(*(d,) * dim):
        u = np.array([dax[i] for i in j])
        lam = np.exp(-1j * pot.circulation(mesh, u, order=order))
        coeffs[(Ellipsis,) + j] = lam * tilde[(Ellipsis,) + j]
    coeffs *= grid.cell_volume
    return BandedOperator(grid=grid, coeffs=coeffs, periodic=grid.bc == "periodic")


def rep(
    pot: VectorPotential,
    kernel: KernelSample,
    *,
    scheme: str = "linear",
    order: int = 8,
) -> OperatorMatrix:
    """Dense matrix of the representation, M[x,y] = Δ^N λ^A(x;y-x) φ((x+y)/2;y-x).

    Filled directly over the node pairs whose difference u = y - x lies in
    the kernel window, a fixed number of pairs per block of rows: the entry
    is Δ^N exp(-i circulation(x, u)) φ~(x;u) with the sheared value
    φ~(x;u) = φ(x + u/2; u), taken as stored for tilde-tagged kernels.
    Periodic boxes wrap the column index.  Entries equal those of
    ``rep_banded(...).to_dense()`` bit for bit.
    """
    grid = kernel.grid
    dim, n, size = grid.dim, grid.n, grid.size
    d = kernel.disp_count
    count = d**dim
    tilde = _sheared_coefficients(kernel, scheme).reshape(-1, count)
    disp = grid.disp_axis(d)[np.stack(np.unravel_index(np.arange(count), (d,) * dim), axis=-1)]
    # per axis: the node reached from node i by the j-th step, and whether
    # it lies in the box
    target = np.arange(n)[:, None] + np.arange(d)[None, :] - d // 2
    inside = (target >= 0) & (target < n)
    if grid.bc == "periodic":
        target %= n
        inside[:] = True
    pts = grid.points()
    mat = np.zeros((size, size), dtype=complex)
    rows_per_block = max(1, _PAIR_BLOCK // count)
    for start in range(0, size, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, size))
        col, ok = 0, True
        for ax, node in enumerate(np.unravel_index(rows, (n,) * dim)):
            shape = (len(rows),) + (1,) * ax + (d,) + (1,) * (dim - 1 - ax)
            col = col * n + target[node].reshape(shape)
            ok = ok & inside[node].reshape(shape)
        r, j = np.nonzero(ok.reshape(len(rows), count))
        col = col.reshape(len(rows), count)[r, j]
        r += start
        coef = np.take(tilde[0], j) if kernel.q_independent else tilde[r, j]
        circ = pot.circulation(np.take(pts, r, axis=0), np.take(disp, j, axis=0), order=order)
        mat[r, col] = np.exp(-1j * circ) * coef * grid.cell_volume
    return OperatorMatrix(mat=mat, grid=grid, hermitian=_hermitian_residual(mat) <= 1e-12)


def op_weyl(
    pot: VectorPotential,
    f: Union[PhaseGridFunction, Callable],
    grid: Optional[BoxGrid] = None,
    *,
    r_disp: Optional[float] = None,
    q_independent: bool = True,
    scheme: str = "linear",
    order: int = 8,
    banded: bool = False,
):
    """Quantization of a phase-space symbol: rep of its partial Fourier kernel."""
    if not isinstance(f, PhaseGridFunction):
        if grid is None:
            raise ValueError("grid required when the symbol is a callable")
        f = PhaseGridFunction.sample(f, grid, q_independent=q_independent)
    kernel = partial_fourier_inv(f, r_disp=r_disp)
    if banded:
        return rep_banded(pot, kernel, scheme=scheme, order=order)
    return rep(pot, kernel, scheme=scheme, order=order)


def op_norm(op, *, tol: float = 1e-4, maxiter: int = 500, seed: int = 0) -> float:
    """Operator (spectral) norm; exact for small dense, power iteration else.

    Accepts OperatorMatrix, ndarray, BandedOperator, or any object with
    matvec/rmatvec, including scipy LinearOperator compositions.
    """
    if isinstance(op, OperatorMatrix):
        op = op.mat
    if isinstance(op, np.ndarray):
        if op.shape[0] <= 3000:
            return float(np.linalg.norm(op, 2))
        mv = lambda v: op @ v
        rmv = lambda v: op.conj().T @ v
        size = op.shape[0]
    else:
        mv = op.matvec
        rmv = op.rmatvec
        size = op.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(maxiter):
        w = mv(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        u = rmv(w)
        nu = np.linalg.norm(u)
        new_sigma = np.sqrt(nu)
        v = u / nu
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


# ---------------------------------------------------------------------------
# minimal unitization
# ---------------------------------------------------------------------------


@dataclass
class UnitizedKernel:
    """μ·1 + φ in the minimal unitization of the kernel algebra."""

    scalar: complex
    kernel: Optional[KernelSample] = None

    def norm(self) -> float:
        n = abs(self.scalar)
        if self.kernel is not None:
            n += l1_norm(self.kernel)
        return float(n)

    def product(self, other: "UnitizedKernel", field: MagneticField, **kw) -> "UnitizedKernel":
        scalar = self.scalar * other.scalar
        terms = []
        if self.kernel is not None and abs(other.scalar) != 0:
            terms.append((other.scalar, self.kernel))
        if other.kernel is not None and abs(self.scalar) != 0:
            terms.append((self.scalar, other.kernel))
        prod = None
        if self.kernel is not None and other.kernel is not None:
            prod = twisted_product(self.kernel, other.kernel, field, **kw)
            terms.append((1.0, prod))
        kernel = kernel_lincomb(terms) if terms else None
        return UnitizedKernel(scalar=scalar, kernel=kernel)

    def involution(self) -> "UnitizedKernel":
        k = twisted_involution(self.kernel) if self.kernel is not None else None
        return UnitizedKernel(scalar=np.conj(self.scalar), kernel=k)

    def add(self, other: "UnitizedKernel") -> "UnitizedKernel":
        terms = []
        if self.kernel is not None:
            terms.append((1.0, self.kernel))
        if other.kernel is not None:
            terms.append((1.0, other.kernel))
        kernel = kernel_lincomb(terms) if terms else None
        return UnitizedKernel(scalar=self.scalar + other.scalar, kernel=kernel)

    def scale(self, c: complex) -> "UnitizedKernel":
        k = None
        if self.kernel is not None:
            k = kernel_lincomb([(c, self.kernel)])
        return UnitizedKernel(scalar=c * self.scalar, kernel=k)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def save_matrix_bin(path, mat) -> None:
    """Binary layout: uint64 little-endian dimension, then row-major
    (real, imag) float64 little-endian pairs."""
    if isinstance(mat, OperatorMatrix):
        mat = mat.mat
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    inter = np.empty((dim, dim, 2), dtype="<f8")
    inter[..., 0] = mat.real
    inter[..., 1] = mat.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", dim))
        fh.write(inter.tobytes())


def load_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (dim,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != 2 * dim * dim:
        raise ValueError("binary matrix file is truncated")
    data = data.reshape(dim, dim, 2)
    return (data[..., 0] + 1j * data[..., 1]).astype(complex)


def save_matrix_csv(path, mat) -> None:
    """CSV layout: one matrix row per line, entries as real,imag pairs."""
    if isinstance(mat, OperatorMatrix):
        mat = mat.mat
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    inter = np.empty((dim, 2 * dim))
    inter[:, 0::2] = mat.real
    inter[:, 1::2] = mat.imag
    np.savetxt(path, inter, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    inter = np.loadtxt(path, delimiter=",", ndmin=2)
    return inter[:, 0::2] + 1j * inter[:, 1::2]
