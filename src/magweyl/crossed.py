"""Twisted kernel algebra and its representation on the box.

Kernels φ(q;x) over (base point, displacement) carry the product

    (φ ⋄ ψ)(q;x) = Σ_y Δ^N φ(q+(y-x)/2; y) ψ(q+y/2; x-y) ω^B(q-x/2; y, x-y)

the involution φ^◇(q;x) = conj(φ(q;-x)) and the norm
‖φ‖₁ = Σ_x sup_q |φ(q;x)| Δ^N.  The representation attaches circulation
phases:  M[x,y] = Δ^N λ^A(x; y-x) φ((x+y)/2; y-x).

The box algebra is unital: ``delta_kernel(grid)`` is its two-sided unit,
so the Neumann series and residuals of ``resolvent`` are written against
it and no separate unitization is needed.

Internally products and representations work on the sheared sheet
φ~(r;x) := φ(r + x/2; x), where the product becomes a shifted convolution

    (φ ⋄ ψ)~(r;x) = Σ_{y+w=x} Δ^N φ~(r;y) ψ~(r+y;w) ω^B(r;y,w)

with all base points on the lattice.  ``KernelSample.sheet`` says which
form a kernel stores; products return centered values unless asked for
the tilde sheet, and ``rep`` and ``twisted_product`` read either.  The
shear between the sheets is ``grid._shear``: like the meshes and the
Fourier convention, it is a lattice convention :mod:`magweyl.grid` owns.
A product shears its own output back in place.  A product
reads a tilde-tagged factor as stored, so a caller that multiplies by one
factor several times tags it once (``_to_tilde``), as the Neumann series
of ``resolvent`` does with its fixed factor; a caller that owns a centered
array moves it to the tilde sheet in place (``_to_tilde(k, inplace=True)``),
as that series does with each running term, and values that view a larger
array are copied first; a perturbed resolvent keeps its correction on the
tilde sheet throughout.

``kernel_lincomb`` adds its terms in order into one zeroed output, each on
the central part of its window: a ±1 coefficient adds or subtracts the
values as stored, a base-point independent term broadcasts, and another
coefficient scales a base-point dependent term one base row at a time, so
the output is the only full-size array it makes.  ``_add_into`` adds a
term into a sum the caller owns with the same roundings, which is how the
Neumann series and the residual checks of ``resolvent`` accumulate.

``twisted_product`` has three branches.  A factor with one displacement
node is a multiplier and scales the other factor at shifted base points,
one slab of the leading displacement index at a time (``_multiply``): the
multiplier's samples are shifted by ``_shear``'s own passes, or its
callable is read on blocks of a slab, so no full-size sheared copy of the
multiplier is made and the values equal those of one bit for bit.
For a constant field and two base-point independent kernels the 2-cocycle
ω^B(y,w) = exp(-i/2 yᵀBw) depends on the displacements only, and the
product is a twisted convolution computed by batched 1-D FFTs
(``_twisted_convolution``, O(d^(2N-1) log d) for d nodes per axis).  Every
other product is one banded matrix product (``_tiled_product``): with S =
r + y the base point of the right factor and T = r + x the output column,

    (φ ⋄ ψ)~(r;x) = Δ^N Σ_S A[r,S] B[S,T],  A[r,S] = φ~(r;S-r),  B[S,T] = ψ~(S;T-S)

up to the cocycle, run as GEMMs over tiles of leading-axis rows that skip
the tiles outside the factors' bands.  The cocycle factorizes as
ω^B(r;y,w) = Λ(r;y) Λ(r+y;w) conj(Λ(r;y+w)) with Λ = λ^{A₀} for an
internal transversal-gauge potential A₀ of B; this is an exact identity
(verified against direct flux quadrature by ``twisted_product_reference``),
so the phases are absorbed into A, B and the output.  For a constant field
Λ(r;u) = exp(-i/2 rᵀBu) in closed form: a row phase on the tiles of A, a
column phase on those of B and one on the output, with no quadrature; a
variable field dresses the factors with tables of Λ, whose transversal
circulations are triangle fluxes computed by quadrature: one table on the
box at the widest window it serves, cut for the left factor, the output
and an unpadded right factor, and one more for a padded right factor.
Mass falling outside the kept output window is recorded as the
sup-convolution bound Σ (sup_q|φ| * sup_q|ψ|)(x) Δ^{2N} over the dropped
nodes x, an upper bound on the exact clipped L¹ mass; it is the total
(Σ sup_q|φ|)(Σ sup_q|ψ|) less the kept part, which is read from box sums
of sup_q|ψ| without forming the convolution (``_clip_mass``).  The layer
needs numpy only: its FFTs are ``numpy.fft``'s.

Sampled values at off-lattice base points come from the kernel's exact
callable when present, else from symmetric interpolation (linear by
default; linear never overshoots, which keeps ‖rep(φ)‖ ≤ ‖φ‖₁ exact).

The operands of a product or a sum share one grid and the field has its
dimension (``grid._common_grid``); windows are cut, padded and added on
their central nodes (``grid._central``, ``grid._fit_window``).  A
multiplier kernel reads its potential through ``grid._node_values`` on
the nodes and, in its callable, at the half-lattice points a product
reads, so a V that is not finite between the nodes is refused by the
first product that reads it.

Base points beyond the box: kernels are zero there in truncated mode (the
operator acts on the box), so shifted factors zero-extend; base-point
independent kernels describe translation-covariant operators and their
values extend unchanged.  Products refuse periodic boxes, where the shear
would wrap base points that the product zero-extends; ``rep`` wraps them.
Which node a step reaches, and whether it is in the box, is the box-edge
convention of :mod:`magweyl.grid`: the pair walk and ``BandedOperator``
read it from ``grid._neighbours``, the shifts from the grid they are given.

On a truncated box ``rep`` integrates each unordered node pair once:
reversing the segment [x, y] negates its circulation, so the phase of a
lexicographically positive displacement u (the upper triangle in flat node
order) also dresses the reverse entry, which reads its own kernel value
φ~(y;-u).  Periodic boxes integrate every pair, since a wrapped column's
reverse segment is not the negated one.  ``rep`` and ``rep_banded`` fill
from one walk over these entries (``_rep_entries`` on ``_pair_blocks``);
``_circulation_table`` integrates the pairs once for a ladder of nested
boxes on one lattice and returns a gauge that reads them back.

The layer runs one fixed configuration:

* Interpolation is linear (``_SCHEME``), the default of ``twisted_product``,
  ``twisted_product_reference`` and ``rep`` and the fixed choice of
  ``rep_banded`` and ``op_weyl``.  The products integrate the cocycle at
  order 8 by default (``fields.DEFAULT_ORDER``); circulations run at
  their gauge's ``order``.
* A product attaches a warning when its discarded tail exceeds 1e-2 of
  ‖φ‖₁‖ψ‖₁ (``TAIL_WARN_FRACTION``, the default of ``tail_warn``).  That
  comparison is made in one helper, ``_warn_dropped``, which the
  resolvent layer calls for its accumulated tails as well.
* ``op_norm`` runs at most 500 power iterations (``_NORM_MAXITER``); on a
  complex array it makes no temporary of the array's size.
* Block sizes, which bound the temporaries whatever the window: 8192
  node pairs per block when callable tilde values are tabled, and about
  as many points per call of a multiplier's callable (``_PAIR_BLOCK``);
  as many integrated pairs per block of rows when ``rep`` walks a gauge
  of order 8, and (8/order)² times as many for a gauge of another order,
  which integrates a pair's flux on order² nodes; about 2^16 flux quadrature nodes per block of a table of
  circulation phases Λ (``_QUAD_BLOCK``, 1024 pairs for a gauge of
  order 8); 2^16 complex entries (1 MB) per batch temporary of the
  constant-field product's FFTs (``_FFT_BLOCK``); and 64 and 128 matrix
  rows per GEMM tile of A (base points r) and of B (rows S of the right
  factor), each rounded to whole rows of the leading axis
  (``_GEMM_ROWS``, ``_GEMM_DEPTH``): 2 and 4 of them at n=32 in two
  dimensions, where the product's tiles peak near 7 MB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .fields import (
    DEFAULT_ORDER,
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
    _central,
    _check_scheme,
    _common_grid,
    _fit_window,
    _neighbours,
    _node_values,
    _require_centered,
    _shear,
    _shear_pass,
    _shift_axis_half,
    _tensor_mesh,
)

__all__ = [
    "OperatorMatrix",
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
]

TAIL_WARN_FRACTION = 1e-2
_SCHEME = "linear"
_NORM_MAXITER = 500
_PAIR_BLOCK = 8192
_QUAD_BLOCK = 1 << 16
_FFT_BLOCK = 1 << 16
_GEMM_ROWS = 64
_GEMM_DEPTH = 128


# ---------------------------------------------------------------------------
# basic elements
# ---------------------------------------------------------------------------


def delta_kernel(grid: BoxGrid) -> KernelSample:
    """Unit of the algebra, the multiplier kernel of the constant 1: a
    base-point independent point mass at displacement 0, height 1/Δ^N."""
    return multiplier_kernel(lambda q: np.ones(np.shape(q)[:-1]), grid)


def multiplier_kernel(v: Callable, grid: BoxGrid) -> KernelSample:
    """Kernel of the multiplication operator u ↦ v(Q)u.  v is read through
    the one potential guard ``grid._node_values`` (complex values allowed):
    on the nodes here, and by the kernel's callable at the half-lattice
    points q ± x/2 that products read it at."""
    dim = grid.dim
    vals = _node_values(v, grid.points(), real=False).astype(complex) / grid.cell_volume

    def func(q, x):
        q = np.asarray(q, dtype=float)
        x = np.asarray(x, dtype=float)
        on = np.all(np.abs(x) < grid.delta / 4, axis=-1)
        base = _node_values(v, q.reshape(-1, dim), real=False, where="half-lattice point")
        return np.where(on, base.reshape(q.shape[:-1]).astype(complex) / grid.cell_volume, 0.0)

    if np.all(vals == vals[0]):
        # constant samples have no base-point dependence; storing the single
        # height keeps downstream products on the exact q-independent paths
        values = np.full((1,) * dim, vals[0])
        return KernelSample(grid=grid, values=values, q_independent=True, func=func)
    values = vals.reshape((grid.n,) * dim + (1,) * dim)
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
    dmesh = _tensor_mesh(grid.disp_axis(disp_count), dim)
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
    _require_centered(k, "twisted_involution")
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
        sheet=k.sheet,
    )


def kernel_lincomb(terms) -> KernelSample:
    """Σ c_i φ_i with displacement windows unified to the widest one.

    Mixed base-point dependence broadcasts the independent factors, which
    read the same on both sheets.  The base-point dependent terms must share
    one sheet, which the sum keeps.  The exact callables are dropped (the
    sum is a new object).  The terms are added in order into one zeroed
    array, each on the central part of its window (``_add_scaled``), so the
    output is the only full-size array made.
    """
    terms = [(complex(c), k) for c, k in terms]
    if not terms:
        raise ValueError("empty linear combination")
    grid = _common_grid(terms[0][1].grid, *(k for _, k in terms))
    dim = grid.dim
    sheets = {k.sheet for _, k in terms if not k.q_independent}
    if len(sheets) > 1:
        raise ValueError("base-point dependent terms live on different sheets")
    sheet = sheets.pop() if sheets else terms[0][1].sheet
    q_independent = all(k.q_independent for _, k in terms)
    count = max(k.disp_count for _, k in terms)
    shape = ((grid.n,) * dim if not q_independent else ()) + (count,) * dim
    out = np.zeros(shape, dtype=complex)
    tail = 0.0
    for c, k in terms:
        _add_scaled(out, c, k.values, dim)
        tail += abs(c) * k.tail_mass
    return KernelSample(
        grid=grid, values=out, q_independent=q_independent, tail_mass=tail, sheet=sheet
    )


def _add_scaled(out: np.ndarray, c: complex, values: np.ndarray, dim: int) -> None:
    """out += c·values in place, on the central part of out's window.

    A ±1 coefficient adds or subtracts the values as stored, base-point
    independent values broadcast over out's base axes, and any other
    coefficient scales base-point dependent values one leading base row at
    a time, so no temporary of out's size is made.  Each entry rounds as in
    out + c·values.
    """
    dst = out[_central(values.shape[-1], out.shape[-1], dim)]
    if c == 1:
        dst += values
    elif c == -1:
        dst -= values
    elif values.ndim == dim:
        dst += c * values
    else:
        for row, vals in zip(dst, values):
            row += c * vals


def _add_into(acc: KernelSample, term: KernelSample) -> KernelSample:
    """acc + term, the sum ``kernel_lincomb([(1, acc), (1, term)])`` makes
    up to the sign of a zero, written into acc's values when their window
    and base axes hold term's; acc's values must be the caller's to
    overwrite.  Otherwise the sum is a new array."""
    if (
        term.disp_count > acc.disp_count
        or (acc.q_independent and not term.q_independent)
        or (not term.q_independent and term.sheet != acc.sheet)
    ):
        return kernel_lincomb([(1.0, acc), (1.0, term)])
    _add_scaled(acc.values, 1.0, term.values, acc.grid.dim)
    return KernelSample(
        acc.grid, acc.values, acc.q_independent,
        tail_mass=acc.tail_mass + term.tail_mass, sheet=acc.sheet,
    )


# ---------------------------------------------------------------------------
# sheared-sheet machinery
# ---------------------------------------------------------------------------


def _disp_nodes(grid: BoxGrid, count: int) -> np.ndarray:
    """Displacement vectors of a window of ``count`` nodes per axis, in C
    order, shape (count^N, N)."""
    return _tensor_mesh(grid.disp_axis(count), grid.dim).reshape(-1, grid.dim)


def _over_pairs(
    fill: Callable, mesh: np.ndarray, grid: BoxGrid, disp_count: int, block: int = _PAIR_BLOCK
) -> np.ndarray:
    """Table out[r; u] = fill(r, u) over the base points r of ``mesh`` and
    the displacement nodes u of the window, evaluated ``block`` pairs at a
    time with r and u as (pairs, N) arrays."""
    dim = grid.dim
    pts = mesh.reshape(-1, dim)
    disp = _disp_nodes(grid, disp_count)
    out = np.empty(mesh.shape[:-1] + (disp_count,) * dim, dtype=complex)
    flat = out.reshape(-1)
    for start in range(0, flat.size, block):
        stop = min(start + block, flat.size)
        pair = np.arange(start, stop)
        flat[start:stop] = fill(pts[pair // len(disp)], disp[pair % len(disp)])
    return out


def _tilde_values(k: KernelSample, scheme: str, pad: int = 0, inplace: bool = False) -> np.ndarray:
    """φ~(r;x) = φ(r + x/2; x) for every displacement node.

    Base-point independent kernels are unaffected by the shear.  Otherwise
    the kernel's callable wins on either sheet, evaluated on the base mesh
    extended by ``pad`` lattice steps per face; without one, tilde-sheet
    values are returned as stored and centered ones are sheared by
    :func:`_shear`, in place with ``inplace``.
    """
    if k.q_independent or (k.sheet == "tilde" and k.func is None):
        return k.values.astype(complex, copy=False)
    grid = k.grid
    if k.func is None:
        return _shear(k.values, grid, 1, scheme, inplace=inplace)
    mesh = _ext_mesh(grid, pad) if pad else grid.mesh()
    return _over_pairs(lambda r, u: k.func(r + 0.5 * u, u), mesh, grid, k.disp_count)


def _to_tilde(k: KernelSample, inplace: bool = False) -> KernelSample:
    """The kernel sheared once and stored tilde-tagged, without its callable.

    ``inplace`` shears centered values without a callable in place: they
    must be complex and the caller's to overwrite.  Values that are a view,
    such as a window cut by ``trim_kernel``, are copied first, which frees
    the array they view; other values must be C-contiguous.
    """
    if inplace and k.values.base is not None:
        k = k.copy()
    values = _tilde_values(k, _SCHEME, inplace=inplace)
    return KernelSample(k.grid, values, k.q_independent, tail_mass=k.tail_mass, sheet="tilde")


def _ext_mesh(grid: BoxGrid, pad: int) -> np.ndarray:
    """Node mesh extended by ``pad`` lattice steps beyond each face."""
    ax = (np.arange(grid.n + 2 * pad) - pad - (grid.n - 1) / 2.0) * grid.delta
    return _tensor_mesh(ax, grid.dim)


def _lambda_factors(pot: VectorPotential, grid: BoxGrid, disp_count: int, pad: int = 0) -> np.ndarray:
    """Table Λ[r; u] = λ^{A}(r; u) over (extended) base mesh and window.

    A variable field's circulation is a triangle flux with about order²
    quadrature nodes per pair at the gauge's order, so a block holds
    ``_QUAD_BLOCK // order²`` pairs.
    """
    return _over_pairs(
        lambda r, u: np.exp(-1j * pot.circulation(r, u)),
        _ext_mesh(grid, pad), grid, disp_count, block=max(1, _QUAD_BLOCK // pot.order**2),
    )


def _band_tile(arr, rows, cols, shift, width):
    """Banded matrix tile M[i, j] = arr[i; j - i + shift], zero where the
    displacement index leaves [0, width).

    ``rows`` and ``cols`` hold the node indices per axis; the tile has one
    axis per row axis, then one per column axis.  A factor without base
    axes is read at every row alike.
    """
    dim = len(rows)
    base = arr.ndim > dim
    base_idx, disp_idx, inside = [], [], True
    for e, (r, c) in enumerate(zip(rows, cols)):
        j = c[None, :] - r[:, None] + shift
        shape = [1] * (2 * dim)
        shape[e], shape[dim + e] = len(r), len(c)
        disp_idx.append(np.clip(j, 0, width - 1).reshape(shape))
        inside = inside & ((j >= 0) & (j < width)).reshape(shape)
        if base:
            base_idx.append(r.reshape(shape[:e + 1] + [1] * (2 * dim - e - 1)))
    tile = arr[tuple(base_idx + disp_idx)]
    tile *= inside
    return tile


def _phase(arr, rows, cols, bmat, sign):
    """arr[i; j] *= exp(sign·i/2 ρᵀBκ) in place, ρ = (rows[e][i_e])_e and
    κ = (cols[e][j_e])_e the node positions; one broadcast factor per
    non-zero entry of B, so no temporary of the array's size is made."""
    dim = len(rows)
    for e, f in zip(*np.nonzero(bmat)):
        shape = [1] * (2 * dim)
        shape[e], shape[dim + f] = len(rows[e]), len(cols[f])
        angle = np.multiply.outer(rows[e], cols[f]) * (0.5 * sign * bmat[e, f])
        arr *= np.exp(1j * angle).reshape(shape)


def _tiled_product(a, b, out_count, pad, grid, bmat=None):
    """The shifted convolution out[r; y+w+off] = Σ a[r;y] b[r+y+pad; w] of
    the general product as one banded matrix product (GEMM).

    Per axis, with S = r + y - ka + pad the row of b and T = r + X the
    column of the kept output node X, A[r,S] = a[r; S-r+ka-pad] and
    B[S,T] = b[S; T-S-off-ka+pad] (zero outside each window) give
    out[r; T-r] = Σ_S A[r,S] B[S,T], with the multi-indices r, S, T over
    all axes flattened.  The product runs in tiles of whole leading-axis
    rows, m of r (``_GEMM_ROWS`` matrix rows) and k of S
    (``_GEMM_DEPTH``): the outer loop gathers each tile of B once, the
    inner one multiplies it by the tiles of A whose band meets it, and
    tiles outside a band are skipped.  Each product is cut to the kept
    columns and added to the output along the diagonals T = r + X.  With
    da and db nodes per axis in the windows of a and b, nb = n + 2·pad
    rows and nt = n + out_count - 1 columns per axis, that is about
    n (da + m)(db + k) (n·nb·nt)^(N-1) multiply-adds at the speed of BLAS,
    against n^N da^N db^N for a loop over the nodes: the leading axis pays
    for its bands only, the trailing ones run dense.
    A factor without base axes is read at every base point alike; ``b``
    carries ``pad`` extra base points per face.

    With ``bmat`` (a constant field) the transversal-gauge dressing has the
    closed form Λ(r;u) = exp(-i/2 rᵀBu), applied as a row phase
    exp(-i/2 rᵀBs) to the tiles of A, a column phase exp(-i/2 sᵀBt) to
    those of B and exp(+i/2 rᵀBx) to the output, with r, s, t = r + x the
    node positions; no quadrature runs.  Otherwise the caller dresses the
    factors.
    """
    dim, n = grid.dim, grid.n
    da, db = a.shape[-1], b.shape[-1]
    ka = da // 2
    off = out_count // 2 - ka - db // 2
    c = off + ka - pad
    nb, nt = n + 2 * pad, n + out_count - 1
    rest = dim - 1
    m = max(1, _GEMM_ROWS // n**rest)
    k = max(1, _GEMM_DEPTH // nb**rest)
    r_all, s_all, t_all = np.arange(n), np.arange(nb), np.arange(nt)
    # node positions of the base points r, the rows S and the columns T
    pos_r = grid.axis()
    pos_s = pos_r[0] + (s_all - pad) * grid.delta
    pos_t = pos_r[0] + (t_all - out_count // 2) * grid.delta
    out = np.zeros((n,) * dim + (out_count,) * dim, dtype=complex)
    for s0 in range(0, nb, k):
        srows = s_all[s0:s0 + k]
        # columns met by b's band on these rows
        t_lo, t_hi = max(0, s0 + c), min(nt, srows[-1] + c + db)
        # base points r whose band on a meets these rows
        r_lo, r_hi = max(0, s0 + ka - pad - da + 1), min(n, srows[-1] + ka - pad + 1)
        if t_hi <= t_lo or r_hi <= r_lo:
            continue
        tcols = t_all[t_lo:t_hi]
        btile = _band_tile(b, [srows] + [s_all] * rest, [tcols] + [t_all] * rest, -c, db)
        if bmat is not None:
            _phase(btile, [pos_s[srows]] + [pos_s] * rest, [pos_t[tcols]] + [pos_t] * rest,
                   bmat, -1)
        btile = btile.reshape(len(srows) * nb**rest, len(tcols) * nt**rest)
        for r0 in range(r_lo - r_lo % m, r_hi, m):
            rrows = r_all[r0:r0 + m]
            # kept columns T = r + X of these base points
            lo, hi = max(t_lo, r0), min(t_hi, rrows[-1] + out_count)
            if hi <= lo:
                continue
            atile = _band_tile(a, [rrows] + [r_all] * rest, [srows] + [s_all] * rest, ka - pad, da)
            if bmat is not None:
                _phase(atile, [pos_r[rrows]] + [pos_r] * rest, [pos_s[srows]] + [pos_s] * rest,
                       bmat, -1)
            cols = slice((lo - t_lo) * nt**rest, (hi - t_lo) * nt**rest)
            prod = atile.reshape(len(rrows) * n**rest, -1) @ btile[:, cols]
            prod = prod.reshape((len(rrows),) + (n,) * rest + (hi - lo,) + (nt,) * rest)
            for i, r in enumerate(rrows):
                _add_diagonals(out[r], prod[i], lo - r, out_count)
            # drop each tile before the next is made, so one of each is alive
            del prod
        del btile
    if bmat is not None:
        _phase(out, [pos_r] * dim, [grid.disp_axis(out_count)] * dim, bmat, 1)
    return out


def _add_diagonals(out, prod, first, out_count):
    """out[r'; X] += prod[r'; X₀ - first, r' + X'] for one base point, over
    its trailing axes r' and the kept output nodes X = (X₀, X'): the
    product's columns T = r + X read along the trailing axes' diagonals."""
    rest = out.ndim // 2
    lo, hi = max(0, first), min(out_count, prod.shape[rest] + first)
    if hi <= lo:
        return
    src = prod[(slice(None),) * rest + (slice(lo - first, None),)]
    st = src.strides
    view = np.lib.stride_tricks.as_strided(
        src,
        shape=(out.shape[0],) * rest + (hi - lo,) + (out_count,) * rest,
        strides=tuple(st[e] + st[rest + 1 + e] for e in range(rest)) + st[rest:],
        writeable=False,
    )
    out[(slice(None),) * rest + (slice(lo, hi),)] += view


def _twisted_convolution(a, b, out_count, grid, bmat):
    """Product of two base-point independent kernels in a constant field B,

        out[x] = Δ^N Σ_y a[y] b[x-y] exp(-i/2 yᵀBx),

    on the kept window (the cocycle exp(-i/2 yᵀBw), w = x - y, equals this
    phase since B is antisymmetric).  With the leading N-1 axes x', y' fixed
    the phase splits into exp(-i/2 y'ᵀB'x'), a modulation of the left row in
    y_N and one of the output row in x_N, so the sum over y_N is a 1-D
    convolution.  Only the (x', y') pairs whose row x' - y' lies in b's
    window are transformed, as batched FFTs over a block of output rows x'
    at a time, so that each temporary holds about ``_FFT_BLOCK`` entries:
    O(d^(2N-1) log d) work for d nodes per axis, and a factor with a small
    window pays for its band only.  The transforms are ``numpy.fft``'s
    complex ones at the fast length ``_next_fast_len(d_a + d_b - 1)``.
    """
    p = grid.dim - 1
    da, db = a.shape[-1], b.shape[-1]
    off = out_count // 2 - da // 2 - db // 2
    size = _next_fast_len(da + db - 1)
    # kept nodes of the last output axis
    lo, hi = max(0, off), min(out_count, da + db - 1 + off)
    rows_a = np.array(list(np.ndindex(*(da,) * p)), dtype=int).reshape(da**p, p)
    rows_o = np.array(list(np.ndindex(*(out_count,) * p)), dtype=int).reshape(out_count**p, p)
    ya, xo = grid.disp_axis(da), grid.disp_axis(out_count)
    y_pre, x_pre = ya[rows_a], xo[rows_o]
    a_rows = a.reshape(-1, da)
    brows = np.fft.fft(b.reshape(-1, db), size)
    out_mod = np.exp(-0.5j * np.outer(y_pre @ bmat[:p, p], xo[lo:hi]))
    in_mod = np.exp(-0.5j * np.outer(x_pre @ bmat[p, :p], ya))
    strides = db ** np.arange(p - 1, -1, -1)
    out = np.zeros((len(rows_o), out_count), dtype=complex)
    # at most min(da, db)^(N-1) rows y' meet b for one output row x'
    step = max(1, _FFT_BLOCK // (min(da, db) ** p * size))
    for start in range(0, len(rows_o), step):
        # the pairs (x', y') of this block whose row x' - y' of b is in b
        k = rows_o[start:start + step, None, :] - off - rows_a[None, :, :]
        xi, yi = np.nonzero(np.all((k >= 0) & (k < db), axis=-1))
        if not len(xi):
            continue
        xs = xi + start
        cross = np.exp(-0.5j * np.sum((x_pre[xs] @ bmat[:p, :p].T) * y_pre[yi], axis=-1))
        spec = np.fft.fft(cross[:, None] * in_mod[xs] * a_rows[yi], size)
        spec *= brows[k[xi, yi] @ strides]
        conv = np.fft.ifft(spec)[:, lo - off:hi - off] * out_mod[yi]
        # sum the pairs of each output row; xi is sorted
        first = np.flatnonzero(np.diff(xi, prepend=-1))
        out[xs[first], lo:hi] = np.add.reduceat(conv, first, axis=0)
    return out.reshape((out_count,) * grid.dim) * grid.cell_volume


def _next_fast_len(n):
    """The smallest 2^a 3^b 5^c 7^d 11^e ≥ n, the lengths whose complex FFTs
    pocketfft runs fastest (``scipy.fft.next_fast_len`` for complex input)."""
    # m is such a number exactly when it divides 2·3·5·7·11 = 2310 to a
    # power of at least log2(m)
    m = max(n, 1)
    while pow(2310, m.bit_length(), m):
        m += 1
    return m


def _clip_mass(sup_a, sup_b, keep_count, cell):
    """L1 mass of the sup-convolution sup_a * sup_b outside the kept output
    window, exactly 0.0 when the window covers the product's own.  The total
    is (Σ sup_a)(Σ sup_b); the kept part sums sup_a(y) times the box sum of
    sup_b over the kept window shifted by -y, read from one prefix-sum table
    of sup_b one axis at a time."""
    da, db = sup_a.shape[0], sup_b.shape[0]
    kfull = (da + db - 2) // 2
    kk = min(keep_count // 2, kfull)
    if kk == kfull:
        return 0.0
    # the kept nodes kfull - kk .. kfull + kk of the convolution meet sup_b at
    # lo - y .. hi - y - 1 from node y of sup_a
    y = np.arange(da)
    lo = np.clip(kfull - kk - y, 0, db)
    hi = np.clip(kfull + kk + 1 - y, 0, db)
    box = np.pad(sup_b, [(1, 0)] * sup_b.ndim)
    for ax in range(sup_b.ndim):
        box = np.cumsum(box, axis=ax)
    for ax in range(sup_b.ndim):
        box = np.take(box, hi, axis=ax) - np.take(box, lo, axis=ax)
    total = sup_a.sum() * sup_b.sum()
    kept = np.sum(sup_a * box)
    return float(max(total - kept, 0.0)) * cell * cell


def _multiply(v, other, h, scheme, tilde):
    """Product with a displacement-0 factor v: the other factor's values
    times v read at base point q + h·x/2.

    Centered, (v ⋄ ψ)(q;x) = v(q - x/2) ψ(q;x) (h = -1) and
    (φ ⋄ v)(q;x) = φ(q;x) v(q + x/2) (h = +1).  On the tilde sheet the
    left shift drops out, (v ⋄ ψ)~(r;x) = v(r) ψ~(r;x) (h = 0), and
    (φ ⋄ v)~(r;x) = φ~(r;x) v(r + x) (h = +2).  The output is filled one
    slab of the leading displacement index j at a time.  v comes from its
    callable when it has one and h ≠ 0, called on about ``_PAIR_BLOCK``
    points of a slab at a time, else from its samples: broadcast over the
    displacements for h = 0, shifted for h ≠ 0 as ``_shear`` moves them,
    along base axis 0 by h·(j - k) half steps and then by ``_shear``'s
    passes along the later axes, so a slab equals that of the sheared
    broadcast bit for bit.  Besides the output and the other factor's values only
    temporaries of one slab are alive.
    """
    grid = v.grid
    dim = grid.dim
    vals = _tilde_values(other, scheme) if tilde else other.values
    if v.q_independent:
        return (v.values[(0,) * dim] * grid.cell_volume * vals).astype(complex, copy=False)
    n, d = grid.n, other.disp_count
    kk = d // 2
    out = np.empty((n,) * dim + (d,) * dim, dtype=complex)
    # a base-point independent factor reads alike at every base point
    vals = np.broadcast_to(vals, out.shape)
    if h and v.func is not None:
        mesh = grid.mesh().reshape((n,) * dim + (1,) * (dim - 1) + (dim,))
        disp = _tensor_mesh(grid.disp_axis(d), dim)
        rows = max(1, _PAIR_BLOCK // (n * d) ** (dim - 1))
        for j in range(d):
            sl = (Ellipsis, j) + (slice(None),) * (dim - 1)
            for r in range(0, n, rows):
                block = slice(r, r + rows)
                vv = v.func(mesh[block] + 0.5 * h * disp[j], np.zeros(dim)) * grid.cell_volume
                np.multiply(vv, vals[block][sl], out=out[block][sl])
        return out
    samples = v.values[(Ellipsis,) + (0,) * dim] * grid.cell_volume
    if h:
        _check_scheme(scheme)
        vv = np.empty((n,) * dim + (d,) * (dim - 1), dtype=complex)
    else:
        vv = samples[(Ellipsis,) + (None,) * (dim - 1)]
    for j in range(d):
        sl = (Ellipsis, j) + (slice(None),) * (dim - 1)
        if h:
            vv[...] = _shift_axis_half(samples, 0, h * (j - kk), scheme, grid)[
                (Ellipsis,) + (None,) * (dim - 1)]
            for ax in range(1, dim):
                _shear_pass(vv, vv, ax, grid, h, scheme)
        np.multiply(vv, vals[sl], out=out[sl])
    return out


# ---------------------------------------------------------------------------
# the twisted product
# ---------------------------------------------------------------------------


def _check_operands(phi, psi, field, sheet, out_disp_count) -> int:
    """Check the operands of a product and return its output count: the
    kept window, by default the natural one, at most the largest one the
    box represents."""
    _common_grid(phi.grid, psi, field=field)
    if phi.grid.bc == "periodic":
        # the shear wraps base points around the torus while the product
        # zero-extends its factors past the box
        raise ValueError(
            "twisted products are defined on truncated boxes only; the "
            "product does not wrap base points around a periodic box"
        )
    if sheet not in ("centered", "tilde"):
        raise ValueError("sheet must be 'centered' or 'tilde'")
    if out_disp_count is None:
        out_disp_count = phi.disp_count + psi.disp_count - 1
    elif out_disp_count < 1 or out_disp_count % 2 != 1:
        raise ValueError(f"output displacement count must be a positive odd number, got {out_disp_count}")
    return min(out_disp_count, phi.grid.max_disp_count())


def twisted_product(
    phi: KernelSample,
    psi: KernelSample,
    field: MagneticField,
    *,
    scheme: str = _SCHEME,
    order: int = DEFAULT_ORDER,
    out_disp_count: Optional[int] = None,
    tail_warn: float = TAIL_WARN_FRACTION,
    sheet: str = "centered",
) -> KernelSample:
    """The ⋄-product of two kernels twisted by the field's 2-cocycle.

    A factor with a single displacement node is a multiplier: the other
    factor's values are multiplied by it at shifted base points.  For two
    base-point independent kernels and a constant (or zero) field the
    cocycle depends only on the displacements: the product is a twisted
    convolution by batched FFTs, O(d^(2N-1) log d) for d nodes per axis
    (:func:`_twisted_convolution`), and base-point independent.  Every
    other product is the shifted convolution of the sheared values,
    computed as one banded matrix product in tiles
    (:func:`_tiled_product`).  The cocycle enters as the transversal
    gauge's circulation phases: in closed form for a constant field (a row
    phase on the left factor, a column phase on the right one and an
    output phase), as dressing tables of the triangle-flux quadratures of
    a transversal gauge of order ``order`` for a variable one.

    Every path returns the output displacement window asked for, by
    default the natural one of d_φ + d_ψ - 1 nodes per axis, capped at the
    largest representable one.  Mass pushed past it is recorded in
    ``tail_mass`` as the sup-convolution bound Σ (sup_q|φ| * sup_q|ψ|)
    over the dropped nodes, which is at least the exact clipped L¹ mass,
    plus the inputs' inherited tails; a warning is attached when the total
    exceeds ``tail_warn`` relative to ‖φ‖₁‖ψ‖₁.

    ``sheet="tilde"`` returns the raw sheared-sheet values
    out~(r;x) = out(r + x/2; x), tagged ``sheet="tilde"``, instead of
    recentering them.  Every base point of the accumulation lies on the
    node lattice there, so that form is free of the half-step
    interpolation the centered output needs on odd displacement rows; it
    is the right object for cross-route validation and for ``rep``.

    A base-point dependent factor is read on the sheet its tag names, and
    its callable, when it has one, wins on either sheet.  The general
    branch reads every factor sheared, so a tilde-tagged factor spares a
    shear and gives the product of its centered source bit for bit.  The
    multiplier branch works on the other factor's sheet and shears its
    output back when the other sheet is asked for.
    """
    out_count = _check_operands(phi, psi, field, sheet, out_disp_count)
    grid = phi.grid
    tilde = sheet == "tilde"

    q_independent = phi.q_independent and psi.q_independent
    sup_phi, sup_psi = phi.sup_over_q(), psi.sup_over_q()
    if phi.disp_count == 1 or psi.disp_count == 1:
        left = phi.disp_count == 1
        v, other = (phi, psi) if left else (psi, phi)
        on_tilde = tilde or (other.sheet == "tilde" and not other.q_independent)
        h = (0 if left else 2) if on_tilde else (-1 if left else 1)
        vals = _fit_window(_multiply(v, other, h, scheme, on_tilde), out_count, grid.dim)
        if on_tilde and not tilde:
            vals = _shear(vals, grid, -1, scheme, inplace=True)
    elif q_independent and field.is_constant:
        vals = _twisted_convolution(phi.values, psi.values, out_count, grid, field.constant)
    else:
        q_independent = False
        # the right factor is read at shifted base points r + y; callables
        # and base-point independent kernels extend past the box, arrays do not
        pad = phi.disp_count // 2 if (psi.q_independent or psi.func is not None) else 0
        a = _tilde_values(phi, scheme)
        b = _tilde_values(psi, scheme, pad=pad)
        if field.is_constant:
            vals = _tiled_product(a, b, out_count, pad, grid, field.constant)
        else:
            # gauge dressing turns the twisted sum into a plain shifted
            # convolution; one table on the box serves the left factor, the
            # output and an unpadded right factor, cut to their windows
            pot = transversal_gauge(field, order=order)
            lam = _lambda_factors(pot, grid, max(phi.disp_count, out_count, 1 if pad else psi.disp_count))
            lam_b = _lambda_factors(pot, grid, psi.disp_count, pad=pad) if pad else lam
            a = _fit_window(lam, phi.disp_count, grid.dim) * a
            b = _fit_window(lam_b, psi.disp_count, grid.dim) * b
            vals = _tiled_product(a, b, out_count, pad, grid)
            # undress: out~ = conj(Λ(r;x)) acc(r;x)
            vals *= np.conj(_fit_window(lam, out_count, grid.dim))
        vals *= grid.cell_volume
        if not tilde:
            vals = _shear(vals, grid, -1, scheme, inplace=True)

    clipped = _clip_mass(sup_phi, sup_psi, out_count, grid.cell_volume)
    norm_phi, norm_psi = (float(sup.sum()) * grid.cell_volume for sup in (sup_phi, sup_psi))
    tail = clipped + phi.tail_mass * norm_psi + norm_phi * psi.tail_mass
    out = KernelSample(
        grid=grid,
        values=vals,
        q_independent=q_independent,
        tail_mass=tail,
        sheet=sheet,
    )
    if _warn_dropped(
        tail, norm_phi * norm_psi, "twisted product discarded", "enlarge the displacement window", tail_warn
    ):
        out.meta["tail_warning"] = True
    return out


def _warn_dropped(
    tail: float, scale: float, what: str, remedy: str, threshold: float = TAIL_WARN_FRACTION, stacklevel=3
) -> bool:
    """The one rule for dropped L¹ mass: warn, and return True, when ``tail``
    exceeds ``threshold`` relative to ``scale``.  The warning says ``what``
    dropped the mass, with the ``remedy``, and points ``stacklevel`` frames
    up, by default at the code that called the public entry calling this
    helper."""
    if not (scale > 0 and tail > threshold * scale):
        return False
    message = f"{what} {tail:.3e} of L1 mass (relative {tail / scale:.3e}); {remedy}"
    warnings.warn(message, stacklevel=stacklevel)
    return True


def twisted_product_reference(
    phi: KernelSample,
    psi: KernelSample,
    field: MagneticField,
    *,
    scheme: str = _SCHEME,
    order: int = DEFAULT_ORDER,
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
    out_count = _check_operands(phi, psi, field, sheet, out_disp_count)
    # the oracle reads stored values as centered, independently of the fast route
    _require_centered(phi, "twisted_product_reference")
    _require_centered(psi, "twisted_product_reference")
    grid = phi.grid
    dim = grid.dim
    da, db = phi.disp_count, psi.disp_count
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
    if phi.q_independent and psi.q_independent and field.is_constant:
        return KernelSample(grid=grid, values=out[(0,) * dim], q_independent=True, sheet=sheet)
    return KernelSample(grid=grid, values=out, q_independent=False, sheet=sheet)


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Dense operator on the box nodes, rows/columns in C order."""

    mat: np.ndarray
    grid: BoxGrid

    def __post_init__(self):
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if self.mat.shape[0] != self.grid.size:
            raise ValueError("matrix dimension does not match the grid")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass
class BandedOperator:
    """Matrix-free operator Σ_u c(x;u) shift_u, one band per displacement.

    Row x, band u reaches the column x + u as the box edge rule of
    ``grid._neighbours`` says (the "box edge" convention of
    :mod:`magweyl.grid`): on a truncated box a band past the edge is not
    read, on a periodic one it wraps.
    """

    grid: BoxGrid
    coeffs: np.ndarray  # (n,)*dim + (d,)*dim

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

    def _bands(self) -> tuple:
        """The column of every (row, band), ``size`` where the band leaves
        the box, and the bands as a (rows, bands) array."""
        col, inside = _neighbours(self.grid, np.arange(self.size), self.disp_count)
        return np.where(inside, col, self.size), self.coeffs.reshape(self.size, -1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        col, c = self._bands()
        # the slot past the last node reads zero, as past the box edge
        x = np.append(np.asarray(v).reshape(-1), 0)
        out = np.zeros(self.size, dtype=complex)
        for j in range(c.shape[1]):
            out += c[:, j] * x[col[:, j]]
        return out.reshape(v.shape)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        # adjoint: out(y) = Σ_u conj(c(y-u; u)) v(y-u); a band reaches each
        # node at most once, and what leaves the box lands in the spare slot
        col, c = self._bands()
        x = np.asarray(v).reshape(-1)
        out = np.zeros(self.size + 1, dtype=complex)
        for j in range(c.shape[1]):
            out[col[:, j]] += np.conj(c[:, j]) * x
        return out[:-1].reshape(v.shape)

    def to_dense(self) -> np.ndarray:
        col, c = self._bands()
        mat = np.zeros(self.shape, dtype=complex)
        r, j = np.nonzero(col < self.size)
        mat[r, col[r, j]] = c[r, j]
        return mat


def rep_banded(pot: VectorPotential, kernel: KernelSample) -> BandedOperator:
    """Representation as a banded operator: c(x;u) = Δ^N λ^A(x;u) φ~(x;u).

    The matrix-free form of :func:`rep` at its default scheme, for
    ``matvec``/``rmatvec`` users.  The bands hold ``rep``'s entries from
    its own walk over the pairs, so ``to_dense()`` equals ``rep`` bit for
    bit; on a truncated box c(x;u) is zero where x + u leaves the box.
    """
    grid = kernel.grid
    coeffs = np.zeros((grid.n,) * grid.dim + (kernel.disp_count,) * grid.dim, dtype=complex)
    flat = coeffs.reshape(grid.size, -1)
    for row, _, j, value in _rep_entries(pot, kernel, _SCHEME):
        flat[row, j] = value
    return BandedOperator(grid=grid, coeffs=coeffs)


def _pair_blocks(pot: VectorPotential, grid: BoxGrid, d: int):
    """``rep``'s walk over the node pairs of a window of ``d`` nodes per axis.

    Yields, per block of rows, the row r, window index j, column and
    circulation of ``pot`` along [r, r + u] of every pair whose column
    r + u lies in the box (``grid._neighbours``), in row-major order; a
    periodic box keeps every j, a truncated one keeps u = 0 and the
    lexicographically positive u.  A block holds about ``_PAIR_BLOCK``
    pairs for a gauge of order 8 and (8/order)² times as many for
    another, as it integrates a pair on order² nodes.  A gauge of another
    dimension than the grid's is refused.
    """
    _common_grid(grid, field=pot, of=" of the vector potential")
    count = d**grid.dim
    # displacement nodes are in lexicographic order, so u = 0 is the middle
    # node and the lexicographically positive ones follow it
    first = 0 if grid.bc == "periodic" else count // 2
    pairs_per_block = _PAIR_BLOCK * DEFAULT_ORDER**2 // pot.order**2
    rows_per_block = max(1, pairs_per_block // (count - first))
    pts, disp = grid.points(), _disp_nodes(grid, d)
    for start in range(0, grid.size, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, grid.size))
        col, inside = _neighbours(grid, rows, d)
        r, j = np.nonzero(inside[:, first:])
        col = col[:, first:][r, j]
        r, j = r + start, j + first
        yield r, j, col, pot.circulation(np.take(pts, r, axis=0), np.take(disp, j, axis=0))


def _rep_entries(pot: VectorPotential, kernel: KernelSample, scheme: str):
    """``rep``'s entries as blocks of (row, column, window index, value):
    per block of ``_pair_blocks`` the integrated pairs, then on a truncated
    box their reverse entries, which share the phase."""
    grid = kernel.grid
    count = kernel.disp_count**grid.dim
    # a base-point independent kernel reads its one row at every row
    tilde = np.broadcast_to(_tilde_values(kernel, scheme).reshape(-1, count), (grid.size, count))
    for r, j, col, circ in _pair_blocks(pot, grid, kernel.disp_count):
        phase = np.exp(-1j * circ)
        yield r, col, j, phase * tilde[r, j] * grid.cell_volume
        if grid.bc == "periodic":
            continue
        rev = j > count // 2
        r, col, j = r[rev], col[rev], count - 1 - j[rev]
        yield col, r, j, np.conj(phase[rev]) * tilde[col, j] * grid.cell_volume


def _circulation_table(pot: VectorPotential, grid: BoxGrid, d: int) -> VectorPotential:
    """The gauge ``pot`` with the circulations of ``rep``'s pairs tabulated.

    Integrates circulation(x, u) once for every pair that ``rep`` walks on
    the truncated box ``grid`` with a window of ``d`` nodes per axis, and
    returns a potential whose ``circulation_exact`` reads the table.  A box
    whose nodes and window are a subset of these, bit for bit, reads its
    own pairs from it: a segment's circulation depends on its end points
    only, and the quadrature on neither the box nor the batch, so ``rep``
    through the table equals ``rep`` through ``pot`` bit for bit.  The
    table holds the in-box pairs only, one block of the row sub-box per
    lexicographically non-negative u; its values are at ``pot``'s order,
    which the returned gauge keeps.  A query that is not an exact node and
    window displacement of ``grid``, or whose pair is not in the table,
    raises ``ValueError``.
    """
    if grid.bc == "periodic":
        raise ValueError("circulation tables cover truncated boxes only")
    dim, n, k = grid.dim, grid.n, d // 2
    half = d**dim // 2
    # the block of u = steps[j - half] holds the rows x with x + u in the
    # box, in C order: position base[j - half] + Σ_e x_e stride[e][j - half]
    steps = np.stack(np.unravel_index(np.arange(half, d**dim), (d,) * dim)) - k
    extent = np.maximum(n - np.abs(steps), 0)
    stride = np.ones_like(extent)
    for ax in range(dim - 2, -1, -1):
        stride[ax] = stride[ax + 1] * extent[ax + 1]
    sizes = np.prod(extent, axis=0)
    base = np.cumsum(sizes) - sizes - np.sum(np.maximum(-steps, 0) * stride, axis=0)

    def position(nodes, j):
        j = j - half
        pos = base[j] + nodes[-1]
        for ax in range(dim - 1):
            pos += nodes[ax] * stride[ax, j]
        return pos

    table = np.empty(int(sizes.sum()))
    for r, j, _, circ in _pair_blocks(pot, grid, d):
        table[position(np.stack(np.unravel_index(r, (n,) * dim)), j)] = circ

    axis, disp_axis = grid.axis(), grid.disp_axis(d)
    scale = 1.0 / grid.delta

    def circulation(q, x):
        shape = q.shape[:-1]
        q, x = q.reshape(-1, dim), x.reshape(-1, dim)
        # the nearest node and window index per axis, clipped into range
        # (a NaN casts to some integer), then checked for exact equality
        with np.errstate(invalid="ignore"):
            nodes = (q * scale + ((n - 1) / 2 + 0.5)).astype(np.intp)
            step = (x * scale + (k + 0.5)).astype(np.intp)
        np.clip(nodes, 0, n - 1, out=nodes)
        np.clip(step, 0, d - 1, out=step)
        target = nodes + step - k
        j = step[:, 0]
        for ax in range(1, dim):
            j = j * d + step[:, ax]
        if not (
            (axis[nodes] == q).all() and (disp_axis[step] == x).all()
            and (target >= 0).all() and (target < n).all() and (j >= half).all()
        ):
            raise ValueError(
                "circulation table holds the pairs of its box's nodes and lexicographically "
                "non-negative window displacements only"
            )
        return table[position(nodes.T, j)].reshape(shape)

    tabulated = VectorPotential(dim=pot.dim, func=pot.func, circulation_exact=circulation)
    tabulated._order = pot.order
    return tabulated


def rep(pot: VectorPotential, kernel: KernelSample, *, scheme: str = _SCHEME) -> OperatorMatrix:
    """Dense matrix of the representation, M[x,y] = Δ^N λ^A(x;y-x) φ((x+y)/2;y-x).

    Filled directly over the node pairs whose difference u = y - x lies in
    the kernel window (``_rep_entries``): the entry is
    Δ^N exp(-i circulation(x, u)) φ~(x;u), at the gauge's order, with the
    sheared value φ~(x;u) = φ(x + u/2; u), taken as stored for tilde-sheet
    kernels.  On a truncated box each unordered pair is integrated once:
    the circulation c of a lexicographically positive u (and of u = 0)
    also gives the reverse entry Δ^N exp(+i c) φ~(y;-u), since reversing
    the segment negates its line integral.  Only the phase is shared, so a
    non-Hermitian kernel gives a non-Hermitian matrix.  Periodic boxes wrap
    the column index and integrate every pair: a wrapped column's reverse
    segment is not the negated one.  A gauge from ``_circulation_table``
    reads the same pairs from a table built once for a box ladder.
    Entries equal those of ``rep_banded(...).to_dense()`` bit for bit.
    """
    grid = kernel.grid
    mat = np.zeros((grid.size, grid.size), dtype=complex)
    for row, col, _, value in _rep_entries(pot, kernel, scheme):
        mat[row, col] = value
    return OperatorMatrix(mat=mat, grid=grid)


def op_weyl(
    pot: VectorPotential,
    f: Union[PhaseGridFunction, Callable],
    grid: Optional[BoxGrid] = None,
    *,
    r_disp: Optional[float] = None,
    q_independent: bool = True,
) -> OperatorMatrix:
    """Quantization of a phase-space symbol: rep of its partial Fourier kernel."""
    if not isinstance(f, PhaseGridFunction):
        if grid is None:
            raise ValueError("grid required when the symbol is a callable")
        f = PhaseGridFunction.sample(f, grid, q_independent=q_independent)
    kernel = partial_fourier_inv(f, r_disp=r_disp)
    return rep(pot, kernel)


def op_norm(op, *, tol: float = 1e-4, seed: int = 0) -> float:
    """Operator (spectral) norm; exact for small dense, power iteration else.

    Accepts OperatorMatrix, ndarray, BandedOperator, or any object with
    matvec/rmatvec, including scipy LinearOperator compositions.  A
    complex array iterates without a temporary of its size: the adjoint
    product is conj(conj(v) @ M).
    """
    if isinstance(op, OperatorMatrix):
        op = op.mat
    if isinstance(op, np.ndarray):
        if op.shape[0] <= 3000:
            return float(np.linalg.norm(op, 2))
        mv = lambda v: op @ v
        rmv = lambda v: (v.conj() @ op).conj()
    else:
        mv = op.matvec
        rmv = op.rmatvec
    # the iterate lives in the domain, whose size is the column count
    size = op.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(_NORM_MAXITER):
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
