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
product is a twisted convolution (``_twisted_convolution``): one GEMM per
leading row of the right factor, with a Toeplitz matrix of that row, about
d^(2N) multiply-adds in at most d^(N-1) GEMMs for d nodes per axis.  Every
other product is one banded matrix product (``_tiled_product``): with S =
r + y the base point of the right factor and T = r + x the output column,

    (φ ⋄ ψ)~(r;x) = Δ^N Σ_S A[r,S] B[S,T],  A[r,S] = φ~(r;S-r),  B[S,T] = ψ~(S;T-S)

up to the cocycle, run as GEMMs over tiles of rows on every axis.  Each
tile sums only the rows S that its rows' band meets and keeps only their
kept output columns, so a product pays for its bands and its kept window,
and each tile is one strided copy out of a zero-padded window of its
factor.  The cocycle factorizes as
ω^B(r;y,w) = Λ(r;y) Λ(r+y;w) conj(Λ(r;y+w)) with Λ = λ^{A₀} for an
internal transversal-gauge potential A₀ of B; this is an exact identity
(verified against direct flux quadrature by ``twisted_product_reference``),
so the phases are absorbed into A, B and the output.  For a constant field
Λ(r;u) = exp(-i/2 rᵀBu) in closed form: a row phase on the tiles of A, a
column phase on those of B and one on the output, from tables formed once
per product and sliced per tile, with no quadrature; a
variable field dresses the factors with tables of Λ, whose transversal
circulations are triangle fluxes computed by quadrature: one table on the
box at the widest window it serves, cut for the left factor, the output
and an unpadded right factor, and one more for a padded right factor.
Mass falling outside the kept output window is recorded as the
sup-convolution bound Σ (sup_q|φ| * sup_q|ψ|)(x) Δ^{2N} over the dropped
nodes x, an upper bound on the exact clipped L¹ mass; it is the total
(Σ sup_q|φ|)(Σ sup_q|ψ|) less the kept part, which is read from box sums
of sup_q|ψ| without forming the convolution (``_clip_mass``).  The layer
needs numpy only: both GEMM routes run ``numpy.matmul``.

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
convention of :mod:`magweyl.grid` (``grid._axis_runs``), which the pair
walk and the shifts read on the grid they are given.

``rep`` walks the window one displacement u at a time (``_window_walk``):
the rows x with x + u in the box form one sub-box per run of
``grid._axis_runs`` on each axis, whose circulations are one
``pot.circulation`` call and whose entries ``rep`` writes along M's
u-diagonal through one strided view.  On a truncated box each unordered
node pair is integrated once: reversing [x, y] negates its circulation, so
the phase of a lexicographically positive u also dresses the reverse
entry, which reads its own kernel value φ~(y;-u).  Periodic boxes
integrate every pair, since a wrapped column's reverse segment is not the
negated one.  ``rep`` and ``rep_banded`` fill from the same blocks
(``_rep_blocks``), into a dense and a CSR matrix.  ``_circulation_table``
integrates the pairs once for a ladder of nested boxes on one lattice into
one array, which ``rep`` reads by strided slices.

The layer runs one fixed configuration:

* Interpolation is linear (``_SCHEME``), the default of ``twisted_product``,
  ``twisted_product_reference`` and ``rep`` and the fixed choice of
  ``rep_banded`` and ``moyal.op_weyl``.  The products integrate the
  cocycle at order 8 by default (``fields.DEFAULT_ORDER``); circulations
  run at their gauge's ``order``.
* A product attaches a warning when its discarded tail exceeds 1e-2 of
  ‖φ‖₁‖ψ‖₁ (``TAIL_WARN_FRACTION``, the default of ``tail_warn``).  That
  comparison is made in one helper, ``_warn_dropped``, which the
  resolvent layer calls for its accumulated tails as well.
* ``op_norm`` runs at most 500 power iterations (``_NORM_MAXITER``); on a
  complex array it makes no temporary of the array's size.
* Block sizes, which bound the temporaries whatever the window: 8192
  node pairs per block when callable tilde values are tabled, and about
  as many points per call of a multiplier's callable (``_PAIR_BLOCK``);
  one sub-box of a displacement's rows per circulation call of ``rep``,
  split above as many pairs at order 8 and (8/order)² times as many at
  another order, which integrates a pair on order² nodes; about 2^16 flux
  quadrature nodes per block of a table of circulation phases Λ
  (``_QUAD_BLOCK``, 1024 pairs for a gauge of order 8); one box of rows of
  the left factor per leading row of the
  right factor in the constant-field twisted convolution; and for the
  general GEMM route, 128 matrix rows per tile of the summed rows S of
  the right factor, rounded to whole rows of the leading axis
  (``_GEMM_DEPTH``: 4 of them at n=32 in two dimensions), which also fix
  the order in which the output accumulates, and tiles of base points r
  sized per product from its windows (``_tile_plan``).  Every GEMM's
  fixed cost (packing its tiles, the strided add of its product) is paid
  per call, and wider tiles sum more zeros, so in two dimensions a tile
  of A holds 4 leading rows by 8 trailing ones, 4 by 16 from n=32 when
  the right factor is a stencil of at most 3 nodes per axis, whose GEMMs
  are thin, and 2 by 8 when the left one is; one axis keeps 16 rows and
  three keep 1 by 4 by 4, which measured fastest there.  A product of
  two 31-node windows at n=32 then runs 7.0e8 multiply-adds in 208 GEMMs,
  where 4-row trailing tiles ran 5.8e8 in 416, and its windows and tiles
  peak near 8 MB besides the output and the sheared factor.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

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
    shift_q,
    _axis_runs,
    _central,
    _check_scheme,
    _common_grid,
    _fit_window,
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
    "op_norm",
]

TAIL_WARN_FRACTION = 1e-2
_SCHEME = "linear"
_NORM_MAXITER = 500
_PAIR_BLOCK = 8192
_QUAD_BLOCK = 1 << 16
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
        func=func,
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


def _skew(arr, rows, cols, sign, start):
    """The view v[i; j] = arr[i; start + j + sign·i] per axis, over ``rows``
    values of i and ``cols`` of j: a tile of a banded matrix read from its
    diagonals (sign = -1), or a tile's diagonals read from its rows
    (sign = +1).  arr is C-contiguous and holds a base axis per row axis,
    or none (every row reads alike), then a column axis each; every column
    the view reads must lie on its row of arr, as the view is made by
    strides and numpy checks only that it stays inside arr."""
    dim = len(rows)
    col = arr.strides[-dim:]
    row = arr.strides[:dim] if arr.ndim > dim else (0,) * dim
    return np.ndarray(
        tuple(rows) + tuple(cols), arr.dtype, arr, sum(s * j for s, j in zip(col, start)),
        tuple(r + sign * s for r, s in zip(row, col)) + col,
    )


def _band_tile(f, rows, cols, shift):
    """Tile M[i, j] = f[i; j - i + shift] of a banded matrix over the row
    and column index ranges ``rows`` and ``cols`` (a slice per axis), zero
    where the displacement index leaves f's window [0, d): one strided
    copy out of a zero-padded window of f that holds the tile's rows and
    every displacement they read.  A factor without base axes is read at
    every row alike.  The tile has one axis per row axis, then one per
    column axis."""
    d = f.shape[-1]
    nr = [r.stop - r.start for r in rows]
    src = list(rows) if f.ndim > len(rows) else []
    dst = [slice(None)] * len(src)
    win = list(nr) if src else []
    for r, c in zip(rows, cols):
        # the displacements lo..hi-1 the tile reads on this axis
        lo, hi = c.start - r.stop + 1 + shift, c.stop - r.start + shift
        start = min(max(lo, 0), d)
        stop = max(min(hi, d), start)
        src.append(slice(start, stop))
        dst.append(slice(start - lo, stop - lo))
        win.append(hi - lo)
    window = np.zeros(win, dtype=complex)
    window[tuple(dst)] = f[tuple(src)]
    return _skew(window, nr, [c.stop - c.start for c in cols], -1, [r - 1 for r in nr]).copy()


def _phase_tables(rows, cols, bmat, sign):
    """exp(sign·i/2 ρ B_ef κ) over the positions ρ in ``rows`` and κ in
    ``cols``, one table per non-zero entry B_ef of a constant field, shaped
    to broadcast over the row axis e and the column axis f of a tile:
    formed once per product and sliced per tile."""
    dim = len(bmat)
    tables = []
    for e, f in zip(*np.nonzero(bmat)):
        shape = [1] * (2 * dim)
        shape[e], shape[dim + f] = len(rows), len(cols)
        angle = np.multiply.outer(rows, cols) * (0.5 * sign * bmat[e, f])
        tables.append((e, f, np.exp(1j * angle).reshape(shape)))
    return tables


def _dress(arr, tables, rows, cols):
    """arr[i; j] *= every table at (rows[e][i_e], cols[f][j_f]) in place,
    with ``rows`` and ``cols`` a slice of the tables' rows and columns per
    axis; one broadcast factor per table, so no temporary of arr's size is
    made."""
    dim = len(rows)
    for e, f, table in tables:
        index = [slice(None)] * (2 * dim)
        index[e], index[dim + f] = rows[e], cols[f]
        arr *= table[tuple(index)]


def _tile_plan(dim, n, nb, da, db):
    """The tiles of one ``_tiled_product``: base points r per leading tile
    ("lead") and per tile of each trailing axis ("trail", None on one
    axis), and rows S of b per depth tile ("depth": ``_GEMM_DEPTH`` matrix
    rows in whole leading rows, which fix the order the output accumulates
    in), for a product of windows of da and db nodes per axis with nb rows
    of b per axis.

    A GEMM costs more than its multiply-adds: its right-hand tile is
    packed, its left one copied and its product added along diagonals, per
    call.  Wider trailing tiles make fewer calls but sum more zeros, (t +
    da - 1)(t + out_count - 1) terms per trailing row.  Measured on one
    Xeon core with OpenBLAS 0.3.31, two axes run 8 trailing rows by 4
    leading ones, 3-12% faster than 4 by 4 for windows of 11 to 47 nodes
    at n = 24 to 48.  A stencil of at most 3 nodes per axis makes thin
    GEMMs: on the left it meets only k + 2 rows r per depth tile, and 2
    leading rows ran 3-15% faster than 4 at n = 16 to 48; on the right it
    has k + 2 columns per leading row, and from n = 32 it takes 16
    trailing rows: half the GEMMs of 8, 4% faster at n = 48 and as fast at
    n = 32; below n = 32 they ran 4-20% slower.  One and three
    axes keep 16 and 1 leading rows by 4 per trailing axis: 8 trailing rows
    ran a 3-D product of 11-node windows at n=12 16% slower.
    """
    depth = max(1, _GEMM_DEPTH // nb ** (dim - 1))
    if dim != 2:
        lead, trail = (16, None) if dim == 1 else (1, 4)
    elif db <= 3:
        lead, trail = 4, 16 if n >= 32 else 8
    else:
        lead, trail = 2 if da <= 3 else 4, 8
    return {"lead": lead, "trail": trail, "depth": depth}


def _tiled_product(a, b, out_count, pad, grid, bmat=None):
    """The shifted convolution out[r; y+w+off] = Σ a[r;y] b[r+y+pad; w] of
    the general product as one banded matrix product (GEMM); returns the
    output and the work its GEMMs did: ``multiply_adds``, ``gemm_calls``
    and the ``tile_plan`` (``_tile_plan``).

    Per axis, with S = r + y - ka + pad the row of b and T = r + X the
    column of the kept output node X, A[r,S] = a[r; S-r+ka-pad] and
    B[S,T] = b[S; T-S-c] (zero outside each window, c = out_count//2 -
    db//2 - pad) give out[r; T-r] = Σ_S A[r,S] B[S,T], with the
    multi-indices r, S, T over all axes flattened.  Every axis is tiled
    by the plan's rows:

    * on the leading axis, S is summed in tiles of k = depth rows, which
      fix the order the output accumulates in, and r is split into tiles
      of m = lead rows;
    * on every trailing axis, r is split into tiles of t = trail rows, and
      the whole band of S that a tile's rows meet is summed in one GEMM;
    * a tile keeps the columns T of its rows' kept output windows, and
      sums the rows S where the bands of a and b meet them.

    These cuts drop zero terms only, so the output equals that of dense
    trailing axes up to the rounding of the GEMMs, which a BLAS may make
    depend on a GEMM's shape (it may split a long sum, or round the last
    columns apart).  The outer loop writes the rows of b in a
    tile of S along the diagonals T = S + c + w of one zeroed window, and
    copies each trailing tile's B out of it; the inner loop copies each A
    tile out of a zero-padded window of a (``_band_tile``), multiplies it
    by the rows and columns of B it meets, and adds the product to the
    output along the diagonals T = r + X in one strided add.  With da
    and db nodes per axis in the windows of a and b and nb = n + 2·pad
    rows of b, the GEMMs run L·P^(N-1) multiply-adds: on the leading axis
    L sums rows × S rows × columns over its GEMMs, at most k (k + db - 1)
    per row r, and on each trailing axis P sums t' |S_t'| (t' + out_count -
    1) over its tiles of t' ≤ t rows, about n (t + da - 1)(t + out_count -
    1) where the box does not cut the bands |S_t'| of S.  Two 31-node
    windows at n=32 run L = 21,312 and P = 32,832, 7.0e8 in all; 4-row
    trailing tiles ran P = 27,200 in twice the GEMMs, and dense trailing
    axes put n·nb·(n + out_count - 1) in P.  A factor without base axes is
    read at every base point alike; ``b`` carries ``pad`` extra base
    points per face.

    With ``bmat`` (a constant field) the transversal-gauge dressing has the
    closed form Λ(r;u) = exp(-i/2 rᵀBu), applied as a row phase
    exp(-i/2 rᵀBs) to the tiles of A, a column phase exp(-i/2 sᵀBt) to
    the windows of B and exp(+i/2 rᵀBx) to the output, with r, s, t = r + x
    the node positions, from tables formed once per product; no quadrature
    runs.  Otherwise the caller dresses the factors.
    """
    dim, n = grid.dim, grid.n
    da, db = a.shape[-1], b.shape[-1]
    oa = da // 2 - pad
    c = out_count // 2 - db // 2 - pad
    nb, nt = n + 2 * pad, n + out_count - 1
    rest = dim - 1
    plan = _tile_plan(dim, n, nb, da, db)
    m, t, k = plan["lead"], plan["trail"], plan["depth"]
    # the columns of B's windows: every T a band reaches, every kept one
    t0, t1 = min(0, c), max(nt, nb - 1 + c + db)
    # per trailing axis, tiles of rows r with the band of S they meet and
    # their kept columns T
    trail = []
    for r0 in range(0, n, t) if rest else ():
        r1 = min(r0 + t, n)
        trail.append((slice(r0, r1), slice(max(0, r0 - oa), min(nb, r1 - 1 - oa + da)),
                      slice(r0, r1 - 1 + out_count)))
    if bmat is not None:
        # node positions of the base points r, the rows S and the columns T
        pos_r = grid.axis()
        pos_s = pos_r[0] + (np.arange(nb) - pad) * grid.delta
        pos_t = pos_r[0] + (np.arange(t0, t1) - out_count // 2) * grid.delta
        phase_a = _phase_tables(pos_r, pos_s, bmat, -1)
        phase_b = _phase_tables(pos_s, pos_t, bmat, -1)
    out = np.zeros((n,) * dim + (out_count,) * dim, dtype=complex)
    every = slice(None)
    madds = calls = 0
    for s0 in range(0, nb, k):
        s1 = min(s0 + k, nb)
        # columns met by b's band on these rows
        t_lo, t_hi = max(0, s0 + c), min(nt, s1 - 1 + c + db)
        # base points r whose band on a meets these rows
        r_lo, r_hi = max(0, s0 + oa - da + 1), min(n, s1 + oa)
        if t_hi <= t_lo or r_hi <= r_lo:
            continue
        # B on these rows and every column their bands reach, written along
        # the diagonals T = S + c + w of a zeroed window
        brows = (s1 - s0,) + (nb,) * rest
        wb = np.zeros(brows + (s1 - s0 + db - 1,) + (t1 - t0,) * rest, dtype=complex)
        _skew(wb, brows, (db,) * dim, 1, (0,) + (c - t0,) * rest)[...] = b[s0:s1] if b.ndim > dim else b
        if bmat is not None:
            _dress(wb, phase_b, [slice(s0, s1)] + [every] * rest,
                   [slice(s0 + c - t0, s1 - 1 + c + db - t0)] + [every] * rest)
        for tiles in itertools.product(trail, repeat=rest):
            trows = [r for r, _, _ in tiles]
            srows = [s for _, s, _ in tiles]
            tcols = [slice(t.start - t0, t.stop - t0) for _, _, t in tiles]
            sc = math.prod(s.stop - s.start for s in srows)
            widths = tuple(t.stop - t.start for t in tcols)
            tc = math.prod(widths)
            btile = wb[(every, *srows, slice(t_lo - s0 - c, t_hi - s0 - c), *tcols)]
            btile = btile.reshape((s1 - s0) * sc, (t_hi - t_lo) * tc)
            for r0 in range(r_lo - r_lo % m, r_hi, m):
                r1 = min(r0 + m, n)
                # kept columns T = r + X of these base points, and the rows
                # S where both bands meet them
                lo, hi = max(t_lo, r0), min(t_hi, r1 - 1 + out_count)
                sa, sb = max(s0, r0 - oa, lo - c - db + 1), min(s1, r1 - 1 - oa + da, hi - c)
                if hi <= lo or sb <= sa:
                    continue
                rows, cols = [slice(r0, r1)] + trows, [slice(sa, sb)] + srows
                atile = _band_tile(a, rows, cols, oa)
                if bmat is not None:
                    _dress(atile, phase_a, rows, cols)
                # the product lands in the columns lo..hi of a buffer that
                # holds every kept column X_lo..X_hi of these rows, zero
                # elsewhere, so one strided add reads its diagonals
                x_lo, x_hi = max(0, lo - r1 + 1), min(out_count, hi - r0)
                nr = atile.shape[:dim]
                prod = np.empty(nr + (r1 - r0 + x_hi - x_lo - 1,) + widths, dtype=complex)
                flat = prod.reshape(math.prod(nr), -1)
                left, right = (lo - r0 - x_lo) * tc, (hi - r0 - x_lo) * tc
                flat[:, :left] = 0
                flat[:, right:] = 0
                np.matmul(atile.reshape(len(flat), -1),
                          btile[(sa - s0) * sc:(sb - s0) * sc, (lo - t_lo) * tc:(hi - t_lo) * tc],
                          out=flat[:, left:right])
                madds += len(flat) * (sb - sa) * sc * (hi - lo) * tc
                calls += 1
                out[tuple(rows) + (slice(x_lo, x_hi),)] += _skew(
                    prod, nr, (x_hi - x_lo,) + (out_count,) * rest, 1, (0,) * dim)
                # drop each tile before the next is made
                del atile, prod, flat
        del wb
    if bmat is not None:
        _dress(out, _phase_tables(pos_r, grid.disp_axis(out_count), bmat, 1), [every] * dim,
               [every] * dim)
    return out, {"multiply_adds": madds, "gemm_calls": calls, "tile_plan": plan}


def _twisted_convolution(a, b, out_count, grid, bmat):
    """Product of two base-point independent kernels in a constant field B,

        out[x] = Δ^N Σ_y a[y] b[x-y] exp(-i/2 yᵀBx),

    on the kept window (the cocycle exp(-i/2 yᵀBw), w = x - y, equals this
    phase since B is antisymmetric); returns the output and the
    ``multiply_adds`` its GEMMs ran.  With the leading N-1 axes x', y' fixed
    the phase splits into exp(-i/2 y'ᵀB'x'), a modulation of the left row
    in y_N and one of the output row in x_N, so the sum over y_N is a
    product with the Toeplitz matrix T_k'[y_N, x_N] = b[k'; x_N - off - y_N]
    of b's leading row k' = x' - y' - off (zero outside b's window).  For
    one k' the pairs (x', y') form a box of leading rows, so one GEMM
    multiplies the box's modulated rows of a by T_k' and the modulated
    result adds into the box of output rows x'.  The rows k' add in
    ascending order, so the result does not depend on how the work is
    blocked.  T_k' is a strided view of b's row padded by d_a - 1 zeros
    per side, over the c kept columns x_N: at most d_b^(N-1) GEMMs of
    Σ pairs·d_a·c multiply-adds, d_a the nodes per axis of a's window.
    """
    p = grid.dim - 1
    da, db = a.shape[-1], b.shape[-1]
    # the kept window is at most the natural one, so off <= 0
    off = out_count // 2 - da // 2 - db // 2
    ya, xo = grid.disp_axis(da), grid.disp_axis(out_count)

    def on_axis(pos, e):
        # positions along leading axis e, shaped to broadcast over the others
        return pos.reshape((-1,) + (1,) * (p - 1 - e))

    def modulation(pos, coef, last):
        # exp(-i/2 (Σ_e coef[e]·pos[i_e]) last[j]) over leading rows i and
        # last-axis nodes j
        lead = sum(c * on_axis(pos, e) for e, c in enumerate(coef))
        return np.exp(-0.5j * np.multiply.outer(lead, last))

    in_mod = modulation(xo, bmat[p, :p], ya)
    out_mod = modulation(ya, bmat[:p, p], xo)
    # b's rows with d_a - 1 zeros on either side; T_k'[i, j] reads node
    # j - off + (d_a - 1 - i) of row k', a window of d_a nodes reversed
    bpad = np.zeros((db,) * p + (db + 2 * (da - 1),), dtype=complex)
    bpad[..., da - 1:da - 1 + db] = b
    toeplitz = np.lib.stride_tricks.sliding_window_view(bpad, da, axis=-1)
    toeplitz = toeplitz[..., -off:out_count - off, ::-1].swapaxes(-1, -2)
    out = np.zeros((out_count,) * grid.dim, dtype=complex)
    madds = 0
    for k in np.ndindex(*(db,) * p):
        ybox = tuple(slice(max(0, -j - off), min(da, out_count - j - off)) for j in k)
        if any(s.stop <= s.start for s in ybox):
            continue
        xbox = tuple(slice(s.start + j + off, s.stop + j + off) for s, j in zip(ybox, k))
        rows = a[ybox] * in_mod[xbox]
        if p > 1:
            # exp(-i/2 y'ᵀB'x') over the box
            cross = sum(bmat[e, f] * on_axis(ya[ybox[e]], e) * on_axis(xo[xbox[f]], f)
                        for e, f in zip(*np.nonzero(bmat[:p, :p])))
            rows *= np.exp(-0.5j * cross)[..., None]
        prod = rows.reshape(-1, da) @ toeplitz[k]
        madds += prod.size * da
        out[xbox] += prod.reshape(rows.shape[:-1] + (out_count,)) * out_mod[ybox]
    out *= grid.cell_volume
    return out, {"multiply_adds": madds}


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


def _check_operands(phi, psi, field, sheet, scheme) -> int:
    """Check the operands and the interpolation scheme of a product, on
    every path, and return its output count: the natural window, at most
    the largest one the box represents."""
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
    _check_scheme(scheme)
    return min(phi.disp_count + psi.disp_count - 1, phi.grid.max_disp_count())


def twisted_product(
    phi: KernelSample,
    psi: KernelSample,
    field: MagneticField,
    *,
    scheme: str = _SCHEME,
    order: int = DEFAULT_ORDER,
    tail_warn: float = TAIL_WARN_FRACTION,
    sheet: str = "centered",
) -> KernelSample:
    """The ⋄-product of two kernels twisted by the field's 2-cocycle.

    A factor with a single displacement node is a multiplier: the other
    factor's values are multiplied by it at shifted base points.  For two
    base-point independent kernels and a constant (or zero) field the
    cocycle depends only on the displacements: the product is a twisted
    convolution, one GEMM with a Toeplitz matrix per leading row of ψ,
    about d^(2N) multiply-adds for d nodes per axis
    (:func:`_twisted_convolution`), and base-point independent.  Every
    other product is the shifted convolution of the sheared values,
    computed as one banded matrix product in tiles
    (:func:`_tiled_product`).  Both record the multiply-adds their GEMMs
    ran in the output's ``meta["multiply_adds"]``; the tiled one also
    records its ``meta["gemm_calls"]`` and its ``meta["tile_plan"]``, the
    rows per tile it chose from the windows (``_tile_plan``: "lead" and
    "trail" base points, "depth" rows of ψ).  The cocycle enters as
    the transversal gauge's circulation phases: in closed form for a
    constant field (a row phase on the left factor, a column phase on the
    right one and an output phase), as dressing tables of the triangle-flux
    quadratures of a transversal gauge of order ``order`` for a variable
    one.

    Every path returns the natural output window of d_φ + d_ψ - 1 nodes
    per axis, capped at the largest one the box represents (the window
    rule of :mod:`magweyl.grid`).  Mass pushed past the cap is recorded in
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
    out_count = _check_operands(phi, psi, field, sheet, scheme)
    grid = phi.grid
    tilde = sheet == "tilde"

    q_independent = phi.q_independent and psi.q_independent
    sup_phi, sup_psi = phi.sup_over_q(), psi.sup_over_q()
    work = {}
    if phi.disp_count == 1 or psi.disp_count == 1:
        left = phi.disp_count == 1
        v, other = (phi, psi) if left else (psi, phi)
        on_tilde = tilde or (other.sheet == "tilde" and not other.q_independent)
        h = (0 if left else 2) if on_tilde else (-1 if left else 1)
        # the natural window of a multiplier product is the other factor's
        vals = _multiply(v, other, h, scheme, on_tilde)
        if on_tilde and not tilde:
            vals = _shear(vals, grid, -1, scheme, inplace=True)
    elif q_independent and field.is_constant:
        vals, work = _twisted_convolution(phi.values, psi.values, out_count, grid, field.constant)
    else:
        q_independent = False
        # the right factor is read at shifted base points r + y; callables
        # and base-point independent kernels extend past the box, arrays do not
        pad = phi.disp_count // 2 if (psi.q_independent or psi.func is not None) else 0
        a = _tilde_values(phi, scheme)
        b = _tilde_values(psi, scheme, pad=pad)
        if field.is_constant:
            vals, work = _tiled_product(a, b, out_count, pad, grid, field.constant)
        else:
            # gauge dressing turns the twisted sum into a plain shifted
            # convolution; one table on the box serves the left factor, the
            # output and an unpadded right factor, cut to their windows
            pot = transversal_gauge(field, order=order)
            lam = _lambda_factors(pot, grid, max(phi.disp_count, out_count, 1 if pad else psi.disp_count))
            lam_b = _lambda_factors(pot, grid, psi.disp_count, pad=pad) if pad else lam
            a = _fit_window(lam, phi.disp_count, grid.dim) * a
            b = _fit_window(lam_b, psi.disp_count, grid.dim) * b
            vals, work = _tiled_product(a, b, out_count, pad, grid)
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
    out.meta.update(work)
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
    out_count = _check_operands(phi, psi, field, sheet, scheme)
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
    """``rep``'s matrix held sparse: the CSR matrix of the same entries.

    ``mat`` is a ``scipy.sparse`` CSR array; it holds every entry that
    ``rep`` writes, so ``to_dense()`` equals ``rep`` bit for bit.  Vectors
    are flat or of the grid's shape, in C order; ``rmatvec`` applies the
    adjoint as conj(Mᵀ conj v), with no adjoint formed.
    """

    grid: BoxGrid
    mat: "scipy.sparse.csr_array"

    @property
    def shape(self):
        return self.mat.shape

    @property
    def dtype(self):
        return self.mat.dtype

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return (self.mat @ np.ravel(v)).reshape(np.shape(v))

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return np.conj(self.mat.T @ np.conj(np.ravel(v))).reshape(np.shape(v))

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()


def rep_banded(pot: VectorPotential, kernel: KernelSample) -> BandedOperator:
    """Representation as a sparse operator: ``rep``'s entries in a CSR matrix.

    The sparse form of :func:`rep` at its default scheme, for
    ``matvec``/``rmatvec`` users.  ``rep``'s blocks of entries, one per
    sub-box of its walk (``_rep_blocks``), go into one CSR matrix at the
    flat node indices of their rows and columns, with no entry-wise cut;
    ``rep`` writes each (row, column) once, so no entry is summed and
    ``to_dense()`` equals ``rep`` bit for bit.  ``scipy.sparse`` is
    imported on the first call.
    """
    from scipy import sparse

    grid = kernel.grid
    index = np.arange(grid.size).reshape((grid.n,) * grid.dim)
    blocks = [
        (index[r].ravel(), index[c].ravel(), v.ravel()) for r, c, v in _rep_blocks(pot, kernel, _SCHEME)
    ]
    rows, cols, values = (np.concatenate(part) for part in zip(*blocks))
    mat = sparse.csr_array((values, (rows, cols)), shape=(grid.size, grid.size))
    return BandedOperator(grid=grid, mat=mat)


def _window_walk(grid: BoxGrid, d: int):
    """``rep``'s walk over the displacements u of a window of ``d`` nodes
    per axis, in window order: every u on a periodic box, u = 0 and the
    lexicographically positive u on a truncated one.  The rows x whose
    column x + u lies in the box (wrapped on a periodic box) form one
    sub-box per choice of a run of ``grid._axis_runs`` on every axis; yields
    u's window index j and, per nonempty sub-box, the slices of its rows
    and of their columns, one per axis."""
    count = d**grid.dim
    # displacement nodes are in lexicographic order, so u = 0 is the middle
    # node and the lexicographically positive ones follow it
    for j in range(0 if grid.bc == "periodic" else count // 2, count):
        steps = np.unravel_index(j, (d,) * grid.dim)
        for runs in itertools.product(*(_axis_runs(grid.n, int(s) - d // 2, grid) for s in steps)):
            if all(dst.start < dst.stop for dst, _ in runs):
                yield j, tuple(dst for dst, _ in runs), tuple(src for _, src in runs)


def _walk_circulations(pot: VectorPotential, grid: BoxGrid, d: int):
    """``_window_walk`` with the circulation of ``pot`` along [x, x + u] for
    each sub-box's rows x, an array of the sub-box's shape.

    Each sub-box is one ``pot.circulation`` call, split only above
    ``_PAIR_BLOCK`` pairs for a gauge of order 8 and (8/order)² times as
    many for another, as it integrates a pair on order² nodes.  A gauge
    from ``_circulation_table`` reads each sub-box as a strided slice of
    u's block of its table instead, and refuses a grid its table does not
    cover.  A gauge of another dimension than the grid's is refused.
    """
    _common_grid(grid, field=pot, of=" of the vector potential")
    if pot._table is not None:
        yield from _table_circulations(pot._table, grid, d)
        return
    mesh, disp = grid.mesh(), _disp_nodes(grid, d)
    per_call = max(1, _PAIR_BLOCK * DEFAULT_ORDER**2 // pot.order**2)
    for j, rows, cols in _window_walk(grid, d):
        sub = mesh[rows]
        q = sub.reshape(-1, grid.dim)
        circ = [pot.circulation(q[s:s + per_call], disp[j]) for s in range(0, len(q), per_call)]
        yield j, rows, cols, np.concatenate(circ).reshape(sub.shape[:-1])


def _table_circulations(table: tuple, grid: BoxGrid, d: int):
    """``_walk_circulations`` read from a table of ``_circulation_table``.

    The table covers a truncated box of its lattice (bit for bit the same
    spacing) centred in its own, at a window no wider than its own: the
    rows of u on such a box are a centred slice of u's block, whose rows
    run over the table box's sub-box for u in C order."""
    tgrid, td, values, starts = table
    if not (grid.bc == "truncated" and grid.delta == tgrid.delta and grid.n <= tgrid.n and d <= td):
        raise ValueError(
            "circulation table covers truncated boxes of its lattice centred in its own, "
            "at windows no wider than its own"
        )
    offset = (tgrid.n - grid.n) // 2
    for j, rows, cols in _window_walk(grid, d):
        steps = np.array(np.unravel_index(j, (d,) * grid.dim)) - d // 2
        block = np.ravel_multi_index(tuple(steps + td // 2), (td,) * grid.dim) - td**grid.dim // 2
        rows_of_u = values[starts[block]:starts[block + 1]].reshape(tgrid.n - np.abs(steps))
        yield j, rows, cols, rows_of_u[tuple(slice(offset, offset + r.stop - r.start) for r in rows)]


def _rep_blocks(pot: VectorPotential, kernel: KernelSample, scheme: str):
    """``rep``'s entries, per sub-box of the walk: the slices of the rows x
    and the columns y = x + u of the sub-box and the entries M[x, y], an
    array of its shape, then on a truncated box for u ≠ 0 the reverse
    entries M[y, x], which share the phase."""
    grid = kernel.grid
    d, dim = kernel.disp_count, grid.dim
    # a base-point independent kernel reads its one row at every row
    tilde = np.broadcast_to(_tilde_values(kernel, scheme), (grid.n,) * dim + (d,) * dim)
    for j, rows, cols, circ in _walk_circulations(pot, grid, d):
        u = np.unravel_index(j, (d,) * dim)
        phase = np.exp(-1j * circ)
        # the kernel values are views: numpy writes a product into a large
        # temporary right operand with the operands swapped, which rounds
        # differently, and an entry would then depend on its block's size
        yield rows, cols, phase * tilde[rows + u] * grid.cell_volume
        if grid.bc == "truncated" and j > d**dim // 2:
            minus_u = tuple(d - 1 - i for i in u)
            yield cols, rows, np.conj(phase) * tilde[cols + minus_u] * grid.cell_volume


def _circulation_table(pot: VectorPotential, grid: BoxGrid, d: int) -> VectorPotential:
    """The gauge ``pot`` with the circulations of ``rep``'s pairs tabulated.

    Integrates circulation(x, u) once for every pair that ``rep`` walks on
    the truncated box ``grid`` with a window of ``d`` nodes per axis, one
    ``_walk_circulations`` sub-box per lexicographically non-negative u,
    into one array: u's block holds its rows in C order.  Returns a copy
    of ``pot`` with that array attached, at ``pot``'s order; ``rep`` on a
    truncated box of the same spacing bit for bit, centred in ``grid``, at
    a window no wider than ``d``, reads its pairs as strided slices of the
    blocks and refuses any other grid.  A segment's circulation depends
    on its end points only, and the quadrature on neither the box nor the
    batch, so ``rep`` through the table equals ``rep`` through ``pot`` bit
    for bit.  The copy's own ``circulation`` integrates as ``pot`` does.
    """
    if grid.bc == "periodic":
        raise ValueError("circulation tables cover truncated boxes only")
    half = d**grid.dim // 2
    sizes = np.zeros(d**grid.dim - half + 1, dtype=np.intp)
    for j, rows, _ in _window_walk(grid, d):
        sizes[j - half + 1] = math.prod(r.stop - r.start for r in rows)
    starts = np.cumsum(sizes)
    values = np.empty(starts[-1])
    for j, _, _, circ in _walk_circulations(pot, grid, d):
        values[starts[j - half]:starts[j - half + 1]] = circ.ravel()
    tabulated = VectorPotential(dim=pot.dim, func=pot.func, circulation_exact=pot.circulation_exact)
    tabulated._transversal, tabulated._order = pot._transversal, pot.order
    tabulated._table = (grid, d, values, starts)
    return tabulated


def _diagonal(mat: np.ndarray, grid: BoxGrid, rows: tuple, cols: tuple) -> np.ndarray:
    """The entries M[x, x + u] of the sub-box of rows ``rows`` whose columns
    are ``cols``, as a strided view of the dense matrix ``mat``: a step
    along node axis e moves the flat row and column alike, by n^(N-1-e)."""
    place = [grid.n ** (grid.dim - 1 - e) for e in range(grid.dim)]
    start = sum(r.start * p for r, p in zip(rows, place)) * grid.size + sum(
        c.start * p for c, p in zip(cols, place)
    )
    return np.ndarray(
        tuple(r.stop - r.start for r in rows), mat.dtype, mat, start * mat.itemsize,
        tuple(p * (grid.size + 1) * mat.itemsize for p in place),
    )


def rep(pot: VectorPotential, kernel: KernelSample, *, scheme: str = _SCHEME) -> OperatorMatrix:
    """Dense matrix of the representation, M[x,y] = Δ^N λ^A(x;y-x) φ((x+y)/2;y-x).

    Filled directly over the node pairs whose difference u = y - x lies in
    the kernel window, one displacement at a time (``_rep_blocks``): the
    rows x with x + u in the box form sub-boxes, one ``pot.circulation``
    call each, and their entries Δ^N exp(-i circulation(x, u)) φ~(x;u),
    at the gauge's order, with the sheared value φ~(x;u) = φ(x + u/2; u),
    taken as stored for tilde-sheet kernels, go along M's u-diagonal
    through a strided view of the matrix.  On a truncated box each
    unordered pair is integrated once: the circulation c of a
    lexicographically positive u (and of u = 0) also gives the reverse
    entry Δ^N exp(+i c) φ~(y;-u), since reversing the segment negates its
    line integral.  Only the phase is shared, so a non-Hermitian kernel
    gives a non-Hermitian matrix.  Periodic boxes wrap the column index and
    integrate every pair: a wrapped column's reverse segment is not the
    negated one.  A gauge from ``_circulation_table`` reads the same
    circulations from a table built once for a box ladder.  Entries equal
    those of ``rep_banded(...).to_dense()`` bit for bit.
    """
    grid = kernel.grid
    mat = np.zeros((grid.size, grid.size), dtype=complex)
    for rows, cols, values in _rep_blocks(pot, kernel, scheme):
        _diagonal(mat, grid, rows, cols)[...] = values
    return OperatorMatrix(mat=mat, grid=grid)


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
