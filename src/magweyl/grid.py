"""Box discretization, dual momentum lattice and the partial Fourier pair.

This module owns the lattice conventions; every other module takes them
from here instead of restating them:

* configuration nodes per axis: x_j = (j - (n-1)/2) * delta, j = 0..n-1,
  with delta = 2 L / n.  The node set is symmetric under negation and
  contains no node at the origin; differences of nodes live on the integer
  displacement lattice which does contain 0.
* momentum nodes per axis: p_m = (m - n/2) * pi / L, m = 0..n-1, covering
  [-pi/delta, pi/delta) with spacing pi / L.
* meshes: every lattice mesh, of nodes, momenta or displacements, is the
  tensor mesh of one axis built by ``_tensor_mesh``, shape
  (count,)*dim + (dim,) in C order.
* measures: configuration sums carry weight delta^N per node, momentum sums
  carry weight (2L)^-N per node.  With these weights the forward transform
  (displacement to momentum)

      f(p) = sum_y exp(+i p.y) phi(y) delta^N

  and its inverse phi(y) = sum_p exp(-i p.y) f(p) (2L)^-N are mutually
  inverse and Parseval holds exactly on the grid:
  sum_y |phi|^2 delta^N = sum_p |f|^2 (2L)^-N.  Both directions run one
  transform body (``_lattice_fourier``).  So the kernel of a symbol h(p) is
  the inverse transform k, and the operator h(P) has the matrix
  M[x, y] = delta^N k(y - x); on a periodic box k wraps with period n and
  M is the circulant ``_periodic_multiplier``.
* shear: base-point arrays move by half lattice steps through the one-axis
  shifts behind ``shift_q``; ``_shear`` moves every displacement row of a
  kernel to base points h·u/2 away, one pass per axis (``_shear_pass``).
* windows: a window of c displacement nodes sits centrally in one of d
  nodes, displacement 0 at node c // 2 of the one and d // 2 of the other
  (``_central``); the full n-node lattice is such a window, and
  ``_fit_window`` cuts or zero-pads from one window to another.  One rule
  sizes every kernel window.  ``partial_fourier_inv`` keeps the largest
  symmetric window, n - 1 nodes (|x|_inf <= L - delta), and records the
  dropped -L row in ``tail_mass``; a symbol's kernel is that window trimmed
  to its support, the rows above 1e-15 of its largest entry
  (``moyal._symbol_kernel``); a product of windows of d_phi and d_psi nodes
  keeps its natural window, d_phi + d_psi - 1 nodes, capped at n - 1, and
  records the mass pushed past the cap (``crossed.twisted_product``).
* the box edge: a step from a node reaches a node in the box, or leaves
  the box.  A truncated box ends at its edge, so past it values are zero;
  a periodic box wraps every step, so every step stays in the box.  One
  rule says this, ``_axis_runs``: the runs of an axis whose nodes a step
  of s nodes keeps in the box, one run on a truncated box (none past its
  width) and two on a periodic one, the second being the wrap.  The
  base-point shifts (whole and half steps alike) read it on the grid they
  are given, and the pair walk of ``crossed.rep`` reads each
  displacement's rows from it, one sub-box per choice of a run on every
  axis.

Three input rules live here as well, each in one helper every layer calls:

* samples of a user callable (a kinetic symbol, a potential, a field
  profile) have the expected shape, are finite and, where required, real
  within 1e-12·max(1, max|v|) (``_checked_samples``);
* a potential V is read through ``_node_values`` wherever it is read: on
  the nodes by assembly and by ``crossed.multiplier_kernel``, and by the
  multiplier kernel's callable at the half-lattice points q ± x/2 that
  products read it at, so V is checked there too;
* operands share one grid, and a field's dimension is the grid's
  (``_common_grid``).

Kernels of phase-space symbols are stored as ``KernelSample``: values over
(base point, displacement) on a window of the rule above, with the
discarded mass recorded.  Base-point independent
kernels drop the q axes entirely; several hot paths dispatch on that flag.

Array layouts are fixed: base-point axes lead and the displacement or
momentum axes trail, each ``dim`` of them.  The transforms act on the
trailing axes and ``shift_q`` on the leading ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoxGrid",
    "MomentumGrid",
    "PhaseGridFunction",
    "KernelSample",
    "partial_fourier",
    "partial_fourier_inv",
    "shift_q",
]


def _tensor_mesh(axis: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim``-fold tensor mesh of one axis, shape (len(axis),)*dim +
    (dim,), its points in C order along the leading axes."""
    return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)


@dataclass(frozen=True)
class BoxGrid:
    """Uniform symmetric lattice on the centered box [-L, L]^dim."""

    dim: int
    half_length: float
    n: int
    bc: str = "truncated"

    def __post_init__(self):
        if not all(isinstance(k, (int, np.integer)) for k in (self.dim, self.n)):
            raise ValueError(f"dimension and node count must be integers, got {self.dim!r} and {self.n!r}")
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("node count per axis must be even and at least 4")
        if not (np.isfinite(self.half_length) and self.half_length > 0):
            raise ValueError(f"half length must be positive and finite, got {self.half_length}")
        if self.bc not in ("truncated", "periodic"):
            raise ValueError("boundary condition must be 'truncated' or 'periodic'")

    @property
    def delta(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def size(self) -> int:
        return self.n ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.delta ** self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates of one axis."""
        return (np.arange(self.n) - (self.n - 1) / 2.0) * self.delta

    def mesh(self) -> np.ndarray:
        """All nodes as an array of shape (n, ..., n, dim)."""
        return _tensor_mesh(self.axis(), self.dim)

    def points(self) -> np.ndarray:
        """All nodes flattened in C order, shape (size, dim)."""
        return self.mesh().reshape(self.size, self.dim)

    def momentum(self) -> "MomentumGrid":
        return MomentumGrid(box=self)

    def disp_axis(self, count: int) -> np.ndarray:
        """Displacement coordinates, ``count`` odd, symmetric around 0."""
        if count % 2 != 1:
            raise ValueError("displacement count must be odd")
        k = count // 2
        return np.arange(-k, k + 1) * self.delta

    def max_disp_count(self) -> int:
        """Largest symmetric displacement window, |x| <= L - delta."""
        return self.n - 1

    def interior_mask(self, collar: float) -> np.ndarray:
        """Boolean mask of nodes at distance > collar from the box boundary.
        The collar must be finite and >= 0: NaN or inf would leave no node,
        a negative collar every node."""
        if not (np.isfinite(collar) and collar >= 0):
            raise ValueError(f"collar must be finite and >= 0, got {collar}")
        ax = self.axis()
        inner = np.abs(ax) < self.half_length - collar
        mask = inner
        for _ in range(self.dim - 1):
            mask = np.logical_and.outer(mask, inner)
        return mask


@dataclass(frozen=True)
class MomentumGrid:
    """Dual lattice of a BoxGrid with its summation weight."""

    box: BoxGrid

    @property
    def spacing(self) -> float:
        return np.pi / self.box.half_length

    @property
    def weight(self) -> float:
        """Measure carried by one momentum node, (2L)^-dim."""
        return (2.0 * self.box.half_length) ** (-self.box.dim)

    @property
    def p_max(self) -> float:
        return np.pi / self.box.delta

    def axis(self) -> np.ndarray:
        n = self.box.n
        return (np.arange(n) - n / 2) * self.spacing

    def mesh(self) -> np.ndarray:
        return _tensor_mesh(self.axis(), self.box.dim)


def _checked_samples(
    vals, shape: tuple, what: str, where: str, real: bool = True, constant: bool = False
) -> np.ndarray:
    """The one check of a user callable's samples: ``vals`` must have
    ``shape``, one value per point, and be finite and, with ``real``, keep
    its imaginary part within 1e-12·max(1, max|v|); the real part then
    comes back as floats.  With ``constant``, a single value (0-d or one
    entry) stands for every point.  A refusal names ``what`` was sampled
    and ``where``, the kind of point."""
    vals = np.asarray(vals)
    if constant and vals.size == 1:
        vals = np.full(shape, vals.reshape(()))
    if vals.shape != shape:
        raise ValueError(f"{what} must give one value per {where}: {vals.size} for {int(np.prod(shape))}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} is not finite at every {where}: it produced non-finite values")
    if not real:
        return vals
    if np.iscomplexobj(vals):
        if float(np.abs(vals.imag).max()) > 1e-12 * max(float(np.abs(vals).max()), 1.0):
            raise ValueError(f"{what} must be real-valued")
        vals = vals.real
    return vals.astype(float)


def _node_values(v, points: np.ndarray, real: bool = True, where: str = "node") -> np.ndarray:
    """The one reading of a potential or multiplier v at ``points``, stacked
    along the first axis: zero for None, a number or a single value as a
    constant, else the callable's values, one per point, through
    ``_checked_samples``."""
    vals = np.ravel(0.0 if v is None else v(points) if callable(v) else v)
    return _checked_samples(vals, (len(points),), "potential", where, real, constant=True)


def _common_grid(grid: BoxGrid, *operands, field=None, of: str = "") -> BoxGrid:
    """``grid``, refused unless every operand (a kernel or a symbol) lives
    on it and ``field``, when given, has its dimension; ``of`` names the
    field's owner in that refusal."""
    if any(op.grid != grid for op in operands):
        raise ValueError("operands live on different grids")
    if field is not None and field.dim != grid.dim:
        raise ValueError(f"grid dimension {grid.dim} does not match the field dimension {field.dim}{of}")
    return grid


def _central(count: int, width: int, dim: int) -> tuple:
    """Index of the central ``count`` nodes of a ``width``-node window along
    each of the trailing ``dim`` axes; displacement 0 sits at node
    count // 2 of the one and width // 2 of the other."""
    lo = width // 2 - count // 2
    return (Ellipsis,) + (slice(lo, lo + count),) * dim


# ---------------------------------------------------------------------------
# partial Fourier transform between displacement and momentum axes
# ---------------------------------------------------------------------------


def _axis_phase(values: np.ndarray, axes: tuple, n: int) -> np.ndarray:
    """Multiply by (-1)^index along each of the given axes."""
    out = values
    s = np.ones(n)
    s[1::2] = -1.0
    for ax in axes:
        shape = [1] * out.ndim
        shape[ax] = n
        out = out * s.reshape(shape)
    return out


def _lattice_fourier(values: np.ndarray, grid: BoxGrid, forward: bool) -> np.ndarray:
    """The transform pair over the trailing, full (length n) axes.

    Forward (displacement to momentum) f[m] = sum_j exp(+i p_m y_j) phi[j]
    delta per axis, inverse phi[j] = sum_m exp(-i p_m y_j) f[m] / (2L); the
    symmetric node offsets contribute alternating sign vectors around a
    plain FFT of the matching sign.
    """
    n = grid.n
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    c = (-1.0) ** (n // 2)
    if forward:
        transform, scale = np.fft.ifftn, grid.delta * c * n
    else:
        transform, scale = np.fft.fftn, c / (2.0 * grid.half_length)
    work = _axis_phase(values.astype(complex, copy=False), axes, n)
    work = _axis_phase(transform(work, axes=axes), axes, n)
    return work * scale ** len(axes)


def symbol_from_kernel_full(values: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Forward transform over the trailing, full displacement axes (length
    n each)."""
    return _lattice_fourier(values, grid, forward=True)


def kernel_from_symbol_full(values: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Inverse transform over the trailing momentum axes, returning full
    displacement axes."""
    return _lattice_fourier(values, grid, forward=False)


def _periodic_multiplier(hvals: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Dense matrix of the Fourier multiplier h(P) on the periodic box, from
    the samples ``hvals`` of h on the momentum mesh; rows and columns in C
    node order.

    It is the circulant M[x, y] = delta^N k((y - x) mod n) of the kernel k
    of ``kernel_from_symbol_full``, which wraps with period n: one FFT and
    a gather, O(N^2) for N nodes.
    """
    n, dim = grid.n, grid.dim
    kernel = kernel_from_symbol_full(hvals, grid) * grid.cell_volume
    # per axis, the full displacement index of y - x mod n; displacement 0
    # sits at index n/2
    nodes = np.arange(n)
    wrapped = (nodes[None, :] - nodes[:, None] + n // 2) % n
    index = []
    for e in range(dim):
        shape = [1] * (2 * dim)
        shape[e], shape[dim + e] = n, n
        index.append(wrapped.reshape(shape))
    return kernel[tuple(index)].reshape(grid.size, grid.size)


# ---------------------------------------------------------------------------
# phase-space functions and sampled kernels
# ---------------------------------------------------------------------------


@dataclass
class PhaseGridFunction:
    """Symbol values on the (base point, momentum) product lattice.

    Base-point independent symbols store only the momentum axes and set
    ``q_independent``; the layout is then (n,)*dim.  Otherwise the layout is
    (n,)*dim + (n,)*dim with base-point axes first.  An axis along which
    the values do not vary may have length 1.
    """

    grid: BoxGrid
    values: np.ndarray
    q_independent: bool = True

    def __post_init__(self):
        want = self.grid.dim if self.q_independent else 2 * self.grid.dim
        if self.values.ndim != want:
            raise ValueError(f"expected {want} value axes, got {self.values.ndim}")
        if any(count not in (self.grid.n, 1) for count in self.values.shape):
            raise ValueError(f"symbol axes {self.values.shape} must each have length {self.grid.n} or 1")

    @classmethod
    def sample(cls, func: Callable, grid: BoxGrid, q_independent: bool = True) -> "PhaseGridFunction":
        pmesh = grid.momentum().mesh()
        if q_independent:
            return cls(grid=grid, values=np.asarray(func(pmesh), dtype=complex), q_independent=True)
        qmesh = grid.mesh()
        dim = grid.dim
        q = qmesh.reshape((grid.n,) * dim + (1,) * dim + (dim,))
        p = pmesh.reshape((1,) * dim + (grid.n,) * dim + (dim,))
        return cls(grid=grid, values=np.asarray(func(q, p), dtype=complex), q_independent=False)

    def copy(self) -> "PhaseGridFunction":
        return PhaseGridFunction(self.grid, self.values.copy(), self.q_independent)


@dataclass
class KernelSample:
    """Sampled integral kernel over (base point, displacement).

    ``values`` has the displacement axes last, each of odd length
    2K+1 <= n-1, symmetric around displacement 0, after base-point axes
    of length n.  Base-point independent
    kernels drop the q axes and set ``q_independent``.  ``func``, when
    present, evaluates the kernel exactly at arbitrary off-lattice base
    points (used to avoid interpolation for analytically known inputs).
    ``tail_mass`` records the L1 mass discarded by displacement truncation.
    ``sheet`` says how the base point is read: "centered" values are
    φ(q;x), "tilde" values are φ~(r;x) = φ(r + x/2; x), the sheared form
    products and representations work on; the involution, the partial
    Fourier transform and the reference product refuse it.  Base-point
    independent values are the same on both sheets.
    """

    grid: BoxGrid
    values: np.ndarray
    q_independent: bool = False
    func: Optional[Callable] = None
    tail_mass: float = 0.0
    sheet: str = "centered"
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.sheet not in ("centered", "tilde"):
            raise ValueError("sheet must be 'centered' or 'tilde'")
        dim = self.grid.dim
        want = dim if self.q_independent else 2 * dim
        if self.values.ndim != want:
            raise ValueError(f"expected {want} value axes, got {self.values.ndim}")
        base = self.values.shape[:-dim]
        if any(count != self.grid.n for count in base):
            raise ValueError(f"base-point axes {base} must each have length {self.grid.n}")
        for ax in range(dim):
            count = self.values.shape[-dim + ax]
            if count % 2 != 1:
                raise ValueError("displacement axes must have odd length")
            if count > self.grid.n - 1:
                raise ValueError("displacement window exceeds the box")

    @property
    def disp_count(self) -> int:
        return self.values.shape[-1]

    def disp_axis(self) -> np.ndarray:
        return self.grid.disp_axis(self.disp_count)

    def as_q_dependent(self) -> np.ndarray:
        """Values broadcast over the q axes (view when possible)."""
        if not self.q_independent:
            return self.values
        dim = self.grid.dim
        shape = (self.grid.n,) * dim + self.values.shape
        return np.broadcast_to(self.values.reshape((1,) * dim + self.values.shape), shape)

    def copy(self) -> "KernelSample":
        return KernelSample(
            self.grid, self.values.copy(), self.q_independent, self.func, self.tail_mass,
            self.sheet, dict(self.meta),
        )

    def sup_over_q(self) -> np.ndarray:
        """Pointwise sup over base points, one value per displacement node."""
        if self.q_independent:
            return np.abs(self.values)
        dim = self.grid.dim
        return np.abs(self.values).max(axis=tuple(range(dim)))


def _require_centered(k: KernelSample, what: str) -> None:
    """Refuse a base-point dependent kernel stored on the tilde sheet."""
    if k.sheet == "tilde" and not k.q_independent:
        raise ValueError(
            f"{what} needs centered values; this base-point dependent kernel "
            "is stored on the tilde sheet (twisted_product, rep and rep_banded accept it)"
        )


def _fit_window(vals: np.ndarray, count: int, dim: int) -> np.ndarray:
    """The trailing ``dim`` displacement axes cut centrally to ``count``
    nodes, or zero-padded to it, in a new array; ``vals`` itself when they
    have ``count`` nodes.  The full n-node lattice is a window too, with
    displacement 0 at node n/2."""
    d = vals.shape[-1]
    if count == d:
        return vals
    out = np.zeros(vals.shape[:-dim] + (count,) * dim, dtype=vals.dtype)
    keep = min(count, d)
    out[_central(keep, count, dim)] = vals[_central(keep, d, dim)]
    return out


def partial_fourier(kernel: KernelSample) -> PhaseGridFunction:
    """Transform a sampled kernel to its phase-space symbol."""
    _require_centered(kernel, "partial_fourier")
    grid = kernel.grid
    full = _fit_window(kernel.values, grid.n, grid.dim)
    symbol = symbol_from_kernel_full(full, grid)
    return PhaseGridFunction(grid=grid, values=symbol, q_independent=kernel.q_independent)


def partial_fourier_inv(symbol: PhaseGridFunction) -> KernelSample:
    """Transform a symbol to its kernel on the largest symmetric window
    (radius L - delta).

    The unpaired displacement row at -L is dropped and its L1 mass is
    recorded in ``tail_mass``.  Length-1 axes of the symbol are broadcast
    to length n first, so the kernel is that of the full array, bit for
    bit.
    """
    grid = symbol.grid
    dim = grid.dim
    full = kernel_from_symbol_full(np.broadcast_to(symbol.values, (grid.n,) * symbol.values.ndim), grid)
    kept = _fit_window(full, grid.max_disp_count(), dim)
    if symbol.q_independent:
        total = np.abs(full)
        kept_abs = np.abs(kept)
    else:
        total = np.abs(full).max(axis=tuple(range(dim)))
        kept_abs = np.abs(kept).max(axis=tuple(range(dim)))
    tail = float(total.sum() - kept_abs.sum()) * grid.cell_volume
    return KernelSample(
        grid=grid,
        values=kept,
        q_independent=symbol.q_independent,
        tail_mass=tail,
    )


# ---------------------------------------------------------------------------
# base-point shifts on the half lattice
# ---------------------------------------------------------------------------

_HALF_STENCILS = {
    "linear": np.array([0.5, 0.5]),
    "cubic": np.array([-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0]),
}
_GATHER_BLOCK = 1 << 13


def _axis_runs(n: int, steps: int, grid: BoxGrid, within: int = 0) -> list:
    """The runs (dst, src) of index ranges along an axis of n samples on
    which out[j] reads in[j + steps], past the edge as ``grid.bc`` says: a
    periodic box wraps, so the runs cover the axis; a truncated one keeps
    the j with j + steps, and j + ``within`` too, in the box, and out is
    zero at the other j."""
    if grid.bc == "periodic":
        s = steps % n
        return [(slice(0, n - s), slice(s, n)), (slice(n - s, n), slice(0, s))]
    lo, hi = max(0, -steps, -within), min(n, n - steps, n - within)
    return [(slice(lo, hi), slice(lo + steps, hi + steps))] if lo < hi else []


def _shift_axis_int(values: np.ndarray, ax: int, steps: int, grid: BoxGrid) -> np.ndarray:
    """Shift samples so that out[j] = in[j + steps] along one base axis,
    past the edge as ``grid.bc`` says: zero on a truncated box, wrapped on
    a periodic one."""
    if steps == 0:
        return values
    out = np.zeros_like(values)
    lead = (slice(None),) * ax
    for dst, src in _axis_runs(values.shape[ax], steps, grid):
        out[lead + (dst,)] = values[lead + (src,)]
    return out


def _half_step_axis(values: np.ndarray, ax: int, scheme: str, grid: BoxGrid, steps: int = 0) -> np.ndarray:
    """Interpolate to the +delta/2 offset lattice along one axis, then
    shift by ``steps`` whole steps.

    out[j] ~ in at position j + steps + 1/2, using a symmetric stencil;
    samples past the edge are those of ``_shift_axis_int``, applied after
    the half step.  Each tap adds its run of samples once into one zeroed
    output, in stencil order, so the values equal those of the half step
    followed by the whole-step shift.
    """
    st = _HALF_STENCILS[scheme]
    half = len(st) // 2
    out = np.zeros(values.shape, dtype=values.dtype)
    lead = (slice(None),) * ax
    for i, c in enumerate(st):
        for dst, src in _axis_runs(values.shape[ax], steps + i - half + 1, grid, within=steps):
            out[lead + (dst,)] += c * values[lead + (src,)]
    return out


def _check_scheme(scheme: str) -> None:
    if scheme not in _HALF_STENCILS:
        raise ValueError("scheme must be 'linear' or 'cubic'")


def _shift_axis_half(values: np.ndarray, ax: int, h: int, scheme: str, grid: BoxGrid) -> np.ndarray:
    """Shift by ``h`` half steps along one axis: even h exactly, odd h as
    floor(h/2) whole steps after one half step up."""
    if h % 2 == 0:
        return _shift_axis_int(values, ax, h // 2, grid)
    return _half_step_axis(values, ax, scheme, grid, (h - 1) // 2)


def shift_q(values: np.ndarray, grid: BoxGrid, half_steps, scheme: str = "linear") -> np.ndarray:
    """Evaluate a q-grid array at base points shifted by a half-lattice vector.

    The leading ``dim`` axes of ``values`` are the base points;
    ``half_steps`` gives the shift per axis in units of delta/2 (integers).
    Even entries are exact lattice translations; odd entries additionally
    interpolate to the half-offset lattice with the chosen symmetric stencil
    ('linear' is 2nd order and never overshoots, 'cubic' is 4th order).
    Truncated grids zero-extend past the boundary, periodic grids wrap.
    A vector that does not hold one integer per grid axis is refused.
    """
    _check_scheme(scheme)
    steps = np.asarray(half_steps, dtype=float)
    if steps.shape != (grid.dim,) or not np.all(np.isfinite(steps) & (steps == np.round(steps))):
        raise ValueError(
            f"half_steps must hold {grid.dim} integers, one per grid axis; got {half_steps!r}"
        )
    out = values
    for ax, h in enumerate(steps):
        out = _shift_axis_half(out, ax, int(h), scheme, grid)
    return out


def _shear_pass(src: np.ndarray, out: np.ndarray, ax: int, grid: BoxGrid, h: int, scheme: str) -> None:
    """One pass of :func:`_shear` along grid axis ``ax``: the slab of
    displacement index j_e (the axis ``grid.dim - ax`` places from the end)
    moves along base axis e = ax by h·(j_e - k) half steps, written into
    ``out``.  With ``out`` the same array as ``src`` the slab j_e = k, which
    does not move, is skipped.  The pass along the last base axis runs by
    blocks of base points instead (``_shear_last_pass``)."""
    if ax == grid.dim - 1:
        _shear_last_pass(src, out, grid, h, scheme)
        return
    d = out.shape[ax - grid.dim]
    kk = d // 2
    for j in range(d):
        steps = h * (j - kk)
        if src is out and steps == 0:
            continue
        sl = (Ellipsis, j) + (slice(None),) * (grid.dim - 1 - ax)
        out[sl] = _shift_axis_half(src[sl], ax, steps, scheme, grid)


def _shear_last_pass(src: np.ndarray, out: np.ndarray, grid: BoxGrid, h: int, scheme: str) -> None:
    """The pass of :func:`_shear` along the last base axis.  Its slabs,
    one entry of the last displacement axis each, are strided by a whole
    row of displacements, so it runs by blocks of leading base points
    instead, about ``_GATHER_BLOCK`` samples each.  A block is copied next
    to a zero slot, and each tap is one ``np.take`` from the copy over
    flat indices built from the runs of ``_axis_runs`` that the slab
    shifts read, and from the zero slot where they read nothing.  Slabs
    whose shift h·(j - k) is whole steps are copied; the taps of a half
    step add into a zeroed buffer in stencil order, as ``_half_step_axis``
    adds them, so the values are those of the slab shifts bit for bit.
    ``out`` is C-contiguous.  Besides the input and the output only the
    block, the gathers and their indices are alive.  At n=32 with 31-node
    windows in two dimensions the pass takes about half the time of the
    slab shifts, each of which reads a sample from every cache line of the
    array."""
    dim, st = grid.dim, _HALF_STENCILS[scheme]
    lead, n = int(np.prod(out.shape[:dim - 1])), out.shape[dim - 1]
    mid, d = int(np.prod(out.shape[dim:-1])), out.shape[-1]
    size, kk, half = n * mid * d, d // 2, len(st) // 2
    classes = [(slice(None), False)] if h % 2 == 0 else [
        (slice(kk % 2, None, 2), False), (slice(1 - kk % 2, None, 2), True)]
    plans = []
    for sl, odd in classes:
        js = np.arange(d)[sl]
        base = h * (js - kk) // 2
        taps = []
        for c, off in zip(st, range(1 - half, 1 + half)) if odd else [(None, 0)]:
            index = np.full((n, mid, js.size), size)
            for col, (j, b) in enumerate(zip(js, base)):
                for dst, run in _axis_runs(n, int(b + off), grid, within=int(b) if odd else 0):
                    index[dst, :, col] = (np.arange(n)[run, None] * mid + np.arange(mid)) * d + j
            taps.append((c, index.ravel()))
        plans.append((sl, taps))
    rows = min(lead, max(1, _GATHER_BLOCK // size))
    block = np.zeros((rows, size + 1), dtype=complex)
    src2, out4 = src.reshape(lead, size), out.reshape(lead, n, mid, d)
    for r0 in range(0, lead, rows):
        blk = block[:min(rows, lead - r0)]
        blk[:, :size] = src2[r0:r0 + len(blk)]
        for sl, taps in plans:
            got = np.zeros((len(blk), taps[0][1].size), dtype=complex)
            for c, index in taps:
                part = np.take(blk, index, axis=1, mode="clip")
                got = part if c is None else np.add(got, c * part, out=got)
            out4[r0:r0 + len(blk), :, :, sl] = got.reshape(len(blk), n, mid, -1)


def _shear(values: np.ndarray, grid: BoxGrid, h: int, scheme: str, inplace: bool = False) -> np.ndarray:
    """Move every displacement row to base points h·u/2 away:
    out[..., j] = shift_q(values[..., j], h·(j - k)).

    h = +1 takes centered values φ(q;u) to the tilde sheet φ~(r;u) =
    φ(r + u/2; u), h = -1 takes them back; even h are exact lattice
    translations.  One pass per grid axis e, as ``shift_q`` takes the axes
    (``_shear_pass``): the slab of displacement index j_e moves along base
    axis e by h·(j_e - k) half steps.  The first pass writes the
    C-contiguous output and the later ones rewrite it, slab by slab or, on
    the last axis, block by block, so besides the input one full-size
    buffer and a few slab temporaries are alive.  ``inplace`` rewrites
    ``values`` itself, a complex C-contiguous array the caller owns, and
    makes no full-size buffer.
    """
    _check_scheme(scheme)
    out = values if inplace else np.empty(values.shape, dtype=complex)
    src = values
    for ax in range(grid.dim):
        _shear_pass(src, out, ax, grid, h, scheme)
        src = out
    return out
