"""Spectra of magnetic Schrodinger operators on finite boxes.

Dense assembly of Op^A(h) + V(Q), windowed Hermitian eigensolves, limit
operators attached to anisotropy descriptors, and a box-ladder detector
for the essential spectrum, together with Hausdorff comparison helpers.

Assembly has one route: ``rep(gauge, kernel)`` of the symbol's kernel
plus the diagonal potential.  Only the gauge depends on the spec: an
explicit ``vector_potential``, else an exact axial gauge built from
tabulated antiderivatives when a one-variable profile is declared, else
the transversal gauge (closed circulation for constant fields, quadrature
otherwise).  Periodic boxes, which admit only a vanishing field, use the
exact Fourier multiplier instead.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .crossed import OperatorMatrix, _hermitian_residual, rep
from .fields import (
    MagneticField,
    VectorPotential,
    asymptotic_pairs,
    transversal_gauge,
)
from .grid import BoxGrid, PhaseGridFunction, partial_fourier_inv
from .moyal import Symbol
from .resolvent import _check_elliptic_declaration, _real_symbol_values

# dense eigensolver cap; above this the O(size^3) cost and the O(size^2)
# storage stop being desk scale
EIG_CAP = 12000


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Sorted eigenvalues in a window, with optional vectors and scores.

    ``multiplicity`` carries one count per value; ``np.inf`` flags the
    infinitely degenerate points of analytic oracles.  ``vectors`` holds
    one column per value when requested from :func:`eig`.
    """

    values: np.ndarray
    window: tuple
    multiplicity: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    grid: Optional[BoxGrid] = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("eigenvalues must form a one-dimensional array")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        lo, hi = self.window
        if len(self.values) and (self.values[0] < lo or self.values[-1] > hi):
            raise ValueError("eigenvalues fall outside the declared window")
        if self.multiplicity is None:
            self.multiplicity = np.ones(len(self.values))
        self.multiplicity = np.asarray(self.multiplicity, dtype=float)
        if self.multiplicity.shape != self.values.shape:
            raise ValueError("multiplicity counts must match the values")

    def __len__(self) -> int:
        return len(self.values)

    def bulk_scores(self, collar: Optional[float] = None) -> np.ndarray:
        """Interior mass of each eigenvector, outside a boundary collar.

        The default collar width is one eighth of the box half-length.
        """
        if self.vectors is None or self.grid is None:
            raise ValueError("bulk scores need eigenvectors and a grid")
        grid = self.grid
        if collar is None:
            collar = grid.half_length / 8.0
        mask = grid.interior_mask(collar).ravel()
        dens = np.abs(self.vectors) ** 2
        total = dens.sum(axis=0)
        total[total == 0] = 1.0
        return dens[mask, :].sum(axis=0) / total


@dataclass
class UnionSpectrum:
    """Per-quasi-orbit spectra together with their padded union."""

    components: list
    merged: np.ndarray
    eps_merge: float
    window: tuple

    def component(self, label: str) -> SpectrumResult:
        for name, res in self.components:
            if name == label:
                return res
        raise KeyError(f"no component labelled {label!r}")

    def check_merged(self) -> float:
        """Largest distance of any component value to the merged set."""
        worst = 0.0
        for _, res in self.components:
            for v in res.values:
                if len(self.merged) == 0:
                    return float("inf")
                worst = max(worst, float(np.min(np.abs(self.merged - v))))
        return worst


def merge_points(values: np.ndarray, eps: float) -> np.ndarray:
    """Sorted representatives of a point set, eps-close duplicates dropped."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if len(values) == 0:
        return values
    keep = [values[0]]
    for v in values[1:]:
        if v - keep[-1] > eps:
            keep.append(v)
    return np.asarray(keep)


def cluster_values(values: np.ndarray, gap: float) -> list:
    """Split a sorted value set at gaps larger than ``gap``.

    Returns one array per cluster, in ascending order.
    """
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if len(values) == 0:
        return []
    cuts = np.flatnonzero(np.diff(values) > gap) + 1
    return np.split(values, cuts)


def hausdorff(s1, s2, window: tuple) -> float:
    """Symmetric Hausdorff distance of point sets clipped to a window.

    If exactly one clipped set is empty the distance is the window length;
    two empty sets are at distance zero.
    """
    lo, hi = float(window[0]), float(window[1])
    a = np.sort(np.asarray(s1, dtype=float).ravel())
    b = np.sort(np.asarray(s2, dtype=float).ravel())
    a = a[(a >= lo) & (a <= hi)]
    b = b[(b >= lo) & (b <= hi)]
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return hi - lo
    return max(_directed_sup(a, b), _directed_sup(b, a))


def _directed_sup(a: np.ndarray, b: np.ndarray) -> float:
    # sup over a of the distance to the sorted set b
    idx = np.searchsorted(b, a)
    left = np.abs(a - b[np.clip(idx - 1, 0, len(b) - 1)])
    right = np.abs(a - b[np.clip(idx, 0, len(b) - 1)])
    return float(np.max(np.minimum(left, right)))


def _map_tasks(fn, items, threads: int):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# operator specification and assembly
# ---------------------------------------------------------------------------


@dataclass
class SchrodingerSpec:
    """Data needed to assemble Op^A(h) + V(Q) on a box.

    ``h`` is a real momentum symbol (callable or declared Symbol); the
    gauge defaults to the transversal one of ``field`` unless an explicit
    ``vector_potential`` is supplied.  ``profile_axis`` may assert that the
    field component B_01 depends on that coordinate only, unlocking an
    exact one-variable gauge; the claim is spot-checked at assembly time.
    """

    h: Union[Symbol, Callable]
    field: Optional[MagneticField]
    potential: Union[None, float, Callable] = None
    grid: Optional[BoxGrid] = None
    vector_potential: Optional[VectorPotential] = None
    profile_axis: Optional[int] = None
    label: str = ""

    def field_or_zero(self) -> MagneticField:
        if self.field is None:
            return MagneticField.zero(self.grid.dim)
        return self.field

    def potential_values(self, grid: BoxGrid) -> np.ndarray:
        if self.potential is None:
            return np.zeros(grid.size)
        if callable(self.potential):
            vals = np.asarray(self.potential(grid.points()), dtype=float).ravel()
            if vals.shape != (grid.size,):
                raise ValueError("potential callable must return one value per node")
        else:
            vals = np.full(grid.size, float(self.potential))
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential must stay bounded on the box")
        return vals

    def with_grid(self, grid: BoxGrid) -> "SchrodingerSpec":
        return SchrodingerSpec(
            h=self.h,
            field=self.field,
            potential=self.potential,
            grid=grid,
            vector_potential=self.vector_potential,
            profile_axis=self.profile_axis,
            label=self.label,
        )


def _symbol_values(h, grid: BoxGrid) -> np.ndarray:
    vals = np.asarray(h(grid.momentum().mesh()))
    if vals.shape != (grid.n,) * grid.dim:
        raise ValueError("kinetic symbol must map momentum points to scalars")
    vals = _real_symbol_values(vals, "kinetic symbol must be real-valued")
    if not np.all(np.isfinite(vals)):
        raise ValueError("kinetic symbol produced non-finite values")
    return vals.astype(float)


def _check_elliptic(h, hvals: np.ndarray) -> None:
    _check_elliptic_declaration(h)
    if isinstance(h, Symbol):
        return
    # sampled heuristic: an elliptic symbol grows outward, so its minimum
    # must sit strictly inside the momentum box
    shell = np.zeros(hvals.shape, dtype=bool)
    for ax in range(hvals.ndim):
        sl = [slice(None)] * hvals.ndim
        sl[ax] = 0
        shell[tuple(sl)] = True
        sl[ax] = hvals.shape[ax] - 1
        shell[tuple(sl)] = True
    scale = float(np.max(np.abs(hvals))) or 1.0
    if np.min(hvals[shell]) <= np.min(hvals) + 1e-12 * scale:
        raise ValueError(
            "kinetic symbol looks non-elliptic: its minimum over the momentum "
            "box sits on the outer shell"
        )


def _check_profile_hint(field: MagneticField, axis: int, grid: BoxGrid) -> Callable:
    """Validate B_01(x) = beta(x[axis]) and return the scalar profile."""
    if grid.dim != 2:
        raise ValueError("one-variable gauge is implemented for two dimensions")
    if axis not in (0, 1):
        raise ValueError("profile axis must be 0 or 1")

    def beta(t):
        t = np.asarray(t, dtype=float)
        pts = np.zeros(t.shape + (2,))
        pts[..., axis] = t
        return field.component(0, 1, pts)

    rng = np.random.default_rng(7)
    pts = rng.uniform(-grid.half_length, grid.half_length, size=(24, 2))
    direct = field.component(0, 1, pts)
    claimed = beta(pts[:, axis])
    if np.max(np.abs(direct - claimed)) > 1e-10 * (1.0 + np.max(np.abs(direct))):
        raise ValueError("profile_axis hint contradicts the sampled field")
    return beta


def _antiderivative_pair(beta: Callable, half_length: float, oversample: int = 16):
    """Cumulative splines P = int beta and Q = int P over [-L, L]."""
    m = 2 * oversample * max(64, int(8 * half_length)) + 1
    t = np.linspace(-half_length, half_length, m)
    vals = np.asarray(beta(t), dtype=float)
    if vals.shape != t.shape:
        vals = np.broadcast_to(vals, t.shape).copy()
    prim = cumulative_simpson(vals, x=t, initial=0.0)
    p_spline = CubicSpline(t, prim)
    prim = prim - p_spline(0.0)  # P(0) = 0
    p_spline = CubicSpline(t, prim)
    second = cumulative_simpson(prim, x=t, initial=0.0)
    q_spline = CubicSpline(t, second - CubicSpline(t, second)(0.0))
    return p_spline, q_spline


def _axial_gauge(field: MagneticField, axis: int, grid: BoxGrid) -> VectorPotential:
    """Exact gauge of a field whose B_01 depends on x[axis] only.

    The potential has the single component A_inv = sgn * P(x_axis), with P
    the antiderivative of the profile; its line integral reduces to
    second-antiderivative differences, exact for arbitrarily long straight
    segments.
    """
    beta = _check_profile_hint(field, axis, grid)
    # the component lives on the other coordinate; curl fixes its sign
    # relative to the profile
    sgn = 1.0 if axis == 0 else -1.0
    inv = 1 - axis
    reach = np.sqrt(grid.dim) * grid.half_length + grid.delta
    p_spline, q_spline = _antiderivative_pair(beta, reach)

    def func(pts):
        out = np.zeros(pts.shape)
        out[..., inv] = sgn * p_spline(pts[..., axis])
        return out

    def circ(q, x):
        start, step = q[..., axis], x[..., axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = (q_spline(start + step) - q_spline(start)) / step
        avg = np.where(step == 0.0, p_spline(start), avg)
        return sgn * x[..., inv] * avg

    return VectorPotential(dim=grid.dim, func=func, circulation_exact=circ)


def _assemble_periodic(spec: SchrodingerSpec, hvals: np.ndarray) -> np.ndarray:
    grid = spec.grid
    if not spec.field_or_zero().is_zero:
        raise ValueError(
            "periodic boxes support only a vanishing magnetic field; the flux "
            "through the torus is not quantized here"
        )
    n = grid.n
    paxis = grid.momentum().axis()
    xaxis = grid.axis()
    u1 = np.exp(-1j * np.outer(paxis, xaxis)) / np.sqrt(n)
    u = u1
    for _ in range(grid.dim - 1):
        u = np.kron(u, u1)
    return (u.conj().T * hvals.ravel()) @ u


def assemble(
    spec: SchrodingerSpec,
    *,
    scheme: str = "linear",
    order: int = 8,
    r_disp: Optional[float] = None,
) -> OperatorMatrix:
    """Dense matrix of Op^A(h) + V(Q) on the box nodes.

    Every truncated box goes through ``rep(gauge, kernel)``.  The gauge is
    ``spec.vector_potential`` when set; else, for a non-constant field
    with a validated ``profile_axis`` hint, the exact axial gauge; else
    the transversal gauge of the field.  Without field and explicit gauge
    a real kernel gives a real (float64) matrix.  Periodic boxes use the
    exact Fourier multiplier.
    """
    grid = spec.grid
    if grid is None:
        raise ValueError("assembly needs a grid on the spec")
    field = spec.field_or_zero()
    if field.dim != grid.dim:
        raise ValueError("field dimension does not match the grid")
    hvals = _symbol_values(spec.h, grid)
    _check_elliptic(spec.h, hvals)
    vvals = spec.potential_values(grid)

    if grid.bc == "periodic":
        mat = _assemble_periodic(spec, hvals)
        mat[np.diag_indices_from(mat)] += vvals
        return OperatorMatrix(mat=mat, grid=grid, hermitian=True)

    kernel = partial_fourier_inv(
        PhaseGridFunction.sample(lambda p: hvals, grid, q_independent=True),
        r_disp=r_disp,
    )
    if spec.vector_potential is not None:
        pot = spec.vector_potential
    elif spec.profile_axis is not None and not field.is_constant:
        pot = _axial_gauge(field, spec.profile_axis, grid)
    else:
        pot = transversal_gauge(field, order=order)
    op = rep(pot, kernel, scheme=scheme, order=order)
    mat = op.mat
    real_kernel = np.max(np.abs(kernel.values.imag)) <= 1e-13 * np.max(np.abs(kernel.values.real))
    if spec.vector_potential is None and field.is_zero and real_kernel:
        # no phase: keep the real matrix so eig takes the real solver
        mat = np.ascontiguousarray(mat.real)
    mat[np.diag_indices_from(mat)] += vvals
    return OperatorMatrix(mat=mat, grid=grid, hermitian=op.hermitian)


# ---------------------------------------------------------------------------
# dense eigensolve
# ---------------------------------------------------------------------------


def eig(
    op,
    window: Optional[tuple] = None,
    *,
    vectors: bool = False,
    single: bool = False,
    herm_tol: float = 1e-12,
    cap: int = EIG_CAP,
) -> SpectrumResult:
    """Windowed Hermitian eigendecomposition of a dense operator.

    ``single`` solves in single precision, trading ~1e-5 relative
    eigenvalue noise for roughly half the runtime and memory; the
    Hermiticity contract is still checked on the double-precision input.
    Dimensions above ``cap`` are refused rather than silently thrashing.
    """
    grid = None
    if isinstance(op, OperatorMatrix):
        grid = op.grid
        mat = op.mat
    else:
        mat = np.asarray(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    size = mat.shape[0]
    if size > cap:
        raise ValueError(
            f"dense eigensolve refused at dimension {size} > {cap}; run a "
            "windowed iterative mode (shift-invert or Lanczos) or coarsen the grid"
        )
    residual = _hermitian_residual(mat)
    if residual > herm_tol:
        raise ValueError(
            f"operator is not Hermitian: relative residual {residual:.3e} "
            f"exceeds {herm_tol:.1e}"
        )

    real_input = not np.iscomplexobj(mat) or np.max(np.abs(mat.imag)) == 0.0
    if real_input:
        work = np.ascontiguousarray(mat.real)
        work = work.astype(np.float32) if single else work.astype(np.float64, copy=True)
    else:
        work = mat.astype(np.complex64) if single else mat.astype(np.complex128, copy=True)

    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        pad = 1e-9 * max(1.0, abs(lo))
        out = sla.eigh(
            work,
            subset_by_value=(lo - pad, hi),
            driver="evr",
            eigvals_only=not vectors,
            overwrite_a=True,
        )
    else:
        lo, hi = -np.inf, np.inf
        out = sla.eigh(work, eigvals_only=not vectors, overwrite_a=True)
    if vectors:
        vals, vecs = out
    else:
        vals, vecs = out, None
    vals = np.asarray(vals, dtype=float)
    keep = (vals >= lo) & (vals <= hi)
    vals = vals[keep]
    if vecs is not None:
        vecs = vecs[:, keep]
    return SpectrumResult(
        values=vals,
        window=(lo, hi),
        vectors=vecs,
        grid=grid,
        meta={
            "source": "eig",
            "hermiticity_residual": residual,
            "single": bool(single),
            "size": size,
        },
    )


# ---------------------------------------------------------------------------
# limit operators
# ---------------------------------------------------------------------------


def landau_oracle(b: float, v: float, window: tuple) -> SpectrumResult:
    """Spectrum {(2k+1)|b| + v} of the constant-field free Hamiltonian.

    Each point is infinitely degenerate; ``b = 0`` is refused because the
    zero-field limit has the continuous band [v, inf) instead.
    """
    if b == 0:
        raise ValueError(
            "constant-field oracle needs b != 0; a vanishing field gives the "
            "continuous band [v, inf), use the band branch"
        )
    lo, hi = float(window[0]), float(window[1])
    vals = []
    k = 0
    while True:
        level = (2 * k + 1) * abs(b) + v
        if level > hi:
            break
        if level >= lo:
            vals.append(level)
        k += 1
    vals = np.asarray(vals, dtype=float)
    return SpectrumResult(
        values=vals,
        window=(lo, hi),
        multiplicity=np.full(len(vals), np.inf),
        meta={"source": "landau_oracle", "b": float(b), "v": float(v)},
    )


def _band_spectrum(h, grid: BoxGrid, v: float, window: tuple, step: float) -> SpectrumResult:
    """Range of h + v over a refined momentum sampling, as a point set."""
    lo, hi = float(window[0]), float(window[1])
    pmax = np.pi / grid.delta
    axes = [np.linspace(-pmax, pmax, 4 * grid.n + 1)] * grid.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(h(mesh), dtype=float).ravel() + v
    vals = vals[(vals >= lo) & (vals <= hi)]
    vals = merge_points(vals, step)
    return SpectrumResult(
        values=vals,
        window=(lo, hi),
        multiplicity=np.full(len(vals), np.inf),
        meta={"source": "band_range", "v": float(v)},
    )


def _is_free_kinetic(h, dim: int) -> bool:
    rng = np.random.default_rng(3)
    pts = rng.uniform(-6.0, 6.0, size=(32, dim))
    vals = np.asarray(h(pts), dtype=float)
    ref = np.sum(pts * pts, axis=-1)
    return bool(np.max(np.abs(vals - ref)) <= 1e-12 * np.max(1.0 + ref))


def _separable_split(h, probe: np.ndarray):
    """Split h(p1,p2) = f1(p1) + f2(p2) if the sampled mixed part vanishes."""
    pp, qq = np.meshgrid(probe, probe, indexing="ij")
    pts = np.stack([pp, qq], axis=-1)
    vals = np.asarray(h(pts), dtype=float)
    left = np.asarray(h(np.stack([probe, np.zeros_like(probe)], axis=-1)), dtype=float)
    right = np.asarray(h(np.stack([np.zeros_like(probe), probe], axis=-1)), dtype=float)
    base = float(
        np.asarray(h(np.zeros((1, 2)))).ravel()[0]
    )
    recon = left[:, None] + right[None, :] - base
    scale = float(np.max(np.abs(vals))) or 1.0
    if np.max(np.abs(vals - recon)) > 1e-11 * scale:
        return None

    def f_varying(t, axis):
        t = np.asarray(t, dtype=float)
        pts = np.zeros(t.shape + (2,))
        pts[..., axis] = t
        return np.asarray(h(pts), dtype=float)

    return f_varying, base


def fibered_spectrum(
    profile,
    h,
    grid: BoxGrid,
    ks: Optional[np.ndarray] = None,
    *,
    invariant_axis: int = 1,
    potential=None,
    window: Optional[tuple] = None,
    theta_bulk: float = 0.6,
    collar: Optional[float] = None,
    threads: int = 1,
) -> SpectrumResult:
    """Band spectrum of a field depending on one coordinate only.

    In the gauge with a single component along the invariant direction the
    operator commutes with translations there; a partial Fourier transform
    leaves a family of one-dimensional operators indexed by the dual
    momentum k, each diagonalized on the varying coordinate.  Fiber states
    hugging the box edge (well centers pushed outside) are discarded by an
    interior-mass threshold before the bands are unioned.
    """
    if grid.dim == 2:
        grid1 = BoxGrid(dim=1, half_length=grid.half_length, n=grid.n)
    elif grid.dim == 1:
        grid1 = grid
    else:
        raise ValueError("fibered analysis needs a one- or two-dimensional grid")
    if invariant_axis not in (0, 1):
        raise ValueError("invariant axis must be 0 or 1")
    varying = 1 - invariant_axis
    n = grid1.n
    xs = grid1.axis()

    if callable(profile):
        beta_vals = np.asarray(profile(xs), dtype=float)
        if beta_vals.shape != xs.shape:
            beta_vals = np.broadcast_to(beta_vals, xs.shape)
        p_spline, _ = _antiderivative_pair(profile, grid1.half_length + grid1.delta)
        a_vals = p_spline(xs)
    else:
        b = float(profile)
        a_vals = b * xs

    if potential is None:
        v_vals = np.zeros(n)
    elif callable(potential):
        v_vals = np.asarray(potential(xs), dtype=float)
    else:
        v_vals = np.full(n, float(potential))

    lo, hi = (-np.inf, np.inf) if window is None else (float(window[0]), float(window[1]))

    probe = np.linspace(-np.pi / grid1.delta, np.pi / grid1.delta, 13)
    split = _separable_split(h, probe)

    pm = grid1.momentum().axis()
    dft = np.exp(1j * np.outer(pm, xs)) / np.sqrt(n)

    a_bar = None
    if split is not None:
        f_varying, base = split
        kin_diag = f_varying(pm, varying)
        t_kin = (dft.conj().T * kin_diag) @ dft  # exact 1D Fourier multiplier
        fiber_pot = lambda k: f_varying(a_vals - k, invariant_axis) - base + v_vals
    else:
        # no additive split: evaluate the symbol on every pair of fiber
        # momentum and shifted dual momentum, with segment-averaged gauge
        a_prim = np.concatenate(
            [[0.0], np.cumsum(0.5 * (a_vals[1:] + a_vals[:-1]) * np.diff(xs))]
        )
        diff_x = xs[:, None] - xs[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_bar = (a_prim[:, None] - a_prim[None, :]) / diff_x
        a_bar[np.arange(n), np.arange(n)] = a_vals
        wave = np.exp(1j * np.outer(pm, xs))

    if ks is None:
        pad = np.sqrt(max(hi - np.min(v_vals), 1.0)) if np.isfinite(hi) else np.pi / grid1.delta
        k_lo = float(np.min(a_vals)) - pad
        k_hi = float(np.max(a_vals)) + pad
        ks = np.linspace(k_lo, k_hi, n + 1)
    ks = np.asarray(ks, dtype=float)

    if collar is None:
        collar = grid1.half_length / 8.0
    interior = grid1.interior_mask(collar)

    def solve(k):
        if split is not None:
            mat = t_kin + np.diag(fiber_pot(k))
        else:
            pts = np.empty((len(pm), n, n, 2))
            pts[..., varying] = pm[:, None, None]
            pts[..., invariant_axis] = (a_bar - k)[None, :, :]
            hv = np.asarray(h(pts), dtype=float)
            mat = np.einsum("mij,mj,mi->ij", hv, wave, wave.conj()) / n
        vals, vecs = np.linalg.eigh(mat)
        mass = (np.abs(vecs[interior, :]) ** 2).sum(axis=0)
        keep = mass >= theta_bulk
        return vals, keep

    results = _map_tasks(solve, list(ks), threads)
    fiber_values = np.stack([vals for vals, _ in results])
    fiber_kept = np.stack([keep for _, keep in results])
    flat = fiber_values[fiber_kept]
    flat = flat[(flat >= lo) & (flat <= hi)]
    return SpectrumResult(
        values=np.sort(flat),
        window=(lo, hi),
        grid=grid1,
        meta={
            "source": "fibered",
            "ks": ks,
            "fiber_values": fiber_values,
            "fiber_kept": fiber_kept,
            "invariant_axis": invariant_axis,
            "theta_bulk": theta_bulk,
        },
    )


def asymptotic_spectra(
    descriptor,
    h,
    grid: BoxGrid,
    window: tuple = (0.0, 10.0),
    *,
    eps_merge: float = 1e-6,
    band_step: Optional[float] = None,
    single: bool = False,
    threads: int = 1,
    fiber_ks: Optional[np.ndarray] = None,
) -> UnionSpectrum:
    """Union of the spectra of all limit operators of a descriptor.

    Constant pairs with the free kinetic symbol use the analytic oracle
    (or the band range at b = 0); one-variable pairs are fibered; anything
    else is assembled and diagonalized on the supplied grid.
    """
    lo, hi = float(window[0]), float(window[1])
    if band_step is None:
        band_step = (hi - lo) / 2000.0
    pairs = asymptotic_pairs(descriptor)
    free = _is_free_kinetic(h, grid.dim)

    def solve(pair):
        if pair.kind == "constant":
            scalar_v = not callable(pair.potential)
            b = float(pair.field.constant[0, 1]) if pair.field.is_constant else None
            if free and scalar_v and b is not None:
                v = float(pair.potential)
                if b == 0.0:
                    return pair.label, _band_spectrum(h, grid, v, window, band_step)
                return pair.label, landau_oracle(b, v, window)
            spec = SchrodingerSpec(
                h=h, field=pair.field, potential=pair.potential, grid=grid
            )
            return pair.label, eig(assemble(spec), window, single=single)
        if pair.kind == "one_variable":
            return pair.label, fibered_spectrum(
                pair.profile_b,
                h,
                grid,
                fiber_ks,
                invariant_axis=pair.invariant_axis,
                potential=pair.profile_v,
                window=window,
            )
        spec = SchrodingerSpec(
            h=h, field=pair.field, potential=pair.potential, grid=grid
        )
        return pair.label, eig(assemble(spec), window, single=single)

    components = _map_tasks(solve, pairs, threads)
    merged = merge_points(
        np.concatenate([res.values for _, res in components])
        if components
        else np.empty(0),
        eps_merge,
    )
    return UnionSpectrum(
        components=components, merged=merged, eps_merge=eps_merge, window=(lo, hi)
    )


# ---------------------------------------------------------------------------
# box-ladder estimate of the essential spectrum
# ---------------------------------------------------------------------------


@dataclass
class EssentialEstimate:
    """Persistent bulk spectrum extracted from a ladder of box truncations."""

    points: np.ndarray
    boxes: tuple
    per_box: list
    clusters: list
    rejected: list
    window: tuple
    params: dict

    def summary(self) -> str:
        lines = [
            f"boxes {self.boxes}, window {self.window}: "
            f"{len(self.points)} persistent bulk values, "
            f"{len(self.rejected)} rejected clusters"
        ]
        for rec in self.rejected:
            lines.append(
                f"  rejected [{rec['lo']:.6g}, {rec['hi']:.6g}] "
                f"(count {rec['count']}): {rec['reason']}"
            )
        return "\n".join(lines)


def _cluster_records(res: SpectrumResult, delta: float, theta: float, collar: float):
    # cluster on indices so values stay aligned with bulk scores
    scores = res.bulk_scores(collar)
    records = []
    vals = res.values
    if len(vals) == 0:
        return records
    cuts = np.flatnonzero(np.diff(vals) > delta) + 1
    for seg in np.split(np.arange(len(vals)), cuts):
        v = vals[seg]
        s = scores[seg]
        bulk = s >= theta
        if np.any(bulk):
            center = float(np.average(v[bulk], weights=s[bulk]))
        else:
            center = float(np.mean(v))
        records.append(
            {
                "lo": float(v[0]),
                "hi": float(v[-1]),
                "center": center,
                "count": int(len(v)),
                "bulk_count": int(np.count_nonzero(bulk)),
                "bulk_values": v[bulk],
            }
        )
    return records


def _chain_overlaps(prev, cur, delta):
    """Index of the best matching previous cluster for each current one.

    Clusters match when their delta-padded intervals overlap; ties go to
    the larger previous cluster.  Unmatched clusters get index -1.
    """
    links = []
    for rec in cur:
        match = -1
        for ci, cand in enumerate(prev):
            if cand["hi"] + delta >= rec["lo"] and rec["hi"] + delta >= cand["lo"]:
                if match < 0 or cand["count"] > prev[match]["count"]:
                    match = ci
        links.append(match)
    return links


def essential_estimate(
    spec: SchrodingerSpec,
    boxes: Sequence[float],
    window: tuple,
    *,
    delta_persist: Optional[float] = None,
    theta_bulk: float = 0.6,
    collar_frac: float = 0.125,
    density: Optional[float] = None,
    single: bool = False,
    threads: int = 1,
    assemble_kwargs: Optional[dict] = None,
) -> EssentialEstimate:
    """Numerical stand-in for the essential spectrum via growing boxes.

    Window eigenvalues of each truncation are clustered at the persistence
    scale; a cluster survives when a matching cluster exists in every box,
    its member count never shrinks and grows overall, and the final box
    contributes bulk-localized members.  Isolated eigenvalues keep constant
    multiplicity along the ladder and are rejected; pure edge states fail
    either persistence or the bulk threshold.  Diagnostics retain every
    rejected cluster with its reason.
    """
    boxes = tuple(float(b) for b in boxes)
    if len(boxes) < 2:
        raise ValueError("box ladder needs at least two boxes")
    if any(b2 <= b1 for b1, b2 in zip(boxes, boxes[1:])):
        raise ValueError("box ladder must be strictly increasing")
    lo, hi = float(window[0]), float(window[1])
    if delta_persist is None:
        delta_persist = 5e-3 * (hi - lo)
    if density is None:
        if spec.grid is None:
            raise ValueError("either a spec grid or an explicit density is needed")
        density = spec.grid.n / (2.0 * spec.grid.half_length)
    bc = spec.grid.bc if spec.grid is not None else "truncated"
    if spec.field is not None:
        dim = spec.field.dim
    elif spec.grid is not None:
        dim = spec.grid.dim
    else:
        dim = 2
    kwargs = assemble_kwargs or {}

    def solve(box_l):
        n = int(round(2.0 * box_l * density))
        n += n % 2
        n = max(n, 8)
        grid_i = BoxGrid(dim=dim, half_length=box_l, n=n, bc=bc)
        op = assemble(spec.with_grid(grid_i), **kwargs)
        res = eig(op, (lo, hi), vectors=True, single=single)
        del op
        return res

    results = _map_tasks(solve, boxes, threads)
    ladders = [
        _cluster_records(res, delta_persist, theta_bulk, box_l * collar_frac)
        for res, box_l in zip(results, boxes)
    ]

    # chain clusters from the largest box back through the ladder
    links = [
        _chain_overlaps(ladders[i], ladders[i + 1], delta_persist)
        for i in range(len(boxes) - 1)
    ]
    accepted = []
    rejected = []
    per_box_accept = [[] for _ in boxes]
    for last_idx, rec in enumerate(ladders[-1]):
        chain = [(len(boxes) - 1, last_idx)]
        ok = True
        idx = last_idx
        for level in range(len(boxes) - 2, -1, -1):
            idx = links[level][idx]
            if idx < 0:
                ok = False
                break
            chain.append((level, idx))
        if not ok:
            rejected.append({**_public(rec), "reason": "not persistent across the ladder"})
            continue
        counts = [ladders[level][ci]["count"] for level, ci in reversed(chain)]
        if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])) or counts[-1] <= counts[0]:
            rejected.append(
                {**_public(rec), "reason": "multiplicity does not grow along the ladder"}
            )
            continue
        if rec["bulk_count"] == 0:
            rejected.append({**_public(rec), "reason": "no bulk-localized member"})
            continue
        accepted.append({**_public(rec), "counts": counts})
        for level, ci in chain:
            per_box_accept[level].append(ladders[level][ci])

    points = (
        np.sort(np.concatenate([rec["bulk_values"] for rec in accepted]))
        if accepted
        else np.empty(0)
    )
    per_box = []
    for recs in per_box_accept:
        vals = [r["bulk_values"] for r in recs if len(r["bulk_values"])]
        per_box.append(np.sort(np.concatenate(vals)) if vals else np.empty(0))
    return EssentialEstimate(
        points=points,
        boxes=boxes,
        per_box=per_box,
        clusters=accepted,
        rejected=rejected,
        window=(lo, hi),
        params={
            "delta_persist": delta_persist,
            "theta_bulk": theta_bulk,
            "collar_frac": collar_frac,
            "density": density,
            "single": bool(single),
        },
    )


def _public(rec: dict) -> dict:
    out = {k: rec[k] for k in ("lo", "hi", "center", "count", "bulk_count")}
    out["bulk_values"] = rec["bulk_values"]
    return out
