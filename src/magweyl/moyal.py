"""Phase-space symbols, their magnetic composition product and quantization.

The production route computes f∘g through the kernel algebra,

    f∘g = 𝓕[ 𝓕⁻¹(f) ⋄ 𝓕⁻¹(g) ],

one displacement convolution per base slice.  The oscillatory-integral
form

    (f∘g)(q,p) = 4^N (2π)^{-2N} ∫dx dk dy dl  e^{-2i(k·y - l·x)}
                 ω^B(q-x-y; 2x, 2(y-x)) f(q-x, p-k) g(q-y, p-l)

is implemented only as a single-point oracle (`moyal_direct`) with tensor
Gauss-Legendre quadrature; the momentum integrals factor through per-axis
phase matrices, which brings the cost from nodes^{4N} down to about
nodes^{3N}.  A standalone non-magnetic version of the same integral serves
as an independent cross-check at B = 0.

Symbols declare a growth order s and optionally ellipticity constants;
both claims are spot-checked on momentum samples rather than proven.
Cutoffs are radial plateaus (identically 1 inside the unit ball, 0 outside
radius 2, quintic ramp between) scaled by n, matching the regularization
χ_n(ξ) = χ(ξ/n).

The layer runs one fixed configuration:

* Missing symbol derivatives are nested central differences of step 1e-3
  (``_FD_STEP``).
* ``Symbol.spot_check`` and ``Symbol.validate`` sample the origin and 48
  points (``_N_SAMPLE``) on log-spaced shells out to radius 40
  (``_SAMPLE_RADIUS``); ``validate`` rejects a derivative whose envelope
  ratio on the outer shells exceeds twice (``_GROWTH_SLACK``) that on the
  inner ones.
* ``resolvent`` and ``spectral`` read every kinetic symbol through
  ``_symbol_samples``, on a grid's momentum mesh or else on the origin and
  128 points (``_N_INFIMUM_SAMPLE``) on log-spaced shells out to the same
  radius.  Each public entry of those layers samples h once and works
  from the real float array returned; only the fibered route evaluates h
  again, at its fiber points.  The guard refuses an unbounded ``Symbol``
  without ellipticity constants, samples that are not one real finite
  scalar per point (``grid._checked_samples``) and, for a plain callable,
  samples whose minimum lies on the outer shell of the momentum mesh (not
  elliptic).
* Every kernel of a symbol, the momentum kernels of those layers
  (``_momentum_kernel``), ``moyal``'s two factors and ``op_weyl``'s, comes
  from one helper, ``_symbol_kernel``: the largest displacement window
  trimmed to the rows above 1e-15 (``crossed._KERNEL_TRIM``) of its
  largest entry, so a stencil keeps its width.  On the benchmark grids
  the |p|² kernel keeps every row.  ``moyal`` keeps the product's natural
  window (the window rule of :mod:`magweyl.grid`); interpolation and
  quadrature order are those of :mod:`magweyl.crossed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .crossed import _KERNEL_TRIM, _SCHEME, OperatorMatrix, _support, rep, twisted_product
from .fields import MagneticField, VectorPotential, omega_b
from .grid import (
    BoxGrid,
    KernelSample,
    PhaseGridFunction,
    partial_fourier,
    partial_fourier_inv,
    _central,
    _checked_samples,
    _common_grid,
)

__all__ = [
    "Symbol",
    "CutoffFamily",
    "moyal",
    "moyal_direct",
    "moyal_nonmagnetic",
    "op_weyl",
    "involution",
    "regularize",
    "trim_kernel",
]

_FD_STEP = 1e-3
_SAMPLE_RADIUS = 40.0
_N_SAMPLE = 48
_N_INFIMUM_SAMPLE = 128
_GROWTH_SLACK = 2.0


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def _weight(p, power: float) -> np.ndarray:
    """Japanese bracket ⟨p⟩^power."""
    p = np.asarray(p, dtype=float)
    return (1.0 + np.sum(p * p, axis=-1)) ** (0.5 * power)


def _multi_indices(dim: int, max_order: int):
    if max_order == 0:
        yield (0,) * dim
        return
    for alpha in np.ndindex(*((max_order + 1,) * dim)):
        if sum(alpha) <= max_order:
            yield tuple(int(a) for a in alpha)


@dataclass
class Symbol:
    """Momentum symbol with declared order and optional ellipticity.

    ``func`` maps arrays of shape (..., dim) to values.  ``order`` is the
    exponent s of the growth envelope ⟨p⟩^s.  ``elliptic`` holds (c, R)
    when the lower bound c⟨p⟩^s ≤ h(p) is claimed for |p| ≥ R.  Analytic
    derivatives can be supplied in ``derivs`` keyed by multi-index tuples;
    anything missing falls back to nested central differences.
    """

    dim: int
    func: Callable
    order: float
    elliptic: Optional[Tuple[float, float]] = None
    derivs: Optional[Dict[Tuple[int, ...], Callable]] = None

    def __call__(self, p) -> np.ndarray:
        return np.asarray(self.func(np.asarray(p, dtype=float)))

    def deriv(self, alpha, p) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ValueError("multi-index length does not match dimension")
        if self.derivs is not None and alpha in self.derivs:
            return np.asarray(self.derivs[alpha](np.asarray(p, dtype=float)))
        p = np.asarray(p, dtype=float)
        for ax in range(self.dim):
            if alpha[ax] > 0:
                step = np.zeros(self.dim)
                step[ax] = _FD_STEP
                lower = tuple(a - 1 if i == ax else a for i, a in enumerate(alpha))
                return (self.deriv(lower, p + step) - self.deriv(lower, p - step)) / (
                    2.0 * _FD_STEP
                )
        return np.asarray(self.func(p))

    def _sample_points(self, radius: float, n_sample: int) -> np.ndarray:
        # deterministic spiral over log-spaced shells, plus the origin
        rng = np.random.default_rng(12)
        radii = np.geomspace(0.5, radius, n_sample)
        dirs = rng.normal(size=(n_sample, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return np.vstack([np.zeros((1, self.dim)), radii[:, None] * dirs])

    def spot_check(self) -> Dict[Tuple[int, ...], float]:
        """Measured sup of |∂^α h| / ⟨p⟩^(s-|α|) per multi-index, |α| ≤ 2."""
        pts = self._sample_points(_SAMPLE_RADIUS, _N_SAMPLE)
        out = {}
        for alpha in _multi_indices(self.dim, 2):
            vals = np.abs(self.deriv(alpha, pts))
            out[alpha] = float(np.max(vals / _weight(pts, self.order - sum(alpha))))
        return out

    def validate(self) -> None:
        """Spot-check the declared order and the ellipticity claim.

        The growth check compares the envelope ratio on an outer shell with
        the ratio on an inner shell; a declared order that is too small
        makes the ratio grow with |p| and trips the slack factor.
        """
        pts = self._sample_points(_SAMPLE_RADIUS, _N_SAMPLE)
        r = np.linalg.norm(pts, axis=-1)
        inner = (r > 0) & (r <= np.sqrt(0.5 * _SAMPLE_RADIUS))
        outer = r > np.sqrt(0.5 * _SAMPLE_RADIUS)
        scale0 = float(np.max(np.abs(self(pts)) / _weight(pts, self.order)))
        floor = 1e-6 * max(scale0, 1.0)  # finite-difference noise on vanishing derivatives
        for alpha in _multi_indices(self.dim, 2):
            ratio = np.abs(self.deriv(alpha, pts)) / _weight(pts, self.order - sum(alpha))
            if not np.all(np.isfinite(ratio)):
                raise ValueError(f"derivative {alpha} produced non-finite values")
            hi, lo = np.max(ratio[outer]), np.max(ratio[inner])
            if hi > floor and lo > 0 and hi > _GROWTH_SLACK * lo:
                raise ValueError(
                    f"growth of derivative {alpha} exceeds declared order "
                    f"{self.order}: envelope ratio {lo:.3e} -> {hi:.3e}"
                )
        if self.elliptic is not None:
            c, big_r = self.elliptic
            far = pts[r >= max(big_r, 1e-9)]
            if far.size:
                vals = np.real(self(far))
                bound = c * _weight(far, self.order)
                if np.any(vals < bound * (1.0 - 1e-9)):
                    worst = float(np.min(vals / bound))
                    raise ValueError(
                        f"ellipticity violated: min h/(c⟨p⟩^s) = {worst:.3e} < 1"
                    )


def _symbol_samples(h, grid: Optional[BoxGrid] = None) -> np.ndarray:
    """Real float samples of a kinetic symbol h, a callable or a ``Symbol``,
    on the momentum mesh of ``grid`` or else on the ``Symbol``'s radial
    reference sample.  Refuses an unbounded ``Symbol`` without ellipticity
    constants, samples that ``grid._checked_samples`` refuses (a wrong
    shape, non-finite samples in either part, imaginary parts above
    1e-12·max(1, max|h|)) and, for a plain callable, samples whose minimum
    sits on the outer shell of the momentum mesh: an elliptic symbol grows
    outward, so its minimum lies strictly inside."""
    # plain callables are admitted on the strength of their samples alone
    if isinstance(h, Symbol) and h.order > 0 and h.elliptic is None:
        raise ValueError("symbol of positive order must declare ellipticity constants")
    if grid is not None:
        pts = grid.momentum().mesh()
    else:
        pts = h._sample_points(_SAMPLE_RADIUS, _N_INFIMUM_SAMPLE)
    vals = _checked_samples(h(pts), pts.shape[:-1], "kinetic symbol", "momentum point")
    if not isinstance(h, Symbol):
        shell = np.ones(vals.shape, dtype=bool)
        shell[(slice(1, -1),) * vals.ndim] = False
        scale = float(np.max(np.abs(vals))) or 1.0
        if np.min(vals[shell]) <= np.min(vals) + 1e-12 * scale:
            raise ValueError(
                "kinetic symbol looks non-elliptic: its minimum over the momentum "
                "box sits on the outer shell"
            )
    return vals


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


class CutoffFamily:
    """Family χ_n(ξ) = χ(ξ/n) of radial plateau cutoffs, χ(0) = 1; a
    symbol is cut off by multiplying its samples by ``scaled``."""

    @staticmethod
    def profile(r) -> np.ndarray:
        """1 for r ≤ 1, 0 for r ≥ 2, quintic ramp between (C² at the joints)."""
        r = np.asarray(r, dtype=float)
        return 1.0 - _smoothstep(r - 1.0)

    def value(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.profile(np.sqrt(np.sum(xi * xi, axis=-1)))

    def scaled(self, xi, n: float) -> np.ndarray:
        return self.value(np.asarray(xi, dtype=float) / float(n))


def regularize(f: PhaseGridFunction, n: float) -> PhaseGridFunction:
    """Multiply a sampled symbol by χ_n.

    Base-point independent symbols are cut in momentum only; otherwise the
    cutoff sees the full phase-space vector (q, p).
    """
    cutoffs = CutoffFamily()
    grid = f.grid
    dim = grid.dim
    pmesh = grid.momentum().mesh()
    if f.q_independent:
        chi = cutoffs.scaled(pmesh, n)
        return PhaseGridFunction(grid=grid, values=f.values * chi, q_independent=True)
    qmesh = grid.mesh()
    q2 = np.sum(qmesh * qmesh, axis=-1).reshape((grid.n,) * dim + (1,) * dim)
    p2 = np.sum(pmesh * pmesh, axis=-1).reshape((1,) * dim + (grid.n,) * dim)
    chi = cutoffs.profile(np.sqrt(q2 + p2) / float(n))
    return PhaseGridFunction(grid=grid, values=f.values * chi, q_independent=False)


# ---------------------------------------------------------------------------
# the product of symbols
# ---------------------------------------------------------------------------


def trim_kernel(k: KernelSample, rel_tol: float) -> KernelSample:
    """Shrink the displacement window to the smallest square window that
    holds the kernel's support (``crossed._support`` at ``rel_tol``).

    Symbols that are trigonometric polynomials in p (multipliers included)
    produce exactly banded kernels whose outer rows are rounding residue;
    dropping them routes the product through the exact narrow-band paths.
    A ``rel_tol`` of 0 or below keeps every row; one that is not finite
    raises ``ValueError``.
    """
    if not np.isfinite(rel_tol):
        raise ValueError(f"rel_tol must be finite, got {rel_tol}")
    d = k.disp_count
    if rel_tol <= 0.0 or d <= 1:
        return k
    dim = k.grid.dim
    cheb = np.max(np.abs(np.indices((d,) * dim) - d // 2), axis=0)
    keep = int(np.max(cheb[_support(k, rel_tol)], initial=0))
    if 2 * keep + 1 >= d:
        return k
    return KernelSample(
        grid=k.grid,
        values=k.values[_central(2 * keep + 1, d, dim)],
        q_independent=k.q_independent,
        func=k.func,
        tail_mass=k.tail_mass,
        sheet=k.sheet,
        meta=dict(k.meta),
    )


def _symbol_kernel(f: PhaseGridFunction) -> KernelSample:
    """The kernel of a sampled symbol, trimmed to its support."""
    return trim_kernel(partial_fourier_inv(f), _KERNEL_TRIM)


def _momentum_kernel(values: np.ndarray, grid: BoxGrid) -> KernelSample:
    """Trimmed kernel of a base-point independent symbol from its momentum samples."""
    return _symbol_kernel(PhaseGridFunction(grid=grid, values=np.asarray(values, dtype=complex)))


def moyal(
    f: PhaseGridFunction,
    g: PhaseGridFunction,
    field: MagneticField,
    *,
    scheme: str = _SCHEME,
) -> PhaseGridFunction:
    """Magnetic composition product of two sampled symbols.

    Both factors are transported to their trimmed kernels, multiplied in
    the twisted algebra and transported back.
    """
    _common_grid(f.grid, g, field=field)
    prod = twisted_product(_symbol_kernel(f), _symbol_kernel(g), field, scheme=scheme)
    out = partial_fourier(prod)
    if not np.all(np.isfinite(out.values.view(float))):
        raise FloatingPointError("composition product produced non-finite values")
    return out


def op_weyl(
    pot: VectorPotential,
    f: Union[PhaseGridFunction, Callable],
    grid: Optional[BoxGrid] = None,
    *,
    q_independent: bool = True,
) -> OperatorMatrix:
    """Quantization of a phase-space symbol: rep of its trimmed kernel."""
    if not isinstance(f, PhaseGridFunction):
        if grid is None:
            raise ValueError("grid required when the symbol is a callable")
        f = PhaseGridFunction.sample(f, grid, q_independent=q_independent)
    return rep(pot, _symbol_kernel(f))


def involution(f: PhaseGridFunction) -> PhaseGridFunction:
    """f°(ξ) = conj(f(ξ))."""
    return PhaseGridFunction(grid=f.grid, values=np.conj(f.values), q_independent=f.q_independent)


# ---------------------------------------------------------------------------
# direct oscillatory-integral oracle
# ---------------------------------------------------------------------------

_QUAD_DEFAULTS = {"radius_x": 4.0, "radius_k": 4.0, "budget": 2e9}
_DEFAULT_NODES = {1: 48, 2: 24, 3: 8}


def _quad_spec(quad: Optional[dict], dim: int) -> dict:
    spec = dict(_QUAD_DEFAULTS)
    spec["nodes"] = _DEFAULT_NODES.get(dim, 8)
    if quad:
        spec.update(quad)
    g = int(spec["nodes"])
    # two flattened-matrix products of shape G^N x G^N dominate
    est = 4.0 * float(g) ** (3 * dim) + 3.0 * float(g) ** (2 * dim)
    if est > spec["budget"]:
        raise RuntimeError(
            "quadrature budget exceeded: "
            f"nodes={g}, dim={dim}, estimated ops {est:.2e} > budget {spec['budget']:.2e}; "
            "reduce nodes or raise the budget"
        )
    spec["nodes"] = g
    return spec


def _gl_flat(nodes: int, radius: float, dim: int):
    """Tensor Gauss-Legendre rule flattened to (nodes^dim, dim) + weights."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * radius
    w = w * radius
    mesh = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    wflat = np.ones(1)
    for _ in range(dim):
        wflat = np.multiply.outer(wflat, w).reshape(-1)
    return x, w, mesh, wflat


def _phase_matrix(knodes, kweights, ynodes, sign: float, dim: int) -> np.ndarray:
    """Kronecker factor matrix  Π_axes w_k e^{sign·2i k·y}, shape G^N x G^N."""
    base = kweights[:, None] * np.exp(sign * 2.0j * np.outer(knodes, ynodes))
    out = np.ones((1, 1), dtype=complex)
    for _ in range(dim):
        out = np.kron(out, base)
    return out


def moyal_direct(f: Callable, g: Callable, field: MagneticField, xi, quad: Optional[dict] = None) -> complex:
    """Direct quadrature of the composition integral at one phase point.

    ``f`` and ``g`` are callables (q, p) -> value, effectively supported in
    the quadrature box (compose with a cutoff first if not).  ``xi`` is the
    pair (q, p).  ``quad`` may override nodes, radius_x, radius_k, budget.
    Reference oracle only; cost grows like nodes^(3N).
    """
    dim = field.dim
    spec = _quad_spec(quad, dim)
    g_nodes = spec["nodes"]
    q0 = np.asarray(xi[0], dtype=float).reshape(dim)
    p0 = np.asarray(xi[1], dtype=float).reshape(dim)

    xn, xw, xmesh, xwflat = _gl_flat(g_nodes, spec["radius_x"], dim)
    kn, kw, kmesh, _ = _gl_flat(g_nodes, spec["radius_k"], dim)

    # F1[x, y] = ∫dk e^{-2i k·y} f(q0-x, p0-k);  G1[y, x] = ∫dl e^{+2i l·x} g(q0-y, p0-l)
    fs = np.asarray(f(q0 - xmesh[:, None, :], p0 - kmesh[None, :, :]), dtype=complex)
    gs = np.asarray(g(q0 - xmesh[:, None, :], p0 - kmesh[None, :, :]), dtype=complex)
    f1 = fs @ _phase_matrix(kn, kw, xn, -1.0, dim)
    g1 = gs @ _phase_matrix(kn, kw, xn, +1.0, dim)

    x_b = xmesh[:, None, :]
    y_b = xmesh[None, :, :]
    w_cocycle = omega_b(field, q0 - x_b - y_b, 2.0 * x_b, 2.0 * (y_b - x_b))

    total = np.einsum("i,j,ij,ij,ji->", xwflat, xwflat, w_cocycle, f1, g1)
    pref = 4.0**dim / (2.0 * np.pi) ** (2 * dim)
    return complex(pref * total)


def moyal_nonmagnetic(f: Callable, g: Callable, dim: int, xi, quad: Optional[dict] = None) -> complex:
    """Plain Weyl composition integral at one point, no field machinery.

    Kept separate from `moyal_direct` as an independent cross-check of the
    B = 0 limit.
    """
    spec = _quad_spec(quad, dim)
    g_nodes = spec["nodes"]
    q0 = np.asarray(xi[0], dtype=float).reshape(dim)
    p0 = np.asarray(xi[1], dtype=float).reshape(dim)
    xg, wg = np.polynomial.legendre.leggauss(g_nodes)
    xs = xg * spec["radius_x"]
    ws = wg * spec["radius_x"]
    ks = xg * spec["radius_k"]
    wk = wg * spec["radius_k"]

    xmesh = np.stack(np.meshgrid(*([xs] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    kmesh = np.stack(np.meshgrid(*([ks] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    wx = np.ones(1)
    wkk = np.ones(1)
    for _ in range(dim):
        wx = np.multiply.outer(wx, ws).reshape(-1)
        wkk = np.multiply.outer(wkk, wk).reshape(-1)

    fs = np.asarray(f(q0 - xmesh[:, None, :], p0 - kmesh[None, :, :]), dtype=complex)
    gs = np.asarray(g(q0 - xmesh[:, None, :], p0 - kmesh[None, :, :]), dtype=complex)

    phase_f = np.exp(-2.0j * (kmesh @ xmesh.T))  # (k, y)
    phase_g = np.exp(+2.0j * (kmesh @ xmesh.T))  # (l, x)
    f1 = (fs * wkk[None, :]) @ phase_f  # (x, y)
    g1 = (gs * wkk[None, :]) @ phase_g  # (y, x)
    total = np.einsum("i,j,ij,ji->", wx, wx, f1, g1)
    return complex(4.0**dim / (2.0 * np.pi) ** (2 * dim) * total)
