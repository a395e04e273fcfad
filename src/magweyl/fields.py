"""Magnetic fields, vector potentials and the associated oscillatory phases.

Everything downstream (the twisted kernel algebra, operator assembly, the
resolvent construction) consumes fields only through three scalar quantities:

* the circulation of a vector potential along a straight segment,
* the flux of the field through an oriented triangle,
* the derived unimodular phases ``lambda_a`` (segment) and ``omega_b``
  (triangle), together with the midpoint-reparametrized phase ``gamma_b``.

Fluxes and circulations are evaluated with tensorized Gauss-Legendre rules
on the unit square.  The transversal gauge has x·A(x) = 0, so its
circulation along [q, q + x] is the flux of B through the triangle
(0, q, q + x); no values of A are needed.  One private helper,
``_flux_quadrature``, evaluates that circulation and ``flux_triangle``
alike.  It lays the sample points out as (coordinate, s, t, pair), with
the pairs innermost, and hands each component callable a (s, t, pair, dim)
view of them, so a reduction over the coordinates adds whole contiguous
slabs.  Constant fields short-circuit to closed forms, and gauge terms
carry an exact telescoping circulation so that gauge covariance holds to
rounding on the lattice.

All evaluation functions are vectorized: point arguments may carry arbitrary
leading batch dimensions, with the coordinate dimension last.

Line and triangle quadratures default to order 8 (``DEFAULT_ORDER``, also
the cocycle order of the products in :mod:`magweyl.crossed`); ``gamma_b``
always runs at that default.  A potential's ``order`` decides the order
of its circulation: a transversal one integrates on order × order nodes.
``MagneticField.check_closed`` takes central differences of step 1e-4
(``_CLOSED_STEP``) and refuses a cyclic residual above 1e-6
(``_CLOSED_TOL``).

A field that is not finite is refused where it enters: a constant matrix
when the field is built, a callable by ``_flux_quadrature`` when a
pair's flux comes out NaN or infinite.  Every transversal-gauge
circulation and variable-field triangle flux runs through that helper,
so ``rep``, ``assemble``, the products' phase tables, the box ladder's
circulation table and ``flux_triangle`` raise the same ``ValueError``
before a non-finite phase reaches a matrix.

The anisotropy descriptors are planar: each refuses ``dim != 2`` when it
is built.  Their limiting pairs (``AsymptoticPair``) drop the terms that
vanish at infinity, B0 and V0 (or ``b_decay`` and ``v_decay``), and a
one-variable pair holds only its profiles and invariant axis, from which
its planar field and potential follow.  ``Cartesian2D`` keeps one
(profile, limits) list per axis for B and one for V: a missing V factor
is the constant 1 with limits (1, 1) while the other is given, and with
neither factor V = V0.  The descriptors probe their profiles at fixed
places:

* ``ConstPlusDecay`` checks that the decaying terms are below 1e-2
  (``_LIMIT_TOL``) at eight points of the circle of radius 50
  (``_DECAY_RADIUS``).
* ``Cartesian2D`` checks that each one-variable factor is within 1e-2
  (``_LIMIT_TOL``) of its declared limits at -60 and 60
  (``_LIMIT_DISTANCE``), and that B0 and V0 are below 1e-2 on each end,
  at 9 points (``_N_PROBES``) with the frozen coordinate at -60 or 60
  and the other spread over [-60, 60].
* ``VanishingOscillation`` takes 9 probes (``_N_PROBES``) on a golden-angle
  spiral over the annulus of radii 40 to 250 (``_VO_RADII``), and
  ``asymptotic_range`` samples that annulus on 25 circles of 720 points
  (``_RANGE_ANGLES``).
* ``MixedVOAP`` freezes its slow factor at 9 equally spaced points
  (``_N_PROBES``) of the circle of radius 80 (``_MIXED_RADIUS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MagneticField",
    "VectorPotential",
    "GaugeFunction",
    "AsymptoticPair",
    "ConstPlusDecay",
    "VanishingOscillation",
    "MixedVOAP",
    "Cartesian2D",
    "lambda_a",
    "flux_triangle",
    "omega_b",
    "gamma_b",
    "transversal_gauge",
    "gauge_shift",
    "asymptotic_pairs",
]

DEFAULT_ORDER = 8

_CLOSED_STEP = 1e-4
_CLOSED_TOL = 1e-6
_LIMIT_TOL = 1e-2
_DECAY_RADIUS = 50.0
_LIMIT_DISTANCE = 60.0
_N_PROBES = 9
_VO_RADII = (40.0, 250.0)
_RANGE_ANGLES = 720
_MIXED_RADIUS = 80.0

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def unit_gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    try:
        return _leggauss_cache[order]
    except KeyError:
        x, w = np.polynomial.legendre.leggauss(order)
        pair = (0.5 * (x + 1.0), 0.5 * w)
        _leggauss_cache[order] = pair
        return pair


# ---------------------------------------------------------------------------
# field and potential containers
# ---------------------------------------------------------------------------


@dataclass
class MagneticField:
    """Antisymmetric two-form with smooth bounded components.

    Components are stored for index pairs ``j < k`` only; the remaining ones
    follow by antisymmetry.  Component callables must be vectorized, mapping
    an array of points of shape ``(..., dim)`` to values of shape ``(...)``.
    The arrays they receive need not be C-contiguous: the quadratures pass
    strided views whose coordinate axis is outermost in memory.

    ``constant`` holds the full antisymmetric matrix when the field does not
    depend on the base point; several hot paths dispatch on it.
    """

    dim: int
    components: dict = dc_field(default_factory=dict)
    constant: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        if self.constant is not None:
            self.constant = np.asarray(self.constant, dtype=float)
            if self.constant.shape != (self.dim, self.dim):
                raise ValueError("constant field matrix has wrong shape")
            if not np.isfinite(self.constant).all():
                raise ValueError("magnetic field is not finite: the constant matrix holds NaN or inf")
            if not np.allclose(self.constant, -self.constant.T, atol=1e-14):
                raise ValueError("constant field matrix must be antisymmetric")
        for (j, k) in self.components:
            if not (0 <= j < k < self.dim):
                raise ValueError(f"component index pair {(j, k)} must satisfy 0 <= j < k < dim")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def is_zero(self) -> bool:
        return self.is_constant and not np.any(self.constant)

    @classmethod
    def zero(cls, dim: int) -> "MagneticField":
        return cls(dim=dim, constant=np.zeros((dim, dim)))

    @classmethod
    def constant_2d(cls, b: float) -> "MagneticField":
        """Constant field of strength ``b`` in two dimensions (B_01 = b)."""
        return cls(dim=2, constant=np.array([[0.0, b], [-b, 0.0]]))

    @classmethod
    def from_scalar_2d(cls, b_func: Callable) -> "MagneticField":
        """Planar field with a single scalar profile, B_01(x) = b_func(x)."""
        return cls(dim=2, components={(0, 1): b_func})

    def component(self, j: int, k: int, pts: np.ndarray) -> np.ndarray:
        """Evaluate B_jk at ``pts`` of shape (..., dim)."""
        pts = np.asarray(pts, dtype=float)
        if j == k:
            return np.zeros(pts.shape[:-1])
        sign = 1.0
        if j > k:
            j, k, sign = k, j, -1.0
        if self.constant is not None:
            return np.broadcast_to(sign * self.constant[j, k], pts.shape[:-1]).copy()
        func = self.components.get((j, k))
        if func is None:
            return np.zeros(pts.shape[:-1])
        return sign * np.asarray(func(pts), dtype=float)

    def check_closed(self, points: np.ndarray) -> float:
        """Verify dB = 0 by central differences at the given sample points.

        Only meaningful for dim = 3 (lower dimensions are closed trivially).
        Returns the largest residual of the cyclic identity
        d_i B_jk + d_j B_ki + d_k B_ij and raises if it exceeds 1e-6.
        """
        if self.dim < 3:
            return 0.0
        points = np.atleast_2d(np.asarray(points, dtype=float))
        h = _CLOSED_STEP

        def deriv(i, j, k, pts):
            e = np.zeros(self.dim)
            e[i] = h
            return (self.component(j, k, pts + e) - self.component(j, k, pts - e)) / (2.0 * h)

        res = deriv(0, 1, 2, points) + deriv(1, 2, 0, points) + deriv(2, 0, 1, points)
        worst = float(np.max(np.abs(res)))
        if worst > _CLOSED_TOL:
            raise ValueError(
                f"field is not closed: max cyclic residual {worst:.3e} exceeds {_CLOSED_TOL:.1e}"
            )
        return worst


@dataclass
class GaugeFunction:
    """Scalar gauge function with an analytic gradient."""

    func: Callable
    grad: Callable


@dataclass
class VectorPotential:
    """Vector potential A with its circulation along straight segments.

    ``func`` maps points of shape (..., dim) to vectors of shape (..., dim).
    The circulation comes from ``circulation_exact`` when it is set; this
    is how constant-field closed forms and telescoping gauge terms keep the
    lattice identities exact.  A transversal gauge of a variable field
    (built by :func:`transversal_gauge`) computes it as a triangle flux
    instead, and a potential with neither has no circulation.  Its
    read-only quadrature ``order`` is 8 unless set by
    :func:`transversal_gauge` or kept by :func:`gauge_shift`.
    """

    dim: int
    func: Callable
    circulation_exact: Optional[Callable] = None
    # the field whose triangle flux the circulation integrates: a
    # variable-field transversal gauge's, or that of the gauge it shifts
    _transversal: Optional[MagneticField] = dc_field(default=None, init=False, repr=False, compare=False)
    _order: int = dc_field(default=DEFAULT_ORDER, init=False, repr=False, compare=False)
    # the circulations of the pairs a kernel support walks on a box, tabulated
    # once for nested boxes by crossed._circulation_table and read by rep
    _table: Optional[tuple] = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return self._order

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(pts, dtype=float)), dtype=float)

    def circulation(self, q: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Line integral of A along the straight segment from q to q + x.

        In the transversal gauge x·A(x) = 0 this is the flux of B through
        the triangle (0, q, q + x), integrated on ``order`` × ``order``
        nodes.
        """
        q = np.asarray(q, dtype=float)
        x = np.asarray(x, dtype=float)
        q, x = np.broadcast_arrays(q, x)
        if self.circulation_exact is not None:
            return np.asarray(self.circulation_exact(q, x), dtype=float)
        if self._transversal is None:
            raise ValueError(
                "vector potential has no circulation: set circulation_exact or build it "
                "with transversal_gauge"
            )
        return _flux_quadrature(self._transversal, None, q, x, self._order, self._order)


def lambda_a(A: VectorPotential, q, x) -> np.ndarray:
    """Unimodular phase attached to the straight segment [q, q + x].

    This is exp(-i * circulation); it twists point translations into
    magnetic translations.
    """
    return np.exp(-1j * A.circulation(q, x))


# ---------------------------------------------------------------------------
# triangle flux and the induced two-cocycle phases
# ---------------------------------------------------------------------------


def flux_triangle(B: MagneticField, q, x, y, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Flux of B through the oriented triangle with vertices q, q+x, q+x+y.

    Uses the parametrized form

        sum_{j<k} (x_j y_k - x_k y_j) int_0^1 ds int_0^1 dt  s * B_jk(q + s x + s t y),

    which reduces the surface integral to a tensor Gauss-Legendre rule on
    the unit square.  For constant fields the closed form
    (1/2) * sum_{j<k} B_jk (x_j y_k - x_k y_j) is used instead.
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q, x, y = np.broadcast_arrays(q, x, y)
    if B.is_constant:
        bx = np.einsum("jk,...k->...j", B.constant, y)
        return 0.5 * np.einsum("...j,...j->...", x, bx)
    return _flux_quadrature(B, q, x, y, order, order)


def _flux_quadrature(B: MagneticField, q, x, y, s_order: int, t_order: int) -> np.ndarray:
    """Triangle flux of a variable field by a tensor Gauss-Legendre rule.

    Evaluates sum_{j<k} (x_j y_k - x_k y_j) sum_{a,b} ws_a s_a wt_b
    B_jk(q + s_a (x + t_b y)) for arguments of one shape (..., dim), with
    ``s_order`` nodes s_a and ``t_order`` nodes t_b; ``q = None`` is the
    origin.  The points are laid out as (coordinate, s, t, pair) and reach
    the component callables as a (s, t, pair, dim) view.  The nodes are
    summed in a fixed order per pair, t within s, so a pair's value does
    not depend on the batch it comes in.  A flux that is not finite means
    the field is not, and raises ``ValueError``.
    """
    batch, dim = x.shape[:-1], x.shape[-1]
    xs = x.reshape(-1, dim).T
    ys = y.reshape(-1, dim).T
    s, ws = unit_gauss_legendre(s_order)
    t, wt = unit_gauss_legendre(t_order)
    line = xs[:, None, :] + t[:, None] * ys[:, None, :]
    pts = np.empty((dim, s_order, t_order, xs.shape[1]))
    np.multiply(s[:, None, None], line[:, None], out=pts)
    if q is not None:
        pts += q.reshape(-1, dim).T[:, None, None, :]
    view = np.moveaxis(pts, 0, -1)
    radial = ws * s
    total = np.zeros(xs.shape[1])
    for (j, k), func in sorted(B.components.items()):
        vals = np.asarray(func(view), dtype=float)
        inner = wt[0] * vals[:, 0]
        for b in range(1, t_order):
            inner += wt[b] * vals[:, b]
        integral = radial[0] * inner[0]
        for a in range(1, s_order):
            integral += radial[a] * inner[a]
        total += (xs[j] * ys[k] - xs[k] * ys[j]) * integral
    bad = np.count_nonzero(~np.isfinite(total))
    if bad:
        raise ValueError(
            f"magnetic field is not finite: the flux of {bad} of {total.size} pairs is NaN or inf"
        )
    return total.reshape(batch)


def omega_b(B: MagneticField, q, x, y, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Two-cocycle phase exp(-i * flux through the triangle <q, q+x, q+x+y>)."""
    return np.exp(-1j * flux_triangle(B, q, x, y, order=order))


def gamma_b(B: MagneticField, q, x, y) -> np.ndarray:
    """Cocycle phase of the magnetic Moyal composition in midpoint form: the
    flux phase of the triangle <q - x/2 - y/2, q + x/2 - y/2, q - x/2 + y/2>.

    A public helper for checking composition formulas by hand; no route of
    the package calls it.  ``moyal.moyal_direct`` reads the same phase as
    ``omega_b(q - x - y; 2x, 2(y - x))``, the identity below.

    gamma_b(q; x, y) = exp{-i sum_{j,k} x_j y_k
        int_0^1 dt int_0^1 ds  s * B_jk(q - x/2 - y/2 + s x + s t (y - x))}.

    This is omega_b(q - x/2 - y/2; x, y - x): the triangle flux has the same
    sample points, and its weights x_j (y - x)_k - x_k (y - x)_j equal
    x_j y_k - x_k y_j.  Equivalently gamma_b(q; 2x, 2y) = omega_b(q - x - y; 2x, 2(y - x)),
    which the tests check as a cross-parametrization identity.
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return omega_b(B, q - 0.5 * x - 0.5 * y, x, y - x)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def transversal_gauge(B: MagneticField, order: int = DEFAULT_ORDER) -> VectorPotential:
    """Vector potential in the transversal gauge, A_j(x) = -sum_k x_k int_0^1 s B_jk(s x) ds.

    Satisfies x . A(x) = 0 and curl A = B for closed fields.  Constant
    fields produce the linear gauge A(x) = -(1/2) B x with an exact
    circulation (the line integrand is affine, a midpoint rule is exact).
    For a variable field ``func`` integrates radially with ``order`` nodes,
    and the circulation along [q, q + x] is the flux through the triangle
    (0, q, q + x) on order × order nodes.  Either gauge has this ``order``.
    """
    if B.is_constant:
        bmat = B.constant

        def func(pts):
            return -0.5 * np.einsum("jk,...k->...j", bmat, np.asarray(pts, dtype=float))

        def circ(q, x):
            mid = q + 0.5 * x
            return np.einsum("...j,...j->...", func(mid), x)

        pot = VectorPotential(dim=B.dim, func=func, circulation_exact=circ)
    else:
        nodes, weights = unit_gauss_legendre(order)

        def func(pts):
            pts = np.asarray(pts, dtype=float)
            scaled = nodes[(...,) + (None,) * pts.ndim] * pts[None, ...]  # (order, ..., dim)
            out = np.zeros(pts.shape)
            for (j, k) in sorted(B.components):
                vals = B.component(j, k, scaled)  # (order, ...)
                integral = np.einsum("o,o...->...", weights * nodes, vals)
                out[..., j] += -pts[..., k] * integral
                out[..., k] += pts[..., j] * integral
            return out

        pot = VectorPotential(dim=B.dim, func=func)
        pot._transversal = B
    pot._order = order
    return pot


def gauge_shift(A: VectorPotential, rho: GaugeFunction) -> VectorPotential:
    """Shift the potential by a gradient, A -> A + grad(rho).

    The gradient part of the circulation telescopes to
    rho(q + x) - rho(q) exactly, so lattice gauge covariance of assembled
    operators holds to rounding rather than to quadrature accuracy.
    """

    def func(pts):
        return A(pts) + np.asarray(rho.grad(np.asarray(pts, dtype=float)), dtype=float)

    def circ(q, x):
        return A.circulation(q, x) + np.asarray(rho.func(q + x)) - np.asarray(rho.func(q))

    pot = VectorPotential(dim=A.dim, func=func, circulation_exact=circ)
    pot._order = A.order
    pot._transversal = A._transversal
    return pot


# ---------------------------------------------------------------------------
# anisotropy descriptors and their asymptotic data
# ---------------------------------------------------------------------------


class AsymptoticPair:
    """One limiting field / potential pair extracted from a descriptor.

    A pair is the descriptor's limit at one end or probe: the terms that
    vanish at infinity (B0 and V0 of ``Cartesian2D``, the decaying terms
    of ``ConstPlusDecay``) are dropped, and a missing ``Cartesian2D`` V
    factor enters as the constant 1.  A planar pair is given by its
    ``field`` and ``potential`` (a number or a vectorized callable on
    points).  A one-variable pair is given only by the scalar profiles
    ``profile_b`` / ``profile_v`` of its varying coordinate and by
    ``invariant_axis``, the coordinate it does NOT depend on; its planar
    ``field`` and ``potential`` (0 without ``profile_v``) are derived
    from them on each access.  ``kind`` reads the data: 'one_variable'
    for a profile pair, 'constant' for a constant field with a numeric
    potential, else 'general'.
    """

    def __init__(self, field=None, potential=0.0, *, invariant_axis=None, profile_b=None,
                 profile_v=None, label=""):
        if (field is None) == (profile_b is None) or (profile_b is None) != (invariant_axis is None):
            raise ValueError("a pair takes a planar field, or a field profile with its invariant axis")
        self._field, self._potential = field, potential
        self.invariant_axis, self.profile_b, self.profile_v = invariant_axis, profile_b, profile_v
        self.label = label

    @property
    def field(self) -> MagneticField:
        if self.profile_b is None:
            return self._field
        return MagneticField.from_scalar_2d(_on_axis(self.profile_b, 1 - self.invariant_axis))

    @property
    def potential(self):
        if self.profile_b is None:
            return self._potential
        return 0.0 if self.profile_v is None else _on_axis(self.profile_v, 1 - self.invariant_axis)

    @property
    def kind(self) -> str:
        if self.profile_b is not None:
            return "one_variable"
        return "constant" if self._field.is_constant and not callable(self._potential) else "general"


@dataclass
class ConstPlusDecay:
    """Field and potential that are constants plus terms vanishing at
    infinity; the one limiting pair drops those terms."""

    dim: int
    b_inf: float
    v_inf: float = 0.0
    b_decay: Optional[Callable] = None
    v_decay: Optional[Callable] = None

    def __post_init__(self):
        _check_planar(self.dim)

    def field(self) -> MagneticField:
        if self.b_decay is None:
            return MagneticField.constant_2d(self.b_inf)
        b_inf, extra = self.b_inf, self.b_decay
        return MagneticField.from_scalar_2d(lambda pts: b_inf + extra(pts))

    def potential(self):
        if self.v_decay is None:
            return self.v_inf
        v_inf, extra = self.v_inf, self.v_decay
        return lambda pts: v_inf + np.asarray(extra(pts), dtype=float)

    def validate(self) -> None:
        probes = _DECAY_RADIUS * _unit_circle_probes(8)
        for fn, name in ((self.b_decay, "b_decay"), (self.v_decay, "v_decay")):
            if fn is None:
                continue
            worst = float(np.max(np.abs(np.asarray(fn(probes), dtype=float))))
            if worst > _LIMIT_TOL:
                raise ValueError(
                    f"{name} does not vanish at radius {_DECAY_RADIUS:g}: max magnitude {worst:.3e}"
                )

    def pairs(self) -> list[AsymptoticPair]:
        self.validate()
        return [
            AsymptoticPair(
                MagneticField.constant_2d(self.b_inf),
                self.v_inf,
                label=f"b={self.b_inf:g}, v={self.v_inf:g}",
            )
        ]


@dataclass
class VanishingOscillation:
    """Profiles whose local oscillation dies out at infinity.

    The admissible limits at infinity fill the asymptotic range of the
    profile.  That range is estimated on a probe annulus and sampled with
    joint probes spread over radius and angle, each contributing one
    constant field / potential pair.
    """

    dim: int
    b_profile: Callable
    v_profile: Optional[Callable] = None

    def __post_init__(self):
        _check_planar(self.dim)

    def field(self) -> MagneticField:
        return MagneticField.from_scalar_2d(self.b_profile)

    def potential(self):
        return self.v_profile if self.v_profile is not None else 0.0

    def asymptotic_range(self, which: str = "b") -> tuple[float, float]:
        """Numerical [liminf, limsup] of the named profile over the probe annulus."""
        if which == "b":
            profile = self.b_profile
        elif which == "v":
            profile = self.v_profile if self.v_profile is not None else (lambda p: np.zeros(p.shape[:-1]))
        else:
            raise ValueError("which must be 'b' or 'v'")
        radii = np.linspace(*_VO_RADII, 25)
        pts = radii[:, None, None] * _unit_circle_probes(_RANGE_ANGLES)[None, :, :]
        vals = np.asarray(profile(pts), dtype=float)
        return float(np.min(vals)), float(np.max(vals))

    def pairs(self) -> list[AsymptoticPair]:
        # spiral probes: spread over radius and angle so radial and angular
        # oscillations both contribute joint (field, potential) samples
        radii = np.linspace(*_VO_RADII, _N_PROBES)
        angles = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(_N_PROBES)
        probes = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        b_vals = np.asarray(self.b_profile(probes), dtype=float)
        v_vals = np.zeros_like(b_vals) if self.v_profile is None else np.asarray(self.v_profile(probes), dtype=float)
        return [
            AsymptoticPair(
                MagneticField.constant_2d(float(b)),
                float(v),
                label=f"probe r={r:.1f} angle {round(np.degrees(a)) % 360} deg",
            )
            for r, a, b, v in zip(radii, angles, b_vals, v_vals)
        ]


@dataclass
class MixedVOAP:
    """Componentwise product or sum of a vanishing-oscillation factor and an
    almost-periodic factor.

    Asymptotically the slowly varying factor freezes at one of its admissible
    values while the almost-periodic factor survives, so the limiting fields
    stay position dependent.
    """

    dim: int
    vo_factor: Callable
    ap_factor: Callable
    mode: str = "product"  # 'product' or 'sum'

    def __post_init__(self):
        _check_planar(self.dim)
        if self.mode not in ("product", "sum"):
            raise ValueError("mode must be 'product' or 'sum'")

    def _combined(self, slow) -> MagneticField:
        """The field slow·ap or slow + ap by ``mode``, for the slow factor
        or one of its frozen values."""
        ap, op = self.ap_factor, (np.multiply if self.mode == "product" else np.add)

        def profile(pts):
            s = slow(pts) if callable(slow) else slow
            return op(np.asarray(s, dtype=float), np.asarray(ap(pts), dtype=float))

        return MagneticField.from_scalar_2d(profile)

    def field(self) -> MagneticField:
        return self._combined(self.vo_factor)

    def potential(self):
        return 0.0

    def pairs(self) -> list[AsymptoticPair]:
        probes = _MIXED_RADIUS * _unit_circle_probes(_N_PROBES)
        return [
            AsymptoticPair(self._combined(float(c)), 0.0, label=f"frozen slow factor {c:+.4f}")
            for c in np.asarray(self.vo_factor(probes), dtype=float)
        ]


@dataclass
class Cartesian2D:
    """Planar anisotropy of the form B = B1(x1) B2(x2) + B0, V = V1(x1) V2(x2) + V0.

    Each one-variable factor comes with its limits (f^-, f^+) at -inf and
    +inf, given exactly when the factor is (else ``ValueError``); B1 and
    B2 are required.  A missing V factor is the constant 1 with limits
    (1, 1) while the other is given, and with neither factor V = V0.  B0
    and V0 vanish at infinity, so the limits drop them.  Each half-plane
    end contributes one one-variable pair: freezing x2 at its lower or
    upper end yields the field b2^-+ B1(x1) with potential v2^-+ V1(x1),
    and freezing x1 yields b1^-+ B2(x2) with v1^-+ V2(x2); with neither V
    factor the pairs carry no potential.
    """

    b1: Callable
    b2: Callable
    b1_limits: tuple
    b2_limits: tuple
    v1: Optional[Callable] = None
    v2: Optional[Callable] = None
    v1_limits: Optional[tuple] = None
    v2_limits: Optional[tuple] = None
    b0: Optional[Callable] = None
    v0: Optional[Callable] = None

    def __post_init__(self):
        for name in ("b1", "b2", "v1", "v2"):
            if (getattr(self, name) is None) != (getattr(self, name + "_limits") is None):
                raise ValueError(f"{name}_limits must be given exactly when {name} is")

    def _factors(self) -> tuple:
        """The (profile, limits) list over the axes for B, and for V (None
        when neither V factor is given)."""
        b = [(self.b1, self.b1_limits), (self.b2, self.b2_limits)]
        if self.v1 is None and self.v2 is None:
            return b, None
        given = ((self.v1, self.v1_limits), (self.v2, self.v2_limits))
        return b, [(f, lim) if f is not None else (_one, (1.0, 1.0)) for f, lim in given]

    def validate(self) -> None:
        d = _LIMIT_DISTANCE
        for sym, factors in zip("bv", self._factors()):
            for axis, (prof, limits) in enumerate(factors or ()):
                lo, hi = np.broadcast_to(np.asarray(prof(np.array([-d, d])), dtype=float), (2,))
                if abs(lo - limits[0]) > _LIMIT_TOL or abs(hi - limits[1]) > _LIMIT_TOL:
                    raise ValueError(
                        f"profile {sym}{axis + 1} does not reach its declared limits: "
                        f"({lo:.4f}, {hi:.4f}) vs declared {limits}"
                    )
        for frozen, side in _ENDS:
            pts = np.empty((_N_PROBES, 2))
            pts[:, frozen], pts[:, 1 - frozen] = (2 * side - 1) * d, np.linspace(-d, d, _N_PROBES)
            for name, extra in (("b0", self.b0), ("v0", self.v0)):
                worst = 0.0 if extra is None else float(np.max(np.abs(np.asarray(extra(pts), dtype=float))))
                if worst > _LIMIT_TOL:
                    raise ValueError(
                        f"{name} does not vanish at the end {_end_label(frozen, side)}: "
                        f"max magnitude {worst:.3e} at distance {d:g}"
                    )

    def field(self) -> MagneticField:
        return MagneticField.from_scalar_2d(_cartesian(self._factors()[0], self.b0))

    def potential(self):
        factors = self._factors()[1]
        if factors is None and self.v0 is None:
            return 0.0
        return _cartesian(factors, self.v0)

    def pairs(self) -> list[AsymptoticPair]:
        self.validate()
        b, v = self._factors()
        return [
            AsymptoticPair(
                invariant_axis=frozen,
                profile_b=_scaled(b[frozen][1][side], b[1 - frozen][0]),
                profile_v=None if v is None else _scaled(v[frozen][1][side], v[1 - frozen][0]),
                label=_end_label(frozen, side),
            )
            for frozen, side in _ENDS
        ]


# the four ends of a Cartesian2D as (frozen axis, side), side 0 at -inf
_ENDS = ((1, 0), (1, 1), (0, 0), (0, 1))


def _end_label(frozen: int, side: int) -> str:
    return f"x{frozen + 1} -> {'-+'[side]}inf"


def _one(u):
    return np.ones_like(np.asarray(u, dtype=float))


def _scaled(c: float, f: Callable) -> Callable:
    """The one-variable profile u ↦ c f(u)."""
    return lambda u: c * np.asarray(f(np.asarray(u, dtype=float)), dtype=float)


def _on_axis(profile: Callable, axis: int) -> Callable:
    """The planar function x ↦ profile(x_axis)."""
    return lambda pts: profile(np.asarray(pts, dtype=float)[..., axis])


def _cartesian(factors, extra) -> Callable:
    """The planar function x ↦ f1(x1) f2(x2) + extra(x) of the (profile,
    limits) list ``factors``; None drops the product or the extra term."""

    def profile(pts):
        pts = np.asarray(pts, dtype=float)
        vals = 0.0
        if factors is not None:
            (f1, _), (f2, _) = factors
            vals = np.asarray(f1(pts[..., 0]), dtype=float) * np.asarray(f2(pts[..., 1]), dtype=float)
        if extra is not None:
            vals = vals + np.asarray(extra(pts), dtype=float)
        return vals

    return profile


def _check_planar(dim: int) -> None:
    if dim != 2:
        raise ValueError(f"scalar-profile descriptor is two dimensional, got dim={dim}")


def asymptotic_pairs(descriptor) -> list[AsymptoticPair]:
    """Limiting field / potential pairs of an anisotropy descriptor."""
    return descriptor.pairs()


def _unit_circle_probes(n: int) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
