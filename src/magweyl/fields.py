"""Magnetic fields, vector potentials and the associated oscillatory phases.

Everything downstream (the twisted kernel algebra, operator assembly, the
resolvent construction) consumes fields only through three scalar quantities:

* the circulation of a vector potential along a straight segment,
* the flux of the field through an oriented triangle,
* the derived unimodular phases ``lambda_a`` (segment) and ``omega_b``
  (triangle), together with the midpoint-reparametrized phase ``gamma_b``.

Fluxes and circulations are evaluated with tensorized Gauss-Legendre rules
on the unit square / unit interval.  Constant fields short-circuit to closed
forms, and gauge terms carry an exact telescoping circulation so that gauge
covariance holds to rounding on the lattice.

All evaluation functions are vectorized: point arguments may carry arbitrary
leading batch dimensions, with the coordinate dimension last.
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
    "circulation",
    "lambda_a",
    "flux_triangle",
    "omega_b",
    "gamma_b",
    "transversal_gauge",
    "gauge_shift",
    "asymptotic_pairs",
]

DEFAULT_LINE_ORDER = 8
DEFAULT_TRIANGLE_ORDER = 8

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

    def check_closed(self, points: np.ndarray, h: float = 1e-4, tol: float = 1e-6) -> float:
        """Verify dB = 0 by central differences at the given sample points.

        Only meaningful for dim = 3 (lower dimensions are closed trivially).
        Returns the largest residual of the cyclic identity
        d_i B_jk + d_j B_ki + d_k B_ij and raises if it exceeds ``tol``.
        """
        if self.dim < 3:
            return 0.0
        points = np.atleast_2d(np.asarray(points, dtype=float))

        def deriv(i, j, k, pts):
            e = np.zeros(self.dim)
            e[i] = h
            return (self.component(j, k, pts + e) - self.component(j, k, pts - e)) / (2.0 * h)

        res = deriv(0, 1, 2, points) + deriv(1, 2, 0, points) + deriv(2, 0, 1, points)
        worst = float(np.max(np.abs(res)))
        if worst > tol:
            raise ValueError(f"field is not closed: max cyclic residual {worst:.3e} exceeds {tol:.1e}")
        return worst


@dataclass
class GaugeFunction:
    """Scalar gauge function with an analytic gradient."""

    func: Callable
    grad: Callable


@dataclass
class VectorPotential:
    """Vector potential A with optional exact circulation.

    ``func`` maps points of shape (..., dim) to vectors of shape (..., dim).
    When ``circulation_exact`` is set it is used instead of quadrature; this
    is how constant-field closed forms and telescoping gauge terms keep the
    lattice identities exact.
    """

    dim: int
    func: Callable
    circulation_exact: Optional[Callable] = None
    line_order: int = DEFAULT_LINE_ORDER

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(pts, dtype=float)), dtype=float)

    def circulation(self, q: np.ndarray, x: np.ndarray, order: Optional[int] = None) -> np.ndarray:
        """Line integral of A along the straight segment from q to q + x."""
        q = np.asarray(q, dtype=float)
        x = np.asarray(x, dtype=float)
        q, x = np.broadcast_arrays(q, x)
        if self.circulation_exact is not None:
            return np.asarray(self.circulation_exact(q, x), dtype=float)
        nodes, weights = unit_gauss_legendre(order or self.line_order)
        # points of shape (..., order, dim)
        pts = q[..., None, :] + nodes[:, None] * x[..., None, :]
        vals = self(pts)  # (..., order, dim)
        integrand = np.einsum("...od,...d->...o", vals, x)
        return np.einsum("o,...o->...", weights, integrand)


def circulation(A: VectorPotential, q, x, order: Optional[int] = None) -> np.ndarray:
    """Circulation of the potential along [q, q + x]; see VectorPotential."""
    return A.circulation(q, x, order=order)


def lambda_a(A: VectorPotential, q, x, order: Optional[int] = None) -> np.ndarray:
    """Unimodular phase attached to the straight segment [q, q + x].

    This is exp(-i * circulation); it twists point translations into
    magnetic translations.
    """
    return np.exp(-1j * A.circulation(q, x, order=order))


# ---------------------------------------------------------------------------
# triangle flux and the induced two-cocycle phases
# ---------------------------------------------------------------------------


def flux_triangle(B: MagneticField, q, x, y, order: int = DEFAULT_TRIANGLE_ORDER) -> np.ndarray:
    """Flux of B through the oriented triangle with vertices q, q+x, q+x+y.

    Uses the parametrized form

        sum_{j,k} x_j y_k int_0^1 ds int_0^1 dt  s * B_jk(q + s x + s t y),

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
    s, ws = unit_gauss_legendre(order)
    t, wt = unit_gauss_legendre(order)
    # sample points of shape (..., order_s, order_t, dim)
    pts = (
        q[..., None, None, :]
        + s[:, None, None] * x[..., None, None, :]
        + (s[:, None] * t[None, :])[..., None] * y[..., None, None, :]
    )
    total = np.zeros(q.shape[:-1])
    w2 = (ws * s)[:, None] * wt[None, :]
    for (j, k) in sorted(B.components):
        vals = B.component(j, k, pts)  # (..., s, t)
        weight = x[..., j] * y[..., k] - x[..., k] * y[..., j]
        total = total + weight * np.einsum("st,...st->...", w2, vals)
    return total


def omega_b(B: MagneticField, q, x, y, order: int = DEFAULT_TRIANGLE_ORDER) -> np.ndarray:
    """Two-cocycle phase exp(-i * flux through the triangle <q, q+x, q+x+y>)."""
    return np.exp(-1j * flux_triangle(B, q, x, y, order=order))


def gamma_b(B: MagneticField, q, x, y, order: int = DEFAULT_TRIANGLE_ORDER) -> np.ndarray:
    """Midpoint-reparametrized cocycle phase used by the composition kernel.

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
    return omega_b(B, q - 0.5 * x - 0.5 * y, x, y - x, order=order)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def transversal_gauge(B: MagneticField, order: int = DEFAULT_LINE_ORDER) -> VectorPotential:
    """Vector potential in the transversal gauge, A_j(x) = -sum_k x_k int_0^1 s B_jk(s x) ds.

    Satisfies x . A(x) = 0 and curl A = B for closed fields.  Constant
    fields produce the linear gauge A(x) = -(1/2) B x with an exact
    circulation (the line integrand is affine, a midpoint rule is exact).
    """
    if B.is_constant:
        bmat = B.constant

        def func(pts):
            return -0.5 * np.einsum("jk,...k->...j", bmat, np.asarray(pts, dtype=float))

        def circ(q, x):
            mid = q + 0.5 * x
            return np.einsum("...j,...j->...", func(mid), x)

        return VectorPotential(dim=B.dim, func=func, circulation_exact=circ)

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

    return VectorPotential(dim=B.dim, func=func)


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

    return VectorPotential(dim=A.dim, func=func, circulation_exact=circ)


# ---------------------------------------------------------------------------
# anisotropy descriptors and their asymptotic data
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticPair:
    """One limiting field / potential pair extracted from a descriptor.

    ``kind`` is 'constant' for pairs that are constant in space and
    'one_variable' for pairs depending on a single coordinate; in the latter
    case ``invariant_axis`` is the coordinate the pair does NOT depend on
    and ``profile_b`` / ``profile_v`` are the scalar profiles of the varying
    coordinate.
    """

    field: MagneticField
    potential: object  # float or vectorized callable on points
    kind: str = "constant"
    invariant_axis: Optional[int] = None
    profile_b: Optional[Callable] = None
    profile_v: Optional[Callable] = None
    label: str = ""


@dataclass
class ConstPlusDecay:
    """Field and potential that are constants plus terms vanishing at infinity."""

    dim: int
    b_inf: float
    v_inf: float = 0.0
    b_decay: Optional[Callable] = None
    v_decay: Optional[Callable] = None
    decay_check_radius: float = 50.0
    decay_check_tol: float = 1e-2

    def field(self) -> MagneticField:
        if self.dim != 2:
            raise ValueError("scalar-profile descriptor is two dimensional")
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
        r = self.decay_check_radius
        probes = r * _unit_circle_probes(8)
        for fn, name in ((self.b_decay, "b_decay"), (self.v_decay, "v_decay")):
            if fn is None:
                continue
            worst = float(np.max(np.abs(np.asarray(fn(probes), dtype=float))))
            if worst > self.decay_check_tol:
                raise ValueError(
                    f"{name} does not vanish at radius {r:g}: max magnitude {worst:.3e}"
                )

    def pairs(self) -> list[AsymptoticPair]:
        self.validate()
        return [
            AsymptoticPair(
                field=MagneticField.constant_2d(self.b_inf),
                potential=self.v_inf,
                kind="constant",
                label=f"b={self.b_inf:g}, v={self.v_inf:g}",
            )
        ]


@dataclass
class VanishingOscillation:
    """Profiles whose local oscillation dies out at infinity.

    The admissible limits at infinity fill the asymptotic range of the
    profile.  That range is estimated on a probe annulus and sampled with
    ``n_samples`` joint direction probes, each contributing one constant
    field / potential pair.
    """

    dim: int
    b_profile: Callable
    v_profile: Optional[Callable] = None
    probe_radii: tuple = (40.0, 250.0)
    n_samples: int = 9

    def field(self) -> MagneticField:
        if self.dim != 2:
            raise ValueError("scalar-profile descriptor is two dimensional")
        return MagneticField.from_scalar_2d(self.b_profile)

    def potential(self):
        return self.v_profile if self.v_profile is not None else 0.0

    def asymptotic_range(self, which: str = "b", n_dense: int = 720) -> tuple[float, float]:
        """Numerical [liminf, limsup] of the named profile over the probe annulus."""
        if which == "b":
            profile = self.b_profile
        elif which == "v":
            profile = self.v_profile if self.v_profile is not None else (lambda p: np.zeros(p.shape[:-1]))
        else:
            raise ValueError("which must be 'b' or 'v'")
        r0, r1 = self.probe_radii
        radii = np.linspace(r0, r1, 25)
        angles = np.linspace(0.0, 2.0 * np.pi, n_dense, endpoint=False)
        pts = radii[:, None, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=-1
        )[None, :, :]
        vals = np.asarray(profile(pts), dtype=float)
        return float(np.min(vals)), float(np.max(vals))

    def pairs(self) -> list[AsymptoticPair]:
        # spiral probes: spread over radius and angle so radial and angular
        # oscillations both contribute joint (field, potential) samples
        r0, r1 = self.probe_radii
        radii = np.linspace(r0, r1, self.n_samples)
        golden = np.pi * (3.0 - np.sqrt(5.0))
        angles = golden * np.arange(self.n_samples)
        probes = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        b_vals = np.asarray(self.b_profile(probes), dtype=float)
        if self.v_profile is None:
            v_vals = np.zeros_like(b_vals)
        else:
            v_vals = np.asarray(self.v_profile(probes), dtype=float)
        out = []
        for i in range(self.n_samples):
            out.append(
                AsymptoticPair(
                    field=MagneticField.constant_2d(float(b_vals[i])),
                    potential=float(v_vals[i]),
                    kind="constant",
                    label=f"probe angle {np.degrees(angles[i]):.0f} deg",
                )
            )
        return out


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
    probe_radii: tuple = (40.0, 80.0)
    n_samples: int = 9

    def __post_init__(self):
        if self.mode not in ("product", "sum"):
            raise ValueError("mode must be 'product' or 'sum'")

    def field(self) -> MagneticField:
        vo, ap = self.vo_factor, self.ap_factor
        if self.mode == "product":
            return MagneticField.from_scalar_2d(
                lambda pts: np.asarray(vo(pts), dtype=float) * np.asarray(ap(pts), dtype=float)
            )
        return MagneticField.from_scalar_2d(
            lambda pts: np.asarray(vo(pts), dtype=float) + np.asarray(ap(pts), dtype=float)
        )

    def pairs(self) -> list[AsymptoticPair]:
        r1 = self.probe_radii[1]
        angles = np.linspace(0.0, 2.0 * np.pi, self.n_samples, endpoint=False)
        probes = r1 * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        c_vals = np.asarray(self.vo_factor(probes), dtype=float)
        ap, mode = self.ap_factor, self.mode
        out = []
        for i in range(self.n_samples):
            c = float(c_vals[i])
            if mode == "product":
                frozen = (lambda cc: lambda pts: cc * np.asarray(ap(pts), dtype=float))(c)
            else:
                frozen = (lambda cc: lambda pts: cc + np.asarray(ap(pts), dtype=float))(c)
            out.append(
                AsymptoticPair(
                    field=MagneticField.from_scalar_2d(frozen),
                    potential=0.0,
                    kind="general",
                    label=f"frozen slow factor {c:+.4f}",
                )
            )
        return out


@dataclass
class Cartesian2D:
    """Planar anisotropy of the form B = B1(x1) B2(x2) + B0, V = V1(x1) V2(x2) + V0.

    The one-variable factors admit limits b_j^-, b_j^+ (resp. v_j^-, v_j^+)
    at -inf and +inf; B0 and V0 vanish at infinity.  Each half-plane end
    contributes one limiting pair: freezing x2 at its lower or upper end
    yields the one-variable fields b2^-+- * B1(x1), and freezing x1 yields
    b1^-+- * B2(x2).
    """

    b1: Callable
    b2: Callable
    b1_limits: tuple
    b2_limits: tuple
    v1: Optional[Callable] = None
    v2: Optional[Callable] = None
    v1_limits: tuple = (0.0, 0.0)
    v2_limits: tuple = (0.0, 0.0)
    b0: Optional[Callable] = None
    v0: Optional[Callable] = None
    limit_check_distance: float = 60.0
    limit_check_tol: float = 1e-2

    def validate(self) -> None:
        d = self.limit_check_distance
        for prof, limits, name in (
            (self.b1, self.b1_limits, "b1"),
            (self.b2, self.b2_limits, "b2"),
            (self.v1, self.v1_limits, "v1"),
            (self.v2, self.v2_limits, "v2"),
        ):
            if prof is None:
                continue
            lo = float(np.asarray(prof(np.array([-d]))).reshape(-1)[0])
            hi = float(np.asarray(prof(np.array([d]))).reshape(-1)[0])
            if abs(lo - limits[0]) > self.limit_check_tol or abs(hi - limits[1]) > self.limit_check_tol:
                raise ValueError(
                    f"profile {name} does not reach its declared limits: "
                    f"({lo:.4f}, {hi:.4f}) vs declared {limits}"
                )

    def field(self) -> MagneticField:
        b1, b2, b0 = self.b1, self.b2, self.b0

        def profile(pts):
            pts = np.asarray(pts, dtype=float)
            vals = np.asarray(b1(pts[..., 0]), dtype=float) * np.asarray(b2(pts[..., 1]), dtype=float)
            if b0 is not None:
                vals = vals + np.asarray(b0(pts), dtype=float)
            return vals

        return MagneticField.from_scalar_2d(profile)

    def potential(self):
        if self.v1 is None and self.v2 is None and self.v0 is None:
            return 0.0
        v1 = self.v1 if self.v1 is not None else (lambda u: np.ones_like(np.asarray(u, dtype=float)))
        v2 = self.v2 if self.v2 is not None else (lambda u: np.ones_like(np.asarray(u, dtype=float)))
        v0 = self.v0

        def profile(pts):
            pts = np.asarray(pts, dtype=float)
            vals = np.asarray(v1(pts[..., 0]), dtype=float) * np.asarray(v2(pts[..., 1]), dtype=float)
            if v0 is not None:
                vals = vals + np.asarray(v0(pts), dtype=float)
            return vals

        return profile

    def pairs(self) -> list[AsymptoticPair]:
        self.validate()
        out = []
        ends = [
            ("x2 -> -inf", 1, self.b2_limits[0], self.v2_limits[0], self.b1, self.v1, 0),
            ("x2 -> +inf", 1, self.b2_limits[1], self.v2_limits[1], self.b1, self.v1, 0),
            ("x1 -> -inf", 0, self.b1_limits[0], self.v1_limits[0], self.b2, self.v2, 1),
            ("x1 -> +inf", 0, self.b1_limits[1], self.v1_limits[1], self.b2, self.v2, 1),
        ]
        for label, frozen_axis, b_const, v_const, b_prof, v_prof, varying_axis in ends:
            scaled_b = (lambda c, f: lambda u: c * np.asarray(f(np.asarray(u, dtype=float)), dtype=float))(
                b_const, b_prof
            )
            if v_prof is not None:
                scaled_v = (lambda c, f: lambda u: c * np.asarray(f(np.asarray(u, dtype=float)), dtype=float))(
                    v_const, v_prof
                )
            else:
                scaled_v = None
            ax = varying_axis
            field = MagneticField.from_scalar_2d(
                (lambda g, a: lambda pts: g(np.asarray(pts, dtype=float)[..., a]))(scaled_b, ax)
            )
            if scaled_v is None:
                pot = 0.0
            else:
                pot = (lambda g, a: lambda pts: g(np.asarray(pts, dtype=float)[..., a]))(scaled_v, ax)
            out.append(
                AsymptoticPair(
                    field=field,
                    potential=pot,
                    kind="one_variable",
                    invariant_axis=frozen_axis,
                    profile_b=scaled_b,
                    profile_v=scaled_v,
                    label=label,
                )
            )
        return out


def asymptotic_pairs(descriptor) -> list[AsymptoticPair]:
    """Limiting field / potential pairs of an anisotropy descriptor."""
    return descriptor.pairs()


def _unit_circle_probes(n: int) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
