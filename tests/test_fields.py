"""Circulation, flux and phase-factor identities on randomized geometry."""

import re

import numpy as np
import pytest

from magweyl.fields import (
    MagneticField,
    VectorPotential,
    GaugeFunction,
    lambda_a,
    flux_triangle,
    omega_b,
    gamma_b,
    transversal_gauge,
    gauge_shift,
    unit_gauss_legendre,
    _flux_quadrature,
    ConstPlusDecay,
    VanishingOscillation,
    MixedVOAP,
    Cartesian2D,
    AsymptoticPair,
    asymptotic_pairs,
    _LIMIT_TOL,
)


def bump_field(sigma=1.5, amp=0.7):
    def b(p):
        return 1.0 + amp * np.exp(-np.sum(p**2, axis=-1) / (2 * sigma**2))
    return MagneticField.from_scalar_2d(b)


def draws(rng, m=60):
    q = rng.uniform(-3.0, 3.0, (m, 2))
    x = rng.uniform(-1.0, 1.0, (m, 2))
    y = rng.uniform(-1.0, 1.0, (m, 2))
    z = rng.uniform(-1.0, 1.0, (m, 2))
    return q, x, y, z


def test_two_cocycle_identity():
    rng = np.random.default_rng(101)
    B = bump_field()
    q, x, y, z = draws(rng)
    lhs = omega_b(B, q, x, y) * omega_b(B, q, x + y, z)
    rhs = omega_b(B, q + x, y, z) * omega_b(B, q, x, y + z)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_omega_unimodular_and_normalized():
    rng = np.random.default_rng(102)
    B = bump_field()
    q, x, y, _ = draws(rng)
    w = omega_b(B, q, x, y)
    assert np.abs(np.abs(w) - 1.0).max() < 1e-14
    # degenerate triangles carry no flux
    assert np.abs(omega_b(B, q, x, np.zeros_like(x)) - 1.0).max() < 1e-14
    assert np.abs(omega_b(B, q, np.zeros_like(x), y) - 1.0).max() < 1e-14
    assert np.abs(omega_b(B, q, x, -x) - 1.0).max() < 1e-14


def test_omega_conjugate_flips_field_sign():
    rng = np.random.default_rng(103)
    b = 0.8

    def pos(p):
        return np.full(p.shape[:-1], b)

    def neg(p):
        return np.full(p.shape[:-1], -b)

    q, x, y, _ = draws(rng)
    wp = omega_b(MagneticField.from_scalar_2d(pos), q, x, y)
    wn = omega_b(MagneticField.from_scalar_2d(neg), q, x, y)
    assert np.abs(np.conj(wp) - wn).max() < 1e-13


def test_pseudo_trivialization():
    # lambda(q;x) lambda(q+x;y) = omega(q;x,y) lambda(q;x+y)
    rng = np.random.default_rng(104)
    B = bump_field()
    A = transversal_gauge(B, order=24)
    q, x, y, _ = draws(rng)
    lhs = lambda_a(A, q, x) * lambda_a(A, q + x, y)
    rhs = omega_b(B, q, x, y, order=24) * lambda_a(A, q, x + y)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_gamma_matches_reparametrized_flux():
    rng = np.random.default_rng(105)
    B = bump_field()
    q, x, y, _ = draws(rng)
    g = gamma_b(B, q, 2 * x, 2 * y)
    w = omega_b(B, q - x - y, 2 * x, 2 * (y - x))
    assert np.abs(g - w).max() < 1e-12


def test_constant_field_closed_forms():
    rng = np.random.default_rng(106)
    b = 1.3
    Bc = MagneticField.constant_2d(b)
    q, x, y, _ = draws(rng)
    cross = x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]
    assert np.abs(flux_triangle(Bc, q, x, y) - 0.5 * b * cross).max() < 1e-14
    assert np.abs(gamma_b(Bc, q, x, y) - np.exp(-0.5j * b * cross)).max() < 1e-14
    # quadrature on the equivalent callable field agrees with the closed form
    Bf = MagneticField.from_scalar_2d(lambda p: np.full(p.shape[:-1], b))
    assert np.abs(flux_triangle(Bf, q, x, y) - 0.5 * b * cross).max() < 1e-13


def test_flux_antisymmetry_in_swapped_edges():
    # swapping x,y reverses orientation: flux(q;x,y) + flux(q+..) relation
    # checked in the weaker closed-triangle form: omega(q;x,y)*omega(q;x+y,-y)
    # walks the triangle backwards and cancels against omega(q;x,-x)=1
    rng = np.random.default_rng(107)
    B = bump_field()
    q, x, y, _ = draws(rng)
    lhs = omega_b(B, q, x, y) * omega_b(B, q, x + y, -y) * omega_b(B, q, x, -x).conj()
    assert np.abs(lhs - 1.0).max() < 1e-11


def test_quadrature_order_convergence():
    B = bump_field(sigma=0.6)
    q = np.array([[0.4, -0.2]])
    x = np.array([[0.9, 0.3]])
    y = np.array([[-0.5, 0.8]])
    ref = flux_triangle(B, q, x, y, order=48)
    errs = [abs(flux_triangle(B, q, x, y, order=o) - ref)[0] for o in (4, 8, 16)]
    assert errs[0] > errs[2]
    assert errs[2] < 1e-12


def test_transversal_gauge_reproduces_field():
    # dA = B via central differences of the potential
    B = bump_field()
    A = transversal_gauge(B)
    h = 1e-5
    pts = np.array([[0.7, -1.1], [2.0, 0.3], [-0.4, 0.9]])
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    d0A1 = (A(pts + e0)[:, 1] - A(pts - e0)[:, 1]) / (2 * h)
    d1A0 = (A(pts + e1)[:, 0] - A(pts - e1)[:, 0]) / (2 * h)
    curl = d0A1 - d1A0
    assert np.abs(curl - B.component(0, 1, pts)).max() < 1e-8


def test_constant_field_gauge_circulation_exact():
    Bc = MagneticField.constant_2d(0.75)
    A = transversal_gauge(Bc)
    rng = np.random.default_rng(108)
    q = rng.uniform(-2, 2, (20, 2))
    x = rng.uniform(-1, 1, (20, 2))
    # midpoint evaluation is exact for the linear potential
    expect = np.einsum("...j,...j->...", A(q + 0.5 * x), x)
    assert np.abs(A.circulation(q, x) - expect).max() < 1e-14


def test_gauge_shift_telescopes():
    B = bump_field()
    A = transversal_gauge(B)
    rho = GaugeFunction(
        func=lambda p: np.sin(p[..., 0]) * p[..., 1],
        grad=lambda p: np.stack(
            [np.cos(p[..., 0]) * p[..., 1], np.sin(p[..., 0])], axis=-1
        ),
    )
    A2 = gauge_shift(A, rho)
    rng = np.random.default_rng(109)
    q = rng.uniform(-2, 2, (30, 2))
    x = rng.uniform(-1, 1, (30, 2))
    got = A2.circulation(q, x)
    want = A.circulation(q, x) + rho.func(q + x) - rho.func(q)
    assert np.abs(got - want).max() < 1e-12
    # phase factors for both gauges induce the same flux factor
    y = rng.uniform(-1, 1, (30, 2))
    pt1 = lambda_a(A, q, x) * lambda_a(A, q + x, y) / lambda_a(A, q, x + y)
    pt2 = lambda_a(A2, q, x) * lambda_a(A2, q + x, y) / lambda_a(A2, q, x + y)
    assert np.abs(pt1 - pt2).max() < 1e-10


def test_gauge_shift_potential_adds_the_gradient():
    A = transversal_gauge(bump_field())
    rho = GaugeFunction(func=lambda p: p[..., 0] * p[..., 1], grad=lambda p: p[..., ::-1])
    pts = np.random.default_rng(110).uniform(-2, 2, (7, 2))
    assert np.array_equal(gauge_shift(A, rho)(pts), A(pts) + pts[:, ::-1])


def test_field_validation():
    with pytest.raises(ValueError):
        MagneticField(dim=2, components={(1, 0): lambda p: p[..., 0]})
    with pytest.raises(ValueError):
        MagneticField(dim=2, components={(0, 2): lambda p: p[..., 0]})
    with pytest.raises(ValueError):
        MagneticField(dim=4, components={})
    const = np.array([[0.0, 1.0], [1.0, 0.0]])  # not antisymmetric
    with pytest.raises(ValueError):
        MagneticField(dim=2, components={}, constant=const)


@pytest.mark.parametrize("b", [np.inf, -np.inf, np.nan])
def test_constant_field_must_be_finite(b):
    # an infinite strength used to be accepted, and NaN was refused as
    # "not antisymmetric"
    with pytest.raises(ValueError, match="magnetic field is not finite"):
        MagneticField.constant_2d(b)


def test_component_antisymmetry():
    B = bump_field()
    pts = np.array([[0.5, 0.5], [-1.0, 2.0]])
    assert np.abs(B.component(0, 1, pts) + B.component(1, 0, pts)).max() == 0.0
    assert np.abs(B.component(0, 0, pts)).max() == 0.0


def test_closedness_check_3d():
    # closed: constant 3d field
    Bc = MagneticField(
        dim=3,
        components={},
        constant=np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]]),
    )
    pts = np.array([[0.2, -0.4, 1.0]])
    Bc.check_closed(pts)  # no raise

    # not closed: B_01 = x_2 with all others zero has dB != 0
    bad = MagneticField(dim=3, components={(0, 1): lambda p: p[..., 2]})
    with pytest.raises(ValueError):
        bad.check_closed(pts)

    # closed non-constant example: B_01 = f(x_0, x_1)
    good = MagneticField(
        dim=3, components={(0, 1): lambda p: np.sin(p[..., 0]) + p[..., 1] ** 2}
    )
    good.check_closed(pts)


def test_gl_cache_basic():
    n1, w1 = unit_gauss_legendre(8)
    n2, w2 = unit_gauss_legendre(8)
    assert n1 is n2 and w1 is w2
    assert abs(w1.sum() - 1.0) < 1e-14
    assert np.all((n1 > 0) & (n1 < 1))
    # exactness on a degree-15 monomial
    assert abs(np.sum(w1 * n1**15) - 1.0 / 16.0) < 1e-14


# ---------------------------------------------------------------------------
# anisotropy descriptors
# ---------------------------------------------------------------------------


def test_const_plus_decay_pairs():
    d = ConstPlusDecay(
        dim=2,
        b_inf=1.0,
        v_inf=0.5,
        b_decay=lambda p: np.exp(-np.sum(p**2, -1)),
        v_decay=lambda p: 1.0 / (1.0 + np.sum(p**2, -1)) ** 2,
    )
    pairs = asymptotic_pairs(d)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.kind == "constant"
    assert pair.field.constant is not None
    assert pair.field.constant[0, 1] == 1.0
    assert pair.potential == 0.5


def test_const_plus_decay_rejects_nondecaying():
    d = ConstPlusDecay(dim=2, b_inf=1.0, v_inf=0.0, v_decay=lambda p: np.ones(p.shape[:-1]))
    with pytest.raises(ValueError):
        d.pairs()


def test_vanishing_oscillation_range():
    # slowly oscillating radial profile fills out [-1, 1] in the limit set
    d = VanishingOscillation(
        dim=2,
        b_profile=lambda p: np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1))),
        v_profile=lambda p: np.zeros(p.shape[:-1]),
    )
    lo, hi = d.asymptotic_range("b")
    assert lo < -0.9 and hi > 0.9
    pairs = d.pairs()
    assert all(p.kind == "constant" for p in pairs)
    vals = [p.field.constant[0, 1] for p in pairs]
    assert min(vals) >= lo - 1e-9 and max(vals) <= hi + 1e-9


def test_const_plus_decay_without_decay_is_the_constant_field():
    fld = ConstPlusDecay(dim=2, b_inf=0.7).field()
    assert fld.is_constant and np.array_equal(fld.constant, [[0.0, 0.7], [-0.7, 0.0]])


def test_vanishing_oscillation_range_of_the_potential():
    v = lambda p: 0.5 * np.cos(np.linalg.norm(p, axis=-1) ** 0.5)
    d = VanishingOscillation(dim=2, b_profile=lambda p: np.ones(p.shape[:-1]), v_profile=v)
    lo, hi = d.asymptotic_range("v")
    assert -0.5 <= lo < hi <= 0.5 and hi - lo > 0.5
    assert VanishingOscillation(dim=2, b_profile=d.b_profile).asymptotic_range("v") == (0.0, 0.0)
    with pytest.raises(ValueError, match="which must be 'b' or 'v'"):
        d.asymptotic_range("a")


def test_mixed_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'product' or 'sum'"):
        MixedVOAP(dim=2, vo_factor=np.tanh, ap_factor=np.cos, mode="max")


def test_vanishing_oscillation_labels_name_radius_and_reduced_angle():
    # profiles that read back each probe's radius and polar angle (degrees)
    radius = VanishingOscillation(dim=2, b_profile=lambda p: np.linalg.norm(p, axis=-1))
    angle = VanishingOscillation(
        dim=2, b_profile=lambda p: np.degrees(np.arctan2(p[..., 1], p[..., 0])) % 360.0
    )
    labels = [p.label for p in radius.pairs()]
    # the labels key UnionSpectrum.components
    assert len(set(labels)) == len(labels) > 1
    for label, pr, pa in zip(labels, radius.pairs(), angle.pairs()):
        m = re.fullmatch(r"probe r=(\d+\.\d) angle (\d+) deg", label)
        assert m, label
        r, deg = float(m.group(1)), int(m.group(2))
        assert 0 <= deg < 360
        assert abs(r - pr.field.constant[0, 1]) <= 0.05 + 1e-9
        gap = abs(deg - pa.field.constant[0, 1])
        assert min(gap, 360.0 - gap) <= 0.5 + 1e-9


def test_cartesian_pairs():
    d = Cartesian2D(
        b1=lambda t: 2.0 + np.tanh(t),
        b2=lambda t: np.ones_like(t),
        b1_limits=(1.0, 3.0),
        b2_limits=(1.0, 1.0),
        v1=lambda t: np.zeros_like(t),
        v2=lambda t: np.zeros_like(t),
        v1_limits=(0.0, 0.0),
        v2_limits=(0.0, 0.0),
    )
    pairs = d.pairs()
    assert len(pairs) == 4
    kinds = {p.label: p for p in pairs}
    # freezing axis 0 at -inf leaves the x2-dependent profile scaled by 1.0
    left = kinds["x1 -> -inf"]
    assert left.kind == "one_variable"
    assert left.invariant_axis == 0
    t = np.array([0.3, -0.8])
    assert np.allclose(left.profile_b(t), 1.0)
    right = kinds["x1 -> +inf"]
    assert np.allclose(right.profile_b(t), 3.0)


def test_cartesian_validates_declared_limits():
    d = Cartesian2D(
        b1=lambda t: np.tanh(t),
        b2=lambda t: np.ones_like(t),
        b1_limits=(-1.0, 0.5),  # wrong upper limit
        b2_limits=(1.0, 1.0),
        v1=lambda t: np.zeros_like(t),
        v2=lambda t: np.zeros_like(t),
        v1_limits=(0.0, 0.0),
        v2_limits=(0.0, 0.0),
    )
    with pytest.raises(ValueError):
        d.validate()


def test_mixed_pairs_keep_position_dependence():
    d = MixedVOAP(
        dim=2,
        vo_factor=lambda p: np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1))),
        ap_factor=lambda p: 2.0 + np.cos(p[..., 0]),
        mode="product",
    )
    pairs = d.pairs()
    assert len(pairs) >= 3
    assert all(p.kind == "general" for p in pairs)
    # limiting fields keep the fast factor: they are genuinely non-constant
    pts = np.array([[0.0, 0.0], [np.pi, 0.0]])
    spread = [abs(np.ptp(p.field.component(0, 1, pts))) for p in pairs]
    assert max(spread) > 0.1


def test_descriptor_field_and_potential_match_profiles():
    pts = np.random.default_rng(8).uniform(-4.0, 4.0, (32, 2))

    def b_vo(p):
        return 1.0 + 0.5 * np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1)))

    def v_vo(p):
        return np.cos(0.3 * np.linalg.norm(p, axis=-1))

    vo = VanishingOscillation(dim=2, b_profile=b_vo, v_profile=v_vo)
    assert np.array_equal(vo.field().component(0, 1, pts), b_vo(pts))
    assert np.array_equal(vo.field().component(1, 0, pts), -b_vo(pts))
    assert np.array_equal(vo.potential()(pts), v_vo(pts))
    assert VanishingOscillation(dim=2, b_profile=b_vo).potential() == 0.0
    with pytest.raises(ValueError, match="two dimensional"):
        VanishingOscillation(dim=3, b_profile=b_vo).field()

    def ap(p):
        return 2.0 + np.cos(p[..., 0])

    for mode, want in (("product", b_vo(pts) * ap(pts)), ("sum", b_vo(pts) + ap(pts))):
        mixed = MixedVOAP(dim=2, vo_factor=b_vo, ap_factor=ap, mode=mode)
        assert np.array_equal(mixed.field().component(0, 1, pts), want)

    def b1(t):
        return 2.0 + np.tanh(t)

    def b2(t):
        return 1.0 + 0.2 * np.tanh(t)

    def v1(t):
        return np.exp(-t * t)

    def bump(p):
        return 0.3 * np.exp(-np.sum(p * p, axis=-1))

    x0, x1 = pts[:, 0], pts[:, 1]
    cart = Cartesian2D(b1=b1, b2=b2, b1_limits=(1.0, 3.0), b2_limits=(0.8, 1.2),
                       v1=v1, v1_limits=(0.0, 0.0), b0=bump, v0=bump)
    assert np.array_equal(cart.field().component(0, 1, pts), b1(x0) * b2(x1) + bump(pts))
    # a missing factor counts as one
    assert np.array_equal(cart.potential()(pts), v1(x0) + bump(pts))
    bare = Cartesian2D(b1=b1, b2=b2, b1_limits=(1.0, 3.0), b2_limits=(0.8, 1.2))
    assert np.array_equal(bare.field().component(0, 1, pts), b1(x0) * b2(x1))
    assert bare.potential() == 0.0


def _mixed(dim):
    return MixedVOAP(
        dim=dim,
        vo_factor=lambda p: np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1))),
        ap_factor=lambda p: 2.0 + np.cos(p[..., 0]),
    )


def test_mixed_potential_is_the_one_its_pairs_carry():
    d = _mixed(2)
    assert d.potential() == 0.0
    assert all(p.potential == d.potential() for p in d.pairs())


def test_mixed_field_refuses_other_dimensions():
    with pytest.raises(ValueError, match="two dimensional"):
        _mixed(3).field()


def _sampled(f, pts):
    # a potential is a number or a callable on points
    return np.broadcast_to(np.asarray(f(pts) if callable(f) else f, dtype=float), pts.shape[:-1])


def _cartesian(v_case, with_b0):
    def gauss(scale):
        return lambda p: scale * np.exp(-np.sum(p * p, axis=-1) / 4.0)

    v = {
        "both": dict(v1=lambda t: 0.5 + 0.4 * np.tanh(t), v1_limits=(0.1, 0.9),
                     v2=lambda t: 0.3 - 0.2 * np.tanh(t), v2_limits=(0.5, 0.1), v0=gauss(0.6)),
        "v1": dict(v1=lambda t: 0.5 + 0.4 * np.tanh(t), v1_limits=(0.1, 0.9)),
        "v2": dict(v2=lambda t: 0.3 - 0.2 * np.tanh(t), v2_limits=(0.5, 0.1)),
        "v0": dict(v0=gauss(0.6)),
        "none": {},
    }[v_case]
    return Cartesian2D(b1=lambda t: 1.0 + 0.5 * np.tanh(t), b2=lambda t: 1.0 + 0.2 * np.tanh(t),
                       b1_limits=(0.5, 1.5), b2_limits=(0.8, 1.2),
                       b0=gauss(0.4) if with_b0 else None, **v)


@pytest.mark.parametrize("with_b0", [False, True], ids=["no_b0", "b0"])
@pytest.mark.parametrize("v_case", ["both", "v1", "v2", "v0", "none"])
def test_cartesian_pairs_match_the_descriptor_at_their_ends(v_case, with_b0):
    # each pair is the descriptor seen from its end: field and potential
    # agree at the frozen coordinate ±60 for several values of the other
    d = _cartesian(v_case, with_b0)
    field, potential = d.field(), d.potential()
    pairs = d.pairs()
    assert [p.label for p in pairs] == ["x2 -> -inf", "x2 -> +inf", "x1 -> -inf", "x1 -> +inf"]
    varying = np.linspace(-5.0, 5.0, 11)
    for pair in pairs:
        assert pair.kind == "one_variable"
        pts = np.empty((len(varying), 2))
        pts[:, pair.invariant_axis] = -60.0 if "-inf" in pair.label else 60.0
        pts[:, 1 - pair.invariant_axis] = varying
        b_gap = np.abs(pair.field.component(0, 1, pts) - field.component(0, 1, pts)).max()
        v_gap = np.abs(_sampled(pair.potential, pts) - _sampled(potential, pts)).max()
        assert b_gap <= _LIMIT_TOL and v_gap <= _LIMIT_TOL, (pair.label, b_gap, v_gap)


def test_const_plus_decay_pair_matches_the_descriptor_far_out():
    d = ConstPlusDecay(
        dim=2,
        b_inf=1.0,
        v_inf=0.5,
        b_decay=lambda p: 0.5 * np.exp(-np.sum(p * p, axis=-1) / 100.0),
        v_decay=lambda p: 3.0 / (1.0 + np.sum(p * p, axis=-1)),
    )
    (pair,) = d.pairs()
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    pts = 50.0 * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    assert np.abs(pair.field.component(0, 1, pts) - d.field().component(0, 1, pts)).max() <= _LIMIT_TOL
    assert np.abs(_sampled(pair.potential, pts) - _sampled(d.potential(), pts)).max() <= _LIMIT_TOL


def test_cartesian_missing_v_factor_is_one():
    # with one V factor the other is 1, and with none V = V0 (no 1 added)
    pts = np.random.default_rng(9).uniform(-4.0, 4.0, (16, 2))
    v1_only = _cartesian("v1", False)
    assert np.array_equal(v1_only.potential()(pts), v1_only.v1(pts[:, 0]))
    v0_only = _cartesian("v0", False)
    assert np.array_equal(v0_only.potential()(pts), v0_only.v0(pts))
    far = np.array([[0.5, 60.0], [0.5, -60.0], [-60.0, 0.0], [60.0, 0.0]])
    assert np.allclose(v1_only.potential()(far), [0.5 + 0.4 * np.tanh(0.5)] * 2 + [0.1, 0.9])
    ends = {p.label: p for p in v1_only.pairs()}
    assert np.array_equal(ends["x1 -> +inf"].profile_v(far[:, 1]), np.full(4, 0.9))
    assert np.array_equal(ends["x2 -> -inf"].profile_v(far[:, 0]), v1_only.v1(far[:, 0]))


def test_cartesian_limits_are_given_exactly_with_their_factor():
    b = dict(b1=np.tanh, b2=np.cos, b1_limits=(-1.0, 1.0), b2_limits=(1.0, 1.0))
    with pytest.raises(ValueError, match="v1_limits"):
        Cartesian2D(v1=np.tanh, **b)
    with pytest.raises(ValueError, match="v2_limits"):
        Cartesian2D(v2_limits=(0.0, 0.0), **b)
    with pytest.raises(ValueError, match="b2_limits"):
        Cartesian2D(b1=np.tanh, b2=None, b1_limits=(-1.0, 1.0), b2_limits=(1.0, 1.0))


@pytest.mark.parametrize("term", ["b0", "v0"])
def test_cartesian_refuses_terms_that_do_not_vanish_at_the_ends(term):
    # a wave in x1 that does not decay in x2 stays O(1) on the ends x2 = ±60
    d = _cartesian("v1", False)
    setattr(d, term, lambda p: 0.5 * np.cos(p[..., 0]) * np.exp(-np.abs(p[..., 1]) / 1e3))
    with pytest.raises(ValueError, match=f"{term} does not vanish"):
        d.pairs()


@pytest.mark.parametrize("make", [
    lambda dim: ConstPlusDecay(dim=dim, b_inf=1.0),
    lambda dim: VanishingOscillation(dim=dim, b_profile=lambda p: np.ones(p.shape[:-1])),
    lambda dim: MixedVOAP(dim=dim, vo_factor=np.tanh, ap_factor=np.cos),
], ids=["const_plus_decay", "vanishing_oscillation", "mixed"])
def test_descriptors_refuse_other_dimensions_when_built(make):
    # each returned planar pairs for dim = 3
    for dim in (1, 3):
        with pytest.raises(ValueError, match="two dimensional"):
            make(dim)
    assert make(2).dim == 2


def test_pair_kind_reads_its_data():
    const = AsymptoticPair(MagneticField.constant_2d(1.0), 0.5)
    assert const.kind == "constant"
    assert AsymptoticPair(MagneticField.constant_2d(1.0), lambda p: p[..., 0]).kind == "general"
    assert AsymptoticPair(bump_field(), 0.0).kind == "general"
    one = AsymptoticPair(invariant_axis=0, profile_b=lambda u: 2.0 + np.tanh(u), label="end")
    assert one.kind == "one_variable" and one.potential == 0.0
    pts = np.array([[7.0, -0.4], [-3.0, 1.1]])
    assert np.array_equal(one.field.component(0, 1, pts), 2.0 + np.tanh(pts[:, 1]))
    with pytest.raises(AttributeError):
        const.kind = "general"
    with pytest.raises(TypeError):
        AsymptoticPair(MagneticField.constant_2d(1.0), 0.5, kind="constant")
    for bad in (dict(), dict(field=bump_field(), invariant_axis=0, profile_b=np.tanh),
                dict(profile_b=np.tanh), dict(field=bump_field(), invariant_axis=1)):
        with pytest.raises(ValueError, match="a pair takes"):
            AsymptoticPair(**bad)


# ---------------------------------------------------------------------------
# transversal circulation as a triangle flux
# ---------------------------------------------------------------------------


def closed_field_3d():
    # B = dA0 for A0 = (0.3 sin(x1 + x2), 0.2 cos(x0) x2, 0.4 exp(-x0^2 - x1^2))
    def gauss(p):
        return np.exp(-p[..., 0] ** 2 - p[..., 1] ** 2)

    return MagneticField(
        dim=3,
        components={
            (0, 1): lambda p: -0.2 * np.sin(p[..., 0]) * p[..., 2] - 0.3 * np.cos(p[..., 1] + p[..., 2]),
            (0, 2): lambda p: -0.8 * p[..., 0] * gauss(p) - 0.3 * np.cos(p[..., 1] + p[..., 2]),
            (1, 2): lambda p: -0.8 * p[..., 1] * gauss(p) - 0.2 * np.cos(p[..., 0]),
        },
    )


VARIABLE_FIELDS = {"2d": bump_field, "3d": closed_field_3d}


def segments(dim, m=40, seed=110):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.5, 2.5, (m, dim)), rng.uniform(-1.5, 1.5, (m, dim))


@pytest.mark.parametrize("case", sorted(VARIABLE_FIELDS))
def test_transversal_circulation_matches_line_integral(case):
    # the triangle flux equals the line integral of the potential's values,
    # taken by an independent Gauss-Legendre rule of the same order
    B = VARIABLE_FIELDS[case]()
    B.check_closed(segments(B.dim)[0])
    A = transversal_gauge(B, order=24)
    q, x = segments(B.dim)
    got = A.circulation(q, x)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    t, wt = 0.5 * (nodes + 1.0), 0.5 * weights
    want = sum(w * np.sum(A(q + ti * x) * x, axis=-1) for ti, w in zip(t, wt))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", sorted(VARIABLE_FIELDS))
def test_gauge_decides_the_circulation_order(case):
    # a gauge of order 4 integrates on 4 × 4 nodes, not on 4 radial and 8
    # line nodes, and a shifted gauge adds its telescoped terms to the same
    # flux
    B = VARIABLE_FIELDS[case]()
    A = transversal_gauge(B, order=4)
    q, x = segments(B.dim)
    want = _flux_quadrature(B, None, q, x, 4, 4)
    assert A.order == 4 and np.array_equal(A.circulation(q, x), want)
    rho = GaugeFunction(func=lambda p: np.sum(np.sin(p), axis=-1), grad=np.cos)
    shifted = gauge_shift(A, rho)
    assert shifted.order == 4
    assert np.array_equal(shifted.circulation(q, x), want + rho.func(q + x) - rho.func(q))


@pytest.mark.parametrize("case", sorted(VARIABLE_FIELDS))
def test_transversal_circulation_reverses_with_the_segment(case):
    B = VARIABLE_FIELDS[case]()
    A = transversal_gauge(B)
    q, x = segments(B.dim)
    forward = A.circulation(q, x)
    backward = A.circulation(q + x, -x)
    assert np.abs(forward + backward).max() <= 1e-15 * np.abs(forward).max()


@pytest.mark.parametrize("case", sorted(VARIABLE_FIELDS))
def test_transversal_circulation_does_not_depend_on_the_batch(case):
    # rep, the box ladder's circulation table and the product's Λ tables
    # evaluate a pair in other batches than the per-pair and per-node
    # routes of the tests; their bit-for-bit agreement rests on this
    B = VARIABLE_FIELDS[case]()
    A = transversal_gauge(B)
    q, x = segments(B.dim)
    block = A.circulation(q, x)
    grid_shaped = A.circulation(q.reshape(4, 10, B.dim), x.reshape(4, 10, B.dim))
    assert np.array_equal(grid_shaped.ravel(), block)
    for i in (0, 17, 39):
        assert A.circulation(q[i], x[i]) == block[i]
        assert np.array_equal(A.circulation(q[i:i + 1], x[i:i + 1]), block[i:i + 1])


def test_potential_without_circulation_is_refused():
    A = VectorPotential(dim=2, func=lambda p: np.zeros(np.shape(p)))
    with pytest.raises(ValueError, match="no circulation"):
        A.circulation(np.zeros(2), np.ones(2))
