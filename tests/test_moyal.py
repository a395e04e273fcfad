import numpy as np
import pytest

from magweyl.crossed import twisted_product
from magweyl.fields import MagneticField
from magweyl.grid import BoxGrid, KernelSample, PhaseGridFunction, partial_fourier, partial_fourier_inv
from magweyl.moyal import (
    CutoffFamily,
    Symbol,
    involution,
    moyal,
    moyal_direct,
    moyal_nonmagnetic,
    regularize,
    trim_kernel,
)


def line_grid(n=64, half_length=6.0):
    return BoxGrid(dim=1, half_length=half_length, n=n)


def plane_grid(n=32, half_length=5.0):
    return BoxGrid(dim=2, half_length=half_length, n=n)


def gauss_symbol_1d(grid, aq=0.5, ap=0.5, tilt=0.3):
    def f(q, p):
        return np.exp(-aq * q[..., 0] ** 2 - ap * p[..., 0] ** 2) * (1 + tilt * 1j * p[..., 0])

    return PhaseGridFunction.sample(f, grid, q_independent=False)


# ---- symbols ----


def test_symbol_declared_order_validates():
    h = Symbol(dim=2, func=lambda p: 1.0 + np.sum(p * p, axis=-1), order=2.0, elliptic=(0.5, 3.0))
    h.validate()
    consts = h.spot_check()
    assert set(consts) == {a for a in np.ndindex(3, 3) if sum(a) <= 2}
    # the zeroth envelope constant of <p>^2 against <p>^2 is exactly 1
    assert abs(consts[(0, 0)] - 1.0) < 1e-9


def test_symbol_wrong_order_rejected():
    h = Symbol(dim=2, func=lambda p: 1.0 + np.sum(p * p, axis=-1), order=1.0)
    with pytest.raises(ValueError, match="growth"):
        h.validate()


def test_symbol_ellipticity_rejected():
    # 1 + p1^2 stays O(1) along the p2 axis, so no uniform lower bound
    h = Symbol(dim=2, func=lambda p: 1.0 + p[..., 0] ** 2, order=2.0, elliptic=(0.5, 3.0))
    with pytest.raises(ValueError, match="ellipticity"):
        h.validate()


def test_symbol_fd_matches_analytic_derivs():
    f = lambda p: np.exp(-0.3 * np.sum(p * p, axis=-1))
    h = Symbol(dim=2, func=f, order=0.0)
    pts = np.array([[0.4, -1.2], [2.0, 0.5], [0.0, 0.0]])
    fd = h.deriv((1, 1), pts)
    exact = 0.36 * pts[:, 0] * pts[:, 1] * f(pts)
    assert np.max(np.abs(fd - exact)) < 1e-6
    # supplied derivatives bypass the finite differences entirely
    ha = Symbol(dim=2, func=f, order=0.0, derivs={(1, 1): lambda p: 0.36 * p[..., 0] * p[..., 1] * f(p)})
    assert np.max(np.abs(ha.deriv((1, 1), pts) - exact)) == 0.0


# ---- cutoffs and regularization ----


def test_cutoff_profile_invariants():
    chi = CutoffFamily()
    r = np.linspace(0.0, 3.0, 3001)
    v = chi.profile(r)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(v[r <= 1.0] == 1.0)
    assert np.all(v[r >= 2.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-12)
    # C^1 across the joints: finite-difference slope stays small near r=1, r=2
    h = 1e-5
    for joint in (1.0, 2.0):
        slope = (chi.profile(joint + h) - chi.profile(joint - h)) / (2 * h)
        assert abs(slope) < 1e-4
    assert chi.value(np.zeros(2)) == 1.0


def test_cutoff_scaling():
    chi = CutoffFamily()
    rng = np.random.default_rng(3)
    xi = rng.normal(scale=4.0, size=(40, 2))
    assert np.array_equal(chi.scaled(xi, 3.0), chi.value(xi / 3.0))


def test_regularize_momentum_only_for_q_independent():
    grid = plane_grid(n=24, half_length=6.0)
    f = PhaseGridFunction.sample(lambda p: 1.0 + np.sum(p * p, axis=-1), grid, q_independent=True)
    out = regularize(f, 4.0)
    pm = grid.momentum().mesh()
    r = np.sqrt(np.sum(pm * pm, axis=-1))
    assert np.array_equal(out.values[r <= 4.0], f.values[r <= 4.0])
    assert np.all(out.values[r >= 8.0] == 0.0)


def test_regularize_phase_space_radius_for_q_dependent():
    grid = plane_grid(n=12, half_length=4.0)
    f = PhaseGridFunction.sample(
        lambda q, p: np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1), grid, q_independent=False
    )
    out = regularize(f, 3.0)
    chi = CutoffFamily()
    qm = grid.mesh()
    pm = grid.momentum().mesh()
    i, j = (3, 7), (5, 2)
    xi = np.concatenate([qm[i], pm[j]])
    expect = f.values[i + j] * chi.value(xi / 3.0)
    assert abs(out.values[i + j] - expect) < 1e-12


# ---- algebra invariants through the grid route ----


def test_unit_symbol_is_two_sided_unit():
    grid = line_grid()
    one = PhaseGridFunction.sample(lambda p: np.ones(p.shape[:-1]), grid, q_independent=True)
    g = gauss_symbol_1d(grid, aq=0.4, ap=0.4)
    field = MagneticField.zero(1)
    left = moyal(one, g, field)
    right = moyal(g, one, field)
    assert np.max(np.abs(left.values - g.values)) < 1e-9
    assert np.max(np.abs(right.values - g.values)) < 1e-9


def test_momentum_symbols_commute_without_field():
    grid = line_grid()
    f = PhaseGridFunction.sample(lambda p: np.exp(-0.5 * p[..., 0] ** 2), grid, q_independent=True)
    g = PhaseGridFunction.sample(
        lambda p: np.exp(-0.3 * p[..., 0] ** 2) * (1 + 0.2 * np.sin(p[..., 0])), grid, q_independent=True
    )
    field = MagneticField.zero(1)
    fg = moyal(f, g, field)
    gf = moyal(g, f, field)
    assert np.max(np.abs(fg.values - gf.values)) < 1e-14
    assert np.max(np.abs(fg.values - f.values * g.values)) < 1e-5


def test_banded_commutator_is_exact():
    # q composed with a trigonometric momentum symbol: the bracket with a
    # linear base factor truncates, [q, g(p)] = i g'(p), and the kernel of
    # sin(p d)/d occupies exactly one displacement pair, so away from the
    # two boundary rows the identity holds at rounding level.  The +i sign
    # fixes the orientation of the composition product.
    grid = line_grid()
    d = grid.delta
    field = MagneticField.zero(1)
    gsym = PhaseGridFunction.sample(lambda p: np.sin(p[..., 0] * d) / d, grid, q_independent=True)
    qsym = PhaseGridFunction.sample(lambda q, p: q[..., 0] + 0.0 * p[..., 0], grid, q_independent=False)
    comm = moyal(qsym, gsym, field).values - moyal(gsym, qsym, field).values
    pax = grid.momentum().mesh()[..., 0]
    expect = 1j * np.cos(pax * d)[None, :]
    interior = np.abs(grid.axis()) <= grid.half_length - 3 * d
    assert np.max(np.abs((comm - expect)[interior, :])) < 1e-12


def test_regularized_position_momentum_commutator():
    grid = line_grid()
    field = MagneticField.zero(1)
    chi = CutoffFamily()
    ncut = 6.0  # support 2*ncut stays inside the momentum zone (|p| < 16.7)
    qsym = PhaseGridFunction.sample(lambda q, p: q[..., 0] + 0.0 * p[..., 0], grid, q_independent=False)
    qreg = regularize(qsym, ncut)
    preg = PhaseGridFunction.sample(
        lambda p: p[..., 0] * chi.scaled(p, ncut), grid, q_independent=True
    )
    comm = moyal(qreg, preg, field).values - moyal(preg, qreg, field).values
    qax = grid.axis()
    pax = grid.momentum().mesh()[..., 0]
    region = np.ix_(np.abs(qax) <= 0.5 * ncut, np.abs(pax) <= 0.5 * ncut)
    assert np.max(np.abs(comm[region] - 1j)) < 3e-3


def test_regularization_cutoff_sweep():
    # widening the cutoff sharpens the commutator until its support leaves
    # the momentum zone (|p| < 16.7 here), after which aliasing takes over
    # and the discarded-mass warning fires
    grid = line_grid()
    field = MagneticField.zero(1)
    chi = CutoffFamily()
    qsym = PhaseGridFunction.sample(lambda q, p: q[..., 0] + 0.0 * p[..., 0], grid, q_independent=False)
    qax = grid.axis()
    pax = grid.momentum().mesh()[..., 0]

    def defect(ncut):
        qreg = regularize(qsym, ncut)
        preg = PhaseGridFunction.sample(
            lambda p: p[..., 0] * chi.scaled(p, ncut), grid, q_independent=True
        )
        comm = moyal(qreg, preg, field).values - moyal(preg, qreg, field).values
        region = np.ix_(np.abs(qax) <= 2.0, np.abs(pax) <= 2.0)
        return np.max(np.abs(comm[region] - 1j))

    errs = {n: defect(n) for n in (4.0, 6.0)}
    with pytest.warns(UserWarning, match="discarded"):
        errs[12.0] = defect(12.0)
    assert errs[6.0] < errs[4.0]
    assert errs[6.0] < 3e-3
    assert errs[12.0] > 10.0 * errs[6.0]


def test_involution_antihomomorphism():
    grid = plane_grid()
    field = MagneticField.constant_2d(0.5)

    def fa(q, p):
        return np.exp(-0.6 * (np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1))) * (1 + 0.4j * q[..., 0])

    def fb(q, p):
        return np.exp(-0.5 * (np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1))) * (1 - 0.3j * p[..., 1])

    f = PhaseGridFunction.sample(fa, grid, q_independent=False)
    g = PhaseGridFunction.sample(fb, grid, q_independent=False)
    lhs = involution(moyal(f, g, field))
    rhs = moyal(involution(g), involution(f), field)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-5


def test_involution_is_involutive():
    grid = line_grid(n=16)
    f = gauss_symbol_1d(grid)
    back = involution(involution(f))
    assert np.array_equal(back.values, f.values)


def test_associativity_three_gaussians():
    grid = line_grid()
    field = MagneticField.zero(1)
    rng = np.random.default_rng(5)

    def draw():
        a0, a1 = rng.uniform(0.4, 0.8, 2)
        c = rng.uniform(-0.5, 0.5, 2)
        z = rng.uniform(0.2, 0.5)
        return PhaseGridFunction.sample(
            lambda q, p: np.exp(-a0 * (q[..., 0] - c[0]) ** 2 - a1 * (p[..., 0] - c[1]) ** 2)
            * (1 + z * 1j * p[..., 0]),
            grid,
            q_independent=False,
        )

    h1, h2, h3 = draw(), draw(), draw()
    lhs = moyal(moyal(h1, h2, field, scheme="cubic"), h3, field, scheme="cubic").values
    rhs = moyal(h1, moyal(h2, h3, field, scheme="cubic"), field, scheme="cubic").values
    qax = grid.axis()
    pax = grid.momentum().mesh()[..., 0]
    bulk = np.ix_(np.abs(qax) <= 4.5, np.abs(pax) <= 0.75 * np.max(np.abs(pax)))
    assert np.max(np.abs((lhs - rhs)[bulk])) < 5e-4


def test_moyal_grid_mismatch_rejected():
    f = gauss_symbol_1d(line_grid(n=32))
    g = gauss_symbol_1d(line_grid(n=64))
    with pytest.raises(ValueError, match="grid"):
        moyal(f, g, MagneticField.zero(1))


def test_moyal_nonfinite_guard():
    grid = plane_grid(n=16)
    g = PhaseGridFunction.sample(
        lambda q, p: np.exp(-np.sum(q * q, axis=-1) - np.sum(p * p, axis=-1)), grid, q_independent=False
    )
    bad = PhaseGridFunction.sample(lambda p: np.ones(p.shape[:-1]), grid, q_independent=True)
    bad.values[3, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        moyal(bad, g, MagneticField.zero(2))


def test_trim_keeps_product_unchanged():
    grid = line_grid(n=48)
    f = gauss_symbol_1d(grid, aq=0.6, ap=0.7)
    g = gauss_symbol_1d(grid, aq=0.5, ap=0.4, tilt=-0.2)
    field = MagneticField.zero(1)
    kept = partial_fourier(twisted_product(partial_fourier_inv(f), partial_fourier_inv(g), field))
    trimmed = moyal(f, g, field)
    assert np.max(np.abs(kept.values - trimmed.values)) < 1e-10


def test_trim_refuses_a_tolerance_that_is_not_finite():
    # NaN and ±inf cut any kernel to its central node; 0 or below keeps
    # every row
    k = KernelSample(grid=BoxGrid(dim=2, half_length=3.0, n=12), values=np.ones((7, 7), dtype=complex),
                     q_independent=True)
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="rel_tol must be finite"):
            trim_kernel(k, tol)
    for tol in (0.0, -1.0):
        assert trim_kernel(k, tol).disp_count == 7


# ---- route agreement against the direct quadrature ----


def _plane_pair():
    def fa(q, p):
        return np.exp(-0.6 * (np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1))) * (1 + 0.4j * q[..., 0])

    def fb(q, p):
        return np.exp(-0.5 * (np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1))) * (1 - 0.3j * p[..., 1])

    return fa, fb


@pytest.mark.parametrize("bval", [0.0, 0.5])
def test_route_agreement_direct_vs_grid(bval):
    fa, fb = _plane_pair()
    grid = plane_grid()
    field = MagneticField.zero(2) if bval == 0.0 else MagneticField.constant_2d(bval)
    fs = PhaseGridFunction.sample(fa, grid, q_independent=False)
    gs = PhaseGridFunction.sample(fb, grid, q_independent=False)
    prod = moyal(fs, gs, field, scheme="cubic")
    qm = grid.mesh()
    pm = grid.momentum().mesh()
    idxs = [(16, 16, 16, 16), (13, 19, 17, 15), (19, 13, 15, 17), (17, 17, 13, 19), (15, 16, 19, 13)]
    for ix in idxs:
        direct = moyal_direct(
            fa, fb, field, (qm[ix[0], ix[1]], pm[ix[2], ix[3]]), quad={"radius_x": 4.5, "radius_k": 4.5}
        )
        assert abs(direct - prod.values[ix]) < 5e-3


def test_route_agreement_refines():
    # the grid route converges at the interpolation order; against a fixed
    # converged quadrature the disagreement quarters per spacing halving
    def fa(q, p):
        return np.exp(-0.7 * (q[..., 0] ** 2 + p[..., 0] ** 2)) * (1 + 0.4 * q[..., 0] + 0.3j * p[..., 0])

    def fb(q, p):
        return np.exp(-0.5 * (q[..., 0] ** 2 + p[..., 0] ** 2)) * (1 - 0.2j * q[..., 0] + 0.3 * p[..., 0])

    field = MagneticField.zero(1)
    pts = [(-0.6, 0.4), (0.2, -1.0), (1.1, 0.8)]
    errs = []
    for n in (32, 64, 128):
        grid = BoxGrid(dim=1, half_length=5.0, n=n)
        fs = PhaseGridFunction.sample(fa, grid, q_independent=False)
        gs = PhaseGridFunction.sample(fb, grid, q_independent=False)
        prod = moyal(fs, gs, field)
        qa = grid.axis()
        pa = grid.momentum().mesh()[..., 0]
        worst = 0.0
        for q0, p0 in pts:
            iq = int(np.argmin(np.abs(qa - q0)))
            ip = int(np.argmin(np.abs(pa - p0)))
            direct = moyal_direct(
                fa, fb, field, ([qa[iq]], [pa[ip]]), quad={"nodes": 96, "radius_x": 6.0, "radius_k": 6.0}
            )
            worst = max(worst, abs(prod.values[iq, ip] - direct))
        errs.append(worst)
    assert errs[0] / errs[1] >= 3.6
    assert errs[1] / errs[2] >= 3.6
    assert errs[2] * 16.0 <= errs[0]


# ---- the direct quadrature itself ----


def test_direct_matches_gaussian_closed_form():
    # exp(-|xi|^2) composed with itself is (1/2)^N exp(-|xi|^2); more
    # generally exp(-a|xi|^2) with itself gives (1+a^2)^-N with exponent
    # rescaled by 2a/(1+a^2)
    a = 0.8
    f1 = lambda q, p: np.exp(-a * (q[..., 0] ** 2 + p[..., 0] ** 2))
    for q0, p0 in [(0.0, 0.0), (0.4, -0.3), (-0.7, 0.5)]:
        got = moyal_nonmagnetic(f1, f1, 1, ([q0], [p0]), quad={"nodes": 48, "radius_x": 5.0, "radius_k": 5.0})
        want = (1 / (1 + a * a)) * np.exp(-2 * a * (q0 * q0 + p0 * p0) / (1 + a * a))
        assert abs(got - want) < 1e-10

    f2 = lambda q, p: np.exp(-(np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1)))
    q0 = np.array([0.3, -0.1])
    p0 = np.array([0.2, 0.4])
    got = moyal_nonmagnetic(f2, f2, 2, (q0, p0), quad={"nodes": 28, "radius_x": 5.0, "radius_k": 5.0})
    want = 0.25 * np.exp(-(q0 @ q0 + p0 @ p0))
    assert abs(got - want) < 1e-5


def test_direct_zero_field_equals_nonmagnetic():
    fa, fb = _plane_pair()
    field = MagneticField.zero(2)
    pts = [
        (np.array([0.3, -0.1]), np.array([0.2, 0.4])),
        (np.array([0.0, 0.0]), np.array([0.0, 0.0])),
        (np.array([-0.5, 0.2]), np.array([0.1, -0.3])),
        (np.array([0.7, 0.4]), np.array([-0.2, 0.5])),
        (np.array([0.1, -0.6]), np.array([0.4, 0.1])),
    ]
    for xi in pts:
        same_rule = abs(
            moyal_direct(fa, fb, field, xi, quad={"nodes": 24, "radius_x": 5.0, "radius_k": 5.0})
            - moyal_nonmagnetic(fa, fb, 2, xi, quad={"nodes": 24, "radius_x": 5.0, "radius_k": 5.0})
        )
        assert same_rule < 1e-12
    # independent rules still agree to quadrature accuracy
    xi = pts[0]
    cross = abs(
        moyal_direct(fa, fb, field, xi, quad={"nodes": 28, "radius_x": 5.0, "radius_k": 5.0})
        - moyal_nonmagnetic(fa, fb, 2, xi, quad={"nodes": 32, "radius_x": 5.0, "radius_k": 5.0, "budget": 6e9})
    )
    assert cross < 1e-4


def test_direct_budget_guard():
    fa, fb = _plane_pair()
    with pytest.raises(RuntimeError, match="budget"):
        moyal_direct(fa, fb, MagneticField.zero(2), (np.zeros(2), np.zeros(2)), quad={"nodes": 64})
