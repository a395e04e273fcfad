"""Twisted kernel algebra: product routes, involution, representation."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

from magweyl.fields import (
    GaugeFunction,
    MagneticField,
    gauge_shift,
    transversal_gauge,
    _flux_quadrature,
)
from magweyl import crossed
from magweyl.grid import (
    BoxGrid,
    KernelSample,
    MomentumGrid,
    PhaseGridFunction,
    partial_fourier,
    partial_fourier_inv,
    shift_q,
)
from magweyl.moyal import op_weyl, trim_kernel
from magweyl.spectral import eig
from magweyl.crossed import (
    BandedOperator,
    OperatorMatrix,
    delta_kernel,
    kernel_from_func,
    kernel_lincomb,
    l1_norm,
    multiplier_kernel,
    op_norm,
    rep,
    rep_banded,
    twisted_involution,
    twisted_product,
    twisted_product_reference,
    _clip_mass,
    _lambda_factors,
    _multiply,
    _shear,
    _tilde_values,
    _to_tilde,
)

from conftest import traced_peak


def gauss_kernel(cq, cx, sq=0.8, sx=0.5, amp=1.0):
    """Complex Gaussian in base point and displacement, exact callable."""

    def f(q, x):
        q = np.asarray(q, float)
        x = np.asarray(x, float)
        dq = np.sum((q - np.asarray(cq)) ** 2, axis=-1)
        dx = np.sum((x - np.asarray(cx)) ** 2, axis=-1)
        return amp * np.exp(-dq / (2 * sq**2) - dx / (2 * sx**2)) * (1.0 + 0.3j)

    return f


def variable_field():
    def b(p):
        p = np.asarray(p, float)
        return 0.8 + 0.5 * np.exp(-np.sum(p * p, axis=-1) / 3.0)

    return MagneticField.from_scalar_2d(b)


def pair_on(grid, disp_count, attach=True):
    pair = (
        kernel_from_func(gauss_kernel([0.3, -0.2], [0.1, 0.0]), grid, disp_count=disp_count),
        kernel_from_func(gauss_kernel([-0.1, 0.4], [0.0, -0.2], amp=0.7), grid, disp_count=disp_count),
    )
    return pair if attach else tuple(replace(k, func=None) for k in pair)


# ---------------------------------------------------------------------------
# product routes
# ---------------------------------------------------------------------------


def test_b_zero_qindep_is_plain_convolution():
    # oracle: ordinary convolution in the displacement variable
    rng = np.random.default_rng(31)
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    oracle = fftconvolve(a, b) * g.cell_volume
    phi = KernelSample(grid=g, values=a, q_independent=True)
    psi = KernelSample(grid=g, values=b, q_independent=True)
    prod = twisted_product(phi, psi, MagneticField.zero(2))
    assert prod.q_independent
    assert np.abs(prod.values - oracle).max() < 1e-10
    # asymmetric windows whose natural window of 7 nodes the box clips to 5
    small = BoxGrid(dim=2, half_length=1.5, n=6)
    phi = KernelSample(grid=small, values=rng.normal(size=(5, 5)) + 0j, q_independent=True)
    psi = KernelSample(grid=small, values=rng.normal(size=(3, 3)) + 0j, q_independent=True)
    oracle = fftconvolve(phi.values, psi.values)[1:6, 1:6] * small.cell_volume
    prod = twisted_product(phi, psi, MagneticField.zero(2), tail_warn=np.inf)
    assert np.abs(prod.values - oracle).max() < 1e-12 * np.abs(oracle).max()


def assert_general_matches_reference(phi, psi, fld, order=8):
    """The general route on both sheets against the reference's tilde
    values: the centered output is the tilde output recentred by the shear
    the routes share, so both must agree to rounding."""
    r = twisted_product_reference(phi, psi, fld, sheet="tilde", order=order)
    scale = np.abs(r.values).max()
    assert scale > 0
    for sheet in ("tilde", "centered"):
        p = twisted_product(phi, psi, fld, sheet=sheet, order=order, tail_warn=np.inf)
        want = r.values if sheet == "tilde" else _shear(r.values, phi.grid, -1, "linear")
        assert p.sheet == sheet and not p.q_independent
        assert p.values.shape == want.shape
        assert np.abs(p.values - want).max() < 1e-12 * scale


@pytest.mark.parametrize("attach", [True, False])
def test_tilde_route_agreement_all_fields(attach):
    # attached callables extend the right factor past the box (padded rows
    # of b); plain arrays zero-extend; the natural window 13 is clipped to
    # the grid's 11
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, psi = pair_on(g, 7, attach=attach)
    for fld in (MagneticField.zero(2), MagneticField.constant_2d(0.9), variable_field()):
        assert_general_matches_reference(phi, psi, fld)


def test_tilde_route_agreement_mixed_inputs():
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, _ = pair_on(g, 7, attach=True)
    _, psi = pair_on(g, 7, attach=False)
    fld = variable_field()
    p = twisted_product(phi, psi, fld, sheet="tilde")
    r = twisted_product_reference(phi, psi, fld, sheet="tilde")
    assert np.abs(p.values - r.values).max() < 1e-12


@pytest.mark.parametrize("qindep_left", [True, False])
@pytest.mark.parametrize(
    "fld",
    [MagneticField.zero(2), MagneticField.constant_2d(0.9), variable_field()],
    ids=["zero", "constant", "variable"],
)
def test_tilde_route_agreement_qindep_times_qdep(fld, qindep_left):
    # one base-point independent factor without dressing (zero field), with
    # closed-form phases (constant field) or dressed tables (variable
    # field), on either side; on the right it is read on padded rows.  3x3
    # is the momentum kernel's window in the resolvent products.
    # Random kernels weight the largest displacement triangles fully, so a
    # variable field runs both phase quadratures at order 16.
    rng = np.random.default_rng(30)
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    order = 8 if fld.is_constant else 16
    _, qd = pair_on(g, 7, attach=False)
    for count in (3, 5):
        a = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        qi = KernelSample(grid=g, values=a, q_independent=True)
        phi, psi = (qi, qd) if qindep_left else (qd, qi)
        assert_general_matches_reference(phi, psi, fld, order=order)
    # a natural window of 9 nodes that the box clips to 5
    small = BoxGrid(dim=2, half_length=1.5, n=6)
    qi, qd = random_kernel(rng, small, 5, True), random_kernel(rng, small, 5)
    assert_general_matches_reference(*((qi, qd) if qindep_left else (qd, qi)), fld, order=order)


def test_tilde_route_agreement_qindep_against_variable_field():
    # base-point independent kernels but a non-constant field: the general
    # path with padded broadcast factors
    rng = np.random.default_rng(32)
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    phi = KernelSample(grid=g, values=a, q_independent=True)
    psi = KernelSample(grid=g, values=b, q_independent=True)
    fld = variable_field()
    # order-16 circulation: random kernels weight the largest displacement
    # triangles fully, so the two phase quadratures must both be converged
    p = twisted_product(phi, psi, fld, sheet="tilde", order=16)
    r = twisted_product_reference(phi, psi, fld, sheet="tilde", order=16)
    assert not p.q_independent
    assert np.abs(p.values - r.values).max() < 1e-12


@pytest.mark.parametrize(
    "grid, fld, counts",
    [
        (BoxGrid(dim=1, half_length=4.0, n=16), MagneticField.zero(1), (7, 5)),
        (
            BoxGrid(dim=3, half_length=3.0, n=6),
            MagneticField(
                dim=3, constant=np.array([[0.0, 0.7, -0.4], [-0.7, 0.0, 0.9], [0.4, -0.9, 0.0]])
            ),
            (3, 3),
        ),
    ],
    ids=["dim1", "dim3"],
)
def test_general_route_other_dimensions(grid, fld, counts):
    # one axis leaves the tiled product no trailing axes, three leave it
    # two; three axes also exercise every pair of entries of B in the
    # closed-form phases; a right factor of n - 1 nodes gives a natural
    # window the box clips
    rng = np.random.default_rng(46)
    da, db = counts
    shape = (grid.n,) * grid.dim
    qd_a = KernelSample(grid=grid, values=rng.normal(size=shape + (da,) * grid.dim) + 0.5j)
    qd_b = KernelSample(grid=grid, values=rng.normal(size=shape + (db,) * grid.dim) - 0.3j)
    qi_b = KernelSample(
        grid=grid, values=rng.normal(size=(db,) * grid.dim) + 0j, q_independent=True
    )
    assert_general_matches_reference(qd_a, qd_b, fld)
    assert_general_matches_reference(qd_a, qi_b, fld)
    assert_general_matches_reference(qd_b, random_kernel(rng, grid, grid.n - 1), fld)


def test_general_route_memory_is_tiled():
    # one product at the n=32 resolvent's window, a base-point independent
    # factor times a dependent one on the tilde sheet: the sheared right
    # factor and the output take 15.7 MB each, and one window of B (4.3 MB)
    # with its tiles of 4 by 8 rows peaks near 8.1 MB besides them (39.6 MB
    # in all, 38.9 MB with 4 by 4 rows); dressing whole factors with Λ
    # tables needs about 79 MB, and one untiled GEMM would hold two 63 MB
    # matrices
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(47)
    phi = KernelSample(grid=g, values=rng.normal(size=(31, 31)) + 0j, q_independent=True)
    psi = KernelSample(grid=g, values=rng.normal(size=(32, 32, 31, 31)) + 0j)
    fld = MagneticField.constant_2d(0.5)
    twisted_product(phi, psi, fld, sheet="tilde", tail_warn=np.inf)
    peak, _ = traced_peak(lambda: twisted_product(phi, psi, fld, sheet="tilde", tail_warn=np.inf))
    assert peak <= 40e6


def random_kernel(rng, grid, count, q_independent=False):
    shape = (count,) * grid.dim if q_independent else (grid.n,) * grid.dim + (count,) * grid.dim
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return KernelSample(grid=grid, values=values, q_independent=q_independent)


@pytest.mark.parametrize("n", [14, 16, 18])
def test_general_route_tiles_every_axis(n):
    # below n=32 every two-axis plan tiles the trailing axis by 8 rows and
    # the leading one by 4 (2 for a stencil on the left, which fill an
    # even axis): n = 14 and 18 leave a partial tile at the far edge of
    # each axis and of the rows of b, 16 fills its axes; factors of different
    # windows, the residual products' 3x3 stencil on either side (on the
    # right read on padded rows), base-point independent times dependent
    # both ways, and a right factor of n - 1 nodes, whose natural window
    # the box clips
    rng = np.random.default_rng(48)
    g = BoxGrid(dim=2, half_length=3.0, n=n)
    fld = MagneticField.constant_2d(0.9)
    wide, narrow = random_kernel(rng, g, 7), random_kernel(rng, g, 5)
    stencil, qi = random_kernel(rng, g, 3, True), random_kernel(rng, g, 5, True)
    assert_general_matches_reference(wide, narrow, fld)
    assert_general_matches_reference(stencil, wide, fld)
    assert_general_matches_reference(wide, stencil, fld)
    assert_general_matches_reference(qi, narrow, fld)
    assert_general_matches_reference(narrow, qi, fld)
    assert_general_matches_reference(random_kernel(rng, g, 3), random_kernel(rng, g, n - 1), fld)


def test_general_route_tiles_a_right_stencil_in_wide_tiles():
    # from n=32 a stencil on the right takes trailing tiles of 16 rows: at
    # n = 34 its trailing axis ends in a tile of 2 rows, the leading one in
    # a tile of 2 of 4 rows, and the 40 padded rows of b in a depth tile of
    # 1 of 3; a wide factor times a narrow one ends in a trailing tile of 2
    # of 8 rows
    rng = np.random.default_rng(52)
    g = BoxGrid(dim=2, half_length=6.0, n=34)
    fld = MagneticField.constant_2d(0.9)
    wide, narrow = random_kernel(rng, g, 7), random_kernel(rng, g, 5)
    stencil = random_kernel(rng, g, 3, True)
    plans = [twisted_product(a, b, fld, tail_warn=np.inf).meta["tile_plan"]
             for a, b in ((wide, stencil), (wide, narrow))]
    assert plans == [{"lead": 4, "trail": 16, "depth": 3}, {"lead": 4, "trail": 8, "depth": 3}]
    assert_general_matches_reference(wide, stencil, fld)
    assert_general_matches_reference(wide, narrow, fld)


def test_general_route_tiles_a_padded_callable_under_a_variable_field():
    # the right factor's callable extends it past the box, so it is read on
    # padded rows, each dressed by the padded table of Λ; on a box of 6
    # nodes the natural window of 9 is clipped to 5
    g = BoxGrid(dim=2, half_length=3.0, n=14)
    _, psi = pair_on(g, 5, attach=True)
    wide = random_kernel(np.random.default_rng(49), g, 7)
    fld = variable_field()
    assert_general_matches_reference(wide, psi, fld, order=16)
    assert_general_matches_reference(*pair_on(BoxGrid(dim=2, half_length=1.5, n=6), 5), fld, order=16)


@pytest.mark.parametrize(
    "grid, fld",
    [
        (BoxGrid(dim=1, half_length=4.0, n=22), MagneticField.zero(1)),
        (
            BoxGrid(dim=3, half_length=3.0, n=6),
            MagneticField(
                dim=3, constant=np.array([[0.0, 0.7, -0.4], [-0.7, 0.0, 0.9], [0.4, -0.9, 0.0]])
            ),
        ),
    ],
    ids=["dim1", "dim3"],
)
def test_general_route_tiles_other_dimensions(grid, fld):
    # one axis has no trailing tiles and a partial leading one; three have
    # two trailing axes with a partial tile each; a right factor of n - 1
    # nodes gives a natural window the box clips
    rng = np.random.default_rng(50)
    da, db = (9, 5) if grid.dim == 1 else (5, 3)
    wide, narrow = random_kernel(rng, grid, da), random_kernel(rng, grid, db)
    stencil = random_kernel(rng, grid, 3, True)
    assert_general_matches_reference(wide, narrow, fld)
    assert_general_matches_reference(stencil, wide, fld)
    assert_general_matches_reference(wide, stencil, fld)
    assert_general_matches_reference(narrow, random_kernel(rng, grid, grid.n - 1), fld)


def test_general_route_pays_for_its_band():
    # the multiply-adds the GEMMs run at n=32, against an engine that ran
    # every trailing axis dense: 1.33e9 for a 31-window times a 31-window
    # kernel (the Neumann terms of the perturbed resolvent) and 4.73e8 for
    # the 3x3 stencil times a 31-window kernel (its residual check); the
    # tiles of their plans run 0.53 and 0.10 of these
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(51)
    wide = KernelSample(grid=g, values=rng.normal(size=(32, 32, 31, 31)) + 0j, sheet="tilde")
    stencil = KernelSample(grid=g, values=rng.normal(size=(3, 3)) + 0j, q_independent=True)
    fld = MagneticField.constant_2d(0.5)
    for (phi, psi), dense in (((wide, wide), 1.33e9), ((stencil, wide), 4.73e8)):
        prod = twisted_product(phi, psi, fld, sheet="tilde", tail_warn=np.inf)
        assert prod.disp_count == 31
        assert 0 < prod.meta["multiply_adds"] <= 0.6 * dense


def test_general_route_work_matches_its_plan():
    # two 31-node windows at n=32, the Neumann terms of the perturbed
    # resolvent: 4 leading by 8 trailing rows per tile and 4 rows of S per
    # depth tile.  Counted from the bands alone, per axis A[r,S] ≠ 0 for
    # 0 ≤ S - r + 15 < 31, B[S,T] ≠ 0 for 0 ≤ T - S < 31, and T is kept for
    # 0 ≤ T - r < 31: a leading tile runs a GEMM per depth tile whose rows S
    # meet both its rows and its kept columns T, over those rows and
    # columns; a trailing tile sums the whole band of S its rows meet in
    # the box, over every kept column.  Multiply-adds factor into the two
    # axes' sums
    n, d, oa = 32, 31, 15
    g = BoxGrid(dim=2, half_length=6.0, n=n)
    rng = np.random.default_rng(53)
    wide = KernelSample(grid=g, values=rng.normal(size=(n, n, d, d)) + 0j, sheet="tilde")
    prod = twisted_product(wide, wide, MagneticField.constant_2d(0.5), sheet="tilde", tail_warn=np.inf)
    plan = prod.meta["tile_plan"]
    assert plan == {"lead": 4, "trail": 8, "depth": 4}
    m, t, k = plan["lead"], plan["trail"], plan["depth"]
    lead_calls = lead = 0
    for s0 in range(0, n, k):
        srows = range(s0, s0 + k)
        for r0 in range(0, n, m):
            rows = range(r0, min(r0 + m, n))
            cols = [c for c in range(2 * n) if any(0 <= c - r < d for r in rows)
                    and any(0 <= c - s < d for s in srows)]
            met = [s for s in srows if any(0 <= s - r + oa < d for r in rows)
                   and any(0 <= c - s < d for c in cols)]
            if cols and met:
                lead_calls += 1
                lead += len(rows) * len(met) * len(cols)
    trail = [range(r0, min(r0 + t, n)) for r0 in range(0, n, t)]
    band = sum(len(r) * len(range(max(0, r[0] - oa), min(n, r[-1] - oa + d))) * (len(r) + d - 1)
               for r in trail)
    assert prod.meta["gemm_calls"] == lead_calls * len(trail) == 208
    assert prod.meta["multiply_adds"] == lead * band == 21312 * 32832


def test_stencil_products_run_few_gemms():
    # the residual checks of the n=32 perturbed resolvent multiply its
    # 31-node correction by the 3x3 stencil of h - z on either side; on the
    # right the stencil is read on padded rows, 62 per axis, in depth tiles
    # of 2, and 4 by 4-row tiles ran 1,088 GEMMs of 16 rows there (176 on
    # the left)
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(54)
    corr = KernelSample(grid=g, values=rng.normal(size=(32, 32, 31, 31)) + 0j, sheet="tilde")
    stencil = KernelSample(grid=g, values=rng.normal(size=(3, 3)) + 0j, q_independent=True)
    fld = MagneticField.constant_2d(0.5)
    right = twisted_product(corr, stencil, fld, sheet="tilde", tail_warn=np.inf)
    left = twisted_product(stencil, corr, fld, sheet="tilde", tail_warn=np.inf)
    assert right.meta["tile_plan"] == {"lead": 4, "trail": 16, "depth": 2}
    assert right.meta["gemm_calls"] <= 1088 // 3
    assert left.meta["tile_plan"] == {"lead": 2, "trail": 8, "depth": 4}
    assert left.meta["gemm_calls"] < 176


# ---------------------------------------------------------------------------
# sheared-sheet machinery against per-node loops
# ---------------------------------------------------------------------------


def shear_per_node(values, grid, h, scheme):
    """One ``shift_q`` per displacement node, the shear's definition."""
    dim = grid.dim
    d = values.shape[-1]
    out = np.empty(values.shape, dtype=complex)
    for j in np.ndindex(*(d,) * dim):
        steps = [h * (i - d // 2) for i in j]
        out[(Ellipsis,) + j] = shift_q(values[(Ellipsis,) + j], grid, steps, scheme=scheme)
    return out


def over_nodes(fill, mesh, grid, disp_count):
    """out[r; u] = fill(mesh, u), one call per displacement node u."""
    dax = grid.disp_axis(disp_count)
    out = np.empty(mesh.shape[:-1] + (disp_count,) * grid.dim, dtype=complex)
    for j in np.ndindex(*(disp_count,) * grid.dim):
        out[(Ellipsis,) + j] = fill(mesh, np.array([dax[i] for i in j]))
    return out


def lambda_per_node(pot, grid, disp_count, pad=0):
    return over_nodes(
        lambda r, u: np.exp(-1j * pot.circulation(r, u)),
        crossed._ext_mesh(grid, pad), grid, disp_count,
    )


def tilde_per_node(k, scheme, pad=0):
    if k.q_independent or k.func is None:
        return _tilde_values(k, scheme, pad)
    mesh = crossed._ext_mesh(k.grid, pad)
    return over_nodes(lambda r, u: k.func(r + 0.5 * u, u), mesh, k.grid, k.disp_count)


def multiply_per_node(v, other, h, scheme, tilde):
    """The multiplier product with one call of v's callable per node."""
    if v.q_independent or not (h and v.func is not None):
        return _multiply(v, other, h, scheme, tilde)
    grid = v.grid
    vv = over_nodes(
        lambda r, u: v.func(r + 0.5 * h * u, np.zeros(grid.dim)) * grid.cell_volume,
        grid.mesh(), grid, other.disp_count,
    )
    return vv * (_tilde_values(other, scheme) if tilde else other.values)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ["linear", "cubic"])
@pytest.mark.parametrize("bc", ["truncated", "periodic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shear_matches_per_node_shift(dim, bc, scheme):
    # one pass per axis over slabs gives the per-node shift bit for bit, as
    # a fresh C-contiguous array or rewritten in place
    g = BoxGrid(dim=dim, half_length=2.0, n=8, bc=bc)
    rng = np.random.default_rng(60 + dim)
    for d in (1, 3, 7):
        shape = (8,) * dim + (d,) * dim
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for h in (-2, -1, 1, 2):
            want = shear_per_node(values, g, h, scheme)
            got = _shear(values, g, h, scheme)
            assert got.flags.c_contiguous and same_bits(got, want), (d, h)
            work = values.copy()
            assert _shear(work, g, h, scheme, inplace=True) is work
            assert same_bits(work, want), (d, h)


def test_shear_holds_one_buffer_besides_its_input():
    # n=32 with a 31-node window, the resolvent products' size: the input
    # and the output are the two full-size buffers (15.7 MB each) and the
    # slabs add a few 0.5 MB temporaries; in place only the slabs remain
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(61)
    values = rng.normal(size=(32, 32, 31, 31)) + 1j * rng.normal(size=(32, 32, 31, 31))
    full, slab = values.nbytes, values.nbytes / 31
    for inplace, bound in ((False, full + 4 * slab), (True, 4 * slab)):
        peak, _ = traced_peak(lambda: _shear(values, g, 1, "linear", inplace=inplace))
        assert peak <= bound, (inplace, peak)


def test_shear_rejects_unknown_scheme():
    g = BoxGrid(dim=1, half_length=2.0, n=8)
    with pytest.raises(ValueError, match="scheme"):
        _shear(np.ones((8, 3), dtype=complex), g, 2, "quintic")


def test_pair_tables_match_per_node_loops():
    # Λ tables and callable tilde values come in blocks of node pairs; each
    # pair's triangle flux sums its quadrature nodes in a fixed order, so
    # the tables equal one call per displacement node bit for bit
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    pot = transversal_gauge(variable_field())
    phi, _ = pair_on(g, 7)
    for count, pad in ((7, 0), (11, 3), (1, 2)):
        assert same_bits(_lambda_factors(pot, g, count, pad=pad), lambda_per_node(pot, g, count, pad))
    for pad in (0, 3):
        assert same_bits(_tilde_values(phi, "linear", pad), tilde_per_node(phi, "linear", pad))


def test_products_and_bands_match_per_node_loops(monkeypatch):
    # the variable-field product (dressing tables, a callable left factor
    # and a padded callable right one), the multiplier products and
    # rep_banded against the same routes with every per-node loop put back
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    fld = variable_field()
    pot = transversal_gauge(fld)
    phi, psi = pair_on(g, 5)
    v = multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g)
    cases = [(phi, psi), (v, psi), (psi, v)]

    def run():
        prods = [
            twisted_product(a, b, fld, sheet=sheet, tail_warn=np.inf)
            for a, b in cases for sheet in ("centered", "tilde")
        ]
        return [p.values for p in prods] + [rep_banded(pot, phi).to_dense()]

    blocked = run()
    monkeypatch.setattr(crossed, "_lambda_factors", lambda_per_node)
    monkeypatch.setattr(crossed, "_tilde_values", tilde_per_node)
    monkeypatch.setattr(crossed, "_multiply", multiply_per_node)
    for got, want in zip(blocked, run()):
        assert same_bits(got, want)


def test_variable_field_product_builds_one_table_per_window(monkeypatch):
    # one Λ table at the widest window serves the left factor, the output
    # and an unpadded right factor, cut centrally; a padded right factor
    # (here one with a callable) adds a table of its own; on a box of 6
    # nodes the output is clipped to the factors' 5
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    fld = variable_field()
    pot = transversal_gauge(fld)
    tables = []

    def spy(pot, grid, count, pad=0):
        tables.append((count, pad))
        return _lambda_factors(pot, grid, count, pad)

    monkeypatch.setattr(crossed, "_lambda_factors", spy)
    arrays, callables = pair_on(g, 5, attach=False), pair_on(g, 5)
    clipped = pair_on(BoxGrid(dim=2, half_length=1.5, n=6), 5, attach=False)
    for (phi, psi), want in ((arrays, [(9, 0)]), (clipped, [(5, 0)]), (callables, [(9, 0), (5, 2)])):
        tables.clear()
        twisted_product(phi, psi, fld, tail_warn=np.inf)
        assert tables == want
    # the cut equals the table of the narrower window bit for bit
    wide = _lambda_factors(pot, g, 9)
    for count in (3, 5, 7):
        assert same_bits(crossed._fit_window(wide, count, 2), _lambda_factors(pot, g, count))


def test_tilde_tagged_factor_gives_the_same_product():
    # a factor handed over on the tilde sheet is read as stored: the general
    # route reads every factor sheared, so the product equals that of the
    # centered source bit for bit, on both output sheets and either side
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, psi = pair_on(g, 5, attach=False)
    phi_t, psi_t = _to_tilde(phi), _to_tilde(psi)
    assert phi_t.sheet == "tilde" and phi_t.func is None
    for fld in (MagneticField.constant_2d(0.9), variable_field()):
        for sheet in ("centered", "tilde"):
            want = twisted_product(phi, psi, fld, sheet=sheet, tail_warn=np.inf).values
            for a, b in ((phi_t, psi), (phi, psi_t), (phi_t, psi_t)):
                got = twisted_product(a, b, fld, sheet=sheet, tail_warn=np.inf)
                assert got.sheet == sheet and same_bits(got.values, want)
    # the multiplier route: a tagged multiplier (a one-node window shears to
    # itself) on both output sheets, and a tagged other factor with tilde
    # output, on the left and on the right
    fld = MagneticField.constant_2d(0.9)
    bump = multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g)
    v = KernelSample(grid=g, values=bump.values)
    v_t = _to_tilde(v)
    assert same_bits(v_t.values, v.values)
    for sheet in ("centered", "tilde"):
        for a, b, a_t, b_t in ((v, psi, v_t, psi), (psi, v, psi, v_t)):
            want = twisted_product(a, b, fld, sheet=sheet).values
            assert same_bits(twisted_product(a_t, b_t, fld, sheet=sheet).values, want)
    for a, b, a_t, b_t in ((bump, psi, bump, psi_t), (psi, bump, psi_t, bump)):
        want = twisted_product(a, b, fld, sheet="tilde").values
        assert same_bits(twisted_product(a_t, b_t, fld, sheet="tilde").values, want)
        # centered output from a tagged other factor: the tilde output sheared back
        got = twisted_product(a_t, b_t, fld).values
        assert same_bits(got, _shear(want, g, -1, "linear"))


def test_tilde_tagged_factor_with_callable():
    # the callable wins on either sheet, so a tagged factor that keeps one
    # reads it (padded when it is the right factor) like its centered source
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, psi = pair_on(g, 5)
    tagged = [KernelSample(grid=g, values=_tilde_values(k, "linear"), func=k.func, sheet="tilde")
              for k in (phi, psi)]
    bump = multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g)
    for fld in (MagneticField.constant_2d(0.9), variable_field()):
        for sheet in ("centered", "tilde"):
            want = twisted_product(phi, psi, fld, sheet=sheet, tail_warn=np.inf).values
            for a, b in ((tagged[0], psi), (phi, tagged[1]), tagged):
                got = twisted_product(a, b, fld, sheet=sheet, tail_warn=np.inf).values
                assert same_bits(got, want)
    fld = MagneticField.constant_2d(0.9)
    for a, b, a_t, b_t in ((bump, psi, bump, tagged[1]), (psi, bump, tagged[1], bump)):
        want = twisted_product(a, b, fld, sheet="tilde").values
        assert same_bits(twisted_product(a_t, b_t, fld, sheet="tilde").values, want)


def test_multiplier_with_h0_broadcasts_its_samples(monkeypatch):
    # (v ⋄ ψ)~(r;x) = v(r) ψ~(r;x) reads v's samples unshifted: the same
    # bits as a shear by 0 per displacement node, with no shear at all
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    _, psi = pair_on(g, 5)
    hs = []
    monkeypatch.setattr(crossed, "_shear", lambda values, grid, h, *a, **kw: (
        hs.append(h) or _shear(values, grid, h, *a, **kw)))
    for v in (multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g),
              KernelSample(grid=g, values=np.random.default_rng(48).normal(size=(12, 12, 1, 1)) + 0.2j)):
        vq = v.values[..., 0, 0] * g.cell_volume
        vv = shear_per_node(np.broadcast_to(vq[..., None, None], (12, 12, 5, 5)), g, 0, "linear")
        want = vv * _tilde_values(psi, "linear")
        assert same_bits(_multiply(v, psi, 0, "linear", True), want)
        prod = twisted_product(v, psi, MagneticField.constant_2d(0.9), sheet="tilde")
        assert same_bits(prod.values, want)
    assert hs == []


def multiply_sheared_broadcast(v, other, h, scheme, tilde):
    """The multiplier product as one full-size array of v's shifted values:
    v's callable at q + h·x/2 per leading displacement index, or its
    samples broadcast over the displacements and sheared by h, times the
    other factor's values."""
    grid = v.grid
    dim = grid.dim
    vals = _tilde_values(other, scheme) if tilde else other.values
    d = other.disp_count
    shape = (grid.n,) * dim + (d,) * dim
    if h and v.func is not None:
        mesh = grid.mesh().reshape((grid.n,) * dim + (1,) * (dim - 1) + (dim,))
        disp = crossed._disp_nodes(grid, d).reshape((d,) * dim + (dim,))
        vv = np.empty(shape, dtype=complex)
        for j in range(d):
            vv[(Ellipsis, j) + (slice(None),) * (dim - 1)] = (
                v.func(mesh + 0.5 * h * disp[j], np.zeros(dim)) * grid.cell_volume
            )
    else:
        vv = (v.values[(Ellipsis,) + (0,) * dim] * grid.cell_volume)[(Ellipsis,) + (None,) * dim]
        if h:
            vv = _shear(np.broadcast_to(vv, shape), grid, h, scheme)
    return vv * vals


@pytest.mark.parametrize("bc", ["truncated", "periodic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multiplier_slabs_match_the_sheared_broadcast(dim, bc):
    # the multiplier fills its output one displacement slab at a time and
    # shifts v's samples in the shear's axis order, so every shift h, with
    # and without a callable, gives the full sheared broadcast bit for bit
    g = BoxGrid(dim=dim, half_length=2.0, n=8, bc=bc)
    rng = np.random.default_rng(73 + dim)
    bump = multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)) + 0.1j * q[..., 0], g)
    samples = KernelSample(grid=g, values=rng.normal(size=(8,) * dim + (1,) * dim) + 0.3j)
    for d in (1, 3, 5):
        dep = KernelSample(grid=g, values=rng.normal(size=(8,) * dim + (d,) * dim)
                           + 1j * rng.normal(size=(8,) * dim + (d,) * dim))
        indep = KernelSample(grid=g, values=rng.normal(size=(d,) * dim) + 0.5j, q_independent=True)
        for v in (bump, samples):
            for other in (dep, indep):
                for h in (-1, 1, 0, 2):
                    for scheme in ("linear", "cubic"):
                        for tilde in (False, True):
                            want = multiply_sheared_broadcast(v, other, h, scheme, tilde)
                            got = _multiply(v, other, h, scheme, tilde)
                            assert np.array_equal(got, want), (d, h, scheme, tilde)
                            assert same_bits(got, want)


def test_right_multiplier_on_the_tilde_sheet_fills_slabs():
    # φ ⋄ V on the tilde sheet at the n=32 resolvent's window: the output
    # (15.7 MB) and slab temporaries, with and without V's callable; the
    # sheared broadcast of V was a second full-size array (2.0x)
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(74)
    psi = KernelSample(grid=g, values=rng.normal(size=(32, 32, 31, 31)) + 0j, sheet="tilde")
    bump = multiplier_kernel(lambda q: 0.3 * np.exp(-np.sum(q * q, axis=-1)), g)
    fld = MagneticField.constant_2d(0.5)
    for v in (bump, KernelSample(grid=g, values=bump.values)):
        peak, out = traced_peak(lambda: twisted_product(psi, v, fld, sheet="tilde"))
        assert peak <= 1.1 * out.values.nbytes, peak / out.values.nbytes


def lincomb_by_hand(terms):
    """Σ c_i φ_i written out: zeros on the widest window (with base axes
    unless every term is base-point independent), then out = out + c·values
    on each term's central part, the independent terms broadcast."""
    grid = terms[0][1].grid
    dim = grid.dim
    q_independent = all(k.q_independent for _, k in terms)
    count = max(k.disp_count for _, k in terms)
    out = np.zeros(((grid.n,) * dim if not q_independent else ()) + (count,) * dim, dtype=complex)
    for c, k in terms:
        kk = (count - k.disp_count) // 2
        sl = (Ellipsis,) + (slice(kk, count - kk),) * dim
        out[sl] = out[sl] + complex(c) * (k.values if q_independent else k.as_q_dependent())
    return out


def test_kernel_lincomb_matches_explicit_sums():
    # ±1 and complex coefficients over mixed windows, base-point independent
    # terms broadcast into dependent sums, on either sheet: the values of the
    # sum written out, the dependent terms' sheet and the weighted tails
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    rng = np.random.default_rng(75)

    def dep(d, sheet):
        shape = (12, 12, d, d)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return KernelSample(grid=g, values=values, sheet=sheet, tail_mass=rng.uniform())

    def indep(d):
        values = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return KernelSample(grid=g, values=values, q_independent=True, tail_mass=rng.uniform())

    for sheet in ("centered", "tilde"):
        a, b, c, e = dep(5, sheet), indep(7), dep(9, sheet), indep(3)
        for terms in (
            [(1.0, a), (-1.0, b), (0.3 - 1.7j, c), (2.5, e)],
            [(1.0, a), (1.0, b)],
            [(-1.0, e), (0.3 - 1.7j, c), (1.0, e)],
            [(-1.0, b), (0.5j, e), (1.0, b)],
        ):
            got = kernel_lincomb(terms)
            assert np.array_equal(got.values, lincomb_by_hand(terms))
            assert got.q_independent == all(k.q_independent for _, k in terms)
            if not got.q_independent:
                assert got.sheet == sheet
            tail = 0.0
            for coeff, k in terms:
                tail += abs(complex(coeff)) * k.tail_mass
            assert got.tail_mass == tail


def test_kernel_lincomb_makes_no_full_size_temporary():
    # a base-point dependent sum at the n=32 resolvent's window: the output
    # (15.7 MB) is the one full-size array, whether a base-point independent
    # term is broadcast into it or a dependent one is scaled; scaling each
    # term, by 1 included, and broadcasting it made one more (2.0x)
    g = BoxGrid(dim=2, half_length=6.0, n=32)
    rng = np.random.default_rng(76)
    dep = KernelSample(grid=g, values=rng.normal(size=(32, 32, 31, 31)) + 0j)
    indep = KernelSample(grid=g, values=rng.normal(size=(31, 31)) + 0j, q_independent=True)
    for terms in ([(1.0, dep), (1.0, indep)], [(-1.0, indep), (0.5j, dep), (-1.0, dep)]):
        peak, out = traced_peak(lambda: kernel_lincomb(terms))
        assert peak <= 1.1 * out.values.nbytes, peak / out.values.nbytes

def test_qindep_const_fast_path_matches_reference():
    rng = np.random.default_rng(33)
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    phi = KernelSample(grid=g, values=a, q_independent=True)
    psi = KernelSample(grid=g, values=b, q_independent=True)
    fld = MagneticField.constant_2d(0.9)
    p = twisted_product(phi, psi, fld)
    r = twisted_product_reference(phi, psi, fld)
    assert p.q_independent and r.q_independent
    assert np.abs(p.values - r.values).max() < 1e-12


def test_clipped_qindep_const_product_keeps_window_and_bounds_tail():
    # a natural window of 11 nodes that the box clips to its 7: the kept
    # nodes match the reference on a box of the same step that holds all
    # 11, and the recorded tail bounds the exact clipped L1 mass
    rng = np.random.default_rng(43)
    g = BoxGrid(dim=2, half_length=2.0, n=8)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    phi = KernelSample(grid=g, values=a, q_independent=True)
    psi = KernelSample(grid=g, values=b, q_independent=True)
    fld = MagneticField.constant_2d(0.9)
    with pytest.warns(UserWarning, match="discarded"):
        p = twisted_product(phi, psi, fld)
    wide = BoxGrid(dim=2, half_length=3.0, n=12)
    full = twisted_product_reference(replace(phi, grid=wide), replace(psi, grid=wide), fld)
    assert p.disp_count == 7 < full.disp_count == 11
    kept = full.values[2:9, 2:9]
    assert np.abs(p.values - kept).max() < 1e-12
    exact = (np.abs(full.values).sum() - np.abs(kept).sum()) * g.cell_volume
    assert exact > 0
    assert p.tail_mass >= exact


# sup arrays of d nodes per axis: unequal windows, a single node, all zero
CONVOLUTION_CASES = [(5, 3, False), (3, 5, False), (7, 7, False), (1, 5, False),
                     (5, 1, False), (1, 1, False), (5, 3, True)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("da,db,zero", CONVOLUTION_CASES)
def test_clip_convolution_matches_fftconvolve(dim, da, db, zero):
    # _clip_mass reads the clipped mass from box sums; the direct
    # O(d^(2N)) sup-convolution and SciPy's FFT one give it as well
    rng = np.random.default_rng(100 * dim + 10 * da + db)
    a = rng.random((da,) * dim)
    b = np.zeros((db,) * dim) if zero else rng.random((db,) * dim)
    direct = np.zeros((da + db - 1,) * dim)
    for y in np.ndindex(a.shape):
        for w in np.ndindex(b.shape):
            direct[tuple(i + j for i, j in zip(y, w))] += a[y] * b[w]
    total = direct.sum()
    mid = (da + db - 2) // 2
    for keep in range(1, da + db + 2, 2):
        got = _clip_mass(a, b, keep, 0.5)
        if keep >= da + db - 1:
            assert got == 0.0
        kk = min(keep // 2, mid)
        sl = (slice(mid - kk, mid + kk + 1),) * dim
        for full in (direct, fftconvolve(a, b)):
            want = max(full.sum() - full[sl].sum(), 0.0) * 0.25
            assert abs(got - want) <= 1e-12 * max(1.0, total)


def run_fresh(code):
    """Standard output of ``code`` in a fresh interpreter on this sys.path."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.split()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_signal_or_spline_modules():
    # nor any other scipy module; the sparse form of rep loads scipy.sparse
    # on its first call, and not scipy.linalg
    code = f"""
import sys
import numpy as np
import magweyl as mw
print({SCIPY_MODULES})
g = mw.BoxGrid(dim=2, half_length=3.0, n=8)
k = mw.KernelSample(grid=g, values=np.ones((3, 3), dtype=complex), q_independent=True)
mw.rep_banded(mw.transversal_gauge(mw.MagneticField.constant_2d(0.5)), k)
print("scipy.sparse" in sys.modules, "scipy.linalg" in sys.modules)
"""
    assert run_fresh(code) == ["[]", "True", "False"]


def test_products_load_no_scipy_and_eig_loads_linalg():
    code = f"""
import sys, warnings
import numpy as np
import magweyl as mw
warnings.simplefilter("ignore")
g = mw.BoxGrid(dim=2, half_length=3.0, n=12)
fld = mw.MagneticField.constant_2d(0.5)
h = lambda p: 1.0 + np.sum(2.0 * (1.0 - np.cos(p * g.delta)), axis=-1) / g.delta**2
mw.resolvent(h, fld, g, -1.0 + 1.0j, a0=0.0)
rng = np.random.default_rng(0)
small = mw.BoxGrid(dim=2, half_length=2.0, n=8)
a, b = (mw.KernelSample(grid=small, values=rng.normal(size=(d, d)) + 0j, q_independent=True)
        for d in (7, 5))
assert mw.twisted_product(a, b, fld).tail_mass > 0
f = lambda q, x: np.exp(-np.sum(q * q, axis=-1) / 4 - np.sum(x * x, axis=-1))
k = mw.kernel_from_func(f, g, disp_count=5)
mw.twisted_product(k, k, mw.MagneticField.from_scalar_2d(lambda p: 1.0 + np.exp(-np.sum(p * p, axis=-1))))
print({SCIPY_MODULES})
res = mw.eig(mw.assemble(mw.SchrodingerSpec(h=h, field=fld, grid=g)), (0.0, 4.0))
print("scipy.linalg" in sys.modules, len(res.values))
"""
    before, linalg, count = run_fresh(code)
    assert before == "[]"
    assert linalg == "True" and int(count) > 0


def qindep_pair(g, da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(da,) * g.dim) + 1j * rng.normal(size=(da,) * g.dim)
    b = rng.normal(size=(db,) * g.dim) + 1j * rng.normal(size=(db,) * g.dim)
    return KernelSample(grid=g, values=a, q_independent=True), KernelSample(grid=g, values=b, q_independent=True)


def assert_matches_reference(phi, psi, fld):
    p = twisted_product(phi, psi, fld, tail_warn=np.inf)
    r = twisted_product_reference(phi, psi, fld)
    assert p.q_independent and r.q_independent
    assert p.values.shape == r.values.shape
    assert np.abs(p.values - r.values).max() < 1e-12 * np.abs(r.values).max()
    assert p.disp_count == min(phi.disp_count + psi.disp_count - 1, phi.grid.max_disp_count())


@pytest.mark.parametrize("da, db", [(7, 5), (3, 15)], ids=["natural", "clipped"])
def test_gemm_route_dim1_zero_field(da, db):
    # one axis: no leading axes, the product is a single 1-D convolution;
    # the box clips the natural window of 3x15 to 15 nodes
    g = BoxGrid(dim=1, half_length=4.0, n=16)
    phi, psi = qindep_pair(g, da, db, seed=50)
    assert_matches_reference(phi, psi, MagneticField.zero(1))


@pytest.mark.parametrize(
    "da, db", [(7, 7), (3, 11), (11, 3), (3, 21)], ids=["equal", "3x11", "11x3", "clipped"]
)
def test_gemm_route_constant_field_2d(da, db):
    # the box clips the natural window of 3x21 to 21 nodes, so the
    # Toeplitz matrices drop a column on either side
    g = BoxGrid(dim=2, half_length=3.0, n=22)
    phi, psi = qindep_pair(g, da, db, seed=51)
    assert_matches_reference(phi, psi, MagneticField.constant_2d(0.9))


@pytest.mark.parametrize("da, db", [(3, 5), (5, 5), (3, 7)], ids=["natural", "clipped", "3x7"])
def test_gemm_route_constant_field_3d(da, db):
    # only three axes exercise the phase between the leading axes x', y'
    g = BoxGrid(dim=3, half_length=3.0, n=8)
    bmat = np.array([[0.0, 0.7, -0.4], [-0.7, 0.0, 0.9], [0.4, -0.9, 0.0]])
    phi, psi = qindep_pair(g, da, db, seed=52)
    assert_matches_reference(phi, psi, MagneticField(dim=3, constant=bmat))


def test_gemm_route_memory_is_blocked():
    # one GEMM per leading row of the right factor: besides the output,
    # the modulation tables and the padded rows of the right factor, only
    # one row box of the left factor, its Toeplitz matrix and its product
    # are alive; one product at the n=48 resolvent's window peaks near
    # 0.4 MB
    g = BoxGrid(dim=2, half_length=6.0, n=48)
    k = kernel_from_func(lambda q, x: np.exp(-np.sum(x * x, axis=-1)), g, q_independent=True)
    fld = MagneticField.constant_2d(0.5)
    assert k.disp_count == 47
    twisted_product(k, k, fld)
    peak, _ = traced_peak(lambda: twisted_product(k, k, fld))
    assert peak <= 5e6


def test_gemm_route_zero_field_2d():
    g = BoxGrid(dim=2, half_length=3.0, n=22)
    phi, psi = qindep_pair(g, 7, 9, seed=55)
    assert_matches_reference(phi, psi, MagneticField.zero(2))


def test_gemm_route_counts_its_multiply_adds():
    # the pairs of leading rows (x', y') whose row x' - y' - off lies in
    # b's window, each a GEMM row of d_a by out multiply-adds: at most
    # 47^4 for the resolvent's 47-node windows, the count if every pair met
    # b's window
    g = BoxGrid(dim=2, half_length=6.0, n=48)
    phi, psi = qindep_pair(g, 47, 47, seed=57)
    p = twisted_product(phi, psi, MagneticField.constant_2d(0.5), tail_warn=np.inf)
    out = p.disp_count
    off = out // 2 - 47 // 2 - 47 // 2
    x, y = np.meshgrid(np.arange(out), np.arange(47), indexing="ij")
    pairs = int(np.sum((x - y - off >= 0) & (x - y - off < 47)))
    assert out == 47 and pairs == 1657
    assert p.meta["multiply_adds"] == pairs * 47 * out <= 47**4


def test_centered_route_agreement_refines():
    # recentering interpolates on odd displacement rows; the gap to the
    # exact route must shrink with the step
    fld = MagneticField.constant_2d(0.9)
    errs = []
    for n, dc in [(12, 7), (24, 13)]:
        g = BoxGrid(dim=2, half_length=3.0, n=n)
        phi, psi = pair_on(g, dc)
        p = twisted_product(phi, psi, fld, scheme="cubic")
        r = twisted_product_reference(phi, psi, fld)
        errs.append(np.abs(p.values[..., 3, 3] - r.values[..., 3, 3]).max())
    assert errs[1] < errs[0] / 2.5


def test_reference_centered_branch_reads_stored_values_exactly_for_linear_kernels():
    # linear half steps interpolate a kernel linear in q exactly, so on base
    # points at least one window radius inside the box, where no shifted
    # read leaves it, the reference's centered branch gives the same product
    # from stored values (shift_q) as from the exact callables
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    fld = MagneticField.constant_2d(0.9)

    def linear(c, slope, amp):
        def f(q, x):
            q, x = np.asarray(q, float), np.asarray(x, float)
            return amp * (c + q @ np.asarray(slope)) * np.exp(-np.sum(x * x, axis=-1)) * (1.0 + 0.3j)

        return f

    funcs = (linear(1.0, [0.3, -0.2], 1.0), linear(0.5, [-0.1, 0.25], 0.7))
    exact = [kernel_from_func(f, g, disp_count=5) for f in funcs]
    stored = [replace(k, func=None) for k in exact]
    want = twisted_product_reference(*exact, fld).values
    got = twisted_product_reference(*stored, fld).values
    inner = (slice(2, -2),) * 2
    scale = np.abs(want[inner]).max()
    assert np.abs(got[inner] - want[inner]).max() <= 1e-12 * scale
    # at the edge the stored values zero-extend, so the check reads a difference
    assert np.abs(got - want).max() > 1e-3 * scale


def test_delta_is_two_sided_unit():
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    dl = delta_kernel(g)
    fld = variable_field()
    phi, _ = pair_on(g, 7)
    for k in (phi, phi_as_array(phi)):
        left = twisted_product(dl, k, fld)
        right = twisted_product(k, dl, fld)
        assert np.abs(left.values - k.values).max() == 0.0
        assert np.abs(right.values - k.values).max() == 0.0


def test_delta_is_the_multiplier_of_one_and_no_product_reads_its_callable():
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    dl = delta_kernel(g)
    one = multiplier_kernel(lambda q: np.ones(np.shape(q)[:-1]), g)
    assert dl.q_independent and dl.values.shape == (1, 1)
    assert dl.values[0, 0] == 1.0 / g.cell_volume
    assert np.array_equal(dl.values, one.values)

    def boom(q, x):
        raise AssertionError("a product read a base-point independent factor's callable")

    silent = replace(dl, func=boom)
    fld = variable_field()
    phi, _ = pair_on(g, 7)
    for sheet in ("centered", "tilde"):
        for k in (phi, phi_as_array(phi)):
            assert np.array_equal(twisted_product(silent, k, fld, sheet=sheet).values,
                                  twisted_product(dl, k, fld, sheet=sheet).values)
            assert np.array_equal(twisted_product(k, silent, fld, sheet=sheet).values,
                                  twisted_product(k, dl, fld, sheet=sheet).values)


def phi_as_array(k):
    return KernelSample(grid=k.grid, values=k.values.copy(), q_independent=k.q_independent)


def test_multiplier_closed_form_matches_reference():
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    fld = variable_field()
    _, psi = pair_on(g, 7)
    v = multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g)
    left = twisted_product(v, psi, fld)
    right = twisted_product(psi, v, fld)
    lref = twisted_product_reference(v, psi, fld)
    rref = twisted_product_reference(psi, v, fld)
    assert np.abs(left.values - lref.values).max() < 1e-12
    assert np.abs(right.values - rref.values).max() < 1e-12


def test_tail_mass_recorded_and_warns():
    rng = np.random.default_rng(34)
    # the box clips the natural window of 13 nodes to 7
    g = BoxGrid(dim=2, half_length=2.0, n=8)
    a = rng.normal(size=(7, 7))
    phi = KernelSample(grid=g, values=a, q_independent=True)
    with pytest.warns(UserWarning, match="discarded"):
        prod = twisted_product(phi, phi, MagneticField.zero(2))
    assert prod.tail_mass > 0
    assert prod.meta.get("tail_warning")


def test_product_submultiplicative_l1():
    # linear interpolation never overshoots, so the norm inequality is exact
    rng = np.random.default_rng(35)
    g = BoxGrid(dim=1, half_length=4.0, n=16)
    fld = MagneticField.zero(1)
    for _ in range(5):
        a = rng.normal(size=(16, 7)) + 1j * rng.normal(size=(16, 7))
        b = rng.normal(size=(16, 7)) + 1j * rng.normal(size=(16, 7))
        phi = KernelSample(grid=g, values=a)
        psi = KernelSample(grid=g, values=b)
        prod = twisted_product(phi, psi, fld)
        assert l1_norm(prod) <= l1_norm(phi) * l1_norm(psi) + prod.tail_mass + 1e-10


def test_products_refuse_periodic_boxes():
    # the shear wraps base points around a periodic box, but the product
    # zero-extends its factors past the box: both routes must refuse
    rng = np.random.default_rng(36)
    g = BoxGrid(dim=1, half_length=4.0, n=16, bc="periodic")
    phi = KernelSample(grid=g, values=rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5)))
    psi = KernelSample(grid=g, values=rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5)))
    for route in (twisted_product, twisted_product_reference):
        with pytest.raises(ValueError, match="periodic box"):
            route(phi, psi, MagneticField.zero(1), sheet="tilde")


def test_product_refuses_an_unknown_sheet():
    phi, psi = pair_on(BoxGrid(dim=2, half_length=3.0, n=8), 3)
    with pytest.raises(ValueError, match="sheet must be 'centered' or 'tilde'"):
        twisted_product(phi, psi, MagneticField.zero(2), sheet="sheared")


def test_every_product_path_refuses_an_unknown_scheme():
    # the general path, the constant-field FFT path of two base-point
    # independent kernels, and a centered product with a multiplier factor
    rng = np.random.default_rng(52)
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    qd, qi = random_kernel(rng, g, 3), random_kernel(rng, g, 3, True)
    v = multiplier_kernel(lambda q: 1.0 + q[..., 0] ** 2, g)
    for pair in ((qd, qd), (qi, qi), (v, qd), (qd, v)):
        for route in (twisted_product, twisted_product_reference):
            with pytest.raises(ValueError, match="scheme must be"):
                route(*pair, MagneticField.constant_2d(0.5), scheme="bogus")


# ---------------------------------------------------------------------------
# sheet tag
# ---------------------------------------------------------------------------


def tilde_product():
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    phi, psi = pair_on(g, 5)
    return twisted_product(phi, psi, variable_field(), sheet="tilde")


def test_sheet_tag_survives_copy_lincomb_and_trim():
    prod = tilde_product()
    pot = transversal_gauge(variable_field())
    want = rep(pot, prod).mat
    copies = [
        prod.copy(),
        kernel_lincomb([(1.0, prod)]),
        kernel_lincomb([(1.0, prod), (0.0, delta_kernel(prod.grid))]),
        trim_kernel(prod, rel_tol=1e-2),
    ]
    assert copies[-1].disp_count < prod.disp_count
    for k in copies:
        assert k.sheet == "tilde"
    for k in copies[:3]:
        assert np.array_equal(rep(pot, k).mat, want)


def test_sheet_tag_refusals():
    prod = tilde_product()
    fld = variable_field()
    centered, _ = pair_on(prod.grid, 5)
    for call in (
        lambda: twisted_product_reference(prod, centered, fld),
        lambda: twisted_product_reference(centered, prod, fld, sheet="tilde"),
        lambda: twisted_involution(prod),
        lambda: partial_fourier(prod),
    ):
        with pytest.raises(ValueError, match="tilde sheet"):
            call()
    with pytest.raises(ValueError, match="different sheets"):
        kernel_lincomb([(1.0, prod), (1.0, centered)])
    with pytest.raises(ValueError, match="sheet must be"):
        KernelSample(grid=prod.grid, values=prod.values, sheet="sheared")


def test_base_point_independent_tilde_kernel_is_accepted():
    # shear-invariant values: the tag may be either and the product agrees
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    vals = np.random.default_rng(44).normal(size=(5, 5)) + 0j
    fld = MagneticField.constant_2d(0.5)
    plain = KernelSample(grid=g, values=vals, q_independent=True)
    tagged = KernelSample(grid=g, values=vals, q_independent=True, sheet="tilde")
    p = twisted_product(tagged, tagged, fld)
    assert np.array_equal(p.values, twisted_product(plain, plain, fld).values)
    assert np.array_equal(twisted_involution(tagged).values, twisted_involution(plain).values)


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------


def test_involution_is_involutive():
    rng = np.random.default_rng(36)
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    vals = rng.normal(size=(8, 8, 5, 5)) + 1j * rng.normal(size=(8, 8, 5, 5))
    k = KernelSample(grid=g, values=vals)
    back = twisted_involution(twisted_involution(k))
    assert np.abs(back.values - k.values).max() == 0.0
    assert l1_norm(back) == l1_norm(k)


def test_involution_fixed_point_real_even():
    g = BoxGrid(dim=1, half_length=3.0, n=8)
    x = g.disp_axis(5)
    vals = np.exp(-np.abs(x))
    k = KernelSample(grid=g, values=np.broadcast_to(vals, (8, 5)).copy())
    flipped = twisted_involution(k)
    assert np.abs(flipped.values - k.values).max() == 0.0


def test_involution_antihomomorphism_on_tilde_sheet():
    # (phi <> psi)^inv ~(r;x) = conj((phi <> psi)~(r+x;-x)), all on-lattice
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    phi, psi = pair_on(g, 5)
    fld = variable_field()
    P = twisted_product(phi, psi, fld, sheet="tilde")
    Q = twisted_product(twisted_involution(psi), twisted_involution(phi), fld, sheet="tilde")
    d = P.disp_count
    kk = d // 2
    n = g.n
    worst = 0.0
    for j1 in range(d):
        for j2 in range(d):
            s1, s2 = j1 - kk, j2 - kk
            r1 = np.arange(max(0, -s1), n - max(0, s1))
            r2 = np.arange(max(0, -s2), n - max(0, s2))
            lhs = Q.values[np.ix_(r1, r2)][:, :, j1, j2]
            rhs = np.conj(P.values[np.ix_(r1 + s1, r2 + s2)][:, :, d - 1 - j1, d - 1 - j2])
            worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12


def test_rep_star_property():
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    phi, _ = pair_on(g, 5, attach=False)
    pot = transversal_gauge(variable_field())
    M = rep(pot, phi).mat
    Ms = rep(pot, twisted_involution(phi)).mat
    assert np.abs(Ms - M.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# L1 norm
# ---------------------------------------------------------------------------


def test_l1_norm_zero():
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    k = KernelSample(grid=g, values=np.zeros((5, 5)), q_independent=True)
    assert l1_norm(k) == 0.0


def test_l1_norm_gaussian_analytic():
    # q-independent Gaussian in x: the norm is the plain integral
    g = BoxGrid(dim=1, half_length=6.0, n=96)
    s = 0.6
    x = g.disp_axis(g.max_disp_count())
    vals = np.exp(-(x**2) / (2 * s**2))
    k = KernelSample(grid=g, values=vals, q_independent=True)
    exact = np.sqrt(2 * np.pi) * s
    assert abs(l1_norm(k) - exact) < 1e-6


def test_l1_norm_triangle_inequality():
    rng = np.random.default_rng(37)
    g = BoxGrid(dim=1, half_length=3.0, n=12)
    for _ in range(10):
        a = rng.normal(size=(12, 7)) + 1j * rng.normal(size=(12, 7))
        b = rng.normal(size=(12, 7)) + 1j * rng.normal(size=(12, 7))
        ka = KernelSample(grid=g, values=a)
        kb = KernelSample(grid=g, values=b)
        s = kernel_lincomb([(1.0, ka), (1.0, kb)])
        assert l1_norm(s) <= l1_norm(ka) + l1_norm(kb) + 1e-12


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_rep_multiplier_is_diagonal():
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    a = lambda q: np.sum(q, axis=-1) + 0.5
    k = multiplier_kernel(a, g)
    pot = transversal_gauge(MagneticField.constant_2d(0.7))
    M = rep(pot, k).mat
    pts = g.points()
    assert np.abs(M - np.diag(a(pts))).max() < 1e-13


def test_multiplier_reads_one_value_per_node():
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    # 8 equal samples for 64 nodes were read as a constant
    with pytest.raises(ValueError, match="one value per node"):
        multiplier_kernel(lambda q: 0.1 * np.ones(8), g)
    # a 0-d value is the constant multiplier
    k = multiplier_kernel(lambda q: 0.1, g)
    assert k.q_independent and np.array_equal(k.values, np.full((1, 1), 0.1 / g.cell_volume))
    # complex multipliers stay complex; only the assembled routes need V real
    a = lambda q: np.exp(1j * q[..., 0])
    assert np.array_equal(multiplier_kernel(a, g).values[..., 0, 0], a(g.mesh()) / g.cell_volume)


def test_rep_fourier_diagonalization_periodic():
    # A=0, base-point independent kernel on the periodic box: eigenvalues
    # are the transform samples at the momentum nodes
    rng = np.random.default_rng(38)
    g = BoxGrid(dim=1, half_length=4.0, n=16, bc="periodic")
    vals = rng.normal(size=9) + 1j * rng.normal(size=9)
    vals = vals + np.conj(vals[::-1])
    k = KernelSample(grid=g, values=vals, q_independent=True)
    pot = transversal_gauge(MagneticField.zero(1))
    ev = np.sort(np.linalg.eigvalsh(rep(pot, k).mat))
    full = np.zeros(g.n, dtype=complex)
    for i in range(9):
        full[(i - 4) % g.n] = vals[i]
    p = MomentumGrid(g).axis()
    y = np.arange(g.n) * g.delta
    f = (np.exp(1j * np.outer(p, y)) @ full) * g.delta
    assert np.abs(f.imag).max() < 1e-12
    assert np.abs(np.sort(f.real) - ev).max() < 1e-10


def test_rep_contractivity_on_random_kernels():
    rng = np.random.default_rng(39)
    g = BoxGrid(dim=1, half_length=3.0, n=16)
    pot = transversal_gauge(MagneticField.zero(1))
    for _ in range(100):
        vals = rng.normal(size=(16, 9)) + 1j * rng.normal(size=(16, 9))
        k = KernelSample(grid=g, values=vals)
        M = rep(pot, k).mat
        assert np.linalg.norm(M, 2) <= l1_norm(k) + 1e-12


def test_homomorphism_refinement_sweep():
    # operator-norm defect of rep(phi <> psi) vs rep(phi) rep(psi) must
    # shrink at least fourfold per halving of the step
    def profile(c, amp):
        def f(q, x):
            q = np.asarray(q, float)
            x = np.asarray(x, float)
            xr = np.clip(np.abs(x).squeeze(-1) / 1.2, 0, 1)
            bump = np.where(xr < 1, np.exp(1.0 - 1.0 / (1.0 - xr**2 + 1e-300)), 0.0)
            qq = q.squeeze(-1)
            gq = np.exp(-((qq - c) ** 2) / 0.98) * (1.0 + 0.2 * np.sin(qq))
            return amp * bump * gq * (1.0 + 0.4j)

        return f

    fld = MagneticField.zero(1)
    pot = transversal_gauge(fld)
    defects = []
    for n in (16, 32, 64):
        g = BoxGrid(dim=1, half_length=4.0, n=n)
        dc = 2 * int(round(1.4 / g.delta)) + 1
        phi, psi = (replace(kernel_from_func(profile(c, amp), g, disp_count=dc), func=None)
                    for c, amp in ((0.4, 1.0), (-0.7, 0.8)))
        prod = twisted_product(phi, psi, fld, scheme="cubic")
        Mp = rep(pot, prod, scheme="cubic").mat
        Ma = rep(pot, phi, scheme="cubic").mat @ rep(pot, psi, scheme="cubic").mat
        defects.append(np.linalg.norm(Mp - Ma, 2))
    assert defects[1] <= defects[0] / 4
    assert defects[2] <= defects[1] / 4


def test_homomorphism_exact_on_tilde_sheet():
    # with the output window wide enough the sheared-sheet product satisfies
    # the representation identity to rounding
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, psi = pair_on(g, 5, attach=False)
    fld = MagneticField.constant_2d(0.5)
    pot = transversal_gauge(fld)
    prod = twisted_product(phi, psi, fld, sheet="tilde")
    assert prod.tail_mass == 0.0
    Mp = rep(pot, prod).mat
    Ma = rep(pot, phi).mat @ rep(pot, psi).mat
    assert np.abs(Mp - Ma).max() < 1e-13


def test_gauge_covariance_of_rep():
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    phi, _ = pair_on(g, 5)
    fld = MagneticField.constant_2d(0.8)
    pot = transversal_gauge(fld)
    rho = GaugeFunction(
        func=lambda q: q[..., 0] * q[..., 1],
        grad=lambda q: np.stack([q[..., 1], q[..., 0]], axis=-1),
    )
    pot2 = gauge_shift(pot, rho)
    M1 = rep(pot, phi).mat
    M2 = rep(pot2, phi).mat
    u = np.exp(1j * rho.func(g.points()))
    assert np.abs(u[:, None] * M1 * np.conj(u)[None, :] - M2).max() < 1e-10


def rep_pairs(g, d):
    """Every (row, displacement index, column) of the window whose column
    lies in the box, wrapped on a periodic box, and the steps u/δ."""
    count = d**g.dim
    x = np.repeat(np.arange(g.size), count)
    j = np.tile(np.arange(count), g.size)
    steps = np.stack(np.unravel_index(j, (d,) * g.dim), axis=-1) - d // 2
    node = np.stack(np.unravel_index(x, (g.n,) * g.dim), axis=-1) + steps
    inside = np.all((node >= 0) & (node < g.n), axis=-1) | (g.bc == "periodic")
    y = np.ravel_multi_index(tuple((node[inside] % g.n).T), (g.n,) * g.dim)
    return x[inside], j[inside], y, steps[inside]


def rep_per_pair(pot, k):
    """The representation with every pair integrated along its own segment,
    M[x, x+u] = Δ^N exp(-i circulation(x, u)) φ~(x;u)."""
    g = k.grid
    x, j, y, steps = rep_pairs(g, k.disp_count)
    tilde = _tilde_values(k, "linear").reshape(-1, k.disp_count**g.dim)
    coef = tilde[0, j] if k.q_independent else tilde[x, j]
    circ = pot.circulation(g.points()[x], steps * g.delta)
    mat = np.zeros((g.size, g.size), dtype=complex)
    mat[x, y] = np.exp(-1j * circ) * coef * g.cell_volume
    return mat


def spy_pairs(monkeypatch):
    """Count the segments every VectorPotential.circulation call integrates."""
    seen = []
    circulation = crossed.VectorPotential.circulation

    def spy(self, q, x):
        seen.append(np.broadcast(np.asarray(q), np.asarray(x)).size // self.dim)
        return circulation(self, q, x)

    monkeypatch.setattr(crossed.VectorPotential, "circulation", spy)
    return seen


@pytest.mark.parametrize("bc", ["truncated", "periodic"])
def test_rep_integrates_each_unordered_pair_once(monkeypatch, bc):
    # a truncated box takes the reverse of each segment by negation, so the
    # in-box pairs off the diagonal are integrated once per unordered pair;
    # a wrapped column's reverse segment is not the negated one, so a
    # periodic box integrates every pair; the banded form walks the same
    # pairs, where a table of every (x, u) took 7056 on the truncated box
    g = BoxGrid(dim=2, half_length=3.0, n=12, bc=bc)
    phi, _ = pair_on(g, 7)
    pairs = len(rep_pairs(g, 7)[0])
    want = pairs if bc == "periodic" else (pairs + g.size) // 2
    assert want == (7056 if bc == "periodic" else 2664)
    seen = spy_pairs(monkeypatch)
    for route in (rep, rep_banded):
        seen.clear()
        route(transversal_gauge(variable_field()), phi)
        assert sum(seen) == want, route


def shifted_gauge():
    rho = GaugeFunction(
        func=lambda q: np.sin(q[..., 0]) * q[..., 1],
        grad=lambda q: np.stack([np.cos(q[..., 0]) * q[..., 1], np.sin(q[..., 0])], axis=-1),
    )
    return gauge_shift(transversal_gauge(variable_field()), rho)


REP_GAUGES = {
    "variable": lambda: transversal_gauge(variable_field()),
    "constant": lambda: transversal_gauge(MagneticField.constant_2d(0.9)),
    "gauge_shift": shifted_gauge,
}


@pytest.mark.parametrize("gauge", sorted(REP_GAUGES))
def test_rep_matches_per_pair_reference(gauge):
    # the integrated pairs (upper triangle and diagonal) are the reference's
    # bit for bit; a reverse entry differs from it only by the rounding of
    # the reverse segment's circulation
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    phi, _ = pair_on(g, 7)
    pot = REP_GAUGES[gauge]()
    got, want = rep(pot, phi).mat, rep_per_pair(pot, phi)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    upper = np.triu_indices(g.size)
    assert same_bits(got[upper], want[upper])


@pytest.mark.parametrize("imag", ["constant", "odd"])
def test_rep_keeps_a_non_hermitian_kernel_non_hermitian(imag):
    # only the phase is shared between an entry and its reverse, so M - M^†
    # is the reference's; the constant 0.5i sits on the diagonal, the odd
    # 0.5i sin p_1 off it, where conjugating whole entries would erase it
    def symbol(p):
        extra = 0.5j * np.sin(p[..., 0]) if imag == "odd" else 0.0
        return np.sum(p * p, axis=-1) + 0.5j + extra

    g = BoxGrid(dim=2, half_length=3.0, n=12)
    kernel = partial_fourier_inv(PhaseGridFunction.sample(symbol, g, q_independent=True))
    pot = transversal_gauge(variable_field())
    got, want = rep(pot, kernel).mat, rep_per_pair(pot, kernel)
    scale = np.abs(want).max()
    skew_got, skew_want = got - got.conj().T, want - want.conj().T
    assert np.abs(skew_got - skew_want).max() <= 1e-14 * scale
    assert np.abs(skew_got).max() == pytest.approx(np.abs(skew_want).max(), rel=1e-12)
    with pytest.raises(ValueError, match="not Hermitian"):
        eig(OperatorMatrix(mat=got, grid=g))


def test_rep_memory_does_not_grow_with_order():
    # a block holds about as many flux quadrature nodes for a gauge of
    # order 16 (16 × 16 nodes per pair) as for one of order 8: 25.5 MB
    # against 26.9 MB at order 8 for a 5.3 MB matrix, where blocks of 8192
    # pairs at every order peaked at 85.1 MB; a shifted gauge keeps the
    # order its blocks are sized by
    g = BoxGrid(dim=2, half_length=3.0, n=24)
    phi, _ = pair_on(g, 9, attach=False)
    pot = transversal_gauge(variable_field(), order=16)
    rho = GaugeFunction(func=lambda q: q[..., 0] * q[..., 1], grad=lambda q: q[..., ::-1])
    for gauge in (pot, gauge_shift(pot, rho)):
        peak, _ = traced_peak(lambda: rep(gauge, phi))
        assert peak <= 32e6, peak


@pytest.mark.parametrize("bc", ["truncated", "periodic"])
@pytest.mark.parametrize("dim, n, count", [(1, 8, 7), (2, 6, 5), (3, 4, 3)])
def test_window_walk_visits_rep_pairs(dim, n, count, bc):
    # the sub-boxes of every displacement cover each (row, window index,
    # column) of the node arithmetic done by hand exactly once: every pair
    # on a periodic box, across its wrap, and on a truncated one the pairs
    # of u = 0 and the lexicographically positive u, inside its edge
    g = BoxGrid(dim=dim, half_length=2.0, n=n, bc=bc)
    index = np.arange(g.size).reshape((n,) * dim)
    seen = []
    for j, rows, cols in crossed._window_walk(g, count):
        x, y = index[rows].ravel(), index[cols].ravel()
        seen += zip(x.tolist(), [j] * len(x), y.tolist())
    x, j, y, _ = rep_pairs(g, count)
    keep = j >= (0 if bc == "periodic" else count**dim // 2)
    want = list(zip(x[keep].tolist(), j[keep].tolist(), y[keep].tolist()))
    assert len(seen) == len(set(seen)) == len(want)
    assert set(seen) == set(want)


def test_circulation_table_keeps_the_gauge_order():
    # the table integrates at the gauge's order (4 × 4 nodes here, not 4
    # radial and 8 line nodes) and hands that order on; its array holds one
    # block per lexicographically non-negative u, the rows of u in C order
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    fld = variable_field()
    table = crossed._circulation_table(transversal_gauge(fld, order=4), g, 5)
    x, j, _, steps = rep_pairs(g, 5)
    keep = np.lexsort((x, j))
    keep = keep[j[keep] >= 25 // 2]
    q, u = g.points()[x[keep]], steps[keep] * g.delta
    assert table.order == 4
    assert same_bits(table._table[2], _flux_quadrature(fld, None, q, u, 4, 4))


@pytest.mark.parametrize("q_independent", [False, True])
def test_rep_through_a_table_is_rep_through_its_gauge(q_independent):
    # on the table's box, and on a smaller box of its lattice that sits 2
    # nodes in from its edge on every axis, at the table's window and a
    # narrower one, both forms read the gauge's own circulations bit for bit
    fld = variable_field()
    pot = transversal_gauge(fld)
    table = crossed._circulation_table(pot, BoxGrid(dim=2, half_length=3.0, n=12), 7)
    rng = np.random.default_rng(120)
    for g in (BoxGrid(dim=2, half_length=3.0, n=12), BoxGrid(dim=2, half_length=2.0, n=8)):
        for d in (7, 5):
            shape = (d, d) if q_independent else (g.n, g.n, d, d)
            values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            k = KernelSample(grid=g, values=values, q_independent=q_independent)
            want = rep(pot, k).mat
            assert np.array_equal(rep(table, k).mat, want)
            assert np.array_equal(rep_banded(table, k).to_dense(), want)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_op_weyl_potential_is_diagonal():
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    V = lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1))
    pot = transversal_gauge(MagneticField.constant_2d(0.4))

    def symbol(q, p):
        return V(q)

    M = op_weyl(pot, symbol, g, q_independent=False).mat
    assert np.abs(M - np.diag(V(g.points()))).max() < 1e-10


def test_op_weyl_momentum_multiplier_plane_waves():
    # band-limited symbol: its kernel is exactly one lattice step wide, so
    # the trimmed kernel gives a 3-point band (wrapping on the periodic
    # box) and plane waves are exact eigenvectors with eigenvalue h(p)
    g = BoxGrid(dim=1, half_length=4.0, n=16, bc="periodic")
    pot = transversal_gauge(MagneticField.zero(1))
    d = g.delta

    def h(p):
        return 2.0 * (1.0 - np.cos(p[..., 0] * d)) / d**2 + 0.7

    M = op_weyl(pot, h, g).mat
    gap = np.subtract.outer(np.arange(g.n), np.arange(g.n)) % g.n
    band = (gap <= 1) | (gap == g.n - 1)
    assert np.all(M[~band] == 0.0) and np.all(M[band] != 0.0)
    pts = g.points()[:, 0]
    for m in (-3, 0, 5):
        p = m * np.pi / g.half_length
        wave = np.exp(1j * p * pts)
        resid = M @ wave - h(np.array([[p]])) * wave
        assert np.abs(resid).max() < 1e-10


def test_real_symbol_gives_hermitian_matrix():
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    pot = transversal_gauge(MagneticField.constant_2d(0.6))

    def symbol(q, p):
        return np.sum(p * p, axis=-1) + 0.1 * np.exp(-np.sum(q * q, axis=-1))

    out = op_weyl(pot, symbol, g, q_independent=False)
    assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-12 * np.abs(out.mat).max()


# ---------------------------------------------------------------------------
# operator utilities
# ---------------------------------------------------------------------------


def test_banded_matches_dense_action():
    g = BoxGrid(dim=2, half_length=3.0, n=10)
    phi, _ = pair_on(g, 5)
    pot = transversal_gauge(variable_field())
    band = rep_banded(pot, phi)
    dense = band.to_dense()
    rng = np.random.default_rng(40)
    v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
    assert np.abs(band.matvec(v) - dense @ v).max() < 1e-12
    assert np.abs(band.rmatvec(v) - dense.conj().T @ v).max() < 1e-12


def test_banded_periodic_wraps():
    g = BoxGrid(dim=1, half_length=3.0, n=8, bc="periodic")
    vals = np.zeros(3, dtype=complex)
    vals[2] = 1.0 / g.delta  # pure one-step shift
    k = KernelSample(grid=g, values=vals, q_independent=True)
    pot = transversal_gauge(MagneticField.zero(1))
    band = rep_banded(pot, k)
    v = np.arange(8.0) + 0j
    out = band.matvec(v)
    assert np.abs(out - np.roll(v, -1)).max() < 1e-13


@pytest.mark.parametrize("bc", ["truncated", "periodic"])
@pytest.mark.parametrize("dim, n, d", [(1, 10, 7), (2, 8, 5), (3, 6, 3)])
def test_banded_forms_agree_with_rep_on_every_box(dim, n, d, bc):
    # to_dense is rep bit for bit, and matvec and rmatvec are the dense
    # matrix and its adjoint, past the edge of a truncated box and across
    # the wrap of a periodic one, for base-point dependent, base-point
    # independent and tilde-tagged kernels
    rng = np.random.default_rng(42)
    g = BoxGrid(dim=dim, half_length=3.0, n=n, bc=bc)
    pot = transversal_gauge(MagneticField.zero(dim) if dim != 2 else variable_field())
    for q_independent, sheet in ((False, "centered"), (True, "centered"), (False, "tilde")):
        shape = (d,) * dim if q_independent else (n,) * dim + (d,) * dim
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        k = KernelSample(grid=g, values=values, q_independent=q_independent, sheet=sheet)
        band = rep_banded(pot, k)
        dense = band.to_dense()
        assert np.array_equal(dense, rep(pot, k).mat)
        v = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        assert np.abs(band.matvec(v) - dense @ v).max() < 1e-12
        assert np.abs(band.rmatvec(v) - dense.conj().T @ v).max() < 1e-12


def test_rep_refuses_a_gauge_of_another_dimension():
    # it failed in numpy with "operands could not be broadcast together"
    k = KernelSample(grid=BoxGrid(dim=2, half_length=3.0, n=8), values=np.ones((3, 3), dtype=complex),
                     q_independent=True)
    for route in (rep, rep_banded):
        with pytest.raises(ValueError, match="does not match the field dimension"):
            route(transversal_gauge(MagneticField.zero(3)), k)


def test_op_norm_of_a_large_complex_array_makes_no_matrix_size_temporary():
    # the adjoint op.conj().T @ v conjugated the whole matrix on every power
    # iteration, and the iterate had the row count, so a tall array raised
    # a shape mismatch in its first product
    rng = np.random.default_rng(3)
    u = rng.normal(size=3001) + 1j * rng.normal(size=3001)
    w = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    m = np.outer(u / np.linalg.norm(u), (w / np.linalg.norm(w)).conj())
    m *= 2.5
    peak, got = traced_peak(lambda: op_norm(m))
    assert abs(got - 2.5) <= 1e-6 * 2.5
    assert peak < 0.01 * m.nbytes


def test_op_norm_matches_svd():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert abs(op_norm(m) - np.linalg.norm(m, 2)) < 1e-10
    g = BoxGrid(dim=2, half_length=3.0, n=8)
    phi, _ = pair_on(g, 5)
    band = rep_banded(transversal_gauge(variable_field()), phi)
    assert abs(op_norm(band, tol=1e-8) - np.linalg.norm(band.to_dense(), 2)) < 1e-4
