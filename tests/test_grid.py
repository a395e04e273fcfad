"""Lattice geometry, transform pair and interpolation accuracy."""

import numpy as np
import pytest

from magweyl.crossed import op_weyl
from magweyl.fields import MagneticField, transversal_gauge
from magweyl.grid import (
    BoxGrid,
    PhaseGridFunction,
    KernelSample,
    partial_fourier,
    partial_fourier_inv,
    symbol_from_kernel_full,
    kernel_from_symbol_full,
    shift_q,
    _shift_axis_half,
)
from magweyl.moyal import moyal


def test_axis_symmetric_no_origin():
    g = BoxGrid(dim=2, half_length=3.0, n=24)
    ax = g.axis()
    assert np.allclose(ax, -ax[::-1])
    assert np.abs(ax).min() > 0
    assert abs(ax[0] + 3.0 - g.delta / 2) < 1e-14
    assert abs(ax[-1] - 3.0 + g.delta / 2) < 1e-14


def test_momentum_axis_covers_nyquist():
    g = BoxGrid(dim=1, half_length=3.0, n=24)
    p = g.momentum().axis()
    assert abs(p[0] + np.pi / g.delta) < 1e-14
    assert abs(p[1] - p[0] - np.pi / g.half_length) < 1e-14
    assert 0.0 in p


def test_grid_validation():
    with pytest.raises(ValueError):
        BoxGrid(dim=0, half_length=1.0, n=8)
    with pytest.raises(ValueError):
        BoxGrid(dim=2, half_length=1.0, n=9)
    with pytest.raises(ValueError):
        BoxGrid(dim=2, half_length=-1.0, n=8)
    with pytest.raises(ValueError):
        BoxGrid(dim=2, half_length=1.0, n=8, bc="absorbing")


@pytest.mark.parametrize("dim, n", [(2, 8.0), (2.0, 8), (2, "8")])
def test_grid_refuses_sizes_that_are_not_integers(dim, n):
    # n = 8.0 was accepted with size 64.0, and assembly then failed
    with pytest.raises(ValueError, match="must be integers"):
        BoxGrid(dim=dim, half_length=3.0, n=n)


def test_grid_takes_numpy_integer_sizes():
    assert BoxGrid(dim=np.int64(2), half_length=3.0, n=np.int64(8)) == BoxGrid(dim=2, half_length=3.0, n=8)


@pytest.mark.parametrize("half_length", [np.nan, np.inf, 0.0])
def test_grid_refuses_a_non_finite_half_length(half_length):
    # a NaN passed the positivity check and gave a NaN spacing
    with pytest.raises(ValueError, match="positive and finite"):
        BoxGrid(dim=2, half_length=half_length, n=8)


def test_transform_round_trip_2d():
    rng = np.random.default_rng(201)
    g = BoxGrid(dim=2, half_length=2.0, n=16)
    vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    back = kernel_from_symbol_full(symbol_from_kernel_full(vals, g), g)
    assert np.abs(back - vals).max() < 1e-13


def test_parseval_on_grid():
    rng = np.random.default_rng(202)
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    vals = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    f = symbol_from_kernel_full(vals, g)
    lhs = np.sum(np.abs(vals) ** 2) * g.cell_volume
    rhs = np.sum(np.abs(f) ** 2) * g.momentum().weight
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_constant_symbol_gives_unit_point_mass():
    # the symbol 1 corresponds to the kernel delta_0 / delta^N, the grid
    # representation of a unit point mass under the node weight delta^N
    g = BoxGrid(dim=2, half_length=3.0, n=24)
    ones = PhaseGridFunction(grid=g, values=np.ones((24, 24), dtype=complex))
    ker = partial_fourier_inv(ones)
    k = ker.disp_count // 2
    peak = ker.values[k, k]
    assert abs(peak - 1.0 / g.cell_volume) < 1e-9
    rest = ker.values.copy()
    rest[k, k] = 0.0
    assert np.abs(rest).max() < 1e-9


def test_plane_wave_symbol_shifts_forward():
    # exp(i p a) has kernel concentrated at displacement +a
    g = BoxGrid(dim=1, half_length=3.0, n=24)
    a = 3 * g.delta
    f = PhaseGridFunction(grid=g, values=np.exp(1j * g.momentum().axis() * a))
    ker = partial_fourier_inv(f)
    ax = ker.disp_axis()
    j = int(np.argmax(np.abs(ker.values)))
    assert abs(ax[j] - a) < 1e-12
    assert abs(ker.values[j] - 1.0 / g.delta) < 1e-9


def test_kernel_truncation_records_tail():
    g = BoxGrid(dim=1, half_length=4.0, n=64)
    # wide symbol = narrow kernel (width 1/4), so radius 1.5 covers 6 sigma
    f = PhaseGridFunction.sample(lambda p: np.exp(-np.sum(p**2, -1) / 32), g)
    full = partial_fourier_inv(f)
    trunc = partial_fourier_inv(f, r_disp=1.5)
    assert trunc.disp_count < full.disp_count
    assert trunc.disp_radius <= 1.5 + 1e-12
    dropped = np.abs(full.values).sum() - np.abs(trunc.values).sum()
    assert abs(trunc.tail_mass - (dropped * g.delta + full.tail_mass)) < 1e-12
    assert 0 < trunc.tail_mass < 1e-4


@pytest.mark.parametrize("r_disp", [np.nan, np.inf, 0.0, -1.0])
def test_displacement_radius_must_be_positive_and_finite(r_disp):
    # NaN failed in numpy with "cannot convert float NaN to integer" and
    # inf with OverflowError, both through partial_fourier_inv and op_weyl
    g = BoxGrid(dim=1, half_length=4.0, n=16)
    f = PhaseGridFunction.sample(lambda p: np.sum(p**2, -1), g)
    with pytest.raises(ValueError, match="displacement radius must be positive and finite"):
        partial_fourier_inv(f, r_disp=r_disp)
    with pytest.raises(ValueError, match="displacement radius must be positive and finite"):
        op_weyl(transversal_gauge(MagneticField.zero(1)), f, r_disp=r_disp)


def test_symbol_kernel_symbol_identity_without_truncation():
    rng = np.random.default_rng(203)
    g = BoxGrid(dim=2, half_length=2.0, n=12)
    vals = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    f = PhaseGridFunction(grid=g, values=vals)
    # max_disp_count still drops the unpaired row at -L; rebuild from the
    # full transform to check the exact identity
    full = kernel_from_symbol_full(vals, g)
    again = symbol_from_kernel_full(full, g)
    assert np.abs(again - vals).max() < 1e-12


def test_q_dependent_sampling_layout():
    g = BoxGrid(dim=1, half_length=2.0, n=8)

    def sym(q, p):
        return q[..., 0] * 1.0 + 1j * p[..., 0]

    f = PhaseGridFunction.sample(sym, g, q_independent=False)
    assert f.values.shape == (8, 8)
    assert np.allclose(f.values.real, g.axis()[:, None])
    assert np.allclose(f.values.imag, g.momentum().axis()[None, :])


def test_kernel_sample_validation():
    g = BoxGrid(dim=1, half_length=2.0, n=8)
    with pytest.raises(ValueError):
        KernelSample(grid=g, values=np.zeros((8, 4)), q_independent=False)  # even disp
    with pytest.raises(ValueError):
        KernelSample(grid=g, values=np.zeros((8, 9)), q_independent=False)  # too wide
    ks = KernelSample(grid=g, values=np.zeros(7, dtype=complex), q_independent=True)
    assert ks.disp_count == 7
    assert ks.as_q_dependent().shape == (8, 7)


def test_malformed_axes_are_refused():
    # kernels store every base point; symbols may keep length 1 along an
    # axis where their values are constant
    g = BoxGrid(dim=2, half_length=3.0, n=12)
    for base in [(10, 10), (1, 1)]:
        with pytest.raises(ValueError, match="base-point axes"):
            KernelSample(grid=g, values=np.zeros(base + (3, 3), dtype=complex))
    with pytest.raises(ValueError, match="symbol axes"):
        PhaseGridFunction(grid=g, values=np.zeros((10, 10), dtype=complex))
    with pytest.raises(ValueError, match="symbol axes"):
        PhaseGridFunction(grid=g, values=np.zeros((12, 12, 12, 10)), q_independent=False)
    # a momentum-independent symbol samples with length-1 momentum axes and
    # transforms exactly like its broadcast full array
    f = PhaseGridFunction.sample(lambda q, p: np.exp(-np.sum(q * q, axis=-1)), g, q_independent=False)
    assert f.values.shape == (12, 12, 1, 1)
    full = PhaseGridFunction(
        grid=g, values=np.broadcast_to(f.values, (12,) * 4).copy(), q_independent=False
    )
    assert partial_fourier_inv(f).values.tobytes() == partial_fourier_inv(full).values.tobytes()


def test_length_one_base_axes_transform():
    # a base-point independent symbol sampled as a function of (q, p) keeps
    # length-1 base axes; partial_fourier_inv refused it with "base-point
    # axes (1,) must each have length 16", and so did moyal
    g = BoxGrid(dim=1, half_length=4.0, n=16)
    f = PhaseGridFunction.sample(lambda q, p: np.exp(-0.1 * np.sum(p * p, axis=-1)), g, q_independent=False)
    assert f.values.shape == (1, 16)
    full = PhaseGridFunction(grid=g, values=np.broadcast_to(f.values, (16, 16)).copy(), q_independent=False)
    assert partial_fourier_inv(f).values.tobytes() == partial_fourier_inv(full).values.tobytes()
    field = MagneticField.zero(1)
    assert moyal(f, f, field).values.tobytes() == moyal(full, full, field).values.tobytes()


def test_kernel_copy_keeps_meta():
    g = BoxGrid(dim=1, half_length=2.0, n=8)
    ks = KernelSample(grid=g, values=np.ones(3, dtype=complex), q_independent=True,
                      meta={"tail_warning": True, "neumann": {"terms": 4}})
    dup = ks.copy()
    assert dup.meta == ks.meta
    dup.meta["tail_warning"] = False
    assert ks.meta["tail_warning"] is True


def test_involution_axis_helpers():
    g = BoxGrid(dim=2, half_length=2.0, n=8)
    ks = KernelSample(
        grid=g,
        values=np.arange(5 * 5, dtype=complex).reshape(5, 5),
        q_independent=True,
    )
    m = ks.disp_mesh()
    assert m.shape == (5, 5, 2)
    assert np.allclose(m[2, 2], 0.0)
    assert np.allclose(m, -m[::-1, ::-1])


def test_interior_mask():
    g = BoxGrid(dim=2, half_length=4.0, n=16)
    mask = g.interior_mask(collar=1.0)
    assert mask.shape == (16, 16)
    ax = g.axis()
    for i in range(16):
        for j in range(16):
            want = abs(ax[i]) < 3.0 and abs(ax[j]) < 3.0
            assert mask[i, j] == want


@pytest.mark.parametrize("scheme,order", [("linear", 2), ("cubic", 4)])
def test_half_shift_convergence(scheme, order):
    # interpolation error at the half lattice decays at the stated order
    errs = []
    for n in (32, 64):
        g = BoxGrid(dim=1, half_length=4.0, n=n)
        ax = g.axis()
        vals = np.exp(-(ax**2)) * np.cos(ax)
        got = shift_q(vals, g, [1], scheme=scheme)
        want = np.exp(-((ax + g.delta / 2) ** 2)) * np.cos(ax + g.delta / 2)
        pad = 4
        errs.append(np.abs(got - want)[pad:-pad].max())
    ratio = errs[0] / errs[1]
    assert ratio > 2 ** (order - 0.8)


def test_whole_shifts_are_exact():
    rng = np.random.default_rng(204)
    g = BoxGrid(dim=2, half_length=2.0, n=8)
    vals = rng.normal(size=(8, 8))
    got = shift_q(vals, g, [2, -4])  # +1 and -2 whole steps
    want = np.zeros_like(vals)
    want[:-1, 2:] = vals[1:, :-2]
    assert np.abs(got - want).max() == 0.0


def test_shift_refuses_a_vector_that_is_not_one_integer_per_axis():
    # a short or long vector used to lose or drop axes and 1.7 to read as 1;
    # integer-valued entries of any type are whole half steps
    g = BoxGrid(dim=2, half_length=2.0, n=8)
    vals = np.random.default_rng(208).normal(size=(8, 8))
    for steps in ([2], [2, 0, 4], [1.7, 0]):
        with pytest.raises(ValueError, match="must hold 2 integers"):
            shift_q(vals, g, steps)
    assert np.array_equal(shift_q(vals, g, [2.0, np.int64(-4)]), shift_q(vals, g, [2, -4]))


def test_periodic_shift_wraps():
    rng = np.random.default_rng(205)
    g = BoxGrid(dim=1, half_length=2.0, n=8, bc="periodic")
    vals = rng.normal(size=8)
    got = shift_q(vals, g, [2])
    assert np.abs(got - np.roll(vals, -1)).max() == 0.0


def test_whole_shifts_past_the_box():
    # a shift by the whole box or more leaves nothing on a truncated box
    # and comes round to the start on a periodic one
    rng = np.random.default_rng(207)
    vals = rng.normal(size=(8, 3))
    for steps in (8, 9, -8, -11):
        assert not shift_q(vals, BoxGrid(dim=1, half_length=2.0, n=8), [2 * steps]).any()
        periodic = shift_q(vals, BoxGrid(dim=1, half_length=2.0, n=8, bc="periodic"), [2 * steps])
        assert np.array_equal(periodic, np.roll(vals, -steps, axis=0))


def test_linear_half_shift_never_overshoots():
    # sup stability of the 2-point stencil: output within input bounds
    rng = np.random.default_rng(206)
    g = BoxGrid(dim=1, half_length=2.0, n=16)
    vals = rng.uniform(0.0, 1.0, 16)
    got = shift_q(vals, g, [1], scheme="linear")
    assert got.min() >= -1e-15 and got.max() <= 1.0 + 1e-15


def composed_half_shift(values, ax, h, scheme, bc):
    """A shift by h half steps as a zeroed array plus one shifted copy per
    stencil tap, then the whole-step shift of the sum, written out."""
    def whole(v, steps):
        if bc == "periodic":
            return np.roll(v, -steps, axis=ax)
        out = np.zeros_like(v)
        n = v.shape[ax]
        if abs(steps) < n:
            src = [slice(None)] * v.ndim
            dst = [slice(None)] * v.ndim
            src[ax] = slice(max(steps, 0), n + min(steps, 0))
            dst[ax] = slice(max(-steps, 0), n - max(steps, 0))
            out[tuple(dst)] = v[tuple(src)]
        return out

    if h % 2 == 0:
        return whole(values, h // 2)
    st = {"linear": [0.5, 0.5], "cubic": [-1 / 16, 9 / 16, 9 / 16, -1 / 16]}[scheme]
    half = np.zeros(values.shape, dtype=values.dtype)
    for i, c in enumerate(st):
        half += c * whole(values, i - len(st) // 2 + 1)
    return whole(half, (h - 1) // 2)


@pytest.mark.parametrize("bc", ["truncated", "periodic"])
@pytest.mark.parametrize("scheme", ["linear", "cubic"])
@pytest.mark.parametrize("dim, n", [(1, 10), (2, 6), (3, 4)])
def test_half_shift_equals_the_composed_taps(dim, n, scheme, bc):
    # each tap's run is added once into one output, in stencil order: the
    # values are those of the tap-by-tap sum and the whole-step shift
    g = BoxGrid(dim=dim, half_length=2.0, n=n, bc=bc)
    rng = np.random.default_rng(209 + n)
    vals = rng.normal(size=(n,) * dim + (3,)) + 1j * rng.normal(size=(n,) * dim + (3,))
    for ax in range(dim):
        for h in range(-2 * n, 2 * n + 1):
            got = _shift_axis_half(vals, ax, h, scheme, g)
            assert np.array_equal(got, composed_half_shift(vals, ax, h, scheme, bc)), (ax, h)
