"""Spectral layer: dense assembly, fibered and asymptotic spectra, the box
ladder and the point-set helpers."""

import importlib
import inspect
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import magweyl
from magweyl.crossed import OperatorMatrix, rep, rep_banded, twisted_product, kernel_from_func
from magweyl.fields import (
    Cartesian2D,
    ConstPlusDecay,
    GaugeFunction,
    MagneticField,
    MixedVOAP,
    VanishingOscillation,
    asymptotic_pairs,
    gauge_shift,
    transversal_gauge,
)
from magweyl.grid import BoxGrid, PhaseGridFunction, partial_fourier_inv
from magweyl.moyal import _symbol_kernel
from magweyl.spectral import (
    SchrodingerSpec,
    assemble,
    asymptotic_spectra,
    eig,
    essential_estimate,
    fibered_spectrum,
    hausdorff,
    landau_oracle,
    merge_points,
)

from conftest import traced_peak

spectral_module = importlib.import_module("magweyl.spectral")
crossed_module = importlib.import_module("magweyl.crossed")
fields_module = importlib.import_module("magweyl.fields")


def free_kinetic(p):
    return np.sum(np.asarray(p) ** 2, axis=-1)


def bump(q):
    return 0.4 * np.exp(-np.sum(np.asarray(q) ** 2, axis=-1))


def symbol_kernel(grid):
    return partial_fourier_inv(PhaseGridFunction.sample(free_kinetic, grid, q_independent=True))


def variable_field():
    return MagneticField.from_scalar_2d(
        lambda p: 0.8 + 0.5 * np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 3.0)
    )


def tanh_field(axis):
    return MagneticField.from_scalar_2d(
        lambda p: 1.0 + 0.5 * np.tanh(np.asarray(p, dtype=float)[..., axis])
    )


def rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# (a) assemble is rep plus the diagonal potential
# ---------------------------------------------------------------------------

RHO = GaugeFunction(
    func=lambda q: 0.3 * q[..., 0] * q[..., 1],
    grad=lambda q: 0.3 * np.stack([q[..., 1], q[..., 0]], axis=-1),
)


@pytest.mark.parametrize("case", ["zero", "constant", "const_plus_decay", "explicit"])
def test_assemble_equals_rep_plus_potential(case):
    grid = BoxGrid(dim=2, half_length=3.0, n=12)
    if case == "zero":
        field = MagneticField.zero(2)
    elif case == "constant":
        field = MagneticField.constant_2d(0.7)
    else:
        field = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=bump).field()
    gauge = transversal_gauge(field)
    vector_potential = None
    if case == "explicit":
        gauge = gauge_shift(gauge, RHO)
        vector_potential = gauge
    spec = SchrodingerSpec(
        h=free_kinetic, field=field, potential=bump, grid=grid, vector_potential=vector_potential
    )
    got = assemble(spec).mat
    want = rep(gauge, symbol_kernel(grid)).mat + np.diag(bump(grid.points()))
    if case == "zero":
        assert got.dtype == np.float64
        assert np.abs(want.imag).max() <= 1e-13 * np.abs(want.real).max()
        want = want.real
    assert rel_gap(got, want) <= 1e-13


def stencil_kinetic(grid):
    d = grid.delta
    return lambda p: 1.0 + np.sum(2.0 * (1.0 - np.cos(np.asarray(p) * d)), axis=-1) / d**2


def test_periodic_assemble_is_the_fourier_multiplier():
    # without a field the eigenvalues are h + V over the momentum mesh
    grid = BoxGrid(dim=2, half_length=3.0, n=8, bc="periodic")
    res = eig(assemble(SchrodingerSpec(h=free_kinetic, field=None, potential=0.7, grid=grid)))
    want = np.sort(free_kinetic(grid.momentum().mesh()).ravel() + 0.7)
    assert np.abs(res.values - want).max() <= 1e-12 * want.max()


def test_periodic_assemble_matches_rep_of_the_stencil():
    # the stencil's kernel has three nodes per axis, which rep wraps
    # around the torus as the Fourier multiplier does (measured 2.3e-14)
    grid = BoxGrid(dim=2, half_length=3.0, n=8, bc="periodic")
    h = stencil_kinetic(grid)
    mat = assemble(SchrodingerSpec(h=h, field=None, grid=grid)).mat
    kernel = partial_fourier_inv(PhaseGridFunction.sample(h, grid, q_independent=True))
    want = rep(transversal_gauge(MagneticField.zero(2)), kernel).mat
    assert np.abs(mat - want).max() <= 1e-12


def test_periodic_assemble_refuses_an_explicit_gauge():
    # the periodic branch never read the gauge: a constant-field gauge gave
    # the zero-field multiplier, bit for bit
    grid = BoxGrid(dim=2, half_length=3.0, n=8, bc="periodic")
    for b in (1.0, 0.0):
        spec = SchrodingerSpec(h=free_kinetic, field=None, grid=grid,
                               vector_potential=transversal_gauge(MagneticField.constant_2d(b)))
        with pytest.raises(ValueError, match="vanishing magnetic field"):
            assemble(spec)


def test_assemble_refuses_a_gauge_of_another_dimension():
    # a planar variable-field gauge on a 3-D box gave a 216 x 216 matrix
    # (max |Im| 3.31) with no error; a planar constant-field one failed in
    # numpy with "operands could not be broadcast together"
    grid = BoxGrid(dim=3, half_length=2.0, n=6)
    fields = (MagneticField.from_scalar_2d(lambda x: 1.0 + np.exp(-np.sum(x**2, axis=-1))),
              MagneticField.constant_2d(1.0))
    for fld in fields:
        spec = SchrodingerSpec(h=free_kinetic, field=None, grid=grid, vector_potential=transversal_gauge(fld))
        with pytest.raises(ValueError, match="does not match the field dimension"):
            assemble(spec)


def tilted_kinetic(p):
    # |p|^2 + 0.7 p_0: the odd part tells the sign of the Fourier convention
    return free_kinetic(p) + 0.7 * np.asarray(p, dtype=float)[..., 0]


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 6)])
def test_periodic_assemble_is_the_dense_fourier_conjugation(dim, n):
    # the circulant equals U* diag(h) U for the unitary DFT U of the nodes,
    # built here as a Kronecker power (measured 2e-15)
    grid = BoxGrid(dim=dim, half_length=3.0, n=n, bc="periodic")
    u1 = np.exp(-1j * np.outer(grid.momentum().axis(), grid.axis())) / np.sqrt(n)
    u = u1
    for _ in range(dim - 1):
        u = np.kron(u, u1)
    want = (u.conj().T * tilted_kinetic(grid.momentum().mesh()).ravel()) @ u
    got = assemble(SchrodingerSpec(h=tilted_kinetic, field=None, grid=grid)).mat
    assert rel_gap(got, want) <= 1e-12


def test_assemble_refuses_a_non_finite_imaginary_part():
    # the real part is finite everywhere; the realness check alone passed it
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    h = lambda p: free_kinetic(p) + np.where(np.all(p == 0.0, axis=-1), complex(0.0, np.nan), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        assemble(SchrodingerSpec(h=h, field=None, grid=grid))


def test_periodic_assemble_refuses_a_field():
    grid = BoxGrid(dim=2, half_length=3.0, n=8, bc="periodic")
    spec = SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(0.5), grid=grid)
    with pytest.raises(ValueError, match="vanishing magnetic field"):
        assemble(spec)


def untrimmed_kernel(values, grid):
    """The symbol's kernel over the full window, every row kept."""
    return partial_fourier_inv(PhaseGridFunction(grid=grid, values=np.asarray(values, dtype=complex)))


def test_stencil_assembly_keeps_the_stencil_width():
    # the untrimmed kernel gave 553,760 non-zero entries, almost all of them
    # rounding residue, each integrated by the flux quadrature
    grid = BoxGrid(dim=2, half_length=6.0, n=32)
    field = MagneticField.from_scalar_2d(lambda x: 0.5 + 0.5 * np.exp(-np.sum(x * x, axis=-1)))
    h = stencil_kinetic(grid)
    mat = assemble(SchrodingerSpec(h=h, field=field, grid=grid)).mat
    assert np.count_nonzero(mat, axis=1).max() <= 9
    full = rep(transversal_gauge(field), untrimmed_kernel(h(grid.momentum().mesh()), grid)).mat
    window = (0.0, 8.0)
    got, want = eig(mat, window).values, eig(full, window).values
    assert len(want) > 0 and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# (b) the dense route and the banded route agree bit for bit
# ---------------------------------------------------------------------------


def gauss(q, x):
    q = np.asarray(q, float)
    x = np.asarray(x, float)
    return np.exp(-np.sum(q * q, axis=-1) / 2.0 - np.sum(x * x, axis=-1)) * (1.0 + 0.3j)


def kernel_case(case):
    if case.startswith("periodic"):
        grid = BoxGrid(dim=2, half_length=3.0, n=10, bc="periodic")
    else:
        grid = BoxGrid(dim=2, half_length=3.0, n=10)
    if case in ("q_independent", "periodic_q_independent"):
        return kernel_from_func(gauss, grid, disp_count=7, q_independent=True)
    if case == "tilde":
        phi = kernel_from_func(gauss, grid, disp_count=5)
        prod = twisted_product(phi, phi, variable_field(), sheet="tilde")
        assert prod.sheet == "tilde"
        return prod
    k = kernel_from_func(gauss, grid, disp_count=7)
    return replace(k, func=None) if case == "q_dependent" else k


@pytest.mark.parametrize("case", ["q_independent", "q_dependent", "periodic", "periodic_q_independent", "tilde"])
def test_rep_matches_banded_exactly(case):
    k = kernel_case(case)
    pot = transversal_gauge(variable_field())
    assert np.array_equal(rep(pot, k).mat, rep_banded(pot, k).to_dense())


def test_field_callables_may_receive_strided_points():
    # component callables get (..., dim) views that need not be
    # C-contiguous; reshaping or reducing them must not change the matrix
    def profile(pts):
        flat = pts.reshape(-1, 2)
        radius = np.linalg.norm(pts, axis=-1)
        return (0.8 + 0.3 * np.tanh(flat[:, 0])).reshape(pts.shape[:-1]) + 0.5 * np.exp(-radius)

    strided = MagneticField.from_scalar_2d(profile)
    contiguous = MagneticField.from_scalar_2d(lambda pts: profile(np.ascontiguousarray(pts)))
    k = symbol_kernel(BoxGrid(dim=2, half_length=3.0, n=12))
    want = rep(transversal_gauge(contiguous), k).mat
    assert np.array_equal(rep(transversal_gauge(strided), k).mat, want)


def test_variable_field_rep_memory_peak():
    # the bound is the 24.9 MB peak measured for the nested line
    # quadrature this route replaced (5.3 MB of it is the matrix), so
    # per-block temporaries cannot grow unnoticed
    k = symbol_kernel(BoxGrid(dim=2, half_length=3.0, n=24))
    pot = transversal_gauge(variable_field())
    peak, _ = traced_peak(lambda: rep(pot, k))
    assert peak <= 25.0e6


def test_public_spectral_names_are_the_module_objects():
    for name in ("SchrodingerSpec", "assemble", "eig", "essential_estimate",
                 "asymptotic_spectra", "fibered_spectrum", "landau_oracle", "hausdorff"):
        assert getattr(magweyl, name) is getattr(spectral_module, name), name


# ---------------------------------------------------------------------------
# (c) guards
# ---------------------------------------------------------------------------


def test_eig_refuses_non_hermitian():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig(mat)


def test_essential_estimate_ladder_guards():
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    spec = SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(1.0), grid=grid)
    with pytest.raises(ValueError, match="at least two boxes"):
        essential_estimate(spec, (3.0,), (0.0, 8.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        essential_estimate(spec, (3.0, 3.0), (0.0, 8.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        essential_estimate(spec, (4.0, 3.0), (0.0, 8.0))
    gridless = SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(1.0))
    with pytest.raises(ValueError, match="needs a grid"):
        essential_estimate(gridless, (3.0, 4.0), (0.0, 8.0), density=2.0)
    for density in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            essential_estimate(spec, (3.0, 4.0), (0.0, 8.0), density=density)
    # density 0.5 makes both rungs n = 8
    with pytest.raises(ValueError, match=r"node counts \[8, 8\] must strictly increase"):
        essential_estimate(spec, (3.0, 4.0), (0.0, 8.0), density=0.5)
    # refused before the smaller rung is assembled
    with pytest.raises(ValueError, match="above EIG_CAP"):
        essential_estimate(spec, (3.0, 20.0), (0.0, 8.0), density=4.0)


@pytest.mark.parametrize("boxes", [(3.0, np.nan), (3.0, np.inf), (np.nan, 4.0)])
def test_ladder_refuses_non_finite_half_lengths_before_any_assembly(monkeypatch, boxes):
    # they failed with "cannot convert float NaN to integer" or OverflowError
    def no_assembly(spec):
        raise AssertionError("assembled a rung for a ladder it refuses")

    monkeypatch.setattr(spectral_module, "assemble", no_assembly)
    with pytest.raises(ValueError, match="half-lengths must be finite"):
        essential_estimate(decay_spec(3.0, 12), boxes, (0.0, 8.0), density=2.0)


@pytest.mark.parametrize("window", [(0.0, np.inf), (8.0, 0.0), (np.nan, 8.0)])
def test_ladder_and_union_refuse_a_window_without_finite_bounds(monkeypatch, window):
    # both scale by hi - lo: an infinite window made every eigenvalue of the
    # largest box persistent and collapsed the band [0.5, inf) to 0.5, and
    # an empty or NaN one reached the eigensolver's refusal only after the
    # rungs were built
    def no_assembly(spec):
        raise AssertionError("assembled a rung for a window it refuses")

    monkeypatch.setattr(spectral_module, "assemble", no_assembly)
    with pytest.raises(ValueError, match="finite bounds"):
        essential_estimate(decay_spec(3.0, 12), (2.0, 3.0), window, density=2.0)
    desc = ConstPlusDecay(dim=2, b_inf=0.0, v_inf=0.5)
    with pytest.raises(ValueError, match="finite bounds"):
        asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=3.0, n=12), window)


@pytest.mark.parametrize("window", [(8.0, 0.0), (np.nan, 5.0)])
def test_eig_fibered_and_landau_refuse_an_empty_or_nan_window(monkeypatch, window):
    # each of them returned an empty spectrum for these windows
    def no_solve(*args):
        raise AssertionError("solved for a window that eig refuses")

    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    op = assemble(SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(0.5), grid=grid))
    monkeypatch.setattr(spectral_module, "_solve", no_solve)
    with pytest.raises(ValueError, match="bounds lo < hi"):
        eig(op, window)
    with pytest.raises(ValueError, match="bounds lo < hi"):
        fibered_spectrum(tanh_profile, free_kinetic, grid, window=window)
    with pytest.raises(ValueError, match="finite bounds lo < hi"):
        landau_oracle(1.0, 0.0, window)


def test_fibered_refuses_a_non_finite_potential():
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    with pytest.raises(ValueError, match="finite"):
        fibered_spectrum(tanh_profile, free_kinetic, grid,
                         potential=lambda x: np.where(np.asarray(x) > 2.0, np.nan, 0.0))


def complex_bump(imag):
    def v(q):
        return bump(q) + 1j * imag * np.exp(-np.sum(np.asarray(q) ** 2, axis=-1))

    return v


def test_assembled_and_fibered_routes_refuse_an_imaginary_potential(monkeypatch):
    # assemble kept the real part behind a ComplexWarning
    monkeypatch.setattr(spectral_module, "_solve", None)
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    field = MagneticField.constant_2d(0.5)
    with pytest.raises(ValueError, match="real-valued"):
        assemble(SchrodingerSpec(h=free_kinetic, field=field, potential=complex_bump(0.1), grid=grid))
    with pytest.raises(ValueError, match="real-valued"):
        fibered_spectrum(tanh_profile, free_kinetic, grid, potential=complex_bump(0.1), window=(0.0, 8.0))
    # an imaginary part within 1e-12 of the scale is rounding, and dropped
    quiet = assemble(SchrodingerSpec(h=free_kinetic, field=field, potential=complex_bump(1e-14), grid=grid))
    real = assemble(SchrodingerSpec(h=free_kinetic, field=field, potential=bump, grid=grid))
    assert np.array_equal(quiet.mat, real.mat)


def test_assembly_refuses_a_potential_with_a_wrong_count():
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    spec = SchrodingerSpec(h=free_kinetic, field=None, potential=lambda q: np.ones(8), grid=grid)
    with pytest.raises(ValueError, match="one value per node"):
        assemble(spec)


def test_fibered_refuses_a_non_finite_field_profile(monkeypatch):
    # the NaN gauge used to reach numpy.linalg.eigh, which failed with
    # "Eigenvalues did not converge"; unset, it would raise TypeError
    monkeypatch.setattr(np.linalg, "eigh", None)
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    with pytest.raises(ValueError, match="field profile is not finite"):
        fibered_spectrum(lambda t: np.where(np.asarray(t) > 2.0, np.nan, 1.0), free_kinetic, grid,
                         window=(0.0, 8.0))


def test_fibered_reads_a_single_profile_value_as_a_constant():
    # a profile giving one value for all quadrature nodes is the constant
    # field, as a 0-d value is; the profile's sample check must keep both
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    want = fibered_spectrum(lambda t: np.ones_like(t), free_kinetic, grid, window=(0.0, 8.0))
    for profile in (lambda t: 1.0, lambda t: np.ones(1)):
        got = fibered_spectrum(profile, free_kinetic, grid, window=(0.0, 8.0))
        assert np.array_equal(got.values, want.values)


def test_fibered_refuses_a_symbol_not_finite_at_the_fiber_points(monkeypatch):
    # |p|² on the momentum mesh, NaN past 1.05 p_max along the invariant
    # axis, which the fibers reach at A(x) - k: the NaN reached
    # numpy.linalg.eigh, which failed with "Eigenvalues did not converge"
    monkeypatch.setattr(np.linalg, "eigh", None)
    grid = BoxGrid(dim=2, half_length=3.0, n=12)
    p_max = grid.momentum().p_max

    def cut(h):
        return lambda p: np.where(np.abs(np.asarray(p)[..., 1]) > 1.05 * p_max, np.nan, h(p))

    # a separable symbol reads h on the fiber diagonal, another on every
    # pair of fiber momentum and gauge value
    for h in (free_kinetic, nonseparable_kinetic):
        with pytest.raises(ValueError, match="kinetic symbol is not finite at every fiber point"):
            fibered_spectrum(lambda x: 1 + 0.5 * np.tanh(x), cut(h), grid)


def nan_field():
    return MagneticField.from_scalar_2d(
        lambda x: np.where(np.abs(np.asarray(x)[..., 0]) > 2.0, np.nan, 0.5)
    )


def test_assemble_refuses_a_non_finite_field(monkeypatch):
    # the NaN entries used to reach scipy.linalg, which refused the matrix;
    # with the solver unset, reaching it raises TypeError instead
    monkeypatch.setattr(spectral_module, "_solve", None)
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    with pytest.raises(ValueError, match="magnetic field is not finite"):
        eig(assemble(SchrodingerSpec(h=free_kinetic, field=nan_field(), grid=grid)), (0.0, 8.0))


def test_ladder_density_defaults_to_the_spec_grids(monkeypatch):
    # 8 nodes on [-3, 3] are 4/3 nodes per unit length, so the rungs have
    # 8 and 12 nodes, as with that density given
    spec = SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(1.0),
                           grid=BoxGrid(dim=2, half_length=3.0, n=8))
    seen = record_assembly(monkeypatch)
    default = essential_estimate(spec, (3.0, 4.5), (0.0, 8.0))
    explicit = essential_estimate(spec, (3.0, 4.5), (0.0, 8.0), density=8 / 6.0)
    assert [g.n for g, _, _ in seen] == [8, 12, 8, 12]
    for (g1, _, m1), (g2, _, m2) in zip(seen[:2], seen[2:]):
        assert g1 == g2 and np.array_equal(m1, m2)
    assert default.params == explicit.params
    assert repr(default.rejected) == repr(explicit.rejected) and len(default.rejected) > 0


def test_products_and_ladder_refuse_a_non_finite_field(monkeypatch):
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    k = symbol_kernel(grid)
    with pytest.raises(ValueError, match="magnetic field is not finite"):
        twisted_product(k, k, nan_field())
    monkeypatch.setattr(spectral_module, "_solve", None)
    spec = SchrodingerSpec(h=free_kinetic, field=nan_field(), grid=grid)
    with pytest.raises(ValueError, match="magnetic field is not finite"):
        essential_estimate(spec, (3.0, 4.0), (0.0, 8.0), density=2.0)


# ---------------------------------------------------------------------------
# (d) fibered spectra
# ---------------------------------------------------------------------------


def tanh_profile(t):
    return 1.0 + 0.5 * np.tanh(t)


def nonseparable_kinetic(p):
    p = np.asarray(p, dtype=float)
    return np.sum(p**2, axis=-1) + 0.05 * p[..., 0] ** 2 * p[..., 1] ** 2


@pytest.mark.parametrize("h", [free_kinetic, nonseparable_kinetic], ids=["separable", "nonseparable"])
def test_fibered_constant_potential_shifts_every_value(h):
    grid = BoxGrid(dim=2, half_length=5.0, n=24)
    plain = fibered_spectrum(tanh_profile, h, grid)
    shifted = fibered_spectrum(tanh_profile, h, grid, potential=2.0)
    assert len(plain) > 0 and len(shifted) == len(plain)
    assert np.abs(shifted.values - (plain.values + 2.0)).max() <= 1e-9
    # a finite window pads the fiber range by sqrt(hi - min V), so V moves
    # the range; the fibers stay on one lattice and every value in the
    # window shifts exactly
    grid = BoxGrid(dim=2, half_length=4.0, n=16)
    profile = lambda t: 1.5 * (1.0 + 0.2 * np.tanh(t))
    plain = fibered_spectrum(profile, h, grid, window=(0.0, 6.0))
    shifted = fibered_spectrum(profile, h, grid, potential=0.9, window=(0.0, 6.0))
    want = plain.values + 0.9
    want = want[want <= 6.0]
    assert len(want) > 0 and len(shifted) == len(want)
    assert np.abs(shifted.values - want).max() <= 1e-12


def test_fiber_kinetic_rows_take_the_grid_convention(monkeypatch):
    # a separable fiber's kinetic part is the periodic assembly of its row
    # (measured 2e-16), and the fiber sum of the other route gives the same
    # matrix, since the phases of its off-diagonal g-terms sum to zero
    # (8e-16); with the opposite sign both were the transpose, 0.18 away
    grid = BoxGrid(dim=2, half_length=5.0, n=24)
    grid1 = BoxGrid(dim=1, half_length=5.0, n=24)
    hv = spectral_module._symbol_samples(tilted_kinetic, grid)
    fiber, a_vals, _ = spectral_module._fiber_family(tanh_profile, tilted_kinetic, hv, grid1, 1, None)
    row = assemble(SchrodingerSpec(h=lambda p: tilted_kinetic(np.concatenate([p, 0 * p], axis=-1)),
                                   field=None, grid=replace(grid1, bc="periodic"))).mat
    monkeypatch.setattr(spectral_module, "_separable_split", lambda hv, invariant_axis: None)
    summed, _, _ = spectral_module._fiber_family(tanh_profile, tilted_kinetic, hv, grid1, 1, None)
    for k in (-1.3, 0.0, 2.1):
        got = fiber(k)
        assert rel_gap(got - np.diag((a_vals - k) ** 2), row) <= 1e-12
        assert rel_gap(summed(k), got) <= 1e-12


def test_fibered_matches_dense_bulk_spectrum():
    # B = 1 + 0.5 tanh(x0) does not depend on x1: the dense box operator's
    # bulk eigenvalues must lie on the fibered bands
    grid = BoxGrid(dim=2, half_length=6.0, n=48)
    window = (0.0, 4.0)
    spec = SchrodingerSpec(h=free_kinetic, field=tanh_field(0), grid=grid)
    dense = eig(assemble(spec), window, vectors=True)
    bulk = dense.values[dense.bulk_scores(grid.half_length / 4.0) >= 0.6]
    fibered = fibered_spectrum(tanh_profile, free_kinetic, grid, invariant_axis=1, window=window)
    assert len(bulk) > 0 and len(fibered) > 0
    gaps = np.abs(bulk[:, None] - fibered.values[None, :]).min(axis=1)
    assert gaps.max() <= 0.1


@pytest.mark.parametrize("collar", [np.nan, np.inf, -1.0])
def test_bulk_scores_refuse_a_collar_that_is_not_finite_and_non_negative(collar):
    # NaN or inf left no interior node, so every score read 0.0 and every
    # state an edge state; -1 kept every node, so every score read 1.0
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    res = eig(assemble(SchrodingerSpec(h=free_kinetic, field=None, grid=grid)), (0.0, 8.0), vectors=True)
    assert len(res) and np.all((res.bulk_scores() > 0) & (res.bulk_scores() < 1))
    with pytest.raises(ValueError, match="collar must be finite and >= 0"):
        res.bulk_scores(collar)


def test_fiber_gauge_is_the_profile_antiderivative():
    # B = 1 + 0.5 tanh(x/0.7) integrates to x + 0.35 log cosh(x/0.7)
    for grid in (BoxGrid(dim=1, half_length=5.0, n=24), BoxGrid(dim=1, half_length=6.0, n=12)):
        xs = grid.axis()
        got = spectral_module._antiderivative(lambda t: 1.0 + 0.5 * np.tanh(t / 0.7), xs)
        assert np.abs(got - (xs + 0.35 * np.log(np.cosh(xs / 0.7)))).max() <= 1e-12


def concave_kinetic(p):
    return -free_kinetic(p)


def complex_kinetic(p):
    return free_kinetic(p) + 0.5j


@pytest.mark.parametrize("h, match", [(concave_kinetic, "non-elliptic"), (complex_kinetic, "real-valued")],
                         ids=["concave", "complex"])
def test_fibered_and_union_refuse_what_assemble_refuses(monkeypatch, h, match):
    # -|p|^2 gave 471 union points and 229 fibered values in (-50, 0); a
    # complex symbol lost its imaginary part behind a ComplexWarning
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a fiber for a symbol assemble refuses")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(spectral_module, "_solve", no_solve)
    grid = BoxGrid(dim=2, half_length=4.0, n=16)
    window = (-50.0, 0.0)
    desc = Cartesian2D(b1=tanh_profile, b2=lambda t: np.ones_like(t), b1_limits=(0.5, 1.5),
                       b2_limits=(1.0, 1.0))
    with pytest.raises(ValueError, match=match):
        assemble(SchrodingerSpec(h=h, field=tanh_field(0), grid=grid))
    with pytest.raises(ValueError, match=match):
        fibered_spectrum(tanh_profile, h, grid, window=window)
    with pytest.raises(ValueError, match=match):
        asymptotic_spectra(desc, h, grid, window)


def test_fibered_route_loads_no_scipy():
    code = """
import sys
import numpy as np
import magweyl as mw
g = mw.BoxGrid(dim=2, half_length=3.0, n=12)
mw.fibered_spectrum(lambda t: 1.0 + 0.5 * np.tanh(t), lambda p: np.sum(p**2, axis=-1), g)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["[]"]


# ---------------------------------------------------------------------------
# (e) limit operators and their union
# ---------------------------------------------------------------------------


def test_landau_oracle_levels_and_zero_field_refusal():
    res = landau_oracle(-1.5, 0.25, (1.0, 12.0))
    assert np.array_equal(res.values, [1.75, 4.75, 7.75, 10.75])
    assert np.all(np.isinf(res.multiplicity))
    with pytest.raises(ValueError, match="b != 0"):
        landau_oracle(0.0, 0.25, (0.0, 5.0))


def test_landau_oracle_names_the_public_route_to_the_zero_field_band():
    with pytest.raises(ValueError, match="asymptotic_spectra"):
        landau_oracle(0.0, 0.25, (0.0, 5.0))


def test_landau_oracle_refuses_non_finite_input():
    # a non-finite hi and a NaN b or v used to loop forever looking for a
    # level above hi; lo = -inf and b = inf used to return a result, and
    # are refused with the rest
    for b, v, window in (
        (1.0, 0.0, (0.0, np.inf)),
        (1.0, 0.0, (-np.inf, 5.0)),
        (np.nan, 0.0, (0.0, 5.0)),
        (1.0, np.nan, (0.0, 5.0)),
        (np.inf, 0.0, (0.0, 5.0)),
    ):
        with pytest.raises(ValueError, match="finite"):
            landau_oracle(b, v, window)
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=bump)
    with pytest.raises(ValueError, match="finite"):
        asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=3.0, n=8), (0.0, np.inf))


def test_landau_oracle_matches_the_level_loop():
    # the closed-form range of k keeps the loop's comparisons, so finite
    # windows give the same levels bit for bit, ends on a level included
    def loop(b, v, lo, hi):
        vals, k = [], 0
        while (2 * k + 1) * abs(b) + v <= hi:
            if (2 * k + 1) * abs(b) + v >= lo:
                vals.append((2 * k + 1) * abs(b) + v)
            k += 1
        return np.asarray(vals, dtype=float)

    rng = np.random.default_rng(83)
    for i in range(400):
        b, v = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 3.0), rng.uniform(-5.0, 5.0)
        lo, hi = rng.uniform(-10.0, 30.0), rng.uniform(-10.0, 60.0)
        if i % 2:
            k1, k2 = rng.integers(0, 10, size=2)
            lo, hi = (2 * k1 + 1) * abs(b) + v, (2 * (k1 + k2) + 1) * abs(b) + v
        if not lo < hi:
            # an empty or reversed window is refused, not answered with no levels
            with pytest.raises(ValueError, match="finite bounds"):
                landau_oracle(b, v, (lo, hi))
            continue
        got = landau_oracle(b, v, (lo, hi)).values
        want = loop(b, v, lo, hi)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (b, v, lo, hi)


def test_asymptotic_spectra_const_plus_decay_is_landau():
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=bump)
    union = asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=6.0, n=48), (0.0, 8.0))
    assert len(union.merged) == 4
    assert np.abs(union.merged - np.array([1.0, 3.0, 5.0, 7.0])).max() <= 1e-12


def test_asymptotic_spectra_vanishing_oscillation_one_component_per_probe():
    desc = VanishingOscillation(
        dim=2, b_profile=lambda p: 1.0 + 0.5 * np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1)))
    )
    pairs = desc.pairs()
    union = asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=3.0, n=12), (0.0, 8.0))
    assert [label for label, _ in union.components] == [p.label for p in pairs]
    for pair, (_, res) in zip(pairs, union.components):
        b = pair.field.constant[0, 1]
        assert res.meta["source"] == "landau_oracle"
        assert np.array_equal(res.values, landau_oracle(b, 0.0, (0.0, 8.0)).values)


def test_asymptotic_spectra_vanishing_oscillation_carries_each_probes_potential():
    # each probe's component is the Landau spectrum shifted by that probe's
    # own v, both read from the profiles at the probe points; a dropped or
    # shared potential would fail here
    probes = []

    def b_profile(p):
        probes.append(p)
        return 1.0 + 0.5 * np.sin(np.sqrt(1.0 + np.linalg.norm(p, axis=-1)))

    def v_profile(p):
        return 0.8 * np.cos(0.05 * np.linalg.norm(p, axis=-1) + p[..., 0] / 40.0)

    desc = VanishingOscillation(dim=2, b_profile=b_profile, v_profile=v_profile)
    window = (0.0, 8.0)
    union = asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=3.0, n=12), window)
    (points,) = probes
    b_vals, v_vals = b_profile(points), v_profile(points)
    assert len(union.components) == len(points) and np.ptp(v_vals) > 0.5
    for b, v, (_, res) in zip(b_vals, v_vals, union.components):
        assert np.array_equal(res.values, landau_oracle(b, v, window).values)


def test_asymptotic_spectra_refuses_a_grid_of_another_dimension(monkeypatch):
    # a planar descriptor on a 3-d grid returned [1, 3, 5, 7]
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a pair on a grid of another dimension")

    for name in ("landau_oracle", "_band_spectrum", "fibered_spectrum", "assemble", "eig"):
        monkeypatch.setattr(spectral_module, name, no_solve)
    desc = VanishingOscillation(dim=2, b_profile=lambda p: np.ones(p.shape[:-1]))
    with pytest.raises(ValueError, match="grid dimension 3 does not match"):
        asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=3, half_length=2.0, n=4), (0.0, 8.0))


def test_asymptotic_spectra_dimension_refusal_names_the_pair():
    # with several pairs the refusal must say which pair's field is wrong
    desc = VanishingOscillation(dim=2, b_profile=lambda p: np.ones(p.shape[:-1]))
    label = asymptotic_pairs(desc)[0].label
    with pytest.raises(ValueError, match=f"field dimension 2 of the pair '{label}'"):
        asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=3, half_length=2.0, n=4), (0.0, 8.0))


def test_asymptotic_spectra_cartesian_v1_only_components_are_their_ends():
    # with V = V1(x1) the missing V2 is 1: the x2 ends carry V1 itself and
    # the x1 ends the constant limits of V1
    def b1(t):
        return 1.0 + 0.5 * np.tanh(t)

    def b2(t):
        return 1.0 + 0.2 * np.tanh(t)

    def v1(t):
        return 0.5 + 0.4 * np.tanh(t)

    desc = Cartesian2D(b1=b1, b2=b2, b1_limits=(0.5, 1.5), b2_limits=(0.8, 1.2),
                       v1=v1, v1_limits=(0.1, 0.9))
    grid = BoxGrid(dim=2, half_length=4.0, n=16)
    window = (0.0, 6.0)
    union = dict(asymptotic_spectra(desc, free_kinetic, grid, window).components)
    ends = {
        "x2 -> -inf": (lambda u: 0.8 * b1(u), 1, v1),
        "x2 -> +inf": (lambda u: 1.2 * b1(u), 1, v1),
        "x1 -> -inf": (lambda u: 0.5 * b2(u), 0, 0.1),
        "x1 -> +inf": (lambda u: 1.5 * b2(u), 0, 0.9),
    }
    assert sorted(union) == sorted(ends)
    for label, (profile, axis, v) in ends.items():
        want = fibered_spectrum(profile, free_kinetic, grid, invariant_axis=axis, potential=v, window=window)
        assert len(want) > 0 and np.array_equal(union[label].values, want.values), label


def test_asymptotic_spectra_cartesian_components_are_fibered():
    desc = Cartesian2D(
        b1=tanh_profile,
        b2=lambda t: 1.0 + 0.2 * np.tanh(t),
        b1_limits=(0.5, 1.5),
        b2_limits=(0.8, 1.2),
    )
    union = asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=4.0, n=16), (0.0, 6.0))
    assert len(union.components) == 4
    assert all(res.meta["source"] == "fibered" for _, res in union.components)
    assert len(union.merged) > 0


@pytest.mark.parametrize("end", ["x2 -> +inf", "x1 -> -inf"], ids=["x2_plus", "x1_minus"])
def test_cartesian_fibered_end_matches_dense_bulk_spectrum(end):
    # one end per invariant axis: the bulk eigenvalues of the end's dense box
    # operator lie on the bands of its fibered union component
    desc = Cartesian2D(
        b1=tanh_profile,
        b2=lambda t: 1.0 + 0.2 * np.tanh(t),
        b1_limits=(0.5, 1.5),
        b2_limits=(0.8, 1.2),
    )
    grid = BoxGrid(dim=2, half_length=6.0, n=48)
    window = (0.0, 4.0)
    pair = next(p for p in asymptotic_pairs(desc) if p.label == end)
    fibered = dict(asymptotic_spectra(desc, free_kinetic, grid, window).components)[end]
    assert fibered.meta["invariant_axis"] == pair.invariant_axis
    spec = SchrodingerSpec(h=free_kinetic, field=pair.field, potential=pair.potential, grid=grid)
    dense = eig(assemble(spec), window, vectors=True)
    bulk = dense.values[dense.bulk_scores(grid.half_length / 4.0) >= 0.6]
    assert len(bulk) > 0 and len(fibered) > 0
    gaps = np.abs(bulk[:, None] - fibered.values[None, :]).min(axis=1)
    assert gaps.max() <= 0.1


def test_asymptotic_spectra_mixed_components_are_dense_eigensolves():
    # position-dependent limits take the dense fallback: each component is
    # the windowed spectrum of its assembled pair on the supplied grid
    desc = MixedVOAP(
        dim=2,
        vo_factor=lambda p: 1.0 + 0.4 * p[..., 0] / np.sqrt(1.0 + np.sum(p * p, axis=-1)),
        ap_factor=lambda p: 1.0 + 0.3 * np.cos(p[..., 0]),
    )
    grid = BoxGrid(dim=2, half_length=3.0, n=10)
    window = (0.0, 8.0)
    pairs = asymptotic_pairs(desc)
    union = asymptotic_spectra(desc, free_kinetic, grid, window)
    assert len(union.components) == len(pairs) == 9
    assert [label for label, _ in union.components] == [p.label for p in pairs]
    for pair, (_, res) in zip(pairs, union.components):
        assert res.meta["source"] == "eig"
        spec = SchrodingerSpec(h=free_kinetic, field=pair.field, potential=pair.potential, grid=grid)
        assert np.array_equal(res.values, eig(assemble(spec), window).values)
    every = np.concatenate([res.values for _, res in union.components])
    assert np.array_equal(union.merged, merge_points(every, 1e-6))


def test_asymptotic_spectra_zero_field_is_the_free_band():
    # b = 0 with |p|^2 leaves the band [v, inf): the window's part of it, at
    # the step (hi - lo)/2000, both ends included
    desc = ConstPlusDecay(dim=2, b_inf=0.0, v_inf=0.5)
    union = asymptotic_spectra(desc, free_kinetic, BoxGrid(dim=2, half_length=3.0, n=12), (0.0, 8.0))
    ((_, res),) = union.components
    assert res.meta["source"] == "band_range"
    assert res.values[0] == 0.5 and res.values[-1] == 8.0 and len(res.values) == 1876
    assert np.abs(np.diff(res.values) - 0.004).max() <= 1e-12
    assert np.all(np.isinf(res.multiplicity))
    assert np.array_equal(union.merged, res.values)


def test_spectral_reads_h_on_a_mesh_only_through_the_guard(monkeypatch):
    # the union drew 32 random points and a (4n+1)^2 band mesh of its own,
    # and the fibered route called h 4 times on 13-point probes
    entries, guarded, readers = [], [], []
    for name in ("asymptotic_spectra", "fibered_spectrum", "assemble"):
        def entry(*args, _plain=getattr(spectral_module, name), **kwargs):
            entries.append(_plain)
            return _plain(*args, **kwargs)

        monkeypatch.setattr(spectral_module, name, entry)
    guard = spectral_module._symbol_samples

    def guard_spy(h, grid=None):
        guarded.append(grid)
        return guard(h, grid)

    monkeypatch.setattr(spectral_module, "_symbol_samples", guard_spy)

    def counted(h):
        def f(p):
            readers.append((sys._getframe(1).f_code.co_name, np.array(p)))
            return h(p)

        return f

    cartesian = Cartesian2D(b1=tanh_profile, b2=lambda t: 1.0 + 0.2 * np.tanh(t),
                            b1_limits=(0.5, 1.5), b2_limits=(0.8, 1.2))
    mixed = MixedVOAP(dim=2, vo_factor=lambda p: 1.0 + 0.4 * np.tanh(p[..., 0]),
                      ap_factor=lambda p: 1.0 + 0.3 * np.cos(p[..., 0]))
    cases = [
        (cartesian, free_kinetic, 1 + 4),
        (cartesian, nonseparable_kinetic, 1 + 4),
        (ConstPlusDecay(dim=2, b_inf=0.0, v_inf=0.5), free_kinetic, 1),
        (ConstPlusDecay(dim=2, b_inf=1.0, b_decay=bump), free_kinetic, 1),
        (mixed, free_kinetic, 1 + 9),
    ]
    grid = BoxGrid(dim=2, half_length=3.0, n=10)
    for desc, h, want in cases:
        for log in (entries, guarded, readers):
            log.clear()
        spectral_module.asymptotic_spectra(desc, counted(h), grid, (0.0, 6.0))
        assert len(entries) == want and guarded == [grid] * want
        on_mesh = [p for who, p in readers if who == "_symbol_samples"]
        assert len(on_mesh) == want
        assert all(np.array_equal(p, grid.momentum().mesh()) for p in on_mesh)
        assert {who for who, _ in readers} <= {"_symbol_samples", "fiber"}
    for helper, params in ((spectral_module._is_free_kinetic, ["hv", "grid"]),
                           (spectral_module._separable_split, ["hv", "invariant_axis"]),
                           (spectral_module._band_spectrum, ["v", "window", "step"])):
        assert list(inspect.signature(helper).parameters) == params


# ---------------------------------------------------------------------------
# (f) point-set helpers
# ---------------------------------------------------------------------------


def test_hausdorff_empty_set_conventions():
    window = (0.0, 8.0)
    assert hausdorff([], [], window) == 0.0
    assert hausdorff([9.0], [-1.0], window) == 0.0  # both empty after clipping
    assert hausdorff([1.0], [], window) == 8.0
    assert hausdorff([], [1.0, 3.0], window) == 8.0
    assert hausdorff([1.0, 3.0], [1.5], window) == 1.5


def test_hausdorff_refuses_bad_windows_and_nan_points():
    for window in ((3.0, 0.0), (1.0, 1.0), (0.0, np.inf), (np.nan, 3.0)):
        with pytest.raises(ValueError, match="finite bounds"):
            hausdorff([1.0, 2.0], [1.5], window)
    for a, b in (([1.0, np.nan], [1.5]), ([1.0], [np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            hausdorff(a, b, (0.0, 3.0))
    # finite points outside the window are still clipped, infinite ones too
    assert hausdorff([1.0, 9.0, np.inf], [1.5, -np.inf], (0.0, 3.0)) == 0.5


def test_merge_points_drops_close_duplicates():
    assert np.array_equal(merge_points([3.0, 1.0, 1.0 + 1e-8, 2.0], 1e-6), [1.0, 2.0, 3.0])
    assert np.array_equal(merge_points([0.0, 0.6, 1.2], 1.0), [0.0, 1.2])
    assert len(merge_points([], 1e-6)) == 0


def test_merge_points_refuses_nan():
    # [1, nan, 2] came back as [1, 2]; an eps of NaN returned [1, 2, 3] as
    # [1], and a negative one kept exact duplicates
    with pytest.raises(ValueError, match="NaN"):
        merge_points([1.0, np.nan, 2.0], 1e-6)
    for eps in (np.nan, np.inf, -np.inf, -1e-6):
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            merge_points([1.0, 2.0, 3.0], eps)
    assert np.array_equal(merge_points([1.0, 1.0, 2.0], 0.0), [1.0, 2.0])


# ---------------------------------------------------------------------------
# (g) eig's real forms; a bare array has no grid, so eig(op.mat) is the
# independent complex route
# ---------------------------------------------------------------------------


def const_plus_decay_op(n, half_length):
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=lambda x: 0.5 * np.exp(-np.sum(x * x, axis=-1)))
    grid = BoxGrid(dim=2, half_length=half_length, n=n)
    return assemble(
        SchrodingerSpec(h=free_kinetic, field=desc.field(), potential=desc.potential(), grid=grid)
    )


def route_case(case):
    grid = BoxGrid(dim=2, half_length=3.0, n=16)
    if case == "const_plus_decay":
        return const_plus_decay_op(16, 3.0)
    if case.startswith("constant_3d"):
        # B_01 and B_12 both change sign under x_1 -> -x_1, as conjugation
        # does; B_02 alone changes sign under x_0 and x_2 -> -x_2
        b = np.zeros((3, 3))
        if case == "constant_3d":
            b[0, 1], b[1, 2] = 0.8, 0.5
        else:
            b[0, 2] = 0.8
        field = MagneticField(dim=3, constant=b - b.T)
        grid = BoxGrid(dim=3, half_length=2.0, n=8)
    elif case == "tanh_x0":
        field = tanh_field(0)
    elif case == "odd_product":
        field = MagneticField.from_scalar_2d(lambda x: 1.0 + 0.3 * x[..., 0] * x[..., 1])
    else:
        field = MagneticField.zero(2)
    return assemble(SchrodingerSpec(h=free_kinetic, field=field, potential=bump, grid=grid))


@pytest.mark.parametrize(
    "case, route",
    [
        ("const_plus_decay", "reflections 0 1"),
        ("constant_3d", "reflection 1"),
        ("constant_3d_b02", "reflections 0 2"),
        ("tanh_x0", "reflection 1"),
        ("odd_product", "complex"),
        ("zero", "real"),
    ],
)
def test_eig_route_follows_symmetry(case, route):
    op = route_case(case)
    got = eig(op, (0.0, 6.0))
    want = eig(op.mat, (0.0, 6.0))
    assert got.meta["real_form"] == route
    assert got.meta["size"] == op.dim
    assert ("reflection_residual" in got.meta) == route.startswith("reflection")
    assert len(got) == len(want) > 0
    if route.startswith("reflection"):
        assert got.meta["reflection_residual"] <= 1e-12
        assert np.abs(got.values - want.values).max() <= 1e-12 * max(1.0, np.abs(want.values).max())
    else:
        # the same solve as before: the values agree bit for bit
        assert np.array_equal(got.values, want.values)


def check_vectors_against_complex_route(op, window, route):
    # nearly degenerate levels make single vectors ill-defined, so compare
    # the window's spectral projector, with both window edges in gaps
    every = eig(op.mat).values
    assert np.abs(every - window[0]).min() >= 0.1 and np.abs(every - window[1]).min() >= 0.1
    got = eig(op, window, vectors=True)
    want = eig(op.mat, window, vectors=True)
    assert got.meta["real_form"] == route
    assert want.meta["real_form"] == "complex"
    assert np.abs(got.values - want.values).max() <= 1e-12
    mat, v = op.mat, got.vectors
    assert np.abs(mat @ v - v * got.values).max() <= 1e-10 * np.abs(mat).max()
    assert np.abs(v.conj().T @ v - np.eye(len(got))).max() <= 1e-12
    proj = v @ v.conj().T
    assert np.abs(proj - want.vectors @ want.vectors.conj().T).max() <= 1e-8


def test_reflection_form_vectors_match_complex_route():
    # both reflections hold: the U-even and U-odd blocks are solved apart
    check_vectors_against_complex_route(const_plus_decay_op(24, 3.0), (0.0, 6.6), "reflections 0 1")


def test_single_reflection_vectors_match_complex_route():
    # only x_1 -> -x_1 holds: one real block of the full dimension
    check_vectors_against_complex_route(route_case("tanh_x0"), (0.0, 5.5), "reflection 1")


def test_eig_vectors_of_a_window_empty_in_a_reflection_block():
    # h = |p|^2, B = 1 takes the two-reflection route; a window holding no
    # value, and one around a simple level, which leaves one block empty
    grid = BoxGrid(dim=2, half_length=3.0, n=12)
    op = assemble(SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(1.0), grid=grid))
    empty = eig(op, (-5.0, -4.0), vectors=True)
    assert empty.meta["real_form"] == "reflections 0 1"
    assert len(empty) == 0 and empty.vectors.shape == (144, 0)
    level = 0.8690222
    one = eig(op, (level - 1e-6, level + 1e-6), vectors=True)
    assert len(one) == 1 and one.vectors.shape == (144, 1)
    v = one.vectors[:, 0]
    assert np.linalg.norm(op.mat @ v - one.values[0] * v) <= 1e-10 * np.abs(op.mat).max()
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_broken_reflection_falls_back_to_complex_route():
    op = const_plus_decay_op(12, 3.0)
    mat = op.mat.copy()
    # a Hermitian change on one pair of neighbours that no reflection maps
    # onto itself: nodes (2, 3) and (2, 4)
    i, j = 2 * 12 + 3, 2 * 12 + 4
    mat[i, j] += 1e-6
    mat[j, i] += 1e-6
    got = eig(OperatorMatrix(mat, op.grid), (0.0, 6.0))
    assert eig(op, (0.0, 6.0)).meta["real_form"] == "reflections 0 1"
    assert got.meta["real_form"] == "complex"
    assert "reflection_residual" not in got.meta
    assert np.array_equal(got.values, eig(mat, (0.0, 6.0)).values)


def test_broken_second_reflection_falls_back_to_one_reflection():
    op = const_plus_decay_op(12, 3.0)
    mat = op.mat.copy()
    # a Hermitian change on the pair of nodes (2, 3) and (9, 3), which
    # x_0 -> -x_0 maps onto itself and x_1 -> -x_1 does not
    i, j = 2 * 12 + 3, 9 * 12 + 3
    mat[i, j] += 1e-6
    mat[j, i] += 1e-6
    got = eig(OperatorMatrix(mat, op.grid), (0.0, 6.0))
    want = eig(mat, (0.0, 6.0))
    assert got.meta["real_form"] == "reflection 0"
    assert got.meta["reflection_residual"] <= 1e-12
    assert len(got) == len(want) > 0
    assert np.abs(got.values - want.values).max() <= 1e-12 * max(1.0, np.abs(want.values).max())


def test_eig_memory_peak():
    # the complex route peaked at 51.1 MB here: the 8.4 MB |Im M| scan, a
    # 16.8 MB complex work copy, its 16.8 MB Fortran-order copy inside the
    # driver and the 16.8 MB eigenvector array.  The bound is half of that,
    # so one complex work copy (16.8 MB) on top of the real form's 18.9 MB
    # breaks it.  The assembled matrix is allocated before tracing.
    # The split route peaks at 10.6 MB, in the symmetry scan's row blocks;
    # each N/2 form (2.1 MB) and its driver buffer (2.1 MB) stay below.
    # The second bound is 1.5 times that peak, so the single-reflection
    # route's N x N form and buffer (18.9 MB) break it.
    op = const_plus_decay_op(32, 4.0)
    peak, res = traced_peak(lambda: eig(op, (0.0, 8.0), vectors=True))
    assert res.meta["real_form"] == "reflections 0 1"
    assert peak <= 25.5e6
    assert peak <= 16.0e6


# ---------------------------------------------------------------------------
# (h) the box ladder's acceptance rules
# ---------------------------------------------------------------------------

LADDER_REASONS = {
    "not persistent across the ladder",
    "multiplicity does not grow along the ladder",
    "no bulk-localized member",
}


def test_essential_estimate_acceptance_rules():
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=lambda q: 0.5 * np.exp(-np.sum(q * q, axis=-1)))
    grid = BoxGrid(dim=2, half_length=3.0, n=12)
    spec = SchrodingerSpec(h=free_kinetic, field=desc.field(), potential=desc.potential(), grid=grid)
    est = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert len(est.clusters) > 0 and len(est.rejected) > 0
    for rec in est.clusters:
        counts = rec["counts"]
        assert len(counts) == 3
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:])) and counts[-1] > counts[0]
        assert rec["bulk_count"] > 0 and len(rec["bulk_values"]) == rec["bulk_count"]
    bulk = np.concatenate([rec["bulk_values"] for rec in est.clusters])
    assert np.array_equal(est.points, np.sort(bulk))
    reasons = {rec["reason"] for rec in est.rejected}
    assert reasons <= LADDER_REASONS
    # single bulk eigenvalues persist along the ladder without growing
    assert "multiplicity does not grow along the ladder" in reasons
    lines = est.summary().splitlines()
    assert f"{len(est.points)} persistent bulk values" in lines[0]
    assert f"{len(est.rejected)} rejected clusters" in lines[0]
    assert len(lines) == 1 + len(est.rejected)


def test_ladder_and_union_in_a_pool_equal_the_serial_runs():
    spec = decay_spec(3.0, 12)
    serial = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    pooled = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0, threads=2)
    assert len(serial.clusters) > 0
    assert np.array_equal(pooled.points, serial.points)
    assert all(np.array_equal(a, b) for a, b in zip(pooled.per_box, serial.per_box))
    assert [r["counts"] for r in pooled.clusters] == [r["counts"] for r in serial.clusters]
    assert [(r["lo"], r["reason"]) for r in pooled.rejected] == [(r["lo"], r["reason"]) for r in serial.rejected]
    desc = MixedVOAP(dim=2, vo_factor=lambda p: 1.0 + 0.4 * np.tanh(p[..., 0]),
                     ap_factor=lambda p: 1.0 + 0.3 * np.cos(p[..., 0]))
    grid = BoxGrid(dim=2, half_length=3.0, n=10)
    serial = asymptotic_spectra(desc, free_kinetic, grid, (0.0, 8.0))
    pooled = asymptotic_spectra(desc, free_kinetic, grid, (0.0, 8.0), threads=2)
    assert [label for label, _ in pooled.components] == [label for label, _ in serial.components]
    assert all(np.array_equal(a.values, b.values) for (_, a), (_, b) in zip(pooled.components, serial.components))
    assert np.array_equal(pooled.merged, serial.merged) and len(serial.merged) > 0


# ---------------------------------------------------------------------------
# (i) the ladder reads one circulation table per lattice group
# ---------------------------------------------------------------------------


def decay_spec(half_length, n):
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=lambda q: 0.5 * np.exp(-np.sum(q * q, axis=-1)))
    grid = BoxGrid(dim=2, half_length=half_length, n=n)
    return SchrodingerSpec(h=free_kinetic, field=desc.field(), potential=desc.potential(), grid=grid)


def record_assembly(monkeypatch):
    """Every rung's spec and matrix as essential_estimate assembles them."""
    seen = []
    plain = spectral_module.assemble

    def spy(spec):
        op = plain(spec)
        seen.append((spec.grid, spec.vector_potential, op.mat))
        return op

    monkeypatch.setattr(spectral_module, "assemble", spy)
    return seen


def cross_pairs(grid):
    # in-box node pairs of |p|²'s kernel support, the cross of u on an axis
    # with |u_e| <= n/2 - 1 (the rest of its window is rounding residue):
    # the diagonal once and each other unordered pair once
    per_axis = sum(grid.n - s for s in range(1, grid.n // 2))
    return grid.size + grid.dim * grid.n ** (grid.dim - 1) * per_axis


def test_ladder_rungs_read_one_table_bit_for_bit(monkeypatch):
    spec = decay_spec(3.0, 12)
    seen = record_assembly(monkeypatch)
    est = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert [g.n for g, _, _ in seen] == [12, 16, 20]
    # one tabulated gauge, shared by the three rungs
    assert seen[0][1] is not None and all(pot is seen[0][1] for _, pot, _ in seen)
    for g, _, mat in seen:
        assert np.array_equal(mat, assemble(spec.with_grid(g)).mat)
    monkeypatch.setattr(spectral_module, "_rung_specs", lambda s, rungs: [s.with_grid(g) for g in rungs])
    plain = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert len(est.points) and np.array_equal(est.points, plain.points)
    assert [rec["counts"] for rec in est.clusters] == [rec["counts"] for rec in plain.clusters]


def test_ladder_integrates_the_largest_rungs_pairs_once(monkeypatch):
    integrated = []
    circulation = spectral_module.VectorPotential.circulation

    def spy(self, q, x):
        # every call: the rungs read the table's array and call no
        # circulation of their own
        integrated.append(np.broadcast(np.asarray(q), np.asarray(x)).size // self.dim)
        return circulation(self, q, x)

    monkeypatch.setattr(spectral_module.VectorPotential, "circulation", spy)
    essential_estimate(decay_spec(3.0, 12), (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    # the square window held 42,250 pairs
    assert sum(integrated) == cross_pairs(BoxGrid(dim=2, half_length=5.0, n=20)) == 5800


def shifted_spec(spec):
    """``spec`` with the transversal gauge of its field shifted by RHO."""
    return replace(spec, vector_potential=gauge_shift(transversal_gauge(spec.field), RHO))


def test_ladder_tabulates_a_shifted_quadrature_gauge(monkeypatch):
    # the shifted gauge's circulation runs the flux quadrature of the gauge
    # it wraps, so the ladder tabulates it as it does the plain gauge
    integrated = []
    quadrature = fields_module._flux_quadrature

    def spy(B, q, x, y, s_order, t_order):
        integrated.append(np.asarray(y).size // B.dim)
        return quadrature(B, q, x, y, s_order, t_order)

    monkeypatch.setattr(fields_module, "_flux_quadrature", spy)
    spec = shifted_spec(decay_spec(3.0, 12))
    est = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert sum(integrated) == 5800
    monkeypatch.setattr(spectral_module, "_rung_specs", lambda s, rungs: [s.with_grid(g) for g in rungs])
    plain = essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert len(est.points) and np.array_equal(est.points, plain.points)


def test_ladder_builds_no_table_for_a_shifted_closed_gauge(monkeypatch):
    def no_table(*args):
        raise AssertionError("a closed circulation needs no table")

    monkeypatch.setattr(spectral_module, "_circulation_table", no_table)
    spec = shifted_spec(SchrodingerSpec(h=free_kinetic, field=MagneticField.constant_2d(1.0),
                                        grid=BoxGrid(dim=2, half_length=3.0, n=12)))
    seen = record_assembly(monkeypatch)
    essential_estimate(spec, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert len(seen) == 3 and all(pot is spec.vector_potential for _, pot, _ in seen)


@pytest.mark.parametrize("boxes, tabled", [((3.0, 4.1), [False, False]),
                                           ((3.0, 4.0, 4.6), [True, True, False])])
def test_ladder_groups_rungs_by_lattice(monkeypatch, boxes, tabled):
    # density 2 gives spacings 0.5 and 0.5125 (4.1) or 0.5111 (4.6): a rung
    # off the others' lattice integrates its own pairs, as a table read by
    # one rung saves nothing
    spec = decay_spec(3.0, 12)
    seen = record_assembly(monkeypatch)
    essential_estimate(spec, boxes, (0.0, 8.0), density=2.0)
    assert [pot is not None for _, pot, _ in seen] == tabled
    for g, _, mat in seen:
        assert np.array_equal(mat, assemble(spec.with_grid(g)).mat)


def test_circulation_table_refuses_a_grid_it_does_not_cover():
    # the table holds the pairs of truncated boxes of its lattice centred in
    # its own, for kernel supports within its own; rep and rep_banded refuse
    # any other grid or support rather than integrate or misread its pairs
    grid = BoxGrid(dim=2, half_length=3.0, n=12)
    pot = transversal_gauge(variable_field())
    table = crossed_module._circulation_table(pot, grid, np.ones((7, 7), dtype=bool))
    uncovered = [
        (BoxGrid(dim=2, half_length=3.1, n=12), 7),  # another spacing
        (grid, 9),  # a wider window
        (BoxGrid(dim=2, half_length=3.0, n=12, bc="periodic"), 7),
        (BoxGrid(dim=2, half_length=3.5, n=14), 7),  # a larger box
    ]
    for g, d in uncovered:
        k = kernel_from_func(lambda q, x: np.exp(-np.sum((q + x) ** 2, axis=-1)) + 0j, g, disp_count=d)
        for route in (rep, rep_banded):
            with pytest.raises(ValueError, match="circulation table covers"):
                route(table, k)
    with pytest.raises(ValueError, match="truncated boxes"):
        crossed_module._circulation_table(pot, BoxGrid(dim=2, half_length=3.0, n=12, bc="periodic"), np.ones((11, 11), dtype=bool))
    # a table of a 9-node cross reads a rung of that support, at its window
    # or from a wider one whose other nodes are 0, and refuses a rung whose
    # support leaves the cross: |p|²'s 11-node cross, or a full square
    kernel = symbol_kernel(grid)
    cross = np.zeros((11, 11), dtype=bool)
    cross[5, :] = cross[:, 5] = True
    assert np.array_equal(crossed_module._support(kernel, crossed_module._KERNEL_TRIM), cross)
    table = crossed_module._circulation_table(pot, grid, cross[1:10, 1:10])
    inner = kernel.values[1:10, 1:10]
    for k in (replace(kernel, values=inner), replace(kernel, values=np.pad(inner, 1))):
        assert np.array_equal(rep(table, k).mat, rep(pot, k).mat)
    square = kernel_from_func(lambda q, x: np.exp(-np.sum((q + x) ** 2, axis=-1)) + 0j, grid, disp_count=3)
    for k in (kernel, square):
        for route in (rep, rep_banded):
            with pytest.raises(ValueError, match="circulation table covers"):
                route(table, k)


def test_support_walk_keeps_the_window_walks_entries_and_spectrum(monkeypatch):
    # |p|²'s kernel is a cross; the rest of its window is rounding residue.
    # rep walks the cross only: on it the entries are a walk of the whole
    # window's bit for bit, the entries it drops hold at most 1e-15 of the
    # largest, and the window's eigenvalues agree to 1e-12
    spec = decay_spec(5.0, 20)
    kernel = symbol_kernel(spec.grid)
    pot = transversal_gauge(spec.field)
    support = crossed_module._support(kernel, crossed_module._KERNEL_TRIM)
    got = rep(pot, kernel).mat
    res = eig(assemble(spec), (0.0, 8.0))
    whole = np.ones_like(support)
    monkeypatch.setattr(crossed_module, "_support", lambda k, rel_tol: whole)
    want = rep(pot, kernel).mat
    full = eig(assemble(spec), (0.0, 8.0))
    # the pairs written: y - x or x - y in the support, which padded by 10
    # nodes a side spans every step of the box
    reach = np.pad(support, 10)
    node = np.stack(np.unravel_index(np.arange(spec.grid.size), (20, 20)), axis=-1)
    steps = node[None, :, :] - node[:, None, :] + 19
    written = reach[steps[..., 0], steps[..., 1]] | reach[::-1, ::-1][steps[..., 0], steps[..., 1]]
    assert np.count_nonzero(support) == 2 * 19 - 1 and not written.all()
    assert np.array_equal(got[written], want[written])
    assert np.all(got[~written] == 0)
    assert np.abs(want[~written]).max() <= 1e-15 * np.abs(want).max()
    assert len(res.values) > 0 and res.values.shape == full.values.shape
    assert np.abs(res.values - full.values).max() <= 1e-12


def test_ladder_table_is_released_before_the_largest_eig(monkeypatch):
    tables, alive = [], []
    build, solve = spectral_module._circulation_table, spectral_module.eig

    def build_spy(*args):
        pot = build(*args)
        tables.append(weakref.ref(pot))
        return pot

    def eig_spy(op, *args, **kw):
        alive.append(tables[0]() is not None)
        return solve(op, *args, **kw)

    monkeypatch.setattr(spectral_module, "_circulation_table", build_spy)
    monkeypatch.setattr(spectral_module, "eig", eig_spy)
    essential_estimate(decay_spec(3.0, 12), (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)
    assert len(tables) == 1 and alive == [True, True, False]


def test_ladder_refuses_a_bad_spec_before_tabulating(monkeypatch):
    def no_table(*args):
        raise AssertionError("tabulated a spec that assemble refuses")

    monkeypatch.setattr(spectral_module, "_circulation_table", no_table)
    spec = decay_spec(3.0, 12)
    concave = SchrodingerSpec(h=lambda p: -free_kinetic(p), field=spec.field, grid=spec.grid)
    with pytest.raises(ValueError, match="non-elliptic"):
        essential_estimate(concave, (3.0, 4.0, 5.0), (0.0, 8.0), density=2.0)


def test_stencil_ladder_tabulates_at_the_kernel_window(monkeypatch):
    # the table used to span every rung's full window, 1,452,960 pairs,
    # where the stencil's kernels are three nodes wide
    integrated = []
    quadrature = fields_module._flux_quadrature

    def spy(B, q, x, y, s_order, t_order):
        integrated.append(np.asarray(y).size // B.dim)
        return quadrature(B, q, x, y, s_order, t_order)

    field = MagneticField.from_scalar_2d(lambda x: 1.0 + 0.5 * np.exp(-np.sum(x * x, axis=-1)))
    grid = BoxGrid(dim=2, half_length=6.0, n=48)
    spec = SchrodingerSpec(h=stencil_kinetic(grid), field=field, grid=grid)
    boxes, window = (4.0, 5.0, 6.0), (0.0, 8.0)
    monkeypatch.setattr(fields_module, "_flux_quadrature", spy)
    seen = record_assembly(monkeypatch)
    est = essential_estimate(spec, boxes, window, density=4.0)
    assert sum(integrated) <= 20000
    assert [g.n for g, _, _ in seen] == [32, 40, 48]
    for g, _, mat in seen:
        assert np.array_equal(mat, assemble(spec.with_grid(g)).mat)
    # the same ladder on the untrimmed kernels
    monkeypatch.setattr(spectral_module, "_momentum_kernel", untrimmed_kernel)
    full = essential_estimate(spec, boxes, window, density=4.0)
    assert len(est.points) > 0 and est.points.shape == full.points.shape
    assert np.abs(est.points - full.points).max() <= 1e-12


# ---------------------------------------------------------------------------
# paper checks: Weyl quotients away from the box edge, Landau levels of
# radial symbols
# ---------------------------------------------------------------------------


def fd6_kinetic(grid):
    """Sixth-order finite-difference Laplacian symbol; its kernel reaches
    r = 3 nodes per axis."""
    d = grid.delta

    def f(p):
        pd = np.asarray(p) * d
        return np.sum(49 / 18 - 3 * np.cos(pd) + 0.3 * np.cos(2 * pd) - np.cos(3 * pd) / 45, axis=-1) / d**2

    return f


def box_csr(h, field, grid):
    """rep_banded's CSR matrix of Op^A(h) on a truncated box, from the
    trimmed kernel of h's samples."""
    kernel = _symbol_kernel(PhaseGridFunction.sample(h, grid, q_independent=True))
    return rep_banded(transversal_gauge(field), kernel).mat


def shell(grid, inner, outer):
    """Flat indices of the nodes with inner <= |x|_inf <= outer."""
    radius = np.abs(grid.points()).max(axis=-1)
    return np.flatnonzero((radius >= inner) & (radius <= outer))


def weyl_quotient(mat, cols, t):
    """μ = σ_min((M - t)[:, cols]): ‖(M - t)u‖/‖u‖ minimised over the u
    supported on ``cols``.  G = AᴴA of A = (M - t)[:, cols] is factored by
    ``splu`` and ARPACK finds G⁻¹'s largest eigenvalue 1/μ² at tol 1e-3."""
    from scipy.sparse import csc_array, identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    a = csc_array(mat - t * identity(mat.shape[0], format="csr"))[:, cols]
    solve = splu(csc_array(a.conj().T @ a)).solve
    top = eigsh(LinearOperator((len(cols),) * 2, matvec=solve, dtype=complex), k=1, tol=1e-3,
                return_eigenvectors=False)[0]
    return 1.0 / np.sqrt(top.real)


def test_weyl_quotient_gate_tightens_under_a_decaying_field():
    # Persson: dist(t, σ_ess) = lim_R μ_R(t).  On {R <= |x|_inf <= L - (r + ½)δ}
    # a u has (M - t)u = (H - t)u exactly, so the box edge never enters.
    # b = 1 + 0.5 exp(-|x|²), fd6 at 3 nodes per unit length, R = 2.5:
    # measured μ(1) 0.245 -> 1.17e-2, μ(3) 0.713 -> 5.51e-2, μ(2) 1.004 and
    # 1.000 at L = 8 and 10.  rep walks fd6's 13-point cross, so the CSR
    # holds about 12.6 entries per row, where the 7 × 7 window held 46.2
    desc = ConstPlusDecay(dim=2, b_inf=1.0, b_decay=lambda x: 0.5 * np.exp(-np.sum(x * x, axis=-1)))
    rungs = []
    for half_length in (8.0, 10.0):
        grid = BoxGrid(dim=2, half_length=half_length, n=round(6 * half_length))
        mat = box_csr(fd6_kinetic(grid), desc.field(), grid)
        assert mat.nnz <= 13 * grid.size
        cols = shell(grid, 2.5, half_length - 3.5 * grid.delta)
        rungs.append([weyl_quotient(mat, cols, t) for t in (1.0, 2.0, 3.0)])
    (gap1, mid, gap3), (end1, end_mid, end3) = rungs
    assert end1 <= gap1 / 4 and end3 <= gap3 / 4
    assert max(end1, end3) <= 0.08
    assert min(mid, end_mid) >= 0.9


def test_weyl_quotient_needs_a_collar_against_edge_states():
    # constant b = 1, trig symbol (r = 1): t = 2 sits in the Landau gap;
    # a one-node collar keeps μ at the gap distance (measured 1.007), while
    # on every node edge states fill the gap (measured 0.145)
    grid = BoxGrid(dim=2, half_length=4.0, n=32)
    d = grid.delta
    mat = box_csr(lambda p: np.sum(2.0 * (1.0 - np.cos(p * d)), axis=-1) / d**2,
                  MagneticField.constant_2d(1.0), grid)
    collared = weyl_quotient(mat, shell(grid, 0.0, 4.0 - 1.5 * d), 2.0)
    bare = weyl_quotient(mat, np.arange(grid.size), 2.0)
    assert collared >= 0.9 and bare <= 0.2


def laguerre_levels(f, b, count, nodes=40):
    """λ_k = ((-1)^k/b) ∫₀^∞ f(s) e^{-s/b} L_k(2s/b) ds, k < count: the
    Landau levels of Op^A(f(|p|²)) under a constant field b, by
    Gauss-Laguerre in u = s/b."""
    u, w = np.polynomial.laguerre.laggauss(nodes)
    lk = np.polynomial.laguerre.lagvander(2.0 * u, count - 1).T
    return (-1.0) ** np.arange(count) * ((lk * f(b * u)) @ w)


def test_radial_symbol_landau_levels():
    k = np.arange(4)
    for b in (0.5, 1.0, 2.0):
        assert np.allclose(laguerre_levels(lambda s: s, b, 4), (2 * k + 1) * b, rtol=1e-12, atol=0)
        assert np.allclose(laguerre_levels(lambda s: s * s, b, 4), ((2 * k + 1) ** 2 + 1) * b * b,
                           rtol=1e-12, atol=0)
    # h = sqrt(1 + |p|²) at b = 1: Op^A(h) is not h(Π^A), whose lowest
    # level would be sqrt(2); the box bulk (measured 1.3784) finds λ₀
    lowest = laguerre_levels(lambda s: np.sqrt(1.0 + s), 1.0, 1)[0]
    assert abs(lowest - 1.378936) <= 1e-6
    spec = SchrodingerSpec(h=lambda p: np.sqrt(1.0 + free_kinetic(p)), field=MagneticField.constant_2d(1.0),
                           grid=BoxGrid(dim=2, half_length=4.0, n=32))
    res = eig(assemble(spec), (0.0, 2.5), vectors=True)
    bulk = res.values[res.bulk_scores() >= 0.6].min()
    assert abs(bulk - lowest) <= 1e-3
    assert abs(bulk - np.sqrt(2.0)) >= 0.03
