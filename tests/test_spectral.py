"""Dense assembly: every gauge reproduces the representation ``rep``."""

import numpy as np
import pytest

from magweyl.crossed import rep, rep_banded, twisted_product, kernel_from_func
from magweyl.fields import (
    ConstPlusDecay,
    GaugeFunction,
    MagneticField,
    gauge_shift,
    transversal_gauge,
)
from magweyl.grid import BoxGrid, PhaseGridFunction, partial_fourier_inv
from magweyl.spectral import SchrodingerSpec, assemble, eig


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


# ---------------------------------------------------------------------------
# (b) the axial gauge of a profile hint is a change of gauge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("axis", [0, 1])
def test_profile_hint_preserves_spectrum(axis):
    grid = BoxGrid(dim=2, half_length=3.0, n=24)
    field = tanh_field(axis)
    plain = SchrodingerSpec(h=free_kinetic, field=field, grid=grid)
    hinted = SchrodingerSpec(h=free_kinetic, field=field, grid=grid, profile_axis=axis)
    ev_plain = eig(assemble(plain, order=16)).values
    ev_hinted = eig(assemble(hinted, order=16)).values
    assert np.abs(ev_plain - ev_hinted).max() <= 1e-9


# ---------------------------------------------------------------------------
# (c) the dense route and the banded route agree bit for bit
# ---------------------------------------------------------------------------


def gauss(q, x):
    q = np.asarray(q, float)
    x = np.asarray(x, float)
    return np.exp(-np.sum(q * q, axis=-1) / 2.0 - np.sum(x * x, axis=-1)) * (1.0 + 0.3j)


def kernel_case(case):
    if case == "periodic":
        grid = BoxGrid(dim=2, half_length=3.0, n=10, bc="periodic")
    else:
        grid = BoxGrid(dim=2, half_length=3.0, n=10)
    if case == "q_independent":
        return kernel_from_func(gauss, grid, disp_count=7, q_independent=True)
    if case == "tilde":
        phi = kernel_from_func(gauss, grid, disp_count=5)
        prod = twisted_product(phi, phi, variable_field(), sheet="tilde")
        assert prod.meta["sheet"] == "tilde"
        return prod
    return kernel_from_func(gauss, grid, disp_count=7, attach_func=(case != "q_dependent"))


@pytest.mark.parametrize("case", ["q_independent", "q_dependent", "periodic", "tilde"])
def test_rep_matches_banded_exactly(case):
    k = kernel_case(case)
    pot = transversal_gauge(variable_field())
    assert np.array_equal(rep(pot, k).mat, rep_banded(pot, k).to_dense())


# ---------------------------------------------------------------------------
# (d) guards
# ---------------------------------------------------------------------------


def test_contradicting_profile_hint_raises():
    grid = BoxGrid(dim=2, half_length=3.0, n=8)
    spec = SchrodingerSpec(h=free_kinetic, field=variable_field(), grid=grid, profile_axis=0)
    with pytest.raises(ValueError, match="contradicts"):
        assemble(spec)


def test_eig_refuses_non_hermitian():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig(mat)
