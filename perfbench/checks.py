"""Correctness checks that run beside the timed computation.

``product_oracle`` compares ``twisted_product`` with the independent
``twisted_product_reference`` on a small grid before anything is timed,
once per dispatch path and field kind.  ``independent_route`` checks a
workload's result after timing by a route that shares none of the
algebra: a dense matrix inverse for the resolvents, the Landau levels for
the asymptotic union.  Failures come back as lists of messages.
"""

from __future__ import annotations

import importlib

import numpy as np

import magweyl as mw

from tracer import product_path
from workloads import FIELD_B, LANDAU, WINDOW, Z, bump_potential

spectral = importlib.import_module("magweyl.spectral")

ORACLE_GRID = mw.BoxGrid(dim=2, half_length=3.0, n=12)
# largest entry gap relative to the largest reference entry (at least 1)
ORACLE_TOL = 1e-12

# op_norm of the interior gap between rep(Φ) and the dense inverse, about
# three times what the first benchmarked version measured (3.0e-5 at n=48,
# 6.0e-4 at n=32 with the potential); the residual limits are about three
# times its residuals (3.43e-3 and 3.18e-2)
DENSE_GAP_TOL = {"resolvent_const": 1e-4, "resolvent_potential": 2e-3}
DENSE_COLLAR = 3.0
RESIDUAL_TOL = {"resolvent_const": 1e-2, "resolvent_potential": 1e-1}
# the ladder measured 0.782 against the Landau set
HAUSDORFF_TOL = 1.0


def _variable_field():
    return mw.MagneticField.from_scalar_2d(
        lambda p: 0.8 + 0.5 * np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 3.0)
    )


def _random_kernel(rng, grid, count, q_independent):
    shape = (() if q_independent else (grid.n,) * grid.dim) + (count,) * grid.dim
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return mw.KernelSample(grid=grid, values=vals, q_independent=q_independent)


def product_oracle(rng: np.random.Generator) -> list:
    """twisted_product against twisted_product_reference, one case per
    dispatch path and field kind, on random kernels drawn from ``rng``."""
    g = ORACLE_GRID
    const = mw.MagneticField.constant_2d(FIELD_B)
    var = _variable_field()
    mult = mw.multiplier_kernel(lambda q: 1.0 / (1.0 + np.sum(q * q, axis=-1)), g)
    qi5 = _random_kernel(rng, g, 5, True)
    qi3 = _random_kernel(rng, g, 3, True)
    qd5 = _random_kernel(rng, g, 5, False)
    qd3 = _random_kernel(rng, g, 3, False)
    # (expected path, field label, field, phi, psi, sheet, quadrature order);
    # random kernels weight the largest displacement triangles fully, so
    # under a variable field both phase quadratures run at order 16, where
    # they agree to rounding (order 8 leaves gaps near 1e-9)
    cases = [
        ("qindep_const", "constant", const, qi5, qi3, "centered", 8),
        ("general", "constant", const, qd5, qd3, "tilde", 8),
        ("general", "constant", const, qi3, qd5, "tilde", 8),
        ("general", "variable", var, qd3, qd3, "tilde", 16),
        ("general", "variable", var, qi5, qi3, "tilde", 16),
        ("mult", "constant", const, mult, qd5, "centered", 8),
        ("mult", "constant", const, qd5, mult, "centered", 8),
        ("mult", "variable", var, mult, qd5, "centered", 8),
        ("mult", "variable", var, qd5, mult, "centered", 8),
    ]
    failures = []
    for path, label, field, phi, psi, sheet, order in cases:
        case = f"{path}/{label}/{sheet}/{phi.disp_count}x{psi.disp_count}"
        if product_path(phi, psi, field) != path:
            failures.append(f"oracle case {case} does not take the {path} path")
            continue
        p = mw.twisted_product(phi, psi, field, sheet=sheet, order=order)
        r = mw.twisted_product_reference(phi, psi, field, sheet=sheet, order=order)
        if p.values.shape != r.values.shape:
            failures.append(f"oracle {case}: shape {p.values.shape} != {r.values.shape}")
            continue
        gap = float(np.abs(p.values - r.values).max() / max(1.0, np.abs(r.values).max()))
        if not gap < ORACLE_TOL:
            failures.append(f"oracle {case}: relative gap {gap:.3e} >= {ORACLE_TOL:.0e}")
    return failures


def dense_gap(st: dict, res, rng: np.random.Generator, potential: bool) -> float:
    """op_norm on the box interior of rep(Φ) minus the inverse of the dense
    matrix rep(h - z) (+ diag V), the route of the resolvent tests."""
    grid = st["grid"]
    pot = mw.transversal_gauge(st["field"])
    h = st["h"]
    khz = mw.partial_fourier_inv(
        mw.PhaseGridFunction.sample(lambda p: np.asarray(h(p)) - Z, grid, q_independent=True)
    )
    mat = mw.rep(pot, khz).mat
    if potential:
        mat[np.diag_indices_from(mat)] += bump_potential(grid.points())
    bulk = np.flatnonzero(grid.interior_mask(DENSE_COLLAR).ravel())
    # columns of the inverse on the interior only: M X = I[:, bulk]
    rhs = np.zeros((grid.size, len(bulk)), dtype=complex)
    rhs[bulk, np.arange(len(bulk))] = 1.0
    inv_cols = np.linalg.solve(mat, rhs)
    gap = mw.rep(pot, res.kernel).mat[np.ix_(bulk, bulk)] - inv_cols[bulk]
    return mw.op_norm(gap, seed=int(rng.integers(2**31)))


def independent_route(name: str, st: dict, res, rng: np.random.Generator) -> tuple:
    """(failures, facts) for one workload result."""
    failures = []
    facts = {}
    if name in DENSE_GAP_TOL:
        facts["residual"] = float(res.residual)
        if not res.residual < RESIDUAL_TOL[name]:
            failures.append(f"residual {res.residual:.4e} >= {RESIDUAL_TOL[name]:.0e}")
        gap = dense_gap(st, res, rng, potential=name == "resolvent_potential")
        facts["dense_gap"] = gap
        if not gap < DENSE_GAP_TOL[name]:
            failures.append(f"dense-inverse gap {gap:.4e} >= {DENSE_GAP_TOL[name]:.0e}")
        return failures, facts
    est, union = res
    facts["asymptotic_union"] = [float(v) for v in union.merged]
    if len(union.merged) != len(LANDAU) or np.abs(union.merged - np.asarray(LANDAU)).max() > 1e-12:
        failures.append(f"asymptotic union {union.merged} is not the Landau set {LANDAU}")
    hd = float(spectral.hausdorff(est.points, union.merged, WINDOW))
    facts["hausdorff"] = hd
    facts["estimate_points"] = int(len(est.points))
    if not hd < HAUSDORFF_TOL:
        failures.append(f"Hausdorff distance {hd:.4f} >= {HAUSDORFF_TOL}")
    return failures, facts
