"""The three benchmark problems, built only from magweyl's public API.

Each problem is deterministic; the workload seed feeds only the random
inputs of the correctness checks (see ``checks.py``).  Functions are looked
up on the module objects at call time so that the tracer's wrappers are
the ones called.
"""

from __future__ import annotations

import importlib

import numpy as np

import magweyl as mw

spectral = importlib.import_module("magweyl.spectral")
fields = importlib.import_module("magweyl.fields")

FIELD_B = 0.5
Z = -1.0 + 1.0j
WINDOW = (0.0, 8.0)
LANDAU = (1.0, 3.0, 5.0, 7.0)


def trig_kinetic(grid):
    """Nearest-neighbour kinetic symbol 1 + Σ 2(1 - cos(p δ))/δ²; its kernel
    is exactly banded, as in the resolvent tests."""
    d = grid.delta

    def f(p, d=d):
        p = np.asarray(p, dtype=float)
        return 1.0 + np.sum(2.0 * (1.0 - np.cos(p * d)), axis=-1) / d**2

    return f


def bump_potential(q):
    return 0.3 * np.exp(-np.sum(np.asarray(q) ** 2, axis=-1))


def decaying_field(x):
    return 0.5 * np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))


def free_kinetic(p):
    return np.sum(np.asarray(p) ** 2, axis=-1)


class ResolventConst:
    """(h - z)^(-1) for a constant field: every product takes the
    base-point independent constant-field path."""

    name = "resolvent_const"
    sizes = {"dim": 2, "half_length": 6.0, "n": 48, "B": FIELD_B, "z": str(Z), "a0": 0.0}

    def setup(self) -> dict:
        grid = mw.BoxGrid(dim=2, half_length=6.0, n=48)
        return {"grid": grid, "h": trig_kinetic(grid), "field": mw.MagneticField.constant_2d(FIELD_B)}

    def run(self, st: dict):
        return mw.resolvent(st["h"], st["field"], st["grid"], Z, a0=0.0)

    def error(self, st: dict, res) -> float:
        return float(res.residual)

    def same(self, a, b) -> bool:
        return np.array_equal(a.kernel.values, b.kernel.values) and a.residual == b.residual


class ResolventPotential(ResolventConst):
    """(h + V - z)^(-1) from a base resolvent built in set-up: the
    perturbation products mix base-point dependent and independent
    kernels, so they take the general path."""

    name = "resolvent_potential"
    sizes = {"dim": 2, "half_length": 6.0, "n": 32, "B": FIELD_B, "z": str(Z), "a0": 0.0,
             "V": "0.3*exp(-|q|^2)"}

    def setup(self) -> dict:
        grid = mw.BoxGrid(dim=2, half_length=6.0, n=32)
        h = trig_kinetic(grid)
        field = mw.MagneticField.constant_2d(FIELD_B)
        base = mw.resolvent(h, field, grid, Z, a0=0.0)
        return {"grid": grid, "h": h, "field": field, "base": base}

    def run(self, st: dict):
        return mw.resolvent_with_potential(st["h"], bump_potential, st["field"], st["grid"], Z,
                                           base=st["base"])


class EssentialLadder:
    """Box-ladder estimate of the essential spectrum for a constant field
    plus a decaying bump, and the union of the asymptotic spectra."""

    name = "essential_ladder"
    sizes = {"dim": 2, "b_inf": 1.0, "b_decay": "0.5*exp(-|x|^2)", "boxes": [4.0, 5.0, 6.0],
             "density": 4.0, "n": [32, 40, 48], "window": list(WINDOW)}

    def setup(self) -> dict:
        desc = fields.ConstPlusDecay(dim=2, b_inf=1.0, b_decay=decaying_field)
        grid = mw.BoxGrid(dim=2, half_length=6.0, n=48)
        spec = spectral.SchrodingerSpec(h=free_kinetic, field=desc.field(),
                                        potential=desc.potential(), grid=grid)
        return {"desc": desc, "grid": grid, "spec": spec}

    def run(self, st: dict):
        est = spectral.essential_estimate(st["spec"], (4.0, 5.0, 6.0), WINDOW, density=4.0,
                                          threads=1)
        union = spectral.asymptotic_spectra(st["desc"], free_kinetic, st["grid"], WINDOW,
                                            threads=1)
        return est, union

    def error(self, st: dict, res) -> float:
        est, union = res
        return float(spectral.hausdorff(est.points, union.merged, WINDOW))

    def same(self, a, b) -> bool:
        return (np.array_equal(a[0].points, b[0].points)
                and np.array_equal(a[1].merged, b[1].merged))


WORKLOADS = {w.name: w for w in (ResolventConst(), ResolventPotential(), EssentialLadder())}
