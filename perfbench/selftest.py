"""Tests of the benchmark's layer tracer.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the package's own test run
does not pick it up: the call-count tests run full workloads (about
80 s on a 2-core machine).
"""

import importlib
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np
import pytest

import magweyl as mw
import run
import tracer as tr
import workloads

spectral = importlib.import_module("magweyl.spectral")
pytestmark = pytest.mark.filterwarnings("ignore:.*enlarge the box")


def _bindings():
    """Every (module, attribute) of the package bound to a traced target."""
    found = {}
    targets = {qual for _, qual in tr.TARGETS if "." not in qual}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "magweyl" or name.startswith("magweyl.")):
            continue
        for attr, val in vars(mod).items():
            if callable(val) and getattr(val, "__name__", None) in targets:
                found[(name, attr)] = val
    found[("fields", "VectorPotential.circulation")] = mw.VectorPotential.__dict__["circulation"]
    found[("crossed", "BandedOperator.to_dense")] = mw.BandedOperator.__dict__["to_dense"]
    return found


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_every_binding_patched_and_restored():
    before = _bindings()
    # the package attribute shadows the module of the same name
    assert callable(mw.resolvent) and not hasattr(mw.resolvent, "__path__")
    with tr.Tracer():
        during = _bindings()
        assert sys.modules["magweyl.resolvent"].twisted_product is not before[("magweyl.crossed", "twisted_product")]
        assert mw.resolvent is not before[("magweyl", "resolvent")]
        for key, val in before.items():
            assert during[key] is not val, key
            assert during[key].__wrapped__ is val, key
    assert _bindings() == before


def test_restored_after_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tr.Tracer():
            1 / 0
    assert _bindings() == before


def _small_resolvent():
    g = mw.BoxGrid(dim=2, half_length=4.0, n=16)
    h = workloads.trig_kinetic(g)
    field = mw.MagneticField.constant_2d(workloads.FIELD_B)
    r = mw.resolvent(h, field, g, workloads.Z, a0=0.0)
    rv = mw.resolvent_with_potential(h, workloads.bump_potential, field, g, workloads.Z, base=r)
    return r, rv


def _small_ladder():
    wl = workloads.EssentialLadder()
    st = wl.setup()
    est = spectral.essential_estimate(st["spec"], (3.0, 4.0), workloads.WINDOW, density=2.0)
    ev = spectral.eig(spectral.assemble(st["spec"].with_grid(mw.BoxGrid(dim=2, half_length=3.0, n=12))),
                      workloads.WINDOW)
    return est.points, ev.values


def test_traced_results_bit_identical():
    plain = _small_resolvent() + _small_ladder()
    t = tr.Tracer()
    with t, t.root():
        traced = _small_resolvent() + _small_ladder()
    for a, b in zip(plain[:2], traced[:2]):
        assert np.array_equal(a.kernel.values, b.kernel.values)
        assert a.residual == b.residual
    for a, b in zip(plain[2:], traced[2:]):
        assert len(a) and np.array_equal(a, b)
    m = t.metrics()
    assert m["crossed.twisted_product.general.calls"] > 0
    assert m["crossed.twisted_product.mult.calls"] > 0
    assert m["spectral.eig.calls"] == 3
    assert m["fields.VectorPotential.circulation.calls"] > 0


def test_self_times_partition_the_root():
    t = tr.Tracer()
    with t, t.root():
        _small_resolvent()
    assert math.isclose(sum(t.self_times()), t.root_duration(), rel_tol=1e-9)
    assert all(s >= -1e-9 for s in t.self_times())


def _traced_workload(name):
    wl = workloads.WORKLOADS[name]
    st = wl.setup()
    t = tr.Tracer()
    with t, t.root():
        wl.run(st)
    return t.metrics()


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", "_frac"))}


def test_resolvent_const_counts():
    m = _traced_workload("resolvent_const")
    assert _counts(_traced_workload("resolvent_const")) == _counts(m)
    assert m["crossed.twisted_product.qindep_const.calls"] == 47
    assert m["crossed.twisted_product.general.calls"] == 0
    assert m["crossed.twisted_product.mult.calls"] == 0
    assert m["trace.unattributed_frac"] <= 0.1


def test_resolvent_potential_counts():
    m = _traced_workload("resolvent_potential")
    assert m["crossed.twisted_product.general.calls"] == 10
    assert m["resolvent.neumann_terms"] == 8
    assert m["trace.unattributed_frac"] <= 0.1
