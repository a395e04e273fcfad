"""Layer spans for magweyl, recorded from outside the package.

The tracer replaces chosen public functions and methods of the ``magweyl``
submodules with thin wrappers for the duration of a ``with`` block.  Each
call opens a span (name, start, end, parent); self time is a span's
duration minus the time its child spans cover.  Every binding of a wrapped
function across the loaded ``magweyl`` modules is replaced, because the
modules import each other's functions by name (``magweyl.crossed`` calls
its own ``shift_q`` binding, not ``magweyl.grid.shift_q``), and all of them
are restored on exit.

Modules are resolved through ``importlib``: the package re-exports
functions under the names of some modules (``magweyl.resolvent`` as an
attribute is the function), so attribute access would find the wrong
object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "magweyl"

# (module, function or Class.method); the span is named "<module>.<qualname>"
TARGETS = (
    ("fields", "VectorPotential.circulation"),
    ("grid", "shift_q"),
    ("grid", "partial_fourier_inv"),
    ("crossed", "twisted_product"),
    ("crossed", "kernel_lincomb"),
    ("crossed", "l1_norm"),
    ("crossed", "rep"),
    ("crossed", "rep_banded"),
    ("crossed", "BandedOperator.to_dense"),
    ("moyal", "trim_kernel"),
    ("resolvent", "moyal_inverse"),
    ("resolvent", "resolvent"),
    ("resolvent", "resolvent_with_potential"),
    ("spectral", "assemble"),
    ("spectral", "eig"),
    ("spectral", "essential_estimate"),
    ("spectral", "asymptotic_spectra"),
)

# twisted_product spans carry the dispatch path in their name
PRODUCT_PATHS = ("qindep_const", "general", "mult")

# spans through which a workload enters the package; their self time is
# work no layer span accounts for
ENTRY_SPANS = (
    "resolvent.resolvent",
    "resolvent.resolvent_with_potential",
    "spectral.essential_estimate",
    "spectral.asymptotic_spectra",
)

ROOT = "workload"


def span_names() -> list:
    names = []
    for mod, qual in TARGETS:
        if (mod, qual) == ("crossed", "twisted_product"):
            names += [f"crossed.twisted_product.{p}" for p in PRODUCT_PATHS]
        else:
            names.append(f"{mod}.{qual}")
    return names


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def product_path(phi, psi, field) -> str:
    """Dispatch path of ``twisted_product``, read from its public inputs."""
    if phi.disp_count == 1 or psi.disp_count == 1:
        return "mult"
    if phi.q_independent and psi.q_independent and (field.is_constant or field.is_zero):
        return "qindep_const"
    return "general"


class Tracer:
    """Context manager that records layer spans and counters.

    Use one instance per traced run.  ``root()`` opens the span that the
    workload's calls into the package nest under.
    """

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters = defaultdict(float)
        self._stack: list = []
        self._restore: list = []
        self._orig: dict = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("tracer spans closed out of order")

    @contextlib.contextmanager
    def root(self):
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        # import every target module first, so that no module imports a
        # wrapper under its own name while patching is under way
        for mod, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        try:
            for mod, qual in TARGETS:
                self._patch(mod, qual)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def _patch(self, modname: str, qual: str) -> None:
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        if "." in qual:
            cls_name, meth = qual.split(".")
            owner = getattr(module, cls_name)
            orig = owner.__dict__[meth]
            self._orig[qual] = orig
            self._restore.append((owner, meth, orig))
            setattr(owner, meth, self._wrap(f"{modname}.{qual}", orig))
            return
        orig = getattr(module, qual)
        if not callable(orig) or getattr(orig, "__module__", None) != module.__name__:
            raise RuntimeError(f"{module.__name__}.{qual} is not a function defined there")
        self._orig[qual] = orig
        wrapper = self._wrap(f"{modname}.{qual}", orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name: str, orig):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        classify = name == "crossed.twisted_product"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name
            if classify:
                phi, psi, field = (_arg(args, kwargs, i, k) for i, k in enumerate(("phi", "psi", "field")))
                label = f"{name}.{product_path(phi, psi, field)}"
            idx = self._open(label)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(label, args, kwargs, out)
            return out

        return wrapper

    # -- counters taken from public inputs and outputs -----------------------

    def _after_crossed_twisted_product(self, label, args, kwargs, out):
        phi = _arg(args, kwargs, 0, "phi")
        psi = _arg(args, kwargs, 1, "psi")
        dim = phi.grid.dim
        pairs = (phi.disp_count * psi.disp_count) ** dim
        if label.endswith(".general"):
            pairs *= phi.grid.n ** dim
        self.counters[label + ".pairs"] += pairs
        inherited = 0.0
        l1 = self._orig["l1_norm"]
        if phi.tail_mass:
            inherited += phi.tail_mass * l1(psi)
        if psi.tail_mass:
            inherited += l1(phi) * psi.tail_mass
        self.counters["crossed.twisted_product.clipped_mass"] += out.tail_mass - inherited

    def _after_moyal_trim_kernel(self, label, args, kwargs, out):
        k = _arg(args, kwargs, 0, "k")
        dim = k.grid.dim
        self.counters["moyal.trim_kernel.in_entries"] += k.disp_count ** dim
        self.counters["moyal.trim_kernel.out_entries"] += out.disp_count ** dim

    def _after_resolvent_moyal_inverse(self, label, args, kwargs, out):
        self.counters["resolvent.neumann_terms"] += (
            out.meta["neumann_right"]["terms"] + out.meta["neumann_left"]["terms"]
        )

    def _after_resolvent_resolvent(self, label, args, kwargs, out):
        self.counters["resolvent.continuation_steps"] += out.meta["steps"]

    def _after_resolvent_resolvent_with_potential(self, label, args, kwargs, out):
        self.counters["resolvent.neumann_terms"] += out.meta["neumann"]["terms"]

    def _after_spectral_eig(self, label, args, kwargs, out):
        self.counters["spectral.eig.dim_sum"] += out.meta["size"]

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list:
        if self._stack:
            raise RuntimeError("spans still open")
        self_t = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_t[p] -= self.ends[i] - self.starts[i]
        return self_t

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per span name, plus counters."""
        self_t = self.self_times()
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name, st in zip(self.names, self_t):
            if name == ROOT:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += st
        c = self.counters
        for path in ("qindep_const", "general"):
            out[f"crossed.twisted_product.{path}.pairs"] = int(c[f"crossed.twisted_product.{path}.pairs"])
        out["crossed.twisted_product.clipped_mass"] = c["crossed.twisted_product.clipped_mass"]
        tin = c["moyal.trim_kernel.in_entries"]
        out["moyal.trim_kernel.kept_frac"] = c["moyal.trim_kernel.out_entries"] / tin if tin else 0.0
        out["resolvent.neumann_terms"] = int(c["resolvent.neumann_terms"])
        out["resolvent.continuation_steps"] = int(c["resolvent.continuation_steps"])
        out["spectral.eig.dim_sum"] = int(c["spectral.eig.dim_sum"])
        out["trace.unattributed_frac"] = self.unattributed_frac(self_t)
        return out

    def root_duration(self) -> float:
        roots = [i for i, n in enumerate(self.names) if n == ROOT]
        return sum(self.ends[i] - self.starts[i] for i in roots)

    def unattributed_frac(self, self_t: list) -> float:
        """Share of the root span's time that no layer span below the entry
        points covers: the self time of the root and of the entry spans."""
        total = self.root_duration()
        if total <= 0:
            return 0.0
        left = sum(st for n, st in zip(self.names, self_t) if n == ROOT or n in ENTRY_SPANS)
        return left / total
