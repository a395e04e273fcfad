"""Spectra of magnetic Schrodinger operators on finite boxes.

Dense assembly of Op^A(h) + V(Q), windowed Hermitian eigensolves, limit
operators attached to anisotropy descriptors, and a box-ladder detector
for the essential spectrum, together with Hausdorff comparison helpers.

A magnetic field makes the matrix complex, but where conjugation composed
with the reflection x_k -> -x_k of one grid axis commutes with it (in two
dimensions: a field and a potential even in x_k), ``eig`` solves an
equivalent real symmetric matrix, about a quarter of the complex solve's
arithmetic.  Where two axes j < k pass (a field and a potential even
under x -> -x), the point inversion P_j P_k splits the operator into two
blocks of half the dimension, each solved in its real form, about a
sixteenth of the complex solve's arithmetic; every other complex matrix
takes the complex solve.

Assembly has one route: ``rep(gauge, kernel)`` of the symbol's trimmed
kernel (``moyal._momentum_kernel``, which drops displacement rows below
1e-15 of the largest, so a stencil symbol keeps its stencil width) plus
the diagonal potential.  Only the gauge depends on the spec, and
``_gauge`` picks it for ``assemble`` and the box ladder alike: an
explicit ``vector_potential``, else the transversal gauge (closed
circulation for constant fields, else the flux through the triangle
(0, x, y) by one tensor quadrature).  The operator is gauge covariant,
so one gauge per field suffices.  A box ladder whose gauge needs that
quadrature, directly or under ``gauge_shift``, tabulates it once per
lattice group: rungs with one spacing and nested node axes read their
circulations from one table of the largest rung's pairs at the widest
kernel window of the group, dropped once the group is assembled.
Periodic boxes, which admit only a vanishing field, use the exact
Fourier multiplier instead, ``grid._periodic_multiplier``, as do the
kinetic rows of separable fibers; the meshes, the Fourier convention and
that multiplier are the lattice conventions of :mod:`magweyl.grid`.

The layer runs one fixed configuration:

* ``eig`` refuses a relative Hermiticity residual above 1e-12
  (``_HERM_TOL``) and dimensions above 12000 (``EIG_CAP``).  It takes the
  reflection route of the first one or two grid axes whose residual
  max|M - conj(P M P)| / max|M| stays within the same 1e-12, and scans
  and transforms the matrix in row blocks of about 2^18 entries
  (``_SCAN_BLOCK``).
* A state counts as bulk when at least 0.6 of its mass (``_BULK_THETA``)
  lies outside a boundary collar one eighth of the box half-length wide
  (``_COLLAR_FRAC``).  ``SpectrumResult.bulk_scores``, the fiber filter of
  ``fibered_spectrum`` and the box-ladder detector all apply the rule
  through one helper, ``_bulk_states``.
* ``asymptotic_spectra`` merges points closer than 1e-6 (``_EPS_MERGE``)
  and gives a free band as its points at the step (hi - lo)/2000
  (``_BAND_STEPS``).
* ``fibered_spectrum`` takes the dual momenta k_m = m·pi/(2L) of one
  fixed lattice (L the box half-length) that lie in the range of the
  gauge potential, padded by sqrt(max(hi - min V, 1)) for a finite window
  end hi and by pi/delta otherwise.  Its gauge is the profile's
  antiderivative at the nodes, by a 16-node Gauss-Legendre rule on each
  node interval (``_GAUGE_ORDER``).
* Importing the package loads no SciPy module: ``scipy.linalg`` loads on
  the first eigensolve, ``concurrent.futures`` for ``threads`` > 1, and
  the fibered route loads none.
* ``essential_estimate`` clusters and chains eigenvalues at the
  persistence scale 5e-3·(hi - lo) (``_PERSIST_FRAC``).

Each input has one guard: the symbol ``moyal._symbol_samples`` (for a
plain callable on a grid, also a minimum on the outer momentum shell),
run once by each of ``assemble``, ``fibered_spectrum`` and
``asymptotic_spectra`` before any solve.  Its samples on the momentum
mesh are the only reading of h there: assembly transforms them, the
union tests them for |p|², and the fibered route tests them for
separability and reads a separable fiber's kinetic row from them.  h is
evaluated otherwise only at the fiber points (p, A(x) - k), whose
samples pass ``grid._checked_samples``, the check behind every sample
guard.  V ``grid._node_values``, shared with ``crossed.multiplier_kernel``
(a wrong count, non-finite samples or an imaginary part); a window
``_window`` (a NaN end or lo >= hi, and with ``finite`` an infinite end);
a fibered field profile ``_antiderivative`` (non-finite samples, through
``grid._checked_samples``); the field's dimension ``grid._common_grid``.
A field on the grid is checked in :mod:`magweyl.fields`.

The probe radii and tolerances of the anisotropy descriptors are listed
in :mod:`magweyl.fields`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .crossed import OperatorMatrix, _circulation_table, rep
from .fields import (
    MagneticField,
    VectorPotential,
    asymptotic_pairs,
    transversal_gauge,
    unit_gauss_legendre,
)
from .grid import BoxGrid, _checked_samples, _common_grid, _node_values, _periodic_multiplier
from .moyal import Symbol, _momentum_kernel, _symbol_samples

# dense eigensolver cap; above this the O(size^3) cost and the O(size^2)
# storage stop being desk scale
EIG_CAP = 12000
_HERM_TOL = 1e-12
_SCAN_BLOCK = 1 << 18
_BULK_THETA = 0.6
_COLLAR_FRAC = 0.125
_EPS_MERGE = 1e-6
_BAND_STEPS = 2000
_PERSIST_FRAC = 5e-3
_GAUGE_ORDER = 16


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Sorted eigenvalues in a window, with optional vectors and scores.

    ``multiplicity`` carries one count per value; ``np.inf`` flags the
    infinitely degenerate points of analytic oracles.  ``vectors`` holds
    one column per value when requested from :func:`eig`.
    """

    values: np.ndarray
    window: tuple
    multiplicity: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    grid: Optional[BoxGrid] = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("eigenvalues must form a one-dimensional array")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        lo, hi = self.window
        if len(self.values) and (self.values[0] < lo or self.values[-1] > hi):
            raise ValueError("eigenvalues fall outside the declared window")
        if self.multiplicity is None:
            self.multiplicity = np.ones(len(self.values))
        self.multiplicity = np.asarray(self.multiplicity, dtype=float)
        if self.multiplicity.shape != self.values.shape:
            raise ValueError("multiplicity counts must match the values")

    def __len__(self) -> int:
        return len(self.values)

    def bulk_scores(self, collar: Optional[float] = None) -> np.ndarray:
        """Interior mass of each eigenvector, outside a boundary collar.

        The default collar width is one eighth of the box half-length.
        """
        if self.vectors is None or self.grid is None:
            raise ValueError("bulk scores need eigenvectors and a grid")
        return _bulk_states(self.vectors, self.grid, collar)[0]


def _bulk_states(vectors: np.ndarray, grid: BoxGrid, collar: Optional[float] = None) -> tuple:
    """The one bulk rule: each state's (column of ``vectors`` on the nodes of
    ``grid``) share of its mass outside a boundary collar, one eighth of
    the box half-length wide by default, and whether that share reaches
    ``_BULK_THETA``."""
    if collar is None:
        collar = grid.half_length * _COLLAR_FRAC
    dens = np.abs(vectors) ** 2
    total = dens.sum(axis=0)
    total[total == 0] = 1.0
    scores = dens[grid.interior_mask(collar).ravel(), :].sum(axis=0) / total
    return scores, scores >= _BULK_THETA


@dataclass
class UnionSpectrum:
    """Per-quasi-orbit spectra together with their padded union."""

    components: list
    merged: np.ndarray
    eps_merge: float
    window: tuple


def merge_points(values: np.ndarray, eps: float) -> np.ndarray:
    """Sorted representatives of a point set, eps-close duplicates dropped.
    A NaN point, or an ``eps`` that is not finite and non-negative, raises
    ``ValueError``."""
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"merge tolerance eps must be finite and non-negative, got {eps}")
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if np.isnan(values).any():
        raise ValueError("merged point sets must not contain NaN")
    if len(values) == 0:
        return values
    keep = [values[0]]
    for v in values[1:]:
        if v - keep[-1] > eps:
            keep.append(v)
    return np.asarray(keep)


def hausdorff(s1, s2, window: tuple) -> float:
    """Symmetric Hausdorff distance of point sets clipped to a window.

    Points outside the window are dropped before the comparison.  If
    exactly one clipped set is empty the distance is the window length;
    two empty sets are at distance zero.  A window that is not finite with
    lo < hi, or a NaN point, raises ``ValueError``.
    """
    lo, hi = _window(window, finite=True)
    a = np.sort(np.asarray(s1, dtype=float).ravel())
    b = np.sort(np.asarray(s2, dtype=float).ravel())
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("Hausdorff point sets must not contain NaN")
    a = a[(a >= lo) & (a <= hi)]
    b = b[(b >= lo) & (b <= hi)]
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return hi - lo
    return max(_directed_sup(a, b), _directed_sup(b, a))


def _window(window: tuple, finite: bool = False) -> tuple:
    """(lo, hi) as floats, refused unless lo < hi, which no NaN end passes,
    and with ``finite`` unless both ends are finite too."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi and (np.isfinite(hi - lo) or not finite)):
        kind = "finite bounds" if finite else "bounds"
        raise ValueError(f"window needs {kind} lo < hi, got {window}")
    return lo, hi


def _directed_sup(a: np.ndarray, b: np.ndarray) -> float:
    # sup over a of the distance to the sorted set b
    idx = np.searchsorted(b, a)
    left = np.abs(a - b[np.clip(idx - 1, 0, len(b) - 1)])
    right = np.abs(a - b[np.clip(idx, 0, len(b) - 1)])
    return float(np.max(np.minimum(left, right)))


def _map_tasks(fn, items, threads: int):
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# operator specification and assembly
# ---------------------------------------------------------------------------


@dataclass
class SchrodingerSpec:
    """Data needed to assemble Op^A(h) + V(Q) on a box.

    ``h`` is a real momentum symbol (callable or declared Symbol); the
    gauge defaults to the transversal one of ``field`` unless an explicit
    ``vector_potential`` is supplied.
    """

    h: Union[Symbol, Callable]
    field: Optional[MagneticField]
    potential: Union[None, float, Callable] = None
    grid: Optional[BoxGrid] = None
    vector_potential: Optional[VectorPotential] = None

    def field_or_zero(self) -> MagneticField:
        if self.field is None:
            return MagneticField.zero(self.grid.dim)
        return self.field

    def potential_values(self, grid: BoxGrid) -> np.ndarray:
        return _node_values(self.potential, grid.points())

    def with_grid(self, grid: BoxGrid) -> "SchrodingerSpec":
        return replace(self, grid=grid)


def _antiderivative(beta: Callable, xs: np.ndarray) -> np.ndarray:
    """P(x) = int_0^x beta at the increasing nodes ``xs``, by a
    Gauss-Legendre rule of order ``_GAUGE_ORDER`` on each interval between
    consecutive points of ``xs`` and 0.  The samples of beta pass
    ``grid._checked_samples`` (a single value stands for every node)."""
    t = np.union1d(xs, 0.0)
    u, w = unit_gauss_legendre(_GAUGE_ORDER)
    width = np.diff(t)
    nodes = (t[:-1, None] + width[:, None] * u).ravel()
    vals = _checked_samples(beta(nodes), nodes.shape, "field profile", "gauge quadrature node", constant=True)
    prim = np.concatenate([[0.0], np.cumsum(vals.reshape(-1, len(u)) @ w * width)])
    return (prim - prim[np.searchsorted(t, 0.0)])[np.searchsorted(t, xs)]


def _gauge(spec: SchrodingerSpec) -> VectorPotential:
    """The gauge a spec is assembled in: its explicit ``vector_potential``,
    else the transversal gauge of its field."""
    if spec.vector_potential is not None:
        return spec.vector_potential
    return transversal_gauge(spec.field_or_zero())


def _checked_values(spec: SchrodingerSpec) -> tuple:
    """Symbol values on the momentum mesh and potential values on the nodes
    of ``spec.grid``, after the checks ``assemble`` makes of a spec."""
    _common_grid(spec.grid, field=spec.field_or_zero())
    return _symbol_samples(spec.h, spec.grid), spec.potential_values(spec.grid)


def assemble(spec: SchrodingerSpec) -> OperatorMatrix:
    """Dense matrix of Op^A(h) + V(Q) on the box nodes.

    Every truncated box goes through ``rep(gauge, kernel)`` at the gauge's
    quadrature order, with the trimmed kernel of the symbol's samples.
    The gauge is ``spec.vector_potential`` when set, else the transversal
    gauge of the field at order 8; the operator is gauge covariant, so
    either gives the same spectrum.  Without field and
    explicit gauge a real kernel gives a real (float64) matrix.  Periodic
    boxes use the exact Fourier multiplier and refuse a field or an
    explicit gauge.
    """
    grid = spec.grid
    if grid is None:
        raise ValueError("assembly needs a grid on the spec")
    hvals, vvals = _checked_values(spec)
    field = spec.field_or_zero()

    if grid.bc == "periodic":
        if not field.is_zero or spec.vector_potential is not None:
            raise ValueError(
                "periodic boxes support only a vanishing magnetic field and no explicit "
                "vector potential; the flux through the torus is not quantized here"
            )
        mat = _periodic_multiplier(hvals, grid)
        mat[np.diag_indices_from(mat)] += vvals
        return OperatorMatrix(mat=mat, grid=grid)

    kernel = _momentum_kernel(hvals, grid)
    mat = rep(_gauge(spec), kernel).mat
    real_kernel = np.max(np.abs(kernel.values.imag)) <= 1e-13 * np.max(np.abs(kernel.values.real))
    if spec.vector_potential is None and field.is_zero and real_kernel:
        # no phase: keep the real matrix so eig takes the real solver
        mat = np.ascontiguousarray(mat.real)
    mat[np.diag_indices_from(mat)] += vvals
    return OperatorMatrix(mat=mat, grid=grid)


# ---------------------------------------------------------------------------
# dense eigensolve
# ---------------------------------------------------------------------------


def _symmetry_scan(mat: np.ndarray, grid: Optional[BoxGrid]):
    """One pass over row blocks: Hermiticity, realness and reflection axes.

    Returns the residual max|M - M*| / max|M|, whether M is real, and a
    dict, in axis order, from every axis k of ``grid`` that passes to its
    residual max|M - conj(P M P)| / max|M| for the node reflection
    P: x_k -> -x_k.  Only complex matrices on a grid have candidate axes.
    A candidate drops out at the first block whose residual exceeds
    ``_HERM_TOL`` against the largest entry scanned so far, so an accepted
    axis meets it against max|M|.
    """
    size = mat.shape[0]
    complex_input = np.iscomplexobj(mat)
    worst = {}
    if complex_input and grid is not None:
        nodes = np.arange(size).reshape((grid.n,) * grid.dim)
        mirrors = {ax: np.flip(nodes, ax).ravel() for ax in range(grid.dim)}
        worst = dict.fromkeys(mirrors, 0.0)
    step = max(1, _SCAN_BLOCK // size)
    scale = herm = imag = 0.0
    for start in range(0, size, step):
        stop = min(start + step, size)
        rows = mat[start:stop]
        scale = max(scale, float(np.abs(rows).max()))
        # |M_ij - conj M_ji| is symmetric in (i, j), so the columns j < stop
        # suffice
        herm = max(herm, float(np.abs(rows[:, :stop] - mat[:stop, start:stop].conj().T).max()))
        if complex_input:
            imag = max(imag, float(np.abs(rows.imag).max()))
        for ax in list(worst):
            # likewise the rows whose mirror comes later (x_k < 0) suffice;
            # columns are reflected by a reversed view
            mirror = mirrors[ax][start:stop]
            pick = np.flatnonzero(mirror > np.arange(start, stop))
            if len(pick) == 0:
                continue
            shape = (len(pick),) + (grid.n,) * grid.dim
            partner = np.flip(mat[mirror[pick]].reshape(shape), 1 + ax)
            # the partner rows are a fresh copy, so they are worked in
            # place: a block holds two complex temporaries, not four
            np.conjugate(partner, out=partner)
            partner -= rows[pick].reshape(shape)
            dev = float(np.abs(partner).max())
            worst[ax] = max(worst[ax], dev)
            if worst[ax] > _HERM_TOL * scale:
                del worst[ax]
    scale = scale or 1.0  # a zero matrix has zero residuals
    return herm / scale, imag == 0.0, {ax: dev / scale for ax, dev in worst.items()}


def _negative_half(grid: BoxGrid, axes: tuple) -> tuple:
    """Index of the node array that keeps the nodes with x_a < 0 for a in ``axes``."""
    return tuple(slice(0, grid.n // 2) if a in axes else slice(None) for a in range(grid.dim))


def _real_form(mat: np.ndarray, grid: BoxGrid, axes: tuple, sign: float) -> np.ndarray:
    """Real symmetric block of M under the reflection-conjugations of ``axes``.

    With one axis k, conj(M[P, P]) = M for its reflection P.  a runs over
    the nodes with x_k < 0 in C order and b = P a, and

        R = [[Re(M_aa + M_ab), Im(M_ab - M_aa)],
             [Im(M_aa + M_ab), Re(M_aa - M_ab)]]

    is M in the basis u_a = (e_a + e_b)/sqrt 2, w_a = i(e_a - e_b)/sqrt 2;
    only the a-rows are read, since the symmetry makes the b-rows their
    conjugate mirror.

    With two axes j < k the product U = P_j P_k of the two reflections is
    a unitary symmetry.  The block of ``sign`` s = +-1 is M on the vectors
    with v[U a] = s v[a], in the basis (e_a + s e_Ua)/sqrt 2 of the half
    x_j < 0:  M^s[a, a'] = M[a, a'] + s M[a, U a'].  P_k maps that half
    onto itself and conj(M^s[P_k, P_k]) = M^s, so R is the formula above
    for M^s, and only the quarter rows x_j < 0, x_k < 0 of M are read.

    R is returned in C order, so its transpose is the Fortran-ordered array
    LAPACK reads without a copy; it is symmetric when M is Hermitian.
    """
    size, k, lead = mat.shape[0], axes[-1], axes[:-1]
    a_rows = np.arange(size).reshape((grid.n,) * grid.dim)[_negative_half(grid, axes)]
    count = a_rows.size
    out = np.empty((2 * count, 2 * count))
    blocks = out.reshape((2, count, 2) + a_rows.shape)
    # the index tuples below lead with the row axis of a block
    lead_half = (slice(None),) + _negative_half(grid, lead)
    k_half = (slice(None),) + _negative_half(grid, (k,))
    a_rows = a_rows.ravel()
    step = max(1, _SCAN_BLOCK // size)
    for start in range(0, count, step):
        stop = min(start + step, count)
        rows = mat[a_rows[start:stop]].reshape((stop - start,) + (grid.n,) * grid.dim)
        if lead:
            rows = rows[lead_half] + sign * np.flip(rows, [1 + a for a in axes])[lead_half]
        m_aa, m_ab = rows[k_half], np.flip(rows, 1 + k)[k_half]
        tmp = m_aa + m_ab
        blocks[0, start:stop, 0] = tmp.real
        blocks[1, start:stop, 0] = tmp.imag
        np.subtract(m_aa, m_ab, out=tmp)
        blocks[1, start:stop, 1] = tmp.real
        np.negative(tmp.imag, out=blocks[0, start:stop, 1])
    return out


def _from_real_form(y: np.ndarray, grid: BoxGrid, axes: tuple, sign: float) -> np.ndarray:
    """Node vectors of the eigenvectors y of ``_real_form(.., axes, sign)``.

    c = (y_u + i y_w)/sqrt 2 on the a-nodes and conj(c) on their mirrors
    P_k a; with two axes v[a] = c/sqrt 2 on the half x_j < 0 and
    v[U a] = s c/sqrt 2 on the other half.
    """
    count, k, lead = y.shape[1], axes[-1], axes[:-1]
    v = np.empty((grid.n,) * grid.dim + (count,), dtype=complex)
    a_nodes = _negative_half(grid, axes)
    half = y.shape[0] // 2
    part = (y[:half] + 1j * y[half:]).reshape(v[a_nodes].shape) / np.sqrt(2.0 ** len(axes))
    v[a_nodes] = part
    np.flip(v, k)[a_nodes] = part.conj()
    if lead:
        np.flip(v, axes)[a_nodes] = sign * part
        # P_j a = U P_k a
        np.flip(v, lead)[a_nodes] = sign * part.conj()
    return v.reshape(grid.size, count)


def _solve(work: np.ndarray, lower: bool, window: Optional[tuple], vectors: bool):
    """Values (and vectors) of one Hermitian block in ``window``, overwriting it."""
    # imported here, so that importing the package loads no scipy module
    import scipy.linalg as sla

    subset = None
    if window is not None:
        lo, hi = window
        subset = (lo - 1e-9 * max(1.0, abs(lo)), hi)
    out = sla.eigh(
        work,
        lower=lower,
        subset_by_value=subset,
        driver="evr",
        eigvals_only=not vectors,
        overwrite_a=True,
    )
    vals, vecs = out if vectors else (out, None)
    vals = np.asarray(vals, dtype=float)
    if window is not None:
        keep = (vals >= lo) & (vals <= hi)
        vals = vals[keep]
        if vecs is not None:
            # a copy, so the driver's N x N eigenvector buffer is dropped
            vecs = vecs[:, keep]
    return vals, vecs


def eig(op, window: Optional[tuple] = None, *, vectors: bool = False) -> SpectrumResult:
    """Windowed Hermitian eigendecomposition of a dense operator.

    One blockwise scan of the matrix measures its Hermiticity residual and
    picks the route, recorded as ``meta["real_form"]``:

    * ``"real"``: a real matrix is solved as it is;
    * ``"reflections <j> <k>"``: for an ``OperatorMatrix`` that commutes
      with conjugation composed with the reflections P_j, P_k of two grid
      axes j < k (the first two such axes), the unitary U = P_j P_k splits
      the operator into its U-even and U-odd blocks
      M^s[a, a'] = M[a, a'] + s M[a, U a'] (s = +-1, a in the half
      x_j < 0).  Each keeps P_k composed with conjugation and is solved as
      a real symmetric matrix of dimension N/2 (see ``_real_form``); the
      vectors map back as v[a] = c/sqrt 2, v[U a] = s c/sqrt 2 and the
      values of the two blocks are merged by a stable sort;
    * ``"reflection <k>"``: where only one axis k passes, the same route
      with one block, the real symmetric matrix of dimension N of the
      operator in the basis (e_a + e_b)/sqrt 2, i(e_a - e_b)/sqrt 2 of
      mirror node pairs b = P_k a;
    * ``"complex"``: every other matrix, a bare array included, takes the
      complex Hermitian solve.

    The reflection routes record the larger accepted residual as
    ``meta["reflection_residual"]``; ``meta["size"]`` is N on every route.
    Dimensions above ``EIG_CAP`` are refused rather than silently thrashing.
    """
    if window is not None:
        window = _window(window)
    grid = None
    if isinstance(op, OperatorMatrix):
        grid = op.grid
        mat = op.mat
    else:
        mat = np.asarray(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    size = mat.shape[0]
    if size > EIG_CAP:
        raise ValueError(
            f"dense eigensolve refused at dimension {size} > {EIG_CAP}; coarsen "
            "the grid or shrink the box"
        )
    residual, real_input, reflections = _symmetry_scan(mat, grid)
    if residual > _HERM_TOL:
        raise ValueError(
            f"operator is not Hermitian: relative residual {residual:.3e} "
            f"exceeds {_HERM_TOL:.1e}"
        )

    # every work array is handed to LAPACK in Fortran order, so the driver
    # overwrites it instead of copying it
    meta = {"source": "eig", "hermiticity_residual": residual, "size": size}
    if real_input:
        meta["real_form"] = "real"
        parts = [_solve(np.array(mat.real, dtype=np.float64, order="F"), True, window, vectors)]
    elif reflections:
        axes = tuple(reflections)[:2]
        label = "reflection" if len(axes) == 1 else "reflections"
        meta["real_form"] = " ".join([label, *map(str, axes)])
        meta["reflection_residual"] = max(reflections[a] for a in axes)
        parts = []
        # one block per sign of U; a single axis has one block
        for sign in (1.0, -1.0)[: len(axes)]:
            # the transpose of the C-ordered form holds its lower triangle
            # in LAPACK's upper one
            vals, y = _solve(_real_form(mat, grid, axes, sign).T, False, window, vectors)
            parts.append((vals, None if y is None else _from_real_form(y, grid, axes, sign)))
    else:
        meta["real_form"] = "complex"
        parts = [_solve(np.array(mat, dtype=np.complex128, order="F"), True, window, vectors)]

    vals, vecs = parts[0]
    if len(parts) > 1:
        # the values of the two blocks interleave; a stable sort merges them
        vals = np.concatenate([p[0] for p in parts])
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        if vectors:
            vecs = np.concatenate([p[1] for p in parts], axis=1)[:, order]
    return SpectrumResult(
        values=vals,
        window=(-np.inf, np.inf) if window is None else window,
        vectors=vecs,
        grid=grid,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# limit operators
# ---------------------------------------------------------------------------


def landau_oracle(b: float, v: float, window: tuple) -> SpectrumResult:
    """Spectrum {(2k+1)|b| + v} of the constant-field free Hamiltonian.

    Each point is infinitely degenerate; ``b = 0`` is refused because the
    zero-field limit has the continuous band [v, inf) instead.  A
    non-finite b or v and a window that is not finite with lo < hi are
    refused as well.
    """
    lo, hi = _window(window, finite=True)
    if not np.all(np.isfinite([b, v])):
        raise ValueError(f"landau_oracle needs finite b and v, got {b}, {v}")
    if b == 0:
        raise ValueError(
            "constant-field oracle needs b != 0; a vanishing field gives the "
            "continuous band [v, inf), which asymptotic_spectra returns for a "
            "constant pair with b = 0"
        )
    first = max(0, int(np.floor(((lo - v) / abs(b) - 1) / 2)) - 1)
    last = int(np.ceil(((hi - v) / abs(b) - 1) / 2)) + 1
    # candidate k padded by one each side against rounding; the comparisons decide
    levels = (2 * np.arange(first, last + 1) + 1) * abs(b) + v
    vals = levels[(levels >= lo) & (levels <= hi)]
    return SpectrumResult(
        values=vals,
        window=(lo, hi),
        multiplicity=np.full(len(vals), np.inf),
        meta={"source": "landau_oracle", "b": float(b), "v": float(v)},
    )


def _band_spectrum(v: float, window: tuple, step: float) -> SpectrumResult:
    """The free band [v, inf) of |p|² + v in ``window``: the points of the
    closed band [max(lo, v), hi] at a spacing of at most ``step``, both
    ends included, each infinitely degenerate.  A non-finite v is refused."""
    lo, hi = window
    if not np.isfinite(v):
        raise ValueError(f"band spectrum needs a finite v, got {v}")
    start = max(lo, v)
    vals = np.empty(0)
    if start <= hi:
        # the ratio may land a rounding above an integer
        vals = np.linspace(start, hi, int(np.ceil((hi - start) / step - 1e-9)) + 1)
    return SpectrumResult(
        values=vals,
        window=(lo, hi),
        multiplicity=np.full(len(vals), np.inf),
        meta={"source": "band_range", "v": float(v)},
    )


def _is_free_kinetic(hv: np.ndarray, grid: BoxGrid) -> bool:
    """Whether the samples hv of h on the momentum mesh of ``grid`` are |p|²."""
    ref = np.sum(grid.momentum().mesh() ** 2, axis=-1)
    return bool(np.max(np.abs(hv - ref)) <= 1e-12 * np.max(1.0 + ref))


def _separable_split(hv: np.ndarray, invariant_axis: int):
    """Split the samples hv of h(p0, p1) on a planar momentum mesh as
    f(p_var) + g(p_inv) if their mixed part vanishes.  Returns the row
    h(p_var, 0) along the varying axis and h(0, 0), or None."""
    zero = hv.shape[0] // 2  # the node p = 0 of each axis
    base = float(hv[zero, zero])
    recon = hv[:, zero, None] + hv[None, zero, :] - base
    scale = float(np.max(np.abs(hv))) or 1.0
    if np.max(np.abs(hv - recon)) > 1e-11 * scale:
        return None
    return np.take(hv, zero, axis=invariant_axis), base


def _fiber_family(profile: Callable, h, hv: np.ndarray, grid1: BoxGrid, invariant_axis: int, potential):
    """Fiber operators of a field depending on one coordinate only.

    In the gauge A_inv = P(x), P the antiderivative of ``profile`` on the
    varying coordinate x, the fiber at dual momentum k is h(p, A(x) - k) +
    V(x) on the one-dimensional grid ``grid1``.  Returns ``(fiber, a_vals,
    v_vals)`` with ``fiber(k)`` the n x n matrix H_k and the gauge and
    potential sampled on the nodes.  A separable symbol h = f(p_var) +
    g(p_inv) is exact: f is ``grid``'s Fourier multiplier, built once, and
    g(A - k) - g(0) a multiplication, O(n^2) per fiber.  Any other symbol
    is evaluated on every pair of fiber momentum and segment-averaged
    gauge, O(n^3) per fiber, and summed with ``grid``'s sign,
    M[x, y] = (1/n) Σ_p h(p, ·) exp(-i p (y - x)).  V is added on the
    diagonal either way.  ``hv`` holds the checked samples of h on the
    planar momentum mesh of ``grid1``'s spacing: the separability test and
    a separable fiber's kinetic row read them, and h itself is evaluated
    at fiber points only.
    """
    varying = 1 - invariant_axis
    n = grid1.n
    xs = grid1.axis()
    a_vals = _antiderivative(profile, xs)
    v_vals = _node_values(potential, xs)

    split = _separable_split(hv, invariant_axis)
    if split is not None:
        row, base = split
        t_kin = _periodic_multiplier(row, grid1)
    else:
        pm = grid1.momentum().axis()
        a_prim = np.concatenate(
            [[0.0], np.cumsum(0.5 * (a_vals[1:] + a_vals[:-1]) * np.diff(xs))]
        )
        diff_x = xs[:, None] - xs[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_bar = (a_prim[:, None] - a_prim[None, :]) / diff_x
        a_bar[np.arange(n), np.arange(n)] = a_vals
        wave = np.exp(-1j * np.outer(pm, xs))

    def fiber(k: float) -> np.ndarray:
        if split is not None:
            pts = np.zeros((n, 2))
            pts[:, invariant_axis] = a_vals - k
            kin, diag = t_kin, _checked_samples(h(pts), (n,), "kinetic symbol", "fiber point") - base
        else:
            pts = np.empty((len(pm), n, n, 2))
            pts[..., varying] = pm[:, None, None]
            pts[..., invariant_axis] = (a_bar - k)[None, :, :]
            hv = _checked_samples(h(pts), pts.shape[:-1], "kinetic symbol", "fiber point")
            kin, diag = np.einsum("mij,mj,mi->ij", hv, wave, wave.conj()) / n, 0.0
        return kin + np.diag(diag + v_vals)

    return fiber, a_vals, v_vals


def fibered_spectrum(
    profile: Callable,
    h,
    grid: BoxGrid,
    *,
    invariant_axis: int = 1,
    potential=None,
    window: Optional[tuple] = None,
) -> SpectrumResult:
    """Band spectrum of a field depending on one coordinate only.

    ``profile`` is the field B_01 as a function of the varying coordinate
    and ``potential`` (none, a number or a function of that coordinate) is
    V on the same axis.  In the gauge with a single component along the
    invariant direction the operator commutes with translations there; a
    partial Fourier transform leaves a family of one-dimensional operators
    H_k = h(p, A - k) + V indexed by the dual momentum k, each
    diagonalized on the varying coordinate of the two-dimensional
    ``grid``.  Fiber states hugging the box edge (well centers pushed
    outside) are discarded by the bulk threshold before the bands are
    unioned.

    The fibers sit on the lattice k_m = m·π/(2L), L the box half-length,
    over the gauge range padded as the module docstring says.  A constant
    V moves the padded range but not the lattice, so it only adds or drops
    end fibers, and every value inside the window shifts by exactly V.

    h is sampled once through ``moyal._symbol_samples`` on the momentum
    mesh of ``grid`` before any fiber is solved, so the fibered route
    refuses what ``assemble`` refuses (a complex, non-finite or, for a
    plain callable, non-elliptic symbol).
    """
    if grid.dim != 2:
        raise ValueError("fibered analysis needs a two-dimensional grid")
    if invariant_axis not in (0, 1):
        raise ValueError("invariant axis must be 0 or 1")
    lo, hi = (-np.inf, np.inf) if window is None else _window(window)
    hv = _symbol_samples(h, grid)
    grid1 = BoxGrid(dim=1, half_length=grid.half_length, n=grid.n)
    fiber, a_vals, v_vals = _fiber_family(profile, h, hv, grid1, invariant_axis, potential)

    pad = np.sqrt(max(hi - np.min(v_vals), 1.0)) if np.isfinite(hi) else np.pi / grid1.delta
    dk = np.pi / (2.0 * grid1.half_length)
    ks = dk * np.arange(np.ceil((np.min(a_vals) - pad) / dk), np.floor((np.max(a_vals) + pad) / dk) + 1)
    fiber_values, fiber_kept = [], []
    for k in ks:
        vals, vecs = np.linalg.eigh(fiber(k))
        fiber_values.append(vals)
        fiber_kept.append(_bulk_states(vecs, grid1)[1])
    fiber_values = np.stack(fiber_values)
    fiber_kept = np.stack(fiber_kept)
    flat = fiber_values[fiber_kept]
    flat = flat[(flat >= lo) & (flat <= hi)]
    return SpectrumResult(
        values=np.sort(flat),
        window=(lo, hi),
        grid=grid1,
        meta={
            "source": "fibered",
            "ks": ks,
            "fiber_values": fiber_values,
            "fiber_kept": fiber_kept,
            "invariant_axis": invariant_axis,
        },
    )


def asymptotic_spectra(
    descriptor,
    h,
    grid: BoxGrid,
    window: tuple = (0.0, 10.0),
    *,
    threads: int = 1,
) -> UnionSpectrum:
    """Union of the spectra of all limit operators of a descriptor.

    h is sampled once through ``moyal._symbol_samples`` on the momentum
    mesh of ``grid``, and those samples decide whether h is the free
    kinetic symbol |p|².  Each pair is solved by its ``kind``: a
    'one_variable' pair is fibered from its profiles; a 'constant' pair
    with the free kinetic symbol uses the analytic oracle (or, at b = 0,
    the closed band [max(lo, v), hi] at the step (hi - lo)/2000); any
    other pair, 'general' or constant under another symbol, is assembled
    and diagonalized on the supplied grid.  A window that is not finite
    with lo < hi, a grid whose dimension differs from the pairs' field
    dimension, or a symbol the guard refuses raises ``ValueError`` before
    any solve.
    """
    lo, hi = _window(window, finite=True)
    band_step = (hi - lo) / _BAND_STEPS
    pairs = asymptotic_pairs(descriptor)
    for pair in pairs:
        _common_grid(grid, field=pair.field, of=f" of the pair {pair.label!r}")
    free = _is_free_kinetic(_symbol_samples(h, grid), grid)

    def solve(pair):
        if pair.kind == "one_variable":
            return pair.label, fibered_spectrum(
                pair.profile_b,
                h,
                grid,
                invariant_axis=pair.invariant_axis,
                potential=pair.profile_v,
                window=window,
            )
        if pair.kind == "constant" and free:
            b = float(pair.field.constant[0, 1])
            v = float(pair.potential)
            if b == 0.0:
                return pair.label, _band_spectrum(v, (lo, hi), band_step)
            return pair.label, landau_oracle(b, v, window)
        spec = SchrodingerSpec(
            h=h, field=pair.field, potential=pair.potential, grid=grid
        )
        return pair.label, eig(assemble(spec), window)

    components = _map_tasks(solve, pairs, threads)
    merged = merge_points(
        np.concatenate([res.values for _, res in components])
        if components
        else np.empty(0),
        _EPS_MERGE,
    )
    return UnionSpectrum(
        components=components, merged=merged, eps_merge=_EPS_MERGE, window=(lo, hi)
    )


# ---------------------------------------------------------------------------
# box-ladder estimate of the essential spectrum
# ---------------------------------------------------------------------------


@dataclass
class EssentialEstimate:
    """Persistent bulk spectrum extracted from a ladder of box truncations."""

    points: np.ndarray
    boxes: tuple
    per_box: list
    clusters: list
    rejected: list
    window: tuple
    params: dict

    def summary(self) -> str:
        lines = [
            f"boxes {self.boxes}, window {self.window}: "
            f"{len(self.points)} persistent bulk values, "
            f"{len(self.rejected)} rejected clusters"
        ]
        for rec in self.rejected:
            lines.append(
                f"  rejected [{rec['lo']:.6g}, {rec['hi']:.6g}] "
                f"(count {rec['count']}): {rec['reason']}"
            )
        return "\n".join(lines)


def _cluster_records(res: SpectrumResult, delta: float):
    # cluster on indices so values stay aligned with bulk scores
    scores, bulk_all = _bulk_states(res.vectors, res.grid)
    records = []
    vals = res.values
    if len(vals) == 0:
        return records
    cuts = np.flatnonzero(np.diff(vals) > delta) + 1
    for seg in np.split(np.arange(len(vals)), cuts):
        v = vals[seg]
        s, bulk = scores[seg], bulk_all[seg]
        if np.any(bulk):
            center = float(np.average(v[bulk], weights=s[bulk]))
        else:
            center = float(np.mean(v))
        records.append(
            {
                "lo": float(v[0]),
                "hi": float(v[-1]),
                "center": center,
                "count": int(len(v)),
                "bulk_count": int(np.count_nonzero(bulk)),
                "bulk_values": v[bulk],
            }
        )
    return records


def _chain_overlaps(prev, cur, delta):
    """Index of the best matching previous cluster for each current one.

    Clusters match when their delta-padded intervals overlap; ties go to
    the larger previous cluster.  Unmatched clusters get index -1.
    """
    links = []
    for rec in cur:
        match = -1
        for ci, cand in enumerate(prev):
            if cand["hi"] + delta >= rec["lo"] and rec["hi"] + delta >= cand["lo"]:
                if match < 0 or cand["count"] > prev[match]["count"]:
                    match = ci
        links.append(match)
    return links


def essential_estimate(
    spec: SchrodingerSpec,
    boxes: Sequence[float],
    window: tuple,
    *,
    density: Optional[float] = None,
    threads: int = 1,
) -> EssentialEstimate:
    """Numerical stand-in for the essential spectrum via growing boxes.

    Each rung is a box of the spec grid's dimension and boundary condition
    with half-length from ``boxes`` and ``density`` nodes per unit length
    (by default the spec grid's).  Window eigenvalues of each truncation
    are clustered at the persistence scale; a cluster survives when a
    matching cluster exists in every box, its member count never shrinks
    and grows overall, and the final box contributes bulk-localized
    members.  Isolated eigenvalues keep constant multiplicity along the
    ladder and are rejected; pure edge states fail either persistence or
    the bulk threshold.  Diagnostics retain every rejected cluster with
    its reason.

    Rungs are assembled and solved one after the other (in a pool with
    ``threads`` > 1).  Where the gauge needs quadrature, rungs on one
    lattice read their circulations from one table (``_rung_specs``),
    which is released once the group's last rung is assembled.  A window
    that is not finite with lo < hi, a box half-length that is not finite,
    a density that is not positive and finite, node counts that do not
    strictly increase, or a largest rung above ``EIG_CAP`` nodes raise
    ``ValueError`` before any assembly.
    """
    lo, hi = _window(window, finite=True)
    boxes = tuple(float(b) for b in boxes)
    if not np.all(np.isfinite(boxes)):
        raise ValueError(f"box half-lengths must be finite, got {boxes}")
    if len(boxes) < 2:
        raise ValueError("box ladder needs at least two boxes")
    if any(b2 <= b1 for b1, b2 in zip(boxes, boxes[1:])):
        raise ValueError("box ladder must be strictly increasing")
    grid = spec.grid
    if grid is None:
        raise ValueError("box ladder needs a grid on the spec")
    delta_persist = _PERSIST_FRAC * (hi - lo)
    if density is None:
        density = grid.n / (2.0 * grid.half_length)
    density = float(density)
    if not (np.isfinite(density) and density > 0):
        raise ValueError("box ladder density must be positive and finite")
    rungs = []
    for box_l in boxes:
        n = int(round(2.0 * box_l * density))
        n += n % 2
        rungs.append(BoxGrid(dim=grid.dim, half_length=box_l, n=max(n, 8), bc=grid.bc))
    if any(g2.n <= g1.n for g1, g2 in zip(rungs, rungs[1:])):
        raise ValueError(
            f"box ladder node counts {[g.n for g in rungs]} must strictly increase; raise the density"
        )
    if rungs[-1].size > EIG_CAP:
        raise ValueError(f"largest rung has {rungs[-1].size} nodes, above EIG_CAP = {EIG_CAP}")
    specs = _rung_specs(spec, rungs)

    def solve(i):
        op = assemble(specs[i])
        # the last holder of a lattice group's table lets it go here
        specs[i] = None
        return eig(op, (lo, hi), vectors=True)

    ladders = [
        _cluster_records(res, delta_persist)
        for res in _map_tasks(solve, range(len(rungs)), threads)
    ]

    # chain clusters from the largest box back through the ladder
    links = [
        _chain_overlaps(ladders[i], ladders[i + 1], delta_persist)
        for i in range(len(boxes) - 1)
    ]
    accepted = []
    rejected = []
    per_box_accept = [[] for _ in boxes]
    for last_idx, rec in enumerate(ladders[-1]):
        chain = [(len(boxes) - 1, last_idx)]
        ok = True
        idx = last_idx
        for level in range(len(boxes) - 2, -1, -1):
            idx = links[level][idx]
            if idx < 0:
                ok = False
                break
            chain.append((level, idx))
        if not ok:
            rejected.append({**rec, "reason": "not persistent across the ladder"})
            continue
        counts = [ladders[level][ci]["count"] for level, ci in reversed(chain)]
        if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])) or counts[-1] <= counts[0]:
            rejected.append(
                {**rec, "reason": "multiplicity does not grow along the ladder"}
            )
            continue
        if rec["bulk_count"] == 0:
            rejected.append({**rec, "reason": "no bulk-localized member"})
            continue
        accepted.append({**rec, "counts": counts})
        for level, ci in chain:
            per_box_accept[level].append(ladders[level][ci])

    points = (
        np.sort(np.concatenate([rec["bulk_values"] for rec in accepted]))
        if accepted
        else np.empty(0)
    )
    per_box = []
    for recs in per_box_accept:
        vals = [r["bulk_values"] for r in recs if len(r["bulk_values"])]
        per_box.append(np.sort(np.concatenate(vals)) if vals else np.empty(0))
    return EssentialEstimate(
        points=points,
        boxes=boxes,
        per_box=per_box,
        clusters=accepted,
        rejected=rejected,
        window=(lo, hi),
        params={
            "delta_persist": delta_persist,
            "density": density,
        },
    )


def _rung_specs(spec: SchrodingerSpec, rungs: list) -> list:
    """One spec per rung; rungs on one lattice share a tabulated gauge.

    On truncated boxes whose gauge's circulation runs a flux quadrature
    (the transversal gauge of a variable field or a ``gauge_shift`` of
    one), rungs with a bit-identical spacing form a group: each one's node
    axis is a slice of the largest one's.  A group of two or more rungs gets
    one circulation table of the largest rung's pairs at the widest of the
    rungs' kernel windows, so each pair is integrated once for the whole
    ladder and every rung's matrix equals its own assembly bit for bit; a
    lone rung integrates its own pairs, as a table read once saves
    nothing.  The table is reachable through the rung specs only.
    """
    specs = [spec.with_grid(g) for g in rungs]
    pot = _gauge(spec)
    if rungs[0].bc == "periodic" or pot._transversal is None:
        return specs
    # node counts are even, so the axes (i - (n-1)/2)·δ of rungs with one
    # spacing are slices of each other bit for bit; the table checks every
    # node it is asked for
    groups = {}
    for i, g in enumerate(rungs):
        groups.setdefault(g.delta, []).append(i)
    for members in groups.values():
        if len(members) > 1:
            # refuse what assemble refuses before paying for the quadrature;
            # the table spans the widest kernel window of the group
            width = max(
                _momentum_kernel(_checked_values(specs[i])[0], rungs[i]).disp_count for i in members
            )
            tabulated = _circulation_table(pot, rungs[members[-1]], width)
            for i in members:
                specs[i] = replace(specs[i], vector_potential=tabulated)
    return specs

