"""Bloch operator pencils, their spectra, and the zero-amplitude dispersion.

Localized perturbations of a periodic wave decompose into Bloch waves
``exp(i*mu*z) V(z)`` with Floquet exponent ``mu`` in ``(-1/2, 1/2]`` and
``V`` periodic.  For each ``mu`` the linearized operator becomes a pencil
``T(lambda) = L0 + lambda*L1`` acting on periodic functions; ``lambda`` is
a spectral point iff the pencil is singular.  In the exponential basis,
where ``d/dz + i*mu`` is diagonal and multiplication by a trigonometric
polynomial is a Toeplitz block, an even profile gives a real ``L0``
quadratic in ``mu`` and ``L1 = i diag(s)`` with ``s`` real and linear in
``mu``: one gather of real coefficients serves a whole grid and each slice
is a real standard eigenproblem.  Pencils and spectra are at ``k = 1``.
"""

import contextlib
import functools
import os
import pickle
import signal
import threading

import numpy as np
from dataclasses import dataclass

from .waves import Model, SQRT3, Units, _operator_block, _operator_terms

__all__ = [
    "BlochPencil", "SpectrumSample", "CollisionRecord", "SymmetryReport",
    "assemble_pencil", "dispersion", "find_collisions", "spectrum_slice",
    "symmetry_check", "hausdorff_distance", "sweep_mus", "one_blas_thread",
    "in_floquet_domain", "INFINITE_EIGENVALUE_CUTOFF",
]

#: eigenvalues beyond this magnitude belong to the (near-)singular direction
#: of L1 (the n + mu = 0 row, ~1/(alpha mu) at small mu) and are dropped
INFINITE_EIGENVALUE_CUTOFF = 1e8


def in_floquet_domain(mu):
    """Whether ``mu`` is a Floquet exponent: in ``(-1/2, 1/2]``."""
    return -0.5 < mu <= 0.5


@dataclass(frozen=True)
class BlochPencil:
    """Finite section of ``T(lambda) = L0 + lambda*L1`` at fixed ``mu``
    and ``k = 1``, with ``L0`` real and ``L1 = i diag(s)``:
    ``T(i omega) v = 0`` reads ``L0 v = omega diag(s) v``."""

    model: Model
    mu: float
    n_modes: int
    L0: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class SpectrumSample:
    """All finite pencil eigenvalues at one Floquet exponent; ``branch_ids``
    holds the mode whose dispersion value lies nearest each (greedy)."""

    mu: float
    eigenvalues: np.ndarray
    branch_ids: np.ndarray


@dataclass(frozen=True)
class CollisionRecord:
    """Two modes n, m whose imaginary eigenvalues coincide at mu0."""

    n: int
    m: int
    mu0: float
    omega: float


@dataclass(frozen=True)
class SymmetryReport:
    """Hausdorff defects of the two spectral symmetry maps."""

    mu: float
    hausdorff_reflection: float   # spectrum(mu) vs -conj(spectrum(mu))
    hausdorff_conjugation: float  # spectrum(-mu) vs conj(spectrum(mu))
    tol: float

    @property
    def ok(self):
        return (self.hausdorff_reflection <= self.tol
                and self.hausdorff_conjugation <= self.tol)


def _pencil_terms(model, branch, n_modes=None):
    """The operator terms of the branch point's pencil at ``N = n_modes``
    (``waves._operator_terms``; at the branch's own ``N`` the ones it
    holds) and the ``alpha`` of ``s = alpha (n + mu)``: ``2c`` for model A,
    1 for B.  ``model`` must be the branch's: another model's operator on
    its profile is no pencil."""
    if model != branch.model:
        raise ValueError(f"{model} is not the branch's model {branch.model}")
    n = branch.n_modes if n_modes is None else n_modes
    terms = branch._terms if n == branch.n_modes else _operator_terms(
        model, branch.unit_eta.resized(n), branch.unit_c)
    return terms, (2.0 * branch.unit_c if model.is_a else 1.0)


def _pencils(block, alpha, mus):
    """``L0(mu) = A0 + mu A1 + mu^2 A2`` and ``s(mu) = alpha (n + mu)`` on
    the modes ``|n| <= h`` of a square block ``(A0, A1, A2)`` gathered on
    them (``waves._operator_block``), at one Floquet exponent or stacked
    over a grid of them: the one place the pencil is formed, so the
    pencil on a block is the whole pencil's slice to the bit."""
    mu = np.asarray(mus, dtype=float)
    if not np.all((-0.5 < mu) & (mu <= 0.5)):
        raise ValueError(f"Floquet exponent {mus} outside (-1/2, 1/2]")
    a0, a1, a2 = block
    mu = mu[..., None, None]
    l0 = a0 + mu * a1
    l0 += (mu * mu) * a2
    half = a0.shape[0] // 2
    return l0, alpha * (np.arange(-half, half + 1) + mu[..., 0])


def assemble_pencil(model, branch, mu, n_modes=None):
    """Build the Bloch pencil at the given Floquet exponent.

    ``L0`` is the linearized traveling-wave operator at ``mu``;
    ``L1 = i diag(s)`` is ``2c (d/dz + i mu)`` for model A and
    ``d/dz + i mu`` for B.
    """
    terms, alpha = _pencil_terms(model, branch, n_modes)
    n = terms[1].n_modes
    modes = np.arange(-n, n + 1)
    l0, s = _pencils(_operator_block(terms, modes, modes), alpha, mu)
    return BlochPencil(model=model, mu=mu, n_modes=n, L0=l0, s=s)


def dispersion(model, n, mu, k=1.0):
    """Zero-amplitude dispersion: the real Omega with ``lambda = i*Omega``
    annihilating mode ``n``.

    Model A gives ``(sqrt3 k / 2)(x - 1/x)`` and model B ``x - 1/x`` with
    ``x = n + mu``; ``n`` may be an array of modes.
    """
    units = Units(model, k)
    x = n + mu
    if np.any(x == 0):
        raise ZeroDivisionError("dispersion is singular at n + mu = 0")
    base = x - 1.0 / x
    return units.frequency((SQRT3 / 2.0) * base) if model.is_a else base


def find_collisions(n_min=-3, mu_tol=1e-12, k=1.0):
    """Tabulate all collisions of zero-amplitude eigenvalues.

    At ``mu = 0`` the only collision is the double zero of modes -1 and 1.
    For ``mu in (0, 1/2]`` mode 0 collides with mode ``n <= -3`` at the
    root ``mu0 = 2/(-n + sqrt(n^2 - 4))`` of ``mu^2 + n mu + 1`` (the form
    without cancellation); mode -2 never collides.  Each record is
    certified at ``k = 1`` by both dispersion values; ``omega`` is at ``k``.
    """
    if n_min > -3:
        raise ValueError("n_min must be <= -3")
    model = Model("A")
    units = Units(model, k)
    records = [CollisionRecord(n=-1, m=1, mu0=0.0, omega=0.0)]
    for n in range(-3, n_min - 1, -1):
        mu0 = 2.0 / (-n + np.sqrt(n * n - 4.0))
        omega = dispersion(model, 0, mu0)
        gap = abs(dispersion(model, n, mu0) - omega)
        if gap > mu_tol:
            raise ArithmeticError(
                f"collision certificate failed for n={n}: gap {gap:.3e}")
        records.append(CollisionRecord(
            n=0, m=n, mu0=mu0, omega=units.frequency(omega)))
    return records


def _branch_labels(model, eigenvalues, mu, n_modes):
    """Greedy nearest-dispersion assignment of eigenvalues to mode indices.

    (eigenvalue, mode) pairs are taken by distance, ties going to the lower
    eigenvalue position and then the lower mode, each while both members
    are free; eigenvalues left over get ``10**9``.  A pair whose members
    are each other's nearest free partner in that order is one the greedy
    takes, so each round takes all such pairs at once.
    """
    modes = np.arange(-n_modes, n_modes + 1)
    modes = modes[modes + mu != 0]
    with np.errstate(over="ignore", invalid="ignore"):  # subnormal n + mu
        targets = 1j * dispersion(model, modes, mu)
    dist = np.abs(eigenvalues[:, None] - targets[None, :])
    labels = np.full(eigenvalues.size, 10**9, dtype=int)
    rows, cols = np.arange(dist.shape[0]), np.arange(dist.shape[1])
    free = dist
    while rows.size and cols.size:
        # argmin keeps the first of equal minima: the lower mode of a row,
        # the lower position of a column
        nearest_col = free.argmin(axis=1)
        mutual = free.argmin(axis=0)[nearest_col] == np.arange(rows.size)
        labels[rows[mutual]] = modes[cols[nearest_col[mutual]]]
        rows = rows[~mutual]
        cols = np.delete(cols, nearest_col[mutual])
        free = dist[rows][:, cols]
    return labels


def spectrum_slice(pencil):
    """All finite eigenvalues of the pencil from a real standard eigenproblem:
    ``T(lambda) v = 0`` reads ``diag(1/s) L0 v = -i lambda v``, a real
    matrix, so ``lambda -> -conj(lambda)`` holds exactly.

    A mode with ``|s_n| * INFINITE_EIGENVALUE_CUTOFF <= eps |L0_nn|``
    (``n = 0`` at ``mu = 0``) is removed by a Schur complement on
    ``L0_nn``: dropping its ``lambda s_n`` moves that pivot by under a
    rounding error for every eigenvalue below the cutoff.  The mode
    of smallest ``|n + mu|`` is put first so the scaled matrix is graded
    downward; left in the middle, its ``1/s_n`` row spoils the other
    eigenvalues at small nonzero ``mu`` (by 2e-2 at ``mu = 1e-18``).
    """
    l0, s = pencil.L0, pencil.s
    tiny = (np.abs(s) * INFINITE_EIGENVALUE_CUTOFF
            <= np.finfo(float).eps * np.abs(l0.diagonal()))
    keep = ~tiny
    try:
        if tiny.any():
            l0 = l0[np.ix_(keep, keep)] - l0[np.ix_(keep, tiny)] @ \
                np.linalg.solve(l0[np.ix_(tiny, tiny)], l0[np.ix_(tiny, keep)])
            s = s[keep]
        first = np.argmin(np.abs(s))
        perm = np.r_[first, np.delete(np.arange(s.size), first)]
        vals = 1j * np.linalg.eigvals(l0[np.ix_(perm, perm)] / s[perm, None])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"pencil eigensolver failed at mu={pencil.mu}: {exc}") from exc
    vals = vals[np.abs(vals) <= INFINITE_EIGENVALUE_CUTOFF]
    order = np.lexsort((vals.real, vals.imag))
    vals = vals[order]
    labels = _branch_labels(pencil.model, vals, pencil.mu, pencil.n_modes)
    return SpectrumSample(mu=pencil.mu, eigenvalues=vals, branch_ids=labels)


def hausdorff_distance(set_a, set_b):
    """Symmetric Hausdorff distance between two finite complex sets."""
    a = np.asarray(set_a).ravel()
    b = np.asarray(set_b).ravel()
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else np.inf
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def symmetry_check(sample_plus, sample_minus, tol=1e-8):
    """Verify the two spectral symmetries: the eigenvalue set at ``mu``
    maps onto itself under ``lambda -> -conj(lambda)`` and onto the set at
    ``-mu`` under ``lambda -> conj(lambda)``."""
    lam = sample_plus.eigenvalues
    lam_minus = sample_minus.eigenvalues
    h_self = hausdorff_distance(lam, -np.conj(lam))
    h_cross = hausdorff_distance(np.conj(lam), lam_minus)
    return SymmetryReport(mu=sample_plus.mu, hausdorff_reflection=h_self,
                          hausdorff_conjugation=h_cross, tol=tol)


@functools.cache
def _openblas_threads():
    """OpenBLAS's ``(get, set)`` thread-count entry points in the library
    numpy's linear algebra loaded, or ``None`` when it has none."""
    import ctypes
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    # scipy-openblas and 64-bit-integer builds name them apart
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"),
                           ("", "")):
        try:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after.

    A threaded LAPACK call splits its work by the thread count, which moves
    its results at rounding level (at N = 128, the wave and the eigenvalues
    of its slices), so ``mwstab``'s numeric commands run under this and
    print the same bytes on every host.  Without OpenBLAS this does
    nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _worker_count(n_items):
    """Processes ``parallel_map`` splits ``n_items`` over: one per CPU this
    process may run on and at most one per item; 1 where fork is unsafe
    (threads running) or missing (no ``os.fork``/``os.sched_getaffinity``)."""
    if n_items < 2 or threading.active_count() > 1 or not (
            hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _share(fn, items, first, step):
    """``(index, fn(item))`` over ``items[first::step]``, up to the first
    item that raises."""
    done = []
    for index in range(first, len(items), step):
        try:
            done.append((index, fn(items[index])))
        except Exception:
            break
    return done


def _serve_share(fn, items, first, step, read, write):
    """Body of a forked worker; never returns.  It sends its share down
    the pipe's ``write`` end as one pickle once all of it is done, so a
    full pipe never stalls the solving, and leaves by ``os._exit`` without
    flushing the stdio it inherited."""
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(_share(fn, items, first, step), pipe,
                        pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def parallel_map(fn, items):
    """``[fn(item) for item in items]``, split over forked processes.

    With ``w = _worker_count(len(items))`` above 1, worker ``i`` of
    ``1..w-1`` computes ``items[i::w]`` while this process computes
    ``items[0::w]``; each runs ``fn`` on the BLAS thread count it inherits,
    so the results are those of the serial map to the bit, in grid order.
    A share stops at its first item that raises.  Items a share did not
    deliver, because one raised or its worker died, are computed here
    afterwards in grid order, so the first failing item raises what the
    serial map would.  Every worker is reaped before this returns, and
    killed first if this process raises.  The spectrum sweep passes
    through here, and ``perfbench`` traces it by name; spans a worker
    records stay in the worker.
    """
    items = list(items)
    step = _worker_count(len(items))
    if step == 1:
        return [fn(item) for item in items]
    missing = object()
    results = [missing] * len(items)
    pids, reads = [], []              # workers not yet reaped, their pipes
    try:
        for first in range(1, step):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(fn, items, first, step, read, write)
                pids.append(pid)
            finally:
                os.close(write)
        for index, result in _share(fn, items, 0, step):
            results[index] = result
        while pids:
            with os.fdopen(reads.pop(0), "rb") as pipe, contextlib.suppress(
                    EOFError, pickle.UnpicklingError):
                # a share cut short by a dying worker is computed below
                for index, result in pickle.load(pipe):
                    results[index] = result
            os.waitpid(pids[0], 0)
            pids.pop(0)
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for index, result in enumerate(results):
        if result is missing:
            results[index] = fn(items[index])
    return results


def sweep_mus(model, branch, mus):
    """Spectra over a Floquet grid at ``k = 1``, in grid order, from one
    gather of the whole ``(A0, A1, A2)`` made before ``parallel_map``
    splits the slices over the CPUs this process may use: each worker
    inherits the gather, and the samples are the serial sweep's to the
    bit.  A slice that fails raises the serial sweep's ``ArithmeticError``,
    at the first failing ``mu`` of the grid."""
    terms, alpha = _pencil_terms(model, branch)
    n = branch.n_modes
    modes = np.arange(-n, n + 1)
    whole = _operator_block(terms, modes, modes)
    return parallel_map(lambda mu: spectrum_slice(
        BlochPencil(model, mu, n, *_pencils(whole, alpha, mu))), mus)
