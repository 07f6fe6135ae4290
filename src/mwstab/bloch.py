"""Bloch operator pencils, their spectra, and the zero-amplitude dispersion.

Localized perturbations of a periodic wave decompose into Bloch waves
``exp(i*mu*z) V(z)`` with Floquet exponent ``mu`` in ``(-1/2, 1/2]`` and
``V`` periodic.  For each ``mu`` the linearized operator becomes a pencil
``T(lambda) = L0 + lambda*L1`` acting on periodic functions; ``lambda`` is
a spectral point iff the pencil is singular.  In the exponential basis,
where ``d/dz + i*mu`` is diagonal and multiplication by a trigonometric
polynomial is a Toeplitz block, an even profile gives a real ``L0``
quadratic in ``mu`` and ``L1 = i diag(s)`` with ``s`` real and linear in
``mu``: one set of real coefficients serves a whole branch and each slice
is a real standard eigenproblem.  Pencils and spectra are at ``k = 1``.
"""

import contextlib
import functools

import numpy as np
from dataclasses import dataclass

from .waves import Model, SQRT3, Units, linearized_operator

__all__ = [
    "BlochPencil", "PencilCoefficients", "SpectrumSample", "CollisionRecord",
    "SymmetryReport", "assemble_pencil", "pencil_coefficients", "dispersion",
    "find_collisions", "spectrum_slice", "symmetry_check",
    "hausdorff_distance", "sweep_mus", "one_blas_thread",
    "INFINITE_EIGENVALUE_CUTOFF",
]

#: eigenvalues beyond this magnitude belong to the (near-)singular direction
#: of L1 (the n + mu = 0 row, ~1/(alpha mu) at small mu) and are dropped
INFINITE_EIGENVALUE_CUTOFF = 1e8


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
class PencilCoefficients:
    """The Bloch pencil of one branch point as exact polynomials in ``mu``:
    ``L0(mu) = A0 + mu A1 + mu^2 A2`` and ``s(mu) = alpha (n + mu)``, with
    ``alpha = 2c`` (model A) or 1 (model B)."""

    model: Model
    n_modes: int
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    alpha: float

    def at(self, mu, half=None):
        """The pencil at one Floquet exponent on the modes ``|n| <= half``
        (all by default), entry for entry a block of the whole pencil."""
        if not -0.5 < mu <= 0.5:
            raise ValueError(f"Floquet exponent {mu} outside (-1/2, 1/2]")
        n = self.n_modes if half is None else half
        inner = slice(self.n_modes - n, self.n_modes + n + 1)
        l0 = self.A0[inner, inner] + mu * self.A1[inner, inner]
        l0 += (mu * mu) * self.A2[inner, inner]
        s = self.alpha * (np.arange(-n, n + 1) + mu)
        return BlochPencil(model=self.model, mu=mu, n_modes=n, L0=l0, s=s)


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


def pencil_coefficients(model, branch, n_modes=None):
    """The Bloch pencil's coefficients in ``mu`` at a branch point (see
    ``PencilCoefficients`` and ``waves.linearized_operator``); at the
    branch's own ``N`` they are its ``linearization``.  ``model`` must be
    the branch's: another model's operator on its profile is no pencil."""
    if model != branch.model:
        raise ValueError(f"{model} is not the branch's model {branch.model}")
    n = branch.n_modes if n_modes is None else n_modes
    if n == branch.n_modes:
        a0, a1, a2 = branch.linearization
    else:
        a0, a1, a2 = linearized_operator(model, branch.unit_eta.resized(n),
                                         branch.unit_c)
    return PencilCoefficients(model=model, n_modes=n, A0=a0, A1=a1, A2=a2,
                              alpha=2.0 * branch.unit_c if model.is_a
                              else 1.0)


def assemble_pencil(model, branch, mu, n_modes=None):
    """Build the Bloch pencil at the given Floquet exponent.

    ``L0`` is the linearized traveling-wave operator at ``mu``;
    ``L1 = i diag(s)`` is ``2c (d/dz + i mu)`` for model A and
    ``d/dz + i mu`` for B.
    """
    return pencil_coefficients(model, branch, n_modes).at(mu)


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


def parallel_map(fn, items):
    """Ordered map over a Floquet grid; every sweep passes through it, and
    ``perfbench`` traces it by name."""
    return [fn(item) for item in items]


def sweep_mus(model, branch, mus, n_modes=None):
    """Spectra over a Floquet grid at ``k = 1``, from one set of pencil
    coefficients."""
    coefficients = pencil_coefficients(model, branch, n_modes)
    return parallel_map(lambda mu: spectrum_slice(coefficients.at(mu)), mus)
