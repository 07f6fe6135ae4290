"""Bloch operator pencils, their spectra, and the zero-amplitude dispersion.

Localized perturbations of a periodic wave decompose into Bloch waves
``exp(i*mu*z) V(z)`` with Floquet exponent ``mu`` in ``(-1/2, 1/2]`` and
``V`` periodic.  For each ``mu`` the linearized operator becomes a pencil
``T(lambda) = L0 + lambda*L1`` acting on periodic functions; ``lambda`` is
a spectral point iff the pencil is singular.  The pencil matrices are
assembled in the exponential basis, where ``d/dz + i*mu`` is diagonal and
multiplication by a trigonometric polynomial is a banded Toeplitz block.
"""

import numpy as np
import scipy.linalg
from dataclasses import dataclass

from .fourier import ComplexFourierVector
from .waves import Model, SQRT3, linearized_operator

__all__ = [
    "BlochPencil", "SpectrumSample", "CollisionRecord", "SymmetryReport",
    "assemble_pencil", "apply_bloch", "dispersion", "find_collisions",
    "spectrum_slice", "symmetry_check", "hausdorff_distance", "sweep_mus",
    "INFINITE_EIGENVALUE_CUTOFF",
]

#: eigenvalues beyond this magnitude are treated as the singular-pencil
#: direction (the n + mu = 0 row of L1) and dropped
INFINITE_EIGENVALUE_CUTOFF = 1e8


@dataclass(frozen=True)
class BlochPencil:
    """Finite section of ``T(lambda) = L0 + lambda*L1`` at fixed ``mu``."""

    model: Model
    mu: float
    n_modes: int
    L0: np.ndarray
    L1: np.ndarray
    a: float
    k: float
    c: float


@dataclass(frozen=True)
class SpectrumSample:
    """All finite pencil eigenvalues at one Floquet exponent.

    ``branch_ids[i]`` is the unperturbed mode index whose zero-amplitude
    eigenvalue lies nearest ``eigenvalues[i]`` (greedy assignment).
    """

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
    unmatched: tuple

    @property
    def ok(self):
        return (self.hausdorff_reflection <= self.tol
                and self.hausdorff_conjugation <= self.tol)


def assemble_pencil(model, branch, mu, n_modes=None):
    """Build the Bloch pencil at the given Floquet exponent.

    ``L0`` is the linearized traveling-wave operator at ``mu``; ``L1`` is
    diagonal, ``2c (d/dz + i mu)`` for model A and ``d/dz + i mu`` for B.
    """
    if not -0.5 < mu <= 0.5:
        raise ValueError(f"Floquet exponent {mu} outside (-1/2, 1/2]")
    n = branch.n_modes if n_modes is None else n_modes
    k, c = branch.k, branch.c
    l0 = linearized_operator(model, branch.eta.resized(n), c, k, mu)
    dz = 1j * (np.arange(-n, n + 1) + mu)
    l1 = np.diag(2.0 * c * dz if model.is_a else dz)
    return BlochPencil(model=model, mu=mu, n_modes=n, L0=l0, L1=l1,
                       a=branch.a, k=k, c=c)


def apply_bloch(pencil, lam, vec):
    """Apply ``T(lambda)`` to a mode vector through the pencil matrices."""
    modes = vec.modes if isinstance(vec, ComplexFourierVector) else vec
    return ComplexFourierVector(pencil.L0 @ modes + lam * (pencil.L1 @ modes))


def dispersion(model, n, mu, k):
    """Zero-amplitude dispersion: the real Omega with ``lambda = i*Omega``
    annihilating mode ``n``.

    Model A gives ``(sqrt3 k / 2)(x - 1/x)`` and model B ``x - 1/x`` with
    ``x = n + mu``.
    """
    x = n + mu
    if x == 0:
        raise ZeroDivisionError("dispersion is singular at n + mu = 0")
    base = x - 1.0 / x
    return (SQRT3 * k / 2.0) * base if model.is_a else base


def find_collisions(n_min=-3, mu_tol=1e-12, k=1.0):
    """Tabulate all collisions of zero-amplitude eigenvalues.

    At ``mu = 0`` the only collision is the double zero of modes -1 and 1.
    For ``mu in (0, 1/2]`` mode 0 collides with mode ``n <= -3`` at
    ``mu0 = (-n - sqrt(n^2 - 4))/2``; mode -2 never collides.  Each record
    is certified by ``(n + mu0)(m + mu0) = -1`` and by re-evaluating both
    dispersion values.
    """
    if n_min > -3:
        raise ValueError("n_min must be <= -3")
    model = Model("A")
    records = [CollisionRecord(n=-1, m=1, mu0=0.0, omega=0.0)]
    for n in range(-3, n_min - 1, -1):
        mu0 = (-n - np.sqrt(n * n - 4.0)) / 2.0
        omega = dispersion(model, 0, mu0, k)
        gap = abs(dispersion(model, n, mu0, k) - omega)
        if gap > mu_tol:
            raise ArithmeticError(
                f"collision certificate failed for n={n}: gap {gap:.3e}")
        records.append(CollisionRecord(n=0, m=n, mu0=mu0, omega=omega))
    return records


def _branch_labels(model, eigenvalues, mu, k, n_modes):
    """Greedy nearest-dispersion assignment of eigenvalues to mode indices."""
    targets = []
    for n in range(-n_modes, n_modes + 1):
        if n + mu == 0:
            continue
        targets.append((n, 1j * dispersion(model, n, mu, k)))
    dist = np.abs(eigenvalues[:, None]
                  - np.array([t[1] for t in targets])[None, :])
    labels = np.full(eigenvalues.size, 10**9, dtype=int)
    used_rows = np.zeros(dist.shape[0], dtype=bool)
    used_cols = np.zeros(dist.shape[1], dtype=bool)
    order = np.argsort(dist, axis=None)
    assigned = 0
    limit = min(dist.shape)
    for flat in order:
        i, j = divmod(int(flat), dist.shape[1])
        if used_rows[i] or used_cols[j]:
            continue
        used_rows[i] = True
        used_cols[j] = True
        labels[i] = targets[j][0]
        assigned += 1
        if assigned == limit:
            break
    return labels


def spectrum_slice(pencil):
    """All finite eigenvalues of the pencil via the QZ algorithm.

    ``L1`` is singular where ``n + mu = 0`` (one row at ``mu = 0``), so the
    generalized problem ``L0 v = -lambda L1 v`` is solved without ever
    inverting ``L1``; the resulting infinite eigenvalue is filtered by
    magnitude.
    """
    try:
        vals = scipy.linalg.eig(pencil.L0, -pencil.L1, right=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        cond = np.linalg.cond(pencil.L0)
        raise ArithmeticError(
            f"pencil eigensolver failed at mu={pencil.mu} "
            f"(cond L0 = {cond:.3e})") from exc
    vals = vals[np.isfinite(vals)]
    vals = vals[np.abs(vals) <= INFINITE_EIGENVALUE_CUTOFF]
    order = np.lexsort((vals.real, vals.imag))
    vals = vals[order]
    labels = _branch_labels(pencil.model, vals, pencil.mu, pencil.k,
                            pencil.n_modes)
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
    """Verify the two spectral symmetries.

    The eigenvalue set at ``mu`` maps onto itself under
    ``lambda -> -conj(lambda)`` and onto the set at ``-mu`` under
    ``lambda -> conj(lambda)``.
    """
    lam = sample_plus.eigenvalues
    lam_minus = sample_minus.eigenvalues
    h_self = hausdorff_distance(lam, -np.conj(lam))
    h_cross = hausdorff_distance(np.conj(lam), lam_minus)
    unmatched = []
    if h_self > tol or h_cross > tol:
        refl = -np.conj(lam)
        for val in lam:
            if np.min(np.abs(refl - val)) > tol:
                unmatched.append(complex(val))
    return SymmetryReport(mu=sample_plus.mu, hausdorff_reflection=h_self,
                          hausdorff_conjugation=h_cross, tol=tol,
                          unmatched=tuple(unmatched))


def parallel_map(fn, items):
    """Ordered map over a Floquet grid.

    Every sweep passes through this one function, which ``perfbench``
    traces by name.
    """
    return [fn(item) for item in items]


def sweep_mus(model, branch, mus, n_modes=None):
    """Spectra over a Floquet grid."""
    return parallel_map(
        lambda mu: spectrum_slice(assemble_pencil(model, branch, mu,
                                                  n_modes=n_modes)), mus)
