"""Bloch operator pencils, their spectra, and the zero-amplitude dispersion.

Localized perturbations of a periodic wave decompose into Bloch waves
``exp(i*mu*z) V(z)`` with Floquet exponent ``mu`` in ``(-1/2, 1/2]`` and
``V`` periodic.  For each ``mu`` the linearized operator becomes a pencil
``T(lambda) = L0 + lambda*L1`` acting on periodic functions; ``lambda`` is
a spectral point iff the pencil is singular.  The pencil matrices are
assembled in the exponential basis, where ``d/dz + i*mu`` is diagonal and
multiplication by a trigonometric polynomial is a banded Toeplitz block.
For an even profile ``L0`` is real there and quadratic in ``mu``, and
``L1 = i diag(s)`` with ``s`` real and linear in ``mu``, so one set of
real coefficients serves a whole branch and each slice is a real
standard eigenproblem.
"""

import numpy as np
from dataclasses import dataclass

from .waves import Model, SQRT3, linearized_operator

__all__ = [
    "BlochPencil", "PencilCoefficients", "SpectrumSample", "CollisionRecord",
    "SymmetryReport", "assemble_pencil", "pencil_coefficients", "dispersion",
    "find_collisions", "spectrum_slice", "symmetry_check",
    "hausdorff_distance", "sweep_mus", "INFINITE_EIGENVALUE_CUTOFF",
]

#: eigenvalues beyond this magnitude belong to the (near-)singular direction
#: of L1 (the n + mu = 0 row, ~1/(alpha mu) at small mu) and are dropped
INFINITE_EIGENVALUE_CUTOFF = 1e8


@dataclass(frozen=True)
class BlochPencil:
    """Finite section of ``T(lambda) = L0 + lambda*L1`` at fixed ``mu``,
    with ``L0`` real and ``L1 = i diag(s)``: ``T(i omega) v = 0`` reads
    ``L0 v = omega diag(s) v``."""

    model: Model
    mu: float
    n_modes: int
    L0: np.ndarray
    s: np.ndarray
    k: float


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
    k: float

    def at(self, mu):
        """The pencil at one Floquet exponent."""
        if not -0.5 < mu <= 0.5:
            raise ValueError(f"Floquet exponent {mu} outside (-1/2, 1/2]")
        l0 = self.A0 + mu * self.A1
        l0 += (mu * mu) * self.A2
        s = self.alpha * (np.arange(-self.n_modes, self.n_modes + 1) + mu)
        return BlochPencil(model=self.model, mu=mu, n_modes=self.n_modes,
                           L0=l0, s=s, k=self.k)


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


def pencil_coefficients(model, branch, n_modes=None):
    """The Bloch pencil's coefficients in ``mu`` at a branch point (see
    ``PencilCoefficients`` and ``waves.linearized_operator``)."""
    n = branch.n_modes if n_modes is None else n_modes
    a0, a1, a2 = linearized_operator(model, branch.eta.resized(n), branch.c,
                                     branch.k)
    return PencilCoefficients(model=model, n_modes=n, A0=a0, A1=a1, A2=a2,
                              alpha=2.0 * branch.c if model.is_a else 1.0,
                              k=branch.k)


def assemble_pencil(model, branch, mu, n_modes=None):
    """Build the Bloch pencil at the given Floquet exponent.

    ``L0`` is the linearized traveling-wave operator at ``mu``;
    ``L1 = i diag(s)`` is ``2c (d/dz + i mu)`` for model A and
    ``d/dz + i mu`` for B.
    """
    return pencil_coefficients(model, branch, n_modes).at(mu)


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
    """All finite eigenvalues of the pencil from a real standard eigenproblem.

    With the pencil's real ``(L0, s)``, ``T(lambda) v = 0`` reads
    ``diag(1/s) L0 v = -i lambda v``, a real matrix, so
    ``lambda -> -conj(lambda)`` holds exactly.

    ``L1`` is never inverted where it is singular.  A mode with
    ``|s_n| * INFINITE_EIGENVALUE_CUTOFF <= eps |L0_nn|`` (``n = 0`` at
    ``mu = 0``) is removed by a Schur complement on ``L0_nn``: dropping its
    ``lambda s_n`` moves that pivot by under a rounding error for every
    eigenvalue below the cutoff, and its own eigenvalue lies beyond it.
    The mode of smallest ``|n + mu|`` is put first so the scaled matrix is
    graded downward; left in the middle, its ``1/s_n`` row spoils the other
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
    """Spectra over a Floquet grid, from one set of pencil coefficients."""
    coefficients = pencil_coefficients(model, branch, n_modes)
    return parallel_map(lambda mu: spectrum_slice(coefficients.at(mu)), mus)
