"""Projection onto the critical subspace and the stability verdict.

Near the spectral origin only two pencil eigenvalues survive for small
``(a, mu)``; they are tracked by projecting the operator onto the span of
the basis pair ``(phi1, phi2) -> (sin z, cos z)`` as ``a -> 0``.  The
projected 2x2 determinant is quadratic in ``lambda``,

    det = b0 + i*b1*lambda + b2*lambda^2,

and after the rescaling ``lambda = i*mu*X`` its roots are governed by
``Q(X) = d0 - d1*X - d2*X^2`` with ``b_j = d_j * mu^(2-j)``.  The sign of
the discriminant ``D = d1^2 + 4*d0*d2`` decides the verdict: two real
roots (``D > 0``) keep the critical pair on the imaginary axis.
"""

import numpy as np
from dataclasses import dataclass

from .fourier import TrigSeries
from .waves import Model, solve_wave, branch_derivative, DEFAULT_TOL
from .bloch import assemble_pencil, spectrum_slice, dispersion, parallel_map

__all__ = [
    "CriticalBasis", "QuadraticDet", "StabilityReport",
    "DegeneratePairError", "critical_basis", "projected_det",
    "discriminant_sweep", "critical_growth", "threshold_bisect",
    "positivity_margin", "GROWTH_TOLERANCE",
]

#: real parts below this are considered numerically zero
GROWTH_TOLERANCE = 1e-6

#: below this |mu| the d_j are taken from the mu -> 0 limit path
_MU_LIMIT_THRESHOLD = 1e-4


class DegeneratePairError(RuntimeError):
    """The two critical eigenvalues are too close to track separately."""


@dataclass(frozen=True)
class CriticalBasis:
    """Basis pair spanning the critical subspace: phi1 odd, phi2 even."""

    phi1: TrigSeries
    phi2: TrigSeries
    a: float
    k: float


@dataclass(frozen=True)
class QuadraticDet:
    """Coefficients of the projected determinant at one ``mu``."""

    mu: float
    a: float
    k: float
    b0: float
    b1: float
    b2: float
    d0: float
    d1: float
    d2: float
    disc: float

    def q_roots(self):
        """Roots of Q(X) = d0 - d1 X - d2 X^2 (complex when D < 0)."""
        rad = np.sqrt(complex(self.disc))
        return ((-self.d1 + rad) / (2.0 * self.d2),
                (-self.d1 - rad) / (2.0 * self.d2))

    def lambda_roots(self):
        """Critical eigenvalue approximations ``lambda = i*mu*X``."""
        xp, xm = self.q_roots()
        return 1j * self.mu * xp, 1j * self.mu * xm


@dataclass(frozen=True)
class StabilityReport:
    model: Model
    a: float
    k: float
    verdict: str
    disc_samples: tuple
    max_growth: float
    threshold_estimate: float | None = None


def positivity_margin(mu, a):
    """Separates genuine O(a^2) discriminant signals from rounding noise."""
    return max(1e-10, 1e-3 * (mu**2 + a**2))


def critical_basis(model, branch):
    """Basis of the critical subspace at the branch point.

    ``phi1 = -(1/a) d eta/dz`` (odd) and ``phi2 = d eta/d a`` (even, the
    exact branch tangent); at ``a = 0`` the pair is exactly
    ``(sin z, cos z)``.
    """
    phi1 = TrigSeries.sine(1, branch.n_modes) if branch.a == 0 \
        else (-1.0 / branch.a) * branch.eta.deriv()
    return CriticalBasis(phi1=phi1, phi2=branch_derivative(branch),
                         a=branch.a, k=branch.k)


def _det_coefficients(model, branch, basis, mu, n_modes=None):
    """Raw (b0, b1, b2) of the projected determinant at one ``mu``."""
    pencil = assemble_pencil(model, branch, mu, n_modes=n_modes)
    vecs = [basis.phi1.resized(pencil.n_modes).to_modes(),
            basis.phi2.resized(pencil.n_modes).to_modes()]
    norms = [np.vdot(v, v).real for v in vecs]
    if min(norms) < 1e-12:
        raise ArithmeticError("critical basis is numerically degenerate")
    # entry (i, j): <T phi_i, phi_j> / <phi_i, phi_i>, affine in lambda
    p = np.empty((2, 2), dtype=complex)
    q = np.empty((2, 2), dtype=complex)
    for i, v in enumerate(vecs):
        l0v = pencil.L0 @ v
        l1v = pencil.L1 @ v
        for j, w in enumerate(vecs):
            p[i, j] = np.vdot(w, l0v) / norms[i]
            q[i, j] = np.vdot(w, l1v) / norms[i]
    c0 = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    c1 = (p[0, 0] * q[1, 1] + q[0, 0] * p[1, 1]
          - p[0, 1] * q[1, 0] - q[0, 1] * p[1, 0])
    c2 = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    return c0.real, c1.imag, c2.real


def projected_det(model, branch, basis, mu, n_modes=None):
    """Projected determinant, rescaled coefficients, and discriminant.

    For ``|mu|`` above a small threshold the ``d_j`` come from the exact
    parity relations ``b_j = d_j mu^(2-j)``; at and near ``mu = 0`` they
    are extracted by centered differences in ``mu`` (step 1e-3) with one
    Richardson step, using that b0, b2 are even and b1 is odd in ``mu``.
    """
    if abs(mu) > 0.2 or abs(branch.a) > 0.2:
        raise ValueError("projection is meaningful only for small (a, mu)")
    b0, b1, b2 = _det_coefficients(model, branch, basis, mu, n_modes)
    if abs(mu) >= _MU_LIMIT_THRESHOLD:
        d0 = b0 / mu**2
        d1 = b1 / mu
        d2 = b2
    else:
        delta = 1e-3

        def djs(step):
            s0, s1, _ = _det_coefficients(model, branch, basis, step, n_modes)
            return s0 / step**2, s1 / step

        c0, c1 = djs(delta)
        f0, f1 = djs(delta / 2.0)
        d0 = (4.0 * f0 - c0) / 3.0
        d1 = (4.0 * f1 - c1) / 3.0
        d2 = b2
    disc = d1 * d1 + 4.0 * d0 * d2
    return QuadraticDet(mu=mu, a=branch.a, k=branch.k, b0=b0, b1=b1, b2=b2,
                        d0=d0, d1=d1, d2=d2, disc=disc)


def critical_growth(model, branch, mu, n_modes=None):
    """The two pencil eigenvalues continuing the double zero at the origin.

    Returns ``(lambda_plus, lambda_minus)`` tracked to the unperturbed
    modes ``+1`` and ``-1`` by nearest-dispersion assignment.
    """
    if abs(mu) > 0.1:
        raise ValueError("critical tracking is restricted to |mu| <= 0.1")
    sample = spectrum_slice(assemble_pencil(model, branch, mu,
                                            n_modes=n_modes))
    lam = sample.eigenvalues
    idx = np.argsort(np.abs(lam))[:2]
    pair = lam[idx]
    if abs(pair[0] - pair[1]) < 1e-12:
        raise DegeneratePairError(
            f"critical eigenvalues coincide at mu={mu} "
            f"(spacing {abs(pair[0] - pair[1]):.3e})")
    targets = [1j * dispersion(model, s, mu, branch.k) for s in (1, -1)]
    if (abs(pair[0] - targets[0]) + abs(pair[1] - targets[1])
            <= abs(pair[0] - targets[1]) + abs(pair[1] - targets[0])):
        return complex(pair[0]), complex(pair[1])
    return complex(pair[1]), complex(pair[0])


def discriminant_sweep(model, a, k, mu_grid, n_modes=None, tol=DEFAULT_TOL):
    """Evaluate the discriminant over a ``mu`` grid and render a verdict.

    stable: every sample has ``D > margin`` and the critical pair stays on
    the imaginary axis (max Re <= 1e-6).  unstable: some sample has
    ``D < -margin`` and the measured growth exceeds ten times the growth
    the margin itself would imply.  Anything else is indeterminate.
    """
    mu_grid = [float(m) for m in mu_grid]
    if not mu_grid:
        raise ValueError("mu grid is empty")
    if max(abs(m) for m in mu_grid) > 0.1:
        raise ValueError("sweep grid must stay within (0, 0.1]")
    branch = solve_wave(model, a, k, tol=tol) if n_modes is None else \
        solve_wave(model, a, k, n_modes=n_modes, tol=tol)
    basis = critical_basis(model, branch)

    dets = parallel_map(
        lambda mu: projected_det(model, branch, basis, mu, n_modes=n_modes),
        mu_grid)
    pairs = parallel_map(
        lambda mu: critical_growth(model, branch, mu, n_modes=n_modes),
        mu_grid)
    growth = max(max(lp.real, lm.real) for lp, lm in pairs)
    growth = max(growth, 0.0)

    samples = tuple((d.mu, d.disc) for d in dets)
    margins = [positivity_margin(d.mu, a) for d in dets]
    all_positive = all(d.disc > m for d, m in zip(dets, margins))
    negatives = [(d, m) for d, m in zip(dets, margins) if d.disc < -m]

    verdict = "indeterminate"
    if all_positive and growth <= GROWTH_TOLERANCE:
        verdict = "stable"
    elif negatives:
        worst, margin = min(negatives, key=lambda pair: pair[0].disc)
        implied = abs(worst.mu) * np.sqrt(margin) / abs(2.0 * worst.d2)
        if growth > 10.0 * implied:
            verdict = "unstable"
    return StabilityReport(model=model, a=a, k=k, verdict=verdict,
                           disc_samples=samples, max_growth=growth)


def threshold_bisect(k, a, gamma_lo, gamma_hi, width=1e-3, n_modes=None,
                     tol=DEFAULT_TOL):
    """Bisection for the model-B parameter where the verdict flips.

    Operates on the sign of the small-``mu`` limit of the discriminant
    (its ``a^2`` coefficient changes sign at the threshold); the endpoints
    must bracket a sign change.
    """

    def disc_at(gamma):
        model = Model("B", gamma=gamma)
        branch = solve_wave(model, a, k, tol=tol) if n_modes is None else \
            solve_wave(model, a, k, n_modes=n_modes, tol=tol)
        basis = critical_basis(model, branch)
        return projected_det(model, branch, basis, 0.0,
                             n_modes=n_modes).disc

    f_lo = disc_at(gamma_lo)
    f_hi = disc_at(gamma_hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError(
            f"endpoints do not bracket a sign change: "
            f"D({gamma_lo})={f_lo:.3e}, D({gamma_hi})={f_hi:.3e}")
    lo, hi = gamma_lo, gamma_hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = disc_at(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
