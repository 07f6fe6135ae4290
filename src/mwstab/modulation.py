"""Projection onto the critical subspace and the stability verdict.

Near the spectral origin only two pencil eigenvalues survive for small
``(a, mu)``; they are tracked by projecting the operator onto the span of
the basis pair ``(phi1, phi2) -> (sin z, cos z)`` as ``a -> 0``.  The
projected 2x2 determinant is quadratic in ``lambda``,

    det = b0 + i*b1*lambda + b2*lambda^2,

and after the rescaling ``lambda = i*mu*X`` its roots are governed by
``Q(X) = d0 - d1*X - d2*X^2`` with ``b_j = d_j * mu^(2-j)``.  The sign of
the discriminant ``D = d1^2 + 4*d0*d2`` decides the verdict: two real
roots (``D > 0``) keep the critical pair on the imaginary axis.  The
pencil is polynomial in ``mu`` and the basis does not depend on it, so
each ``d_j`` is an exact polynomial in ``mu^2``, projected once per branch,
at ``k = 1`` (``projected_det`` and reports give it at the wave's ``k``).
"""

import contextlib
import math

import numpy as np
from dataclasses import dataclass

from .fourier import TrigSeries
from .waves import (Model, Units, ConvergenceError, solve_wave,
                    branch_derivative, DEFAULT_N_MODES, DEFAULT_TOL)
from .bloch import pencil_coefficients, dispersion, parallel_map

__all__ = [
    "CriticalBasis", "QuadraticDet", "StabilityReport",
    "DegeneratePairError", "critical_basis", "projected_det",
    "discriminant_sweep", "critical_growth", "threshold_bisect",
    "positivity_margin", "GROWTH_TOLERANCE", "SWEEP_MU_MAX",
]

#: real parts below this are considered numerically zero
GROWTH_TOLERANCE = 1e-6

#: the sweeps' domain |mu| <= SWEEP_MU_MAX, where the critical pair stays
#: near zero and apart from the other modes (see ``critical_growth``)
SWEEP_MU_MAX = 0.1

#: ``critical_growth``'s subspace has settled once a step moves it by no
#: less than the step before (the move has reached its rounding floor) and
#: by at most this.  The floor measured 1e-16 to 4e-14 over N = 64 to 1024
#: and gamma in [-1000, 1000]
_SUBSPACE_TOL = 1e-9
#: subspace steps before ``critical_growth`` gives up, enough for a
#: contraction of 0.83 per step; the slowest measured was 0.45 (45 steps,
#: model B, gamma = -1000, a = 0.02, k = 1.4, |mu| = 0.1)
_MAX_SUBSPACE_STEPS = 200
#: a critical frequency may lie on the shift's side of zero by this share
#: of ``|sigma|``, for the rounding noise of the double zero near
#: ``mu = 0`` (measured up to 1.1e-5)
_SHIFT_SIDE_NOISE = 1e-3
#: ``_subspace_step``'s image has lost a dimension when its second column
#: keeps no more than this share of its norm off the first: about
#: sqrt(eps), below which that direction is mostly rounding.  Steps kept
#: at least 0.017 (median 0.999) over 1865 steps at N = 16 and 64, |mu| in
#: [1e-3, 0.1], both models, gamma in [-1000, 1000] and a k^2 up to 0.45
_RANK_FLOOR = 1e-8


class DegeneratePairError(ArithmeticError):
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
    disc_at_zero: float
    band_edge: float | None
    threshold_estimate: float | None = None


def positivity_margin(mu, a):
    """Separates genuine O(a^2) discriminant signals from rounding noise."""
    return max(1e-10, 1e-3 * (mu**2 + a**2))


def critical_basis(model, branch):
    """Basis of the critical subspace at the branch point: ``phi1 = -(1/a)
    d eta/dz`` (odd) and ``phi2 = d eta/d a`` (even, the exact branch
    tangent), exactly ``(sin z, cos z)`` at ``a = 0``."""
    n = branch.n_modes
    # divided by a: the factor 1/a overflows for a subnormal amplitude
    phi1 = TrigSeries.sine(1, n) if branch.unit_a == 0 \
        else TrigSeries(np.zeros(n + 1),
                        branch.unit_eta.deriv().sin / -branch.unit_a)
    return CriticalBasis(phi1=phi1, phi2=branch_derivative(branch),
                         a=branch.a, k=branch.k)


def _det_polynomials(coefficients, basis):
    """``d0, d1, d2`` of the projected determinant as polynomials in
    ``mu^2``: row ``j`` holds the constant and the ``mu^2`` coefficient.

    With ``phi1 = i u1`` (odd), ``phi2 = u2`` (even) and ``U = [u1, u2]``
    real, the entries ``<T phi_i, phi_j> / <phi_i, phi_i>`` give
    ``det = det(P + t S) / (|u1|^2 |u2|^2)`` at ``lambda = -i t``, where
    ``P = U^T L0 U`` is quadratic and ``S = U^T diag(s) U`` linear in
    ``mu``.  So ``b0, b1, -b2``, its ``t^0, t^1, t^2`` parts, are exact
    polynomials of degree 4, 3 and 2, even, odd and even; the terms parity
    forbids, and the double zero's constant in ``b0``, are rounding noise
    and are dropped.
    """
    n = coefficients.n_modes
    u = np.column_stack([basis.phi1.resized(n).to_modes().imag,
                         basis.phi2.resized(n).to_modes().real])
    norms = np.sum(u * u, axis=0)
    if norms.min() < 1e-12:
        raise ArithmeticError("critical basis is numerically degenerate")
    # p[i, j] and q[i, j]: entry polynomials in mu, ascending powers
    p = np.stack([u.T @ m @ u for m in (coefficients.A0, coefficients.A1,
                                        coefficients.A2)], axis=-1)
    modes = np.arange(-n, n + 1)
    q = coefficients.alpha * np.stack(
        [u.T @ (modes[:, None] * u), u.T @ u], axis=-1)
    conv = np.convolve
    b0 = conv(p[0, 0], p[1, 1]) - conv(p[0, 1], p[1, 0])
    b1 = (conv(p[0, 0], q[1, 1]) + conv(q[0, 0], p[1, 1])
          - conv(p[0, 1], q[1, 0]) - conv(q[0, 1], p[1, 0]))
    b2 = conv(q[0, 1], q[1, 0]) - conv(q[0, 0], q[1, 1])
    return np.array([b0[2::2], b1[1::2], b2[0::2]]) / (norms[0] * norms[1])


def _band_edge(d):
    """Smallest ``mu`` in ``(0, SWEEP_MU_MAX]``, the sweep's domain, with
    ``D(mu) = 0``, or ``None``, from ``_det_polynomials``: ``D = c0 + c1 t +
    c2 t^2`` in ``t = mu^2``.  Roots beyond the domain are dropped: a flat
    wave's noise-level coefficients put one near ``mu = 1e8``."""
    (d00, d01), (d10, d11), (d20, d21) = d
    c0 = d10 * d10 + 4.0 * d00 * d20
    c1 = 2.0 * d10 * d11 + 4.0 * (d00 * d21 + d01 * d20)
    c2 = d11 * d11 + 4.0 * d01 * d21
    rad = c1 * c1 - 4.0 * c0 * c2
    if rad < 0.0:
        return None
    # the two roots without cancellation: q / c2 and c0 / q
    q = -0.5 * (c1 + np.copysign(np.sqrt(rad), c1))
    roots = [r for r in ((q / c2) if c2 else None, (c0 / q) if q else None)
             if r is not None and 0.0 < r <= SWEEP_MU_MAX**2]
    return float(np.sqrt(min(roots))) if roots else None


def _quadratic_det(d, mu, a, units):
    """``QuadraticDet`` at ``mu`` from ``_det_polynomials``, in ``units``
    (``d_j`` scales as a frequency to the power ``-j``, ``D`` as ``d2``)."""
    d0, d1, d2 = d[:, 0] + d[:, 1] * (mu * mu)
    disc = units.frequency(d1 * d1 + 4.0 * d0 * d2, -2)
    d1, d2 = units.frequency(d1, -1), units.frequency(d2, -2)
    return QuadraticDet(mu=mu, a=a, k=units.k, b0=d0 * mu * mu, b1=d1 * mu,
                        b2=d2, d0=d0, d1=d1, d2=d2, disc=disc)


def projected_det(model, branch, basis, mu, n_modes=None):
    """Projected determinant, rescaled coefficients, and discriminant at
    the branch's ``k``; ``d_j = b_j / mu^(2-j)`` are polynomials in
    ``mu^2`` (``_det_polynomials``), evaluated directly, ``mu = 0`` too."""
    if not abs(mu) <= 0.2:
        raise ValueError("projection is meaningful only for |mu| <= 0.2")
    d = _det_polynomials(pencil_coefficients(model, branch, n_modes), basis)
    return _quadratic_det(d, mu, branch.a, branch.units)


def _critical_shift(model, mu):
    """``critical_growth``'s shift: ``|Omega_2| / 30`` on the far side of
    zero from the critical pair, whose frequencies share the sign of mu."""
    sigma = abs(dispersion(model, 2, 0.0)) / 30.0
    return -sigma if mu > 0 else sigma


def critical_growth(model, branch, mu, n_modes=None):
    """The two pencil eigenvalues continuing the double zero at the origin,
    solved at ``k = 1`` like the pencil and reported at the branch's ``k``
    (``Units.frequency``), in the units of ``projected_det``'s roots.

    Returns ``(lambda_plus, lambda_minus)`` tracked to the unperturbed
    modes ``+1`` and ``-1`` by nearest-dispersion assignment; a reflected
    pair ``lambda, -conj(lambda)``, which ties there, comes with the
    growing member first.

    Only this pair is computed, on the real pencil ``L0 v = omega diag(s)
    v``, ``lambda = i omega``: the span of the unit vectors of modes +1 and
    -1 is mapped by ``(L0 - sigma diag(s))^-1 diag(s)``, one inverse per
    ``mu``, which never divides by ``s``, and re-orthonormalized
    (``_subspace_step``) until a step's move stops shrinking at rounding
    level (``_SUBSPACE_TOL``); the pair are the
    eigenvalues of the 2x2 pencil projected onto that span.  For
    ``|mu| <= SWEEP_MU_MAX`` both critical frequencies lie within about
    ``0.15 |Omega_2|`` of zero on the side of ``mu`` and the other modes
    beyond ``0.9 |Omega_2|`` (``Omega_2`` the mode-2 dispersion at
    ``mu = 0``); the shift ``sigma = -+|Omega_2| / 30`` on the far side of
    zero keeps the shifted matrix far from singular.  The span settles on
    the two eigenvalues nearest ``sigma``, so only a pair on the far side
    (up to ``_SHIFT_SIDE_NOISE``) is the pair nearest zero: a frequency on
    ``sigma``'s side, or no settled span after ``_MAX_SUBSPACE_STEPS``
    steps, raises ``ConvergenceError``.

    At ``mu != 0`` the pair is first solved on the central block of modes
    ``|n| <= N // 2`` and kept where the modes it drops do not see it;
    otherwise, and at ``mu = 0``, on the whole pencil.
    """
    if not abs(mu) <= SWEEP_MU_MAX:
        raise ValueError(
            f"critical tracking is restricted to |mu| <= {SWEEP_MU_MAX}")
    pair = _pair_at(pencil_coefficients(model, branch, n_modes), mu)
    return tuple(branch.units.frequency(x) for x in pair)


def _subspace_step(step, basis):
    """One step of ``critical_growth``'s subspace iteration: the image
    ``step @ basis`` orthonormalized by Gram-Schmidt, its second column
    orthogonalized twice (twice is enough in double precision, Giraud et
    al., Numer. Math. 101, 2005), and the move ``|Q - P (P^T Q)|_F`` from
    the orthonormal ``P = basis``, which stays accurate at its rounding
    floor where ``2 - |P^T Q|_F^2`` cancels.  An image whose second column
    keeps no more than ``_RANK_FLOOR`` of its norm off the first, or that
    is not finite, has lost a dimension: ``ArithmeticError``."""
    image = step @ basis
    (xx, xy), (_, yy) = (image.T @ image).tolist()
    if not (0.0 < xx < math.inf and yy < math.inf):
        raise ArithmeticError("critical subspace image is zero or not finite")
    size = math.sqrt(xx)
    first, second = image.T
    first /= size
    second -= (xy / size) * first
    rest = math.sqrt(second @ second)
    if not rest > _RANK_FLOOR * math.sqrt(yy):
        raise ArithmeticError(
            f"critical subspace lost a dimension: a column of its image "
            f"of norm {math.sqrt(yy):.3e} keeps {rest:.3e} off the other")
    second -= (first @ second) * first
    second /= math.sqrt(second @ second)
    moved = image - basis @ (basis.T @ image)
    return image, math.sqrt(np.vdot(moved, moved))


def _labelled_pair(model, mu, omega, move):
    """The kept frequencies ``omega`` as ``critical_growth``'s pair, after
    the shift-side and degeneracy checks."""
    sigma = _critical_shift(model, mu)
    if np.max(omega.real * np.sign(sigma)) > _SHIFT_SIDE_NOISE * abs(sigma):
        raise ConvergenceError(
            f"critical subspace at mu={mu} settled on frequencies "
            f"{omega[0].real:.6g}, {omega[1].real:.6g}, one on the side of "
            f"the shift {sigma:.6g}: not the pair nearest zero", move)
    pair = 1j * omega
    if abs(pair[0] - pair[1]) < 1e-12:
        raise DegeneratePairError(
            f"critical eigenvalues coincide at mu={mu} "
            f"(spacing {abs(pair[0] - pair[1]):.3e})")
    targets = [1j * dispersion(model, m, mu) for m in (1, -1)]
    kept = abs(pair[0] - targets[0]) + abs(pair[1] - targets[1])
    swapped = abs(pair[0] - targets[1]) + abs(pair[1] - targets[0])
    if kept > swapped or (kept == swapped and pair[0].real < pair[1].real):
        pair = pair[::-1]
    return complex(pair[0]), complex(pair[1])


def _block_pair(coefficients, mu, half):
    """``critical_growth``'s shifted subspace iteration and 2x2 Ritz pencil
    on the modes ``|n| <= half`` of ``L0 v = omega diag(s) v``: the pair's
    frequencies and the last move, or ``None`` where a block (``half <
    N``) cannot stand for the whole pencil.

    A block's settled basis ``Q`` is kept when the rows the block drops,
    applied to ``Q``, stay within the rounding of the block's own product:
    ``|L0[out, in] Q|_F <= eps |(|L0[in, in]| |Q|)|_F``.  Then truncation
    costs less than the whole computation loses to rounding (Hill's method
    resolves an eigenpair once its coupling to the dropped modes is
    negligible; Curtis & Deconinck, Math. Comp. 79, 2010).
    """
    pencil = coefficients.at(mu, half)
    l0, s = pencil.L0, pencil.s
    sigma = _critical_shift(coefficients.model, mu)
    basis = np.zeros((2 * half + 1, 2))
    basis[half + 1, 0] = basis[half - 1, 1] = 1.0
    try:
        shifted = l0.copy()
        shifted.ravel()[::2 * half + 2] -= sigma * s
        step = np.linalg.inv(shifted)
        step *= s
        last = np.inf
        for _ in range(_MAX_SUBSPACE_STEPS):
            basis, move = _subspace_step(step, basis)
            if last <= move <= _SUBSPACE_TOL:
                break
            last = move
        else:
            raise ConvergenceError(
                f"critical subspace still moving by {move:.3e} at mu={mu} "
                f"after {_MAX_SUBSPACE_STEPS} steps", move)
        omega = np.linalg.eigvals(np.linalg.solve(
            basis.T @ (s[:, None] * basis), basis.T @ (l0 @ basis)))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"critical pair solve failed at mu={mu}: {exc}") from exc
    n = coefficients.n_modes
    if half < n:
        inner = slice(n - half, n + half + 1)
        c0, c1, c2 = (term[:, inner] @ basis for term in
                      (coefficients.A0, coefficients.A1, coefficients.A2))
        coupling = np.delete(c0 + mu * c1 + (mu * mu) * c2, inner, axis=0)
        floor = np.finfo(float).eps \
            * np.linalg.norm(np.abs(l0) @ np.abs(basis))
        if not np.linalg.norm(coupling) <= floor:
            return None
    return omega, move


def _pair_at(coefficients, mu):
    """``critical_growth``'s pair at ``k = 1`` from a branch's pencil
    coefficients: from the central block of modes ``|n| <= N // 2`` where
    it stands for the whole pencil, else, where the block's solve fails,
    and at ``mu = 0``, from the whole pencil.  The checks run once, on the
    pair kept."""
    n, pair = coefficients.n_modes, None
    if mu != 0.0 and n >= 2:
        with contextlib.suppress(ArithmeticError, ConvergenceError):
            pair = _block_pair(coefficients, mu, n // 2)
    if pair is None:
        pair = _block_pair(coefficients, mu, n)
    return _labelled_pair(coefficients.model, mu, *pair)


def discriminant_sweep(model, a, k, mu_grid, n_modes=DEFAULT_N_MODES,
                       tol=DEFAULT_TOL):
    """Evaluate the discriminant over a ``mu`` grid and render a verdict.

    stable: every sample has ``D > margin`` and the critical pair stays on
    the imaginary axis (max Re <= 1e-6).  unstable: some sample has
    ``D < -margin`` and the measured growth is at least ten times the
    growth the margin itself would imply.  Anything else is indeterminate.
    At ``mu = 0`` both growths are zero (the pair is the double zero, whose
    measured real part is rounding noise), so the pair is not computed
    there and ``D`` decides alone.  The rule is applied at ``k = 1``, so
    the verdict depends on ``a k^2`` alone; the report gives ``D`` and the
    growth at ``k``.  The pencil's coefficients and their projection are
    built once for the whole grid.
    """
    mu_grid = [float(m) for m in mu_grid]
    if not mu_grid:
        raise ValueError("mu grid is empty")
    if not all(abs(m) <= SWEEP_MU_MAX for m in mu_grid):
        raise ValueError(f"sweep grid must satisfy |mu| <= {SWEEP_MU_MAX}")
    branch = solve_wave(model, a, k, n_modes=n_modes, tol=tol)
    basis = critical_basis(model, branch)
    coefficients = pencil_coefficients(model, branch)
    d = _det_polynomials(coefficients, basis)

    unit_a, shown = branch.unit_a, branch.units
    dets = [_quadratic_det(d, mu, unit_a, Units(model, 1.0))
            for mu in mu_grid]
    pairs = parallel_map(lambda mu: _pair_at(coefficients, mu),
                         [mu for mu in mu_grid if mu != 0.0])
    # 0.0 first: of equal items max keeps the first, so -0.0 reads 0.0
    growth = max([0.0, *(max(lp.real, lm.real) for lp, lm in pairs)])

    margins = [positivity_margin(d.mu, unit_a) for d in dets]
    all_positive = all(d.disc > m for d, m in zip(dets, margins))
    negatives = [(d, m) for d, m in zip(dets, margins) if d.disc < -m]

    verdict = "indeterminate"
    if all_positive and growth <= GROWTH_TOLERANCE:
        verdict = "stable"
    elif negatives:
        worst, margin = min(negatives, key=lambda pair: pair[0].disc)
        implied = abs(worst.mu) * np.sqrt(margin) / abs(2.0 * worst.d2)
        if growth >= 10.0 * implied:
            verdict = "unstable"
    return StabilityReport(
        model=model, a=a, k=k, verdict=verdict,
        disc_samples=tuple((d.mu, shown.frequency(d.disc, -2))
                           for d in dets),
        max_growth=shown.frequency(growth),
        disc_at_zero=_quadratic_det(d, 0.0, a, shown).disc,
        band_edge=_band_edge(d))


def threshold_bisect(k, a, gamma_lo, gamma_hi, width=1e-3,
                     n_modes=DEFAULT_N_MODES, tol=DEFAULT_TOL):
    """Root of the model-B discriminant ``D(gamma)`` at ``mu = 0``, where
    the verdict flips (its ``a^2`` coefficient changes sign there).

    The endpoints must bracket a sign change.  Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971) keeps the bracket: each step takes the
    secant point, with the value at an end kept twice in a row halved, or
    the midpoint when that point leaves the open bracket or the bracket has
    not halved over the last three steps.  ``D`` is nearly linear in
    ``gamma``, so a few steps suffice.  The search returns an evaluated
    point, an endpoint included, whose ``|D|`` is within the floor
    ``(8 eps + r) (d1^2 + 4 |d0 d2|)``, or else the secant point of the
    first bracket no wider than ``width``.
    ``8 eps`` is the rounding of the cancellation in ``D``; ``r``, the
    wave's Newton residual (``residual_norm``), allows for the error that
    a profile solved only to ``tol`` puts into each ``d_j`` (at
    ``a k^2 = 0.035, gamma = 1`` a residual of 4.6e-13 left ``D`` at
    2.1e-13, 3.6 times the rounding floor and 0.014 of this allowance).
    Each evaluation solves one wave and projects its pencil once.
    """

    def disc_at(gamma):
        model = Model("B", gamma=gamma)
        branch = solve_wave(model, a, k, n_modes=n_modes, tol=tol)
        basis = critical_basis(model, branch)
        det = projected_det(model, branch, basis, 0.0)
        floor = (8.0 * np.finfo(float).eps + branch.residual_norm) \
            * (det.d1 * det.d1 + 4.0 * abs(det.d0 * det.d2))
        return det.disc, abs(det.disc) <= floor

    def secant(lo, f_lo, hi, f_hi):
        return float((lo * f_hi - hi * f_lo) / (f_hi - f_lo))

    (f_lo, root_lo), (f_hi, root_hi) = disc_at(gamma_lo), disc_at(gamma_hi)
    if root_lo or root_hi:
        return gamma_lo if root_lo else gamma_hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError(
            f"endpoints do not bracket a sign change: "
            f"D({gamma_lo})={f_lo:.3e}, D({gamma_hi})={f_hi:.3e}")
    lo, hi = gamma_lo, gamma_hi
    g_lo, g_hi = f_lo, f_hi     # the secant's values, halved by Illinois
    kept, widths = None, [abs(hi - lo)]
    while widths[-1] > width:
        x = secant(lo, g_lo, hi, g_hi)
        if not min(lo, hi) < x < max(lo, hi) or \
                len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (lo + hi)
        f_x, root = disc_at(x)
        if root:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            lo, f_lo, g_lo = x, f_x, f_x
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, g_hi = x, f_x, f_x
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
        widths.append(abs(hi - lo))
    return secant(lo, f_lo, hi, f_hi)
