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

import math

import numpy as np
from dataclasses import dataclass

from .fourier import TrigSeries
from .waves import (Model, Units, ConvergenceError, solve_wave,
                    branch_derivative, _operator_block, _operator_projection,
                    DEFAULT_N_MODES, DEFAULT_TOL)
from .bloch import _pencil_terms, _pencils, dispersion

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
#: by at most this.  The floor measured 1.6e-16 to 5.3e-16 over N = 64 to
#: 1024, model A and model B at gamma = -1000, 2 and 1000 (a = 0.02)
_SUBSPACE_TOL = 1e-9
#: subspace steps before ``critical_growth`` gives up, enough for a
#: contraction of 0.83 per step; the slowest measured was 0.2 (25 steps,
#: model B, gamma = -1000, a = 0.02, k = 1.4, |mu| = 0.1)
_MAX_SUBSPACE_STEPS = 200
#: a critical frequency may lie on the shift's side of zero by this share
#: of ``|sigma|``, for the rounding noise of the double zero near
#: ``mu = 0`` (measured up to 1.1e-5)
_SHIFT_SIDE_NOISE = 1e-3
#: ``_subspace_step``'s image has lost a dimension when its second column
#: keeps no more than this share of its norm off the first: about
#: sqrt(eps), below which that direction is mostly rounding.  Steps with
#: ``_STEP_POWER = 2`` kept at least 4.4e-6 (median 0.996) over 10516 steps
#: of 1080 solves: both models, gamma in [-1000, 1000], a k^2 up to 0.45
#: where the wave converges, N = 16 and 64, |mu| in [1e-3, 0.1], on the
#: central block and the whole pencil; in the median a solve took 9 steps,
#: at most 19.  The least was at model B, gamma = 1000, a k^2 = 0.078,
#: N = 64, mu = -0.003, on the block
_RANK_FLOOR = 1e-8
#: ``critical_growth`` steps with this power of the shifted inverse, one
#: product per step for two applications.  On the scan above the first
#: power kept at least 2.8e-4 and took 14 steps in the median, at most 34;
#: the fourth fell to 1.2e-9, below ``_RANK_FLOOR``, and 4 of its blocks
#: lost a dimension or never settled
_STEP_POWER = 2
#: ``_critical_pairs`` solves a grid in batches whose stack of step
#: matrices holds at most this many bytes, or a single ``mu``: an 11-point
#: grid takes 108 KB on a 35x35 block, one batch, where 10000 points on
#: the whole pencil at N = 1024 would take 84 GB in one stack
_STACK_BYTES = 2**20
#: ``_block_half`` adds this many modes to the last offset ``j`` at which
#: ``j^2 |A0[0, j]|`` exceeds eps of the row's largest entry.  Over 278
#: random waves (both models, gamma in [-1000, 1000], a k^2 up to 0.45,
#: N = 16 to 128, 6 random mu in [-0.1, 0.1] each), the smallest block
#: that certified every mu lay 5 below to 3 above that offset; unweighted,
#: it lay up to 12 above (model B, gamma = -753, a k^2 = 0.032, N = 128).
#: A further 150 waves of the benchmark's domain (gamma in [0, 3], a k^2
#: up to 0.078, N = 64 and 128) lay 0 to 2 above: all certified first
_BLOCK_MARGIN = 3


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


def _det_polynomials(model, branch, basis):
    """``d0, d1, d2`` of the projected determinant as polynomials in
    ``mu^2``: row ``j`` holds the constant and the ``mu^2`` coefficient.

    With ``phi1 = i u1`` (odd), ``phi2 = u2`` (even) and ``U = [u1, u2]``
    real, the entries ``<T phi_i, phi_j> / <phi_i, phi_i>`` give
    ``det = det(P + t S) / (|u1|^2 |u2|^2)`` at ``lambda = -i t``, where
    ``P = U^T L0 U`` is quadratic and ``S = U^T diag(s) U`` linear in
    ``mu``.  So ``b0, b1, -b2``, its ``t^0, t^1, t^2`` parts, are exact
    polynomials of degree 4, 3 and 2, even, odd and even; the terms parity
    forbids, and the double zero's constant in ``b0``, are rounding noise
    and are dropped.  ``P`` is projected from the branch's operator terms
    (``waves._operator_projection``), no whole matrix gathered.
    """
    terms, alpha = _pencil_terms(model, branch)
    n = branch.n_modes
    u = np.column_stack([basis.phi1.resized(n).to_modes().imag,
                         basis.phi2.resized(n).to_modes().real])
    norms = np.sum(u * u, axis=0)
    if norms.min() < 1e-12:
        raise ArithmeticError("critical basis is numerically degenerate")
    # p[i, j] and q[i, j]: entry polynomials in mu, ascending powers
    p = _operator_projection(terms, u)
    modes = np.arange(-n, n + 1)
    q = alpha * np.stack([u.T @ (modes[:, None] * u), u.T @ u], axis=-1)
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


def projected_det(model, branch, basis, mu):
    """Projected determinant, rescaled coefficients, and discriminant at
    the branch's ``k``; ``d_j = b_j / mu^(2-j)`` are polynomials in
    ``mu^2`` (``_det_polynomials``), evaluated directly, ``mu = 0`` too."""
    if not abs(mu) <= 0.2:
        raise ValueError("projection is meaningful only for |mu| <= 0.2")
    d = _det_polynomials(model, branch, basis)
    return _quadratic_det(d, mu, branch.a, branch.units)


def _critical_shift(model, mus):
    """``critical_growth``'s shift ``-+|Omega_2| / 30`` at each ``mu`` of
    an array, on the far side of zero from the pair: for ``|mu| <=
    SWEEP_MU_MAX`` its frequencies lie within about ``0.15 |Omega_2|`` of
    zero on the side of mu, the other modes beyond ``0.9 |Omega_2|`` (mode
    2's dispersion at mu = 0, evaluated once per call)."""
    sigma = abs(dispersion(model, 2, 0.0)) / 30.0
    return np.where(np.asarray(mus) > 0, -sigma, sigma)


def critical_growth(model, branch, mu):
    """The two pencil eigenvalues continuing the double zero at the origin,
    solved at ``k = 1`` and reported at the branch's ``k`` in the units of
    ``projected_det``'s roots: ``(lambda_plus, lambda_minus)``, tracked to
    the unperturbed modes ``+1`` and ``-1`` by nearest dispersion; a
    reflected pair ``lambda, -conj(lambda)``, which ties there, comes with
    the growing member first.  The one-mu call of ``_critical_pairs``,
    whose errors it raises; a pair that coincides to 1e-12, which no label
    tells apart, raises ``DegeneratePairError``.
    """
    if not abs(mu) <= SWEEP_MU_MAX:
        raise ValueError(
            f"critical tracking is restricted to |mu| <= {SWEEP_MU_MAX}")
    pair = 1j * _critical_pairs(model, branch, [mu])[0]
    spacing = abs(pair[0] - pair[1])
    if spacing < 1e-12:
        raise DegeneratePairError(
            f"critical eigenvalues coincide at mu={mu} "
            f"(spacing {spacing:.3e})")
    targets = 1j * dispersion(model, np.array([1, -1]), float(mu))
    kept, swapped = (np.abs(pair - t).sum() for t in (targets, targets[::-1]))
    if kept > swapped or kept == swapped and pair[0].real < pair[1].real:
        pair = pair[::-1]
    return tuple(branch.units.frequency(complex(x)) for x in pair)


def _subspace_step(step, basis):
    """One subspace step at each grid point of a stack: each image
    ``step[i] @ basis[i]`` orthonormalized by Gram-Schmidt, the second
    column twice (enough in double precision, Giraud et al., Numer. Math.
    101, 2005); each move ``|Q - P (P^T Q)|_F`` from ``P = basis[i]``; and
    an ``ArithmeticError`` for each image not finite or whose second column
    keeps no more than ``_RANK_FLOOR`` of its norm off the first.  Not
    Householder QR, which leaves eps of a column's norm in the edge rows
    the certificate reads (1e-47 at B, gamma = 2, a = 0.02, mu = 0.02):
    with it 19 of ``TestCentralBlock``'s 60 blocks failed."""
    image = step @ basis
    gram = np.swapaxes(image, 1, 2) @ image
    xx, xy, yy = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    first, second = image[..., 0], image[..., 1]
    size = np.sqrt(xx)
    first /= size[:, None]
    second -= (xy / size)[:, None] * first
    rest = np.sqrt(np.add.reduce(second * second, 1))
    finite = (0.0 < xx) & (xx < math.inf) & (yy < math.inf)
    kept = finite & (rest > _RANK_FLOOR * np.sqrt(yy))
    errors = {i: ArithmeticError(
        f"critical subspace lost a dimension: a column of its image of norm "
        f"{math.sqrt(yy[i]):.3e} keeps {rest[i]:.3e} off the other"
        if finite[i] else "critical subspace image is zero or not finite")
        for i in np.flatnonzero(~kept)}
    second -= np.add.reduce(first * second, 1)[:, None] * first
    second /= np.sqrt(np.add.reduce(second * second, 1))[:, None]
    moved = image - basis @ (np.swapaxes(basis, 1, 2) @ image)
    return image, np.sqrt(np.add.reduce(moved * moved, (1, 2))), errors


def _block_half(terms):
    """Half-width ``h`` of the first block ``_critical_pairs`` solves on:
    the last offset ``j`` at which ``j^2 |A0[0, j]|`` exceeds eps of the
    row's largest entry, plus ``_BLOCK_MARGIN``, at most ``N // 2``.  The
    pair's eigenvectors decay with the wave's band, so ``h`` is set by the
    wave and not by N; the weight ``j^2``, the ``D^2`` the rows beyond the
    block apply, reaches further where the band decays slowly."""
    n = terms[1].n_modes
    a0, = _operator_block(terms, [0], np.arange(n + 1), 1)
    row = np.abs(a0[0])
    offsets = np.arange(n + 1.0)
    # NaN reads as above the level: an operator not finite takes N // 2
    above = ~(offsets * offsets * row <= np.finfo(float).eps * row.max())
    return min(n // 2, int(np.flatnonzero(above).max(initial=0))
               + _BLOCK_MARGIN)


def _stacked(solve, matrices, *rest):
    """``solve`` (``np.linalg.inv``, ``solve`` or ``eigvals``) on a stack of
    matrices in one call; when the stack raises ``LinAlgError``, each
    matrix that raises it alone is replaced by the identity and the stack
    solved again.  Returns the results and the error of each matrix
    replaced, by index; the others' results are those of one call each."""
    try:
        return solve(matrices, *rest), {}
    except np.linalg.LinAlgError:
        errors = {}
        for i, items in enumerate(zip(matrices, *rest)):
            try:
                solve(*items)
            except np.linalg.LinAlgError as exc:
                errors[i] = exc
        matrices = matrices.copy()
        matrices[list(errors)] = np.eye(matrices.shape[-1])
        return solve(matrices, *rest), errors


def _grid_pairs(columns, alpha, mus, shifts):
    """The critical pair's two frequencies ``omega`` (``lambda = i omega``)
    at each ``mu``, solved together on the modes ``|n| <= half``, or the
    error that stopped it: a failed solve, a span that lost a dimension or
    never settled, a failed certificate or a pair on the shift's side.
    ``columns``, ``(A0, A1, A2)`` on every mode against those, holds the
    block in its rows ``|n| <= half`` and the certificate's in the rest.
    The grid is one stack from start to finish: the pencils come from
    ``bloch._pencils``, and ``((L0 - sigma diag(s))^-1 diag(s))^
    _STEP_POWER`` at each ``mu``'s shift ``sigma`` (``_critical_shift``),
    which never divides by ``s``, from one stacked inverse, with the
    shifted copies freed; ``_subspace_step`` maps each span from the
    unit vectors of modes +1 and -1, freezing it once it fails or its move
    stops shrinking at rounding level (``_SUBSPACE_TOL``).  The pair are
    the eigenvalues of the 2x2 pencil on the span ``Q``, solved as a stack,
    which a block (``half < N``) keeps where ``|L0[out, in] Q|_F <= eps
    |(|L0[in, in]| |Q|)|_F``: the modes it drops see the pair less than
    rounding does (Curtis & Deconinck, Math. Comp. 79, 2010).  The span
    settles on the two eigenvalues nearest the shift, so only a pair on
    its far side (up to ``_SHIFT_SIDE_NOISE``) is the pair nearest zero.
    Each ``mu``'s result is that of a grid of its own, bit for bit."""
    n, half = (length // 2 for length in columns[0].shape)
    size, m = 2 * half + 1, len(mus)
    l0, s = _pencils([term[n - half:n + half + 1] for term in columns],
                     alpha, mus)
    shifted = l0.copy()
    shifted.reshape(m, -1)[:, ::size + 1] -= np.asarray(shifts)[:, None] * s
    inverse, errors = _stacked(np.linalg.inv, shifted)
    del shifted
    inverse *= s[:, None, :]
    stack = np.linalg.matrix_power(inverse, _STEP_POWER)
    del inverse
    results = [None] * m
    for i, exc in errors.items():
        results[i] = ArithmeticError(
            f"critical pair solve failed at mu={mus[i]}: {exc}")
    basis = np.zeros((m, size, 2))
    basis[:, half + 1, 0] = basis[:, half - 1, 1] = 1.0
    live = np.array([result is None for result in results], dtype=bool)
    moves, last = np.full(m, np.inf), np.full(m, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SUBSPACE_STEPS):
            if not live.any():
                break
            image, move, errors = _subspace_step(stack, basis)
            for i in [i for i in errors if live[i]]:
                results[i], live[i] = errors[i], False
            basis[live], moves[live] = image[live], move[live]
            live &= ~((last <= move) & (move <= _SUBSPACE_TOL))
            last = move
    for i in np.flatnonzero(live):
        results[i] = ConvergenceError(
            f"critical subspace still moving by {moves[i]:.3e} at "
            f"mu={mus[i]} after {_MAX_SUBSPACE_STEPS} steps", moves[i])
    done = np.flatnonzero([result is None for result in results])
    q, l0 = basis[done], l0[done]
    qt = np.swapaxes(q, 1, 2)
    ritz, errors = _stacked(np.linalg.solve, qt @ (s[done, :, None] * q),
                            qt @ (l0 @ q))
    omega, failed = _stacked(np.linalg.eigvals, ritz)
    errors = {**failed, **errors}  # a failed solve is the error reported
    certified = np.ones(done.size, dtype=bool)
    if half < n:
        outer = np.r_[:n - half, n + half + 1:2 * n + 1]
        c0, c1, c2 = (term[outer] @ q for term in columns)
        mu = np.asarray(mus, dtype=float)[done, None, None]
        coupling = c0 + mu * c1 + (mu * mu) * c2
        certified = np.linalg.norm(coupling, axis=(1, 2)) \
            <= np.finfo(float).eps \
            * np.linalg.norm(np.abs(l0) @ np.abs(q), axis=(1, 2))
    omega = omega.astype(complex)
    sigma = np.asarray(shifts, dtype=float)[done]
    side = np.max(omega.real * np.sign(sigma)[:, None], axis=1) \
        > _SHIFT_SIDE_NOISE * np.abs(sigma)
    for j, i in enumerate(done):
        if j in errors:
            results[i] = ArithmeticError(
                f"critical pair solve failed at mu={mus[i]}: {errors[j]}")
        elif not certified[j]:
            results[i] = ArithmeticError(
                f"critical pair at mu={mus[i]} is not certified on the block")
        elif side[j]:
            results[i] = ConvergenceError(
                f"critical subspace at mu={mus[i]} settled on frequencies "
                f"{omega[j, 0].real:.6g}, {omega[j, 1].real:.6g}, one on the "
                f"side of the shift {sigma[j]:.6g}: not the pair nearest "
                f"zero", float(moves[i]))
        else:
            results[i] = omega[j]
    return results


def _critical_pairs(model, branch, mus):
    """The critical pair's frequencies at ``k = 1`` over a grid, an ``(m,
    2)`` array of ``_grid_pairs``' rows, in batches of ``_STACK_BYTES``:
    on the wave's block ``|n| <= _block_half``, else and at ``mu = 0`` on
    the whole pencil, whose failure alone counts, the first in grid order
    raised; each gathered once, the whole only when some ``mu`` needs it,
    and the shifts evaluated once."""
    terms, alpha = _pencil_terms(model, branch)
    n, pairs = branch.n_modes, [None] * len(mus)
    shifts = _critical_shift(model, mus)
    for half in (_block_half(terms), n):
        todo = [i for i, mu in enumerate(mus) if pairs[i] is None
                and (half == n or mu != 0.0 and n >= 2)]
        if not todo:
            continue
        columns = _operator_block(terms, np.arange(-n, n + 1),
                                  np.arange(-half, half + 1))
        batch = max(1, _STACK_BYTES // (8 * (2 * half + 1) ** 2))
        for part in (todo[j:j + batch] for j in range(0, len(todo), batch)):
            solved = _grid_pairs(columns, alpha, [mus[i] for i in part],
                                 shifts[part])
            for i, pair in zip(part, solved):
                if half == n or not isinstance(pair, Exception):
                    pairs[i] = pair
    for pair in pairs:
        if isinstance(pair, Exception):
            raise pair
    return np.array(pairs, dtype=complex).reshape(-1, 2)


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
    growth at ``k``.  The pencil's projection is formed once for the
    whole grid from the branch's operator terms, and its pairs solved
    together (``_critical_pairs``).
    """
    mu_grid = [float(m) for m in mu_grid]
    if not mu_grid:
        raise ValueError("mu grid is empty")
    if not all(abs(m) <= SWEEP_MU_MAX for m in mu_grid):
        raise ValueError(f"sweep grid must satisfy |mu| <= {SWEEP_MU_MAX}")
    branch = solve_wave(model, a, k, n_modes=n_modes, tol=tol)
    basis = critical_basis(model, branch)
    d = _det_polynomials(model, branch, basis)

    unit_a, shown = branch.unit_a, branch.units
    dets = [_quadratic_det(d, mu, unit_a, Units(model, 1.0))
            for mu in mu_grid]
    omega = _critical_pairs(model, branch, [mu for mu in mu_grid if mu != 0.0])
    # Re(i omega) = -Im(omega); 0.0 first: of equal items max keeps the
    # first, so -0.0 reads 0.0
    growth = max([0.0, *(-omega.imag).max(axis=1).tolist()])

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
    first bracket no wider than ``width``; a wider bracket with both ends
    within the floor resolves no root (a flat wave, or ``a k^2`` below
    about 1e-7) and raises ``ValueError``.
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
    if root_lo and root_hi and abs(gamma_hi - gamma_lo) > width:
        raise ValueError(
            f"the bracket resolves no root, D being within its rounding "
            f"floor at both ends: D({gamma_lo})={f_lo:.3e}, "
            f"D({gamma_hi})={f_hi:.3e}")
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
