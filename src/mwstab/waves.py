"""Small-amplitude periodic traveling waves of the two water-wave models.

Model A is the quadratic shallow-water model whose traveling profile
``eta`` (period ``2*pi`` in ``z = k(x - ct)``) satisfies

    (3c^2 - 2 eta) k^2 eta'' - k^2 (eta')^2 + eta = 0,

model B is the cubic variant whose profile ``w`` satisfies

    k^2 (w - c) w'' + (k^2/2) (w')^2 - (gamma/2) k^4 w'' (w')^2 - w = 0.

Both are unchanged under ``a -> a k^2``, ``eta -> eta / k^2`` and
``c -> c / k`` (A) or ``c / k^2`` (B), so every layer solves, projects and
decides at ``k = 1`` with the amplitude ``a k^2``, and ``Units`` carries
what is reported to wavenumber ``k``:

    quantity                          model A           model B
    eta and a                         1/k^2             1/k^2
    c                                 1/k               1/k^2
    lambda, omega, collision omega    k                 1
    d0, d1, d2                        1, 1/k, 1/k^2     1
    D                                 1/k^2             1

``mu``, the band edge and the gamma threshold do not scale.

Both carry a branch of even solutions bifurcating from the first harmonic:
``analytic_wave`` is its third-order expansion, which ``solve_wave``
refines by Newton-Galerkin in the cosine subspace (no translation
zero-mode, every iterate even) in real band arithmetic, which also gives
the linearized operator's terms as the bands ``_operator_block`` reads.
"""

import functools

import numpy as np
from dataclasses import InitVar, dataclass, field

from .fourier import TrigSeries

__all__ = [
    "Model", "Units", "WaveBranch", "ConvergenceError", "ValidityError",
    "analytic_wave", "residual", "solve_wave",
    "branch_derivative", "wave_speed_expansion", "EXPANSION_LIMIT",
]

SQRT3 = np.sqrt(3.0)

#: the one validity guard, on |a| k^2: model A's profile equation loses its
#: leading derivative where 2 eta reaches 3 c^2 ~ 1 at k = 1, so near
#: a k^2 = 1/2 (Newton at N = 64 fails from 0.50)
EXPANSION_LIMIT = 0.45

DEFAULT_N_MODES = 64
DEFAULT_TOL = 1e-12

#: Newton has left the solution's basin once its error grows this many
#: times above the best it reached: in a scan of 3120 waves (models A and
#: B, |gamma| <= 1e4, a k^2 <= 0.45, N = 16 to 128) the 1374 that converge
#: grew at most 850 times, while a diverging iteration grows without bound
DIVERGENCE = 1e6


class ValidityError(ValueError):
    """Amplitude outside the validity range of the small-amplitude branch."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last residual norm."""

    def __init__(self, message, residual_norm):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class Model:
    """Which model, plus the cubic coefficient ``gamma`` (model B only)."""

    variant: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.variant not in ("A", "B"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got gamma={self.gamma}")

    @property
    def is_a(self):
        return self.variant == "A"

    def c0(self, k):
        """Bifurcation speed of the trivial branch point."""
        return Units(self, k).speed(1.0 / SQRT3 if self.is_a else 1.0)


@dataclass(frozen=True)
class Units:
    """Carries a ``k = 1`` quantity to wavenumber ``k`` by the table above;
    ``k`` must be positive and finite."""

    model: Model
    k: float

    def __post_init__(self):
        if not 0.0 < self.k < np.inf:
            raise ValueError(
                f"wavenumber must be positive and finite, got k={self.k}")

    def amplitude(self, x):
        return x * self.k**-2

    def speed(self, x):
        return x * self.k**(-1 if self.model.is_a else -2)

    def frequency(self, x, power=1):
        """``d_j`` scales as ``power = -j``, ``D`` as ``power = -2``."""
        return x * self.k**(power if self.model.is_a else 0)


@dataclass(frozen=True)
class WaveBranch:
    """One point on the small-amplitude branch, solved at ``k = 1`` with
    amplitude ``unit_a = a k^2`` (``unit_eta``, ``unit_c`` and the residual
    there); ``eta`` and ``c`` are that wave at wavenumber ``k``."""

    model: Model
    a: float
    k: float
    unit_a: float
    unit_eta: TrigSeries
    unit_c: float
    residual_norm: float
    #: sup-norm residual after each Newton step (diagnostic)
    newton_residuals: tuple = field(default=(), repr=False)
    #: ``_operator_terms`` at this wave, the bands of ``(R, C, E)``, when its
    #: solve evaluated them; else ``_terms`` evaluates them on first use
    terms: InitVar[tuple | None] = None

    def __post_init__(self, terms):
        if terms is not None:
            object.__setattr__(self, "_terms", terms)

    @property
    def units(self):
        return Units(self.model, self.k)

    @property
    def eta(self):
        return self.units.amplitude(self.unit_eta)

    @property
    def c(self):
        return self.units.speed(self.unit_c)

    @property
    def n_modes(self):
        return self.unit_eta.n_modes

    @functools.cached_property
    def _terms(self):
        """``_operator_terms`` here, for the tangent and the Bloch pencil."""
        return _operator_terms(self.model, self.unit_eta, self.unit_c)


def _unit_amplitude(model, a, k):
    """The one guard, returning ``a k^2``: ``|a| k^2 <= EXPANSION_LIMIT``
    at a positive ``k`` whose ``k^4`` and ``1/k^4`` are finite, which keeps
    the reported values finite."""
    if not isinstance(model, Model):
        raise TypeError("model must be a Model instance")
    Units(model, k)  # k positive and finite
    unit_a = a * k * k
    if not abs(unit_a) <= EXPANSION_LIMIT:
        raise ValidityError(
            f"|a| k^2={abs(unit_a)} outside the small-amplitude range "
            f"(limit {EXPANSION_LIMIT})")
    k4 = k * k * k * k
    if not np.isfinite(k4):
        raise ValidityError(f"k={k} is too large: k^4 overflows")
    if k4 == 0.0 or not np.isfinite(1.0 / k4):
        raise ValidityError(f"k={k} is too small: 1/k^4 overflows")
    return unit_a


def wave_speed_expansion(model, a):
    """Third-order wave speed ``c0 + a^2 c2`` at ``k = 1``."""
    if model.is_a:
        return 1.0 / SQRT3 + a**2 / (4.0 * SQRT3)
    return 1.0 + a**2 * (1.0 - model.gamma) / 8.0


def _analytic_seed(model, unit_a, n_modes):
    """``analytic_wave``'s profile and speed at ``k = 1``."""
    if n_modes < 3:
        raise ValueError("need at least 3 modes for the cubic truncation")
    cos = np.zeros(n_modes + 1)
    if model.is_a:
        a0, a2, a3 = -0.5, 0.5, 7.0 / 16.0
    else:
        a0, a2, a3 = -0.25, 0.25, (7.0 + model.gamma) / 64.0
    cos[:4] = unit_a**2 * a0, unit_a, unit_a**2 * a2, unit_a**3 * a3
    eta = TrigSeries(cos + 0.0)  # normalizes -0.0 at a = 0
    return eta, wave_speed_expansion(model, unit_a)


def analytic_wave(model, a, k, n_modes=DEFAULT_N_MODES):
    """Third-order truncation of the small-amplitude branch.

    At ``k = 1``, model A: ``eta = a cos z + (a^2/2)(cos 2z - 1) +
    (7a^3/16) cos 3z`` with ``c = 1/sqrt3 + a^2/(4 sqrt3)``; model B:
    ``w = a cos z + (a^2/4)(cos 2z - 1) + a^3 ((7+gamma)/64) cos 3z`` with
    ``c = 1 + a^2 (1-gamma)/8``.
    """
    unit_a = _unit_amplitude(model, a, k)
    eta, c = _analytic_seed(model, unit_a, n_modes)
    res, terms = _residual_and_terms(model, eta, c)
    return WaveBranch(model=model, a=a, k=k, unit_a=unit_a, unit_eta=eta,
                      unit_c=c, residual_norm=res.sup_norm(), terms=terms)


def _band_product(p, q, parity=1.0):
    """The band of the product of two single-parity series from their bands,
    as ``TrigSeries._product``: one real convolution of the entries
    ``-N..N``, its centre kept and symmetrised, antisymmetrised at ``parity
    = -1`` (one factor odd); minus the product's band for two odd factors."""
    n = p.size // 4
    full = np.convolve(p[n:3 * n + 1], q[n:3 * n + 1])
    full[:n] = full[3 * n + 1:] = 0.0
    return 0.5 * (full + parity * full[::-1])


def _residual_and_terms(model, eta, c):
    """``residual`` and ``_operator_terms`` at an even ``(eta, c)`` from one
    evaluation in real band arithmetic: with ``e`` the profile's band
    (``TrigSeries.band``) and ``X = diag(n)``, ``eta' = i X e`` and ``eta''
    = -X^2 e``, each product is one ``_band_product``, each term a band."""
    n = eta.n_modes
    if not eta.is_even():
        raise ValueError("the traveling-wave equation is solved and "
                         "linearized for an even profile only")
    x, e = np.arange(-2.0 * n, 2 * n + 1), eta.band()
    d1, one = x * e, 1.0 * (x == 0)
    d2 = -(x * d1)
    if model.is_a:
        res = ((3.0 * c**2) * d2 - 2.0 * _band_product(e, d2)
               + _band_product(d1, d1) + e)
        # L0 = -2 eta' D + D^2 [(2 eta - 3c^2) .] - 1
        terms = -2.0 * d1, 2.0 * e - (3.0 * c**2) * one, None
    else:
        g, sq = model.gamma, -_band_product(d1, d1)
        res = (_band_product(e, d2) - c * d2 + 0.5 * sq
               - 0.5 * g * _band_product(d2, sq) - e)
        # L0 = [(-w' - g w' w'') .] D + D^2 [(w - c) .] - (g/2) w'^2 D^2 - 1
        terms = (-d1 - g * _band_product(d1, d2, -1.0), e - c * one,
                 (-0.5 * g) * sq)
    return TrigSeries(np.concatenate([res[2 * n:2 * n + 1],
                                      2.0 * res[2 * n + 1:3 * n + 1]])), terms


def residual(model, eta, c):
    """Traveling-wave ODE residual at ``k = 1`` of an even profile, as a
    series; zero iff ``(eta, c)`` solves it."""
    return _residual_and_terms(model, eta, c)[0]


def _operator_terms(model, eta, c):
    """The terms of ``_operator_block`` from ``_residual_and_terms``."""
    return _residual_and_terms(model, eta, c)[1]


def _operator_block(terms, rows, cols, powers=3):
    """The first ``powers`` of the real ``(A0, A1, A2)`` of ``L0(mu) = A0 + mu
    A1 + mu^2 A2``, the linearized traveling-wave ODE at ``k = 1`` on the
    ``exp(inz)`` coefficients of Bloch modes ``exp(i mu z) V(z)``, on the modes
    ``rows`` against the modes ``cols`` (integer arrays in ``-N..N``), from the
    terms of an even profile: with ``X = diag(n + mu)`` and ``D = i X``, ``L0 =
    -R X - X^2 C - E X^2 - 1``, ``i R`` the odd multiplier and ``C`` (left),
    ``E`` (right, ``None`` for model A) the even ones.  ``D^2`` acts *after*
    multiplication by the profile coefficient, model B's ``(w')^2`` term
    *after* differentiation; at ``mu = 0``, ``A0`` is minus (A) or plus (B) the
    derivative of ``residual`` in the profile.  Each term is held as its
    ``4N+1`` band (``TrigSeries.band``), indexed at ``row - col + 2N``, and the
    coefficients formed by the same operations, so every block is the same
    slice of the whole matrices to the bit."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    index = rows[:, None] - cols + terms[1].size // 2
    r, cl, er = (None if term is None else term[index] for term in terms)
    m, m_row = cols.astype(float), rows.astype(float)
    a0 = np.multiply(r, -m)
    a0 -= np.multiply(cl, (m_row * m_row)[:, None])
    if er is not None:
        a0 -= np.multiply(er, m * m)
    a0[rows[:, None] == cols] -= 1.0
    if powers == 1:
        return (a0,)
    a1, a2 = np.negative(r), np.negative(cl)
    a1 -= np.multiply(cl, (2.0 * m_row)[:, None])
    if er is not None:
        a1 -= np.multiply(er, 2.0 * m)
        a2 -= er
    return a0, a1, a2


def _toeplitz_product(term, u):
    """The matrix of a term's ``4N+1`` band, indexed at ``row - col + 2N``
    as in ``_operator_block``, times the columns of ``u``, from one
    convolution of its entries ``-N..N`` with the columns laid end to end,
    each followed by the ``2N`` zeros that keep its products apart."""
    n, size = term.size // 4, term.size
    laid = np.zeros((u.shape[1], size))
    laid[:, :2 * n + 1] = u.T
    full = np.convolve(term[n:3 * n + 1], laid.ravel())
    return full[:laid.size].reshape(-1, size)[:, n:3 * n + 1].T


def _operator_projection(terms, u):
    """``u^T A_j u`` for ``_operator_block``'s ``(A0, A1, A2)``,
    stacked on the last axis, from the terms' products with the columns
    of ``u`` alone (``_toeplitz_product``), no ``(2N+1)^2`` matrix
    formed: ``R`` is antisymmetric and ``C``, ``E`` symmetric, so with
    ``X = diag(n)``, ``u^T A0 u = (R u)^T X u - (X^2 u)^T C u -
    (E u)^T X^2 u - u^T u``, ``u^T A1 u = (R u)^T u - 2 (X u)^T C u -
    2 (E u)^T X u`` and ``u^T A2 u = -u^T C u - (E u)^T u``.  Equal to the
    projection of the whole matrices to rounding."""
    n = terms[1].size // 4
    m = np.arange(-n, n + 1.0)[:, None]
    u1, u2 = m * u, (m * m) * u
    r, cl, er = (None if term is None else _toeplitz_product(term, u)
                 for term in terms)
    p0 = r.T @ u1 - u2.T @ cl - u.T @ u
    p1 = r.T @ u - 2.0 * (u1.T @ cl)
    p2 = -(u.T @ cl)
    if er is not None:
        p0 -= er.T @ u2
        p1 -= 2.0 * (er.T @ u1)
        p2 -= er.T @ u
    return np.stack([p0, p1, p2], axis=-1)


def _cosine_fold(terms):
    """``A0`` folded onto cosines: its rows ``0..N``, where column ``-q``
    adds to column ``q`` (``exp(-iqz)`` brings ``cos(qz)`` there)."""
    n = terms[1].size // 4
    a0, = _operator_block(terms, np.arange(n + 1), np.arange(-n, n + 1), 1)
    fold = a0[:, n:]
    fold[:, 1:] += a0[:, n - 1::-1]
    return fold


def _bordered_jacobian(model, terms, eta, c):
    """Newton Jacobian of (cosine residual, amplitude) in (cosines, c) at
    ``(eta, c)``: ``_cosine_fold`` of its ``_operator_terms``, bordered by
    the speed column and the amplitude row."""
    n, fold = eta.n_modes, _cosine_fold(terms)
    scale = np.r_[1.0, np.full(n, 2.0)]
    sign = -1.0 if model.is_a else 1.0
    jac = np.zeros((n + 2, n + 2))
    jac[:n + 1, :n + 1] = sign * (scale[:, None] / scale[None, :]) * fold
    dc = 6.0 * c if model.is_a else -1.0
    jac[:n + 1, n + 1] = dc * eta.deriv(2).cos
    jac[n + 1, 1] = 1.0
    return jac


def solve_wave(model, a, k, n_modes=DEFAULT_N_MODES, tol=DEFAULT_TOL,
               max_iter=25):
    """Newton-Galerkin solution of the traveling-wave system at ``k = 1``
    (see ``WaveBranch``).

    Unknowns are the profile's cosine coefficients and the speed ``c``;
    equations are the residual's cosine coefficients for harmonics
    ``0..N`` and the amplitude ``2 <eta, cos z> = a k^2``.  Seeded from the
    analytic expansion, whose residual is first evaluated as Newton's
    first iterate.  Each iterate's residual and operator terms come from
    one evaluation in real band arithmetic (``_residual_and_terms``); the
    converged iterate's are the branch's, for its tangent and its pencil.
    The Jacobian is ``_operator_block``'s ``A0`` folded onto cosines
    (``_cosine_fold``, from its rows ``0..N`` alone), bordered by the speed
    column and the amplitude row.  ``tol`` bounds the ``k = 1`` residual;
    ``ConvergenceError`` is raised when the iteration stalls above it,
    diverges (an error ``DIVERGENCE`` times its best so far), runs out of
    steps, meets a singular Jacobian, or meets a residual that is not
    finite, the first sign of an iterate that is not.
    """
    unit_a = _unit_amplitude(model, a, k)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = n_modes
    eta, c = _analytic_seed(model, unit_a, n)
    x = np.concatenate([eta.cos, [c]])

    history = []
    best, misses, step = np.inf, 0, np.inf
    for _ in range(max_iter):
        eta, c = TrigSeries(x[:n + 1]), x[n + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            res, terms = _residual_and_terms(model, eta, c)
            sup = res.sup_norm()
        history.append(sup)
        if not np.isfinite(sup):
            raise ConvergenceError(
                f"Newton residual is not finite at step {len(history)}", sup)
        err = max(sup, abs(x[1] - unit_a))
        if err <= tol:
            return WaveBranch(model=model, a=a, k=k, unit_a=unit_a,
                              unit_eta=eta, unit_c=c, residual_norm=sup,
                              newton_residuals=tuple(history), terms=terms)
        if err > DIVERGENCE * best:
            raise ConvergenceError(
                f"Newton iteration diverges: error {err:.3e} at step "
                f"{len(history)} is above {DIVERGENCE:.0e} times its best "
                f"{best:.3e}", best)
        misses = 0 if err <= 0.5 * best else misses + 1
        best = min(best, err)
        # near a solution Newton at least halves the error; failing twice
        # with corrections below sqrt(eps) of the iterate is its rounding
        # floor, which more steps cannot push below tol
        if misses >= 2 and step <= 1.5e-8 * np.abs(x).max():
            raise ConvergenceError(
                f"Newton iteration stalled at {best:.3e} above tol={tol} "
                f"after {len(history)} steps", best)
        rhs = np.concatenate([res.cos, [x[1] - unit_a]])
        try:
            dx = np.linalg.solve(
                _bordered_jacobian(model, terms, eta, c), rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Newton Jacobian at step {len(history)}",
                err) from exc
        step = np.abs(dx).max()
        x = x - dx

    raise ConvergenceError(
        f"Newton iteration did not reach tol={tol} after {max_iter} steps "
        f"(last residual {history[-1]:.3e})", history[-1])


def branch_derivative(branch):
    """``d eta / d a`` along the branch, the same at every ``k``: the
    Newton system ``F(eta, c; a) = 0`` differentiated in ``a`` is the
    bordered solve ``J t = e_{N+1}``, with ``J`` assembled as Newton's.
    At ``a = 0`` that ``J`` is singular (``dR/dc`` vanishes with the
    profile) and the tangent is ``cos z``."""
    n = branch.n_modes
    if branch.unit_a == 0:
        return TrigSeries.cosine(1, n)
    rhs = np.r_[np.zeros(n + 1), 1.0]
    jac = _bordered_jacobian(branch.model, branch._terms, branch.unit_eta,
                             branch.unit_c)
    try:
        tangent = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"bordered tangent system is singular at a={branch.a}") from exc
    return TrigSeries(tangent[:n + 1])
