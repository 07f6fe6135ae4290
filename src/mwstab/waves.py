"""Small-amplitude periodic traveling waves of the two water-wave models.

Model A is the quadratic shallow-water model whose traveling profile
``eta`` (period ``2*pi`` in ``z = k(x - ct)``) satisfies

    (3c^2 - 2 eta) k^2 eta'' - k^2 (eta')^2 + eta = 0,

model B is the cubic variant whose profile ``w`` satisfies

    k^2 (w - c) w'' + (k^2/2) (w')^2 - (gamma/2) k^4 w'' (w')^2 - w = 0.

Both carry a one-parameter branch of even solutions bifurcating from the
first harmonic; ``analytic_wave`` evaluates the third-order expansion of
that branch and ``solve_wave`` refines it with a Newton-Galerkin iteration
restricted to the cosine subspace (which removes the translation
zero-mode and keeps every iterate even).
"""

import numpy as np
from dataclasses import dataclass, field

from .fourier import TrigSeries

__all__ = [
    "Model", "WaveBranch", "ConvergenceError", "ValidityError",
    "analytic_wave", "residual", "linearized_operator", "solve_wave",
    "branch_derivative", "wave_speed_expansion", "AMPLITUDE_LIMIT",
]

SQRT3 = np.sqrt(3.0)

#: validity guard for the small-amplitude expansions
AMPLITUDE_LIMIT = 0.2

DEFAULT_N_MODES = 64
DEFAULT_TOL = 1e-12


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

    @property
    def is_a(self):
        return self.variant == "A"

    def c0(self, k):
        """Bifurcation speed of the trivial branch point."""
        return 1.0 / (SQRT3 * k) if self.is_a else 1.0 / k**2


@dataclass(frozen=True)
class WaveBranch:
    """One point on the small-amplitude branch."""

    model: Model
    a: float
    k: float
    c: float
    eta: TrigSeries
    residual_norm: float
    #: sup-norm residual after each Newton step (diagnostic)
    newton_residuals: tuple = field(default=(), repr=False)

    @property
    def n_modes(self):
        return self.eta.n_modes


def _check_domain(model, a, k):
    if not isinstance(model, Model):
        raise TypeError("model must be a Model instance")
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got k={k}")
    if abs(a) > AMPLITUDE_LIMIT:
        raise ValidityError(
            f"|a|={abs(a)} outside the small-amplitude range "
            f"(limit {AMPLITUDE_LIMIT})")


def wave_speed_expansion(model, a, k):
    """Third-order wave speed ``c0 + a^2 c2``."""
    if model.is_a:
        return 1.0 / (SQRT3 * k) + a**2 * k**3 / (4.0 * SQRT3)
    return 1.0 / k**2 + a**2 * (1.0 - model.gamma) * k**2 / 8.0


def analytic_wave(model, a, k, n_modes=DEFAULT_N_MODES):
    """Third-order truncation of the small-amplitude branch.

    Model A: ``eta = a cos z + a^2 (k^2/2)(cos 2z - 1) + a^3 (7k^4/16) cos 3z``
    with ``c = 1/(sqrt3 k) + a^2 k^3/(4 sqrt3)``.  Model B:
    ``w = a cos z + a^2 (k^2/4)(cos 2z - 1) + a^3 ((7+gamma) k^4/64) cos 3z``
    with ``c = 1/k^2 + a^2 (1-gamma) k^2/8``.
    """
    _check_domain(model, a, k)
    if n_modes < 3:
        raise ValueError("need at least 3 modes for the cubic truncation")
    cos = np.zeros(n_modes + 1)
    if model.is_a:
        a0, a2, a3 = -k**2 / 2.0, k**2 / 2.0, 7.0 * k**4 / 16.0
    else:
        a0, a2 = -k**2 / 4.0, k**2 / 4.0
        a3 = (7.0 + model.gamma) * k**4 / 64.0
    cos[0] = a**2 * a0
    cos[1] = a
    cos[2] = a**2 * a2
    cos[3] = a**3 * a3
    eta = TrigSeries(cos + 0.0)  # normalizes -0.0 at a = 0
    c = wave_speed_expansion(model, a, k)
    res = residual(model, eta, c, k).sup_norm()
    return WaveBranch(model=model, a=a, k=k, c=c, eta=eta, residual_norm=res)


def residual(model, eta, c, k):
    """Traveling-wave ODE residual as a series; zero iff (eta, c) solves it."""
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got k={k}")
    d1 = eta.deriv()
    d2 = eta.deriv(2)
    if model.is_a:
        return (3.0 * c**2 * k**2) * d2 - 2.0 * k**2 * (eta * d2) \
            - k**2 * (d1 * d1) + eta
    sq = d1 * d1
    return k**2 * (eta * d2) - (k**2 * c) * d2 + 0.5 * k**2 * sq \
        - 0.5 * model.gamma * k**4 * (d2 * sq) - eta


def linearized_operator(model, eta, c, k, mu=0.0):
    """Linearized traveling-wave ODE about ``(eta, c)`` on Bloch modes
    ``exp(i mu z) V(z)``: the matrix on the ``exp(inz)`` coefficients of
    ``V``, ``|n| <= eta.n_modes``, and the ``L0`` of the Bloch pencil.  At
    ``mu = 0`` it is minus (model A) or plus (model B) the derivative of
    ``residual`` in the profile.

    ``(d/dz + i mu)^2`` acts *after* multiplication by the profile
    coefficient in the ``k^2 (.)''`` terms; the model-B ``(w')^2`` term
    multiplies *after* differentiation.
    """
    n = eta.n_modes
    dz = 1j * (np.arange(-n, n + 1) + mu)
    eye = np.eye(2 * n + 1, dtype=complex)
    if model.is_a:
        # L0 = -2 k^2 eta' (d+imu) + k^2 (d+imu)^2 [(2 eta - 3c^2) .] - 1
        coef = 2.0 * eta + TrigSeries.constant(-3.0 * c**2, n)
        return (-2.0 * k**2) * (eta.deriv().mult_matrix() * dz[None, :]) \
            + k**2 * (dz**2)[:, None] * coef.mult_matrix() - eye
    g = model.gamma
    wz = eta.deriv()
    first = (-k**2) * wz + (-g * k**4) * (wz * eta.deriv(2))
    return first.mult_matrix() * dz[None, :] \
        + k**2 * (dz**2)[:, None] * (
            eta + TrigSeries.constant(-c, n)).mult_matrix() \
        - 0.5 * g * k**4 * ((wz * wz).mult_matrix() * (dz**2)[None, :]) \
        - eye


def _jacobian(model, eta, c, k):
    """Newton Jacobian of (cosine residual, amplitude) in (cosines, c);
    the profile block folds ``exp(+-ijz)`` of the ``mu = 0`` operator onto
    ``cos(jz)`` (Toeplitz plus Hankel part)."""
    n = eta.n_modes
    op = linearized_operator(model, eta, c, k)
    fold = op[n:, n:].copy()
    fold[:, 1:] += op[n:, n - 1::-1]
    scale = np.full(n + 1, 2.0)
    scale[0] = 1.0
    sign = -1.0 if model.is_a else 1.0
    jac = np.zeros((n + 2, n + 2))
    jac[:n + 1, :n + 1] = sign * (scale[:, None] / scale[None, :]) * fold.real
    dc = 6.0 * c * k**2 if model.is_a else -k**2
    jac[:n + 1, n + 1] = dc * eta.deriv(2).cos
    jac[n + 1, 1] = 1.0
    return jac


def solve_wave(model, a, k, n_modes=DEFAULT_N_MODES, tol=DEFAULT_TOL,
               max_iter=25, seed_order=3):
    """Newton-Galerkin solution of the traveling-wave system.

    Unknowns are the cosine coefficients of the profile together with the
    speed ``c``; equations are the cosine coefficients of the ODE residual
    for harmonics ``0..N`` plus the amplitude normalization
    ``2 <eta, cos z> = a``.  Seeded from the analytic expansion
    (``seed_order`` 1 keeps only ``a cos z``, useful for convergence
    studies).  The Jacobian is the cosine restriction of
    ``linearized_operator`` at ``mu = 0``, bordered by the speed column and
    the amplitude row.  Raises ``ConvergenceError`` when the iteration
    stalls above ``tol``, runs out of steps, or meets a singular Jacobian.
    """
    _check_domain(model, a, k)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = n_modes

    if seed_order >= 2:
        seed = analytic_wave(model, a, k, n_modes=n)
        x = np.concatenate([seed.eta.cos, [seed.c]])
    else:
        cos = np.zeros(n + 1)
        cos[1] = a
        x = np.concatenate([cos, [model.c0(k)]])

    history = []
    best, misses, step = np.inf, 0, np.inf
    for _ in range(max_iter):
        eta = TrigSeries(x[:n + 1])
        c = x[n + 1]
        res = residual(model, eta, c, k)
        sup = res.sup_norm()
        history.append(sup)
        err = max(sup, abs(x[1] - a))
        if err <= tol:
            return WaveBranch(model=model, a=a, k=k, c=c, eta=eta,
                              residual_norm=sup,
                              newton_residuals=tuple(history))
        misses = 0 if err <= 0.5 * best else misses + 1
        best = min(best, err)
        # near a solution Newton at least halves the error; failing twice
        # with corrections below sqrt(eps) of the iterate is its rounding
        # floor, which more steps cannot push below tol
        if misses >= 2 and step <= 1.5e-8 * np.abs(x).max():
            raise ConvergenceError(
                f"Newton iteration stalled at {best:.3e} above tol={tol} "
                f"after {len(history)} steps", best)
        rhs = np.concatenate([res.cos, [x[1] - a]])
        try:
            dx = np.linalg.solve(_jacobian(model, eta, c, k), rhs)
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
    """``d eta / d a`` along the branch: differentiating the Newton system
    ``F(eta, c; a) = 0`` in ``a`` gives the bordered solve ``J t = e_{N+1}``
    at the converged point.  At ``a = 0`` that ``J`` is singular (``dR/dc``
    vanishes with the profile) and the tangent is ``cos z`` exactly."""
    n = branch.n_modes
    if branch.a == 0:
        return TrigSeries.cosine(1, n)
    rhs = np.zeros(n + 2)
    rhs[n + 1] = 1.0
    jac = _jacobian(branch.model, branch.eta, branch.c, branch.k)
    try:
        tangent = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"bordered tangent system is singular at a={branch.a}") from exc
    return TrigSeries(tangent[:n + 1])
