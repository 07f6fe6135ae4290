"""Exact operator-series machinery: Stokes series, commutator expansion of
the Bloch operators in the Floquet exponent, action tables, the projected
2x2 matrix, its determinant, and the discriminant.

Everything here is computed in Q[sqrt3, gamma, k, 1/k]; the results serve
as the independent oracle for the numeric projection path and are diffed
against golden tables in the test suite.
"""

import json
from dataclasses import dataclass
from importlib import resources

from .ring import Coeff
from .series import (ScalarSeries, TrigPolySeries, OperatorSeries,
                     ExactEngineError, DEFAULT_CAPS)

__all__ = [
    "StokesSeries", "ExactModulation", "stokes_series", "build_T0a",
    "bch_assemble", "projected_matrix_series", "det_and_discriminant",
    "build_dump", "load_golden", "check_against_golden",
]

#: the Stokes profile is exact to third order in the amplitude
_STOKES_CAPS = (3, 0)
_DET_CAPS = (4, 4)
_DISC_CAPS = (8, 8)


# ---------------------------------------------------------------------------
# exact Stokes series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesSeries:
    """Profile and speed of the branch, exact to third / second order.

    ``eta`` is a :class:`TrigPolySeries` and ``c`` a :class:`ScalarSeries`,
    both in powers of ``a``.
    """

    variant: str
    eta: TrigPolySeries
    c: ScalarSeries


def _solve_harmonics(rhs):
    """Per-harmonic solve of ``(1 - m^2) w_m = rhs_m``.

    The resonant first harmonic must have a vanishing right side (its
    amplitude is fixed by the normalization).
    """
    out = TrigPolySeries(caps=rhs.caps)
    for key, val in rhs.terms.items():
        n, par = key[4:]
        if par != 0:
            raise ExactEngineError("profile corrections must be even")
        if n == 1:
            raise ExactEngineError("resonant right-hand side at harmonic 1")
        out._accumulate(key, val / (1 - n * n))
    return out


def stokes_series(model_variant):
    """Order-by-order exact solution of the traveling-wave hierarchy.

    Both profile equations read ``eta + eta'' = N(eta) - s eta''``, with
    ``N = q (2 eta eta'' + eta'^2)`` (``q = k^2`` for A, ``k^2/2`` for B,
    which adds ``-(gamma k^4/2) eta'' eta'^2``) and the speed excess
    ``s = 3 (c^2 - c0^2) k^2`` (A) or ``(c - c0) k^2`` (B), so each order
    solves ``(1 - m^2) w_m = rhs_m``.  The quadratic order fixes the mean
    and second harmonic; at cubic order, where ``s = 6 c0 c2 k^2 a^2`` (A)
    or ``c2 k^2 a^2`` (B), the resonant first-harmonic component
    determines the speed correction and the rest yields the third
    harmonic.
    """
    k2 = Coeff.k_power(2)
    w1 = TrigPolySeries.basis("cos1", caps=_STOKES_CAPS)
    d1, dd1 = w1.deriv(), w1.deriv(2)
    if model_variant == "A":
        c0 = Coeff.monomial(1, ek=-1, e3=1) / 3  # 1/(sqrt3 k)
        quad = k2
        m_poly = dd1.scale(c0 * k2 * (-6))  # -s w1'' per unit c2
    else:
        c0 = Coeff.k_power(-2)
        quad = k2 / 2
        m_poly = dd1.scale(-k2)

    w2 = _solve_harmonics(((w1 * dd1).scale(2) + d1 * d1).scale(quad))
    l_poly = (w1 * w2.deriv(2) + w2 * dd1 + d1 * w2.deriv()).scale(quad * 2)
    if model_variant == "B":
        l_poly = l_poly + (dd1 * d1 * d1).scale(
            Coeff.gamma() * Coeff.k_power(4) / -2)
    c2 = -(l_poly.harmonic(1, 0) / m_poly.harmonic(1, 0))
    w3 = _solve_harmonics(l_poly + m_poly.scale(c2))

    eta = w1.scale(1, dp=1) + w2.scale(1, dp=2) + w3.scale(1, dp=3)
    c = ScalarSeries.term(c0, caps=_STOKES_CAPS) \
        + ScalarSeries.term(c2, p=2, caps=_STOKES_CAPS)
    return StokesSeries(variant=model_variant, eta=eta, c=c)


# ---------------------------------------------------------------------------
# Bloch operator at mu = 0, expanded to quadratic order in amplitude
# ---------------------------------------------------------------------------

def _add_d2_of(op, f):
    """Add ``d^2 M[f] = f d^2 + 2 f' d + f''`` (Leibniz) to ``op``."""
    op.add(f, 2)
    op.add(f.deriv().scale(2), 1)
    op.add(f.deriv(2))


def build_T0a(stokes):
    """Canonical amplitude expansion of the Bloch operator at ``mu = 0``.

    Model A: ``2 c lam d - 2 k^2 eta' d - 3 c^2 k^2 d^2 + 2 k^2 d^2 M[eta] - 1``.
    Model B: ``lam d - k^2 w' d - gamma k^4 w' w'' d - c k^2 d^2
    + k^2 d^2 M[w] - (gamma k^4 / 2) M[(w')^2] d^2 - 1``.
    The profile, the speed and their products are truncated to the
    default caps.
    """
    k2 = Coeff.k_power(2)
    k4 = Coeff.k_power(4)
    eta = stokes.eta.copy(caps=DEFAULT_CAPS)
    c = TrigPolySeries(terms={key + (0, 0): val
                              for key, val in stokes.c.terms.items()})
    lam = TrigPolySeries.term(Coeff.one(), r=1)
    d1 = eta.deriv()
    op = OperatorSeries()
    if stokes.variant == "A":
        op.add((c * lam).scale(2), 1)
        op.add(d1.scale(k2 * (-2)), 1)
        op.add((c * c).scale(k2 * (-3)), 2)
        _add_d2_of(op, eta.scale(k2 * 2))
    else:
        g = Coeff.gamma()
        op.add(lam, 1)
        op.add(d1.scale(k2 * (-1)), 1)
        op.add((d1 * eta.deriv(2)).scale(g * k4 * (-1)), 1)
        op.add(c.scale(k2 * (-1)), 2)
        _add_d2_of(op, eta.scale(k2))
        op.add((d1 * d1).scale(g * k4 / -2), 2)
    op.add(TrigPolySeries.term(-1))
    return op


def bch_assemble(t0a):
    """Floquet conjugation ``T + i mu [T, z] - (mu^2/2) [[T, z], z]``.

    Exact for these second-order operators: the third commutator with z
    vanishes identically, so nothing is dropped in mu.
    """
    for key in t0a.terms:
        if key[1] != 0:
            raise ExactEngineError("BCH input must be mu-free")
    t1 = t0a.commutator_z()
    t2 = t1.commutator_z()
    return (t0a + t1.scale(Coeff.one(), dq=1, dim=1)
            + t2.scale(Coeff.rational(-1, 2), dq=2))


# ---------------------------------------------------------------------------
# projection onto the critical subspace
# ---------------------------------------------------------------------------

def projected_matrix_series(stokes, top):
    """Entries ``<T phi_i, phi_j> / <phi_i, phi_i>`` of the conjugated
    operator ``top`` on ``phi1 = -(1/a) d_z eta`` (odd) and ``phi2 = d_a
    eta`` (even), truncated to the caps of ``top``: quadratic order in
    amplitude and exponent."""
    eta = stokes.eta
    phi1 = eta.deriv().scale(-1, dp=-1).copy(caps=top.caps)
    phi2 = TrigPolySeries(caps=top.caps, terms={
        (key[0] - 1,) + key[1:]: val * key[0]
        for key, val in eta.terms.items()})
    basis = (phi1, phi2)
    images = [top.apply(phi) for phi in basis]
    inverses = [phi.inner(phi).inverse() for phi in basis]
    return [[images[i].inner(basis[j]) * inverses[i] for j in range(2)]
            for i in range(2)]


@dataclass(frozen=True)
class ExactModulation:
    """Every stage of the exact engine for one model: the Stokes series,
    the Bloch operator at ``mu = 0`` and conjugated, and the determinant
    data of the projected pencil."""

    stokes: StokesSeries
    t0a: OperatorSeries
    top: OperatorSeries
    matrix: list
    b: tuple       # (b0, b1, b2) real ScalarSeries in (a, mu)
    disc: ScalarSeries

    def disc_leading(self):
        """Terms of the discriminant of total order <= 2 in (a, mu)."""
        out = ScalarSeries(caps=self.disc.caps)
        for (p, q, r, im), val in self.disc.terms.items():
            if p + q <= 2:
                out._accumulate((p, q, r, im), val)
        return out

    def evalf_b(self, a, mu, k, gamma=0.0):
        return tuple(series.evalf(a, mu, k, gamma=gamma)
                     for series in self.b)


def det_and_discriminant(model_variant):
    """Characteristic data of the 2x2 projection.

    The determinant of the entry-truncated matrix is expanded exactly in
    lambda as ``b0 + i b1 lambda + b2 lambda^2``; parity in mu guarantees
    the divisions ``d_j = b_j / mu^(2-j)``; the discriminant of
    ``Q(X) = d0 - d1 X - d2 X^2`` after ``lambda = i mu X`` is
    ``d1^2 + 4 d0 d2``.
    """
    stokes = stokes_series(model_variant)
    t0a = build_T0a(stokes)
    top = bch_assemble(t0a)
    matrix = projected_matrix_series(stokes, top)
    wide = [[entry.copy(caps=_DET_CAPS) for entry in row] for row in matrix]
    det = wide[0][0] * wide[1][1] - wide[0][1] * wide[1][0]

    b0 = det.lambda_part(0).require_real()
    b1 = det.lambda_part(1).strip_i()
    b2 = det.lambda_part(2).require_real()
    d0 = b0.mu_divide(2)
    d1 = b1.mu_divide(1)
    d2 = b2
    wide_d = [s.copy(caps=_DISC_CAPS) for s in (d0, d1, d2)]
    disc = wide_d[1] * wide_d[1] + (wide_d[0] * wide_d[2]).scale(4)
    return ExactModulation(stokes=stokes, t0a=t0a, top=top, matrix=matrix,
                           b=(b0, b1, b2), disc=disc)


# ---------------------------------------------------------------------------
# canonical dumps and golden comparison
# ---------------------------------------------------------------------------

def _dump(series, fields=None):
    """Canonical text of each term of ``series``, keyed by the named
    fields of its key (default: every field the key has), e.g.
    ``a^2 mu^0 lam^0 i^0 cos(2z) D^1``; terms are in key order."""
    out = {}
    for (p, q, r, im, *tail), val in series.sorted_items():
        parts = {"a": f"a^{p}", "mu": f"mu^{q}", "lam": f"lam^{r}",
                 "i": f"i^{im}"}
        if tail:
            n, par = tail[:2]
            parts["trig"] = f"{('cos', 'sin')[par]}({n}z)" if n else "1"
        if tail[2:]:
            parts["D"] = f"D^{tail[2]}"
        out[" ".join(parts[f] for f in fields or parts)] = val.canonical()
    return out


def build_dump(exact):
    """Canonical text form of every stage of an :class:`ExactModulation`,
    for diffing and the CLI."""
    t1a = exact.t0a.commutator_z()
    dump = {
        "stokes_eta": _dump(exact.stokes.eta, ("a", "trig")),
        "stokes_c": _dump(exact.stokes.c, ("a",)),
        "op_T0a": _dump(exact.t0a),
        "op_T1a": _dump(t1a),
        "op_T2a": _dump(t1a.commutator_z()),
    }
    for tag in ("1", "cos1", "sin1", "cos2", "sin2"):
        dump[f"act_{tag}"] = _dump(exact.top.apply(tag))
    for i in range(2):
        for j in range(2):
            dump[f"matrix_{i + 1}{j + 1}"] = _dump(exact.matrix[i][j])
    real = ("a", "mu")
    for idx in range(3):
        dump[f"det_b{idx}"] = _dump(exact.b[idx], real)
    dump["disc"] = _dump(exact.disc, real)
    dump["disc_leading"] = _dump(exact.disc_leading(), real)
    return dump


def load_golden(model_variant):
    name = f"model_{model_variant.lower()}.json"
    path = resources.files("mwstab.exact").joinpath("golden", name)
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_golden(exact, golden):
    """Diff the dump of an :class:`ExactModulation` against the
    transcribed golden tables of its model (``golden``, as returned by
    ``load_golden``).

    Returns a list of human-readable differences; empty means exact
    agreement on every golden section.
    """
    dump = build_dump(exact)
    diffs = []
    for section, expected in golden.items():
        got = dump.get(section)
        if got is None:
            diffs.append(f"{section}: engine produced no such section")
            continue
        for key in sorted(set(expected) | set(got)):
            want = expected.get(key)
            have = got.get(key)
            if want != have:
                diffs.append(f"{section}[{key}]: engine {have!r} "
                             f"vs golden {want!r}")
    return diffs
