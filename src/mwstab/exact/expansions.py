"""Exact operator-series machinery: Stokes series, commutator expansion of
the Bloch operators in the Floquet exponent, action tables, the projected
2x2 matrix, its determinant, and the discriminant.

Everything here is computed in Q[sqrt3, gamma, k, 1/k]; the results serve
as the independent oracle for the numeric projection path and are diffed
against golden tables in the test suite.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .ring import Coeff
from .series import (ScalarSeries, TrigPolySeries, OperatorSeries,
                     ExactEngineError, DEFAULT_CAPS)

__all__ = [
    "StokesSeries", "ExactModulation", "stokes_series", "build_T0a",
    "commutator_z", "bch_assemble", "apply_to", "projected_matrix_series",
    "det_and_discriminant", "build_dump",
    "load_golden", "check_against_golden", "BASIS_TAGS",
]

BASIS_TAGS = ("1", "cos1", "sin1", "cos2", "sin2", "cos3", "sin3")

_DET_CAPS = (4, 4)
_DISC_CAPS = (8, 8)


# ---------------------------------------------------------------------------
# small exact trig-polynomial helpers (keys (n, par), par 0=cos 1=sin)
# ---------------------------------------------------------------------------

def _tp_add(target, key, coeff):
    n, par = key
    if n == 0 and par == 1:
        return
    new = target.get(key, Coeff.zero()) + coeff
    if new.is_zero():
        target.pop(key, None)
    else:
        target[key] = new


def _tp_scale(poly, coeff):
    out = {}
    for key, val in poly.items():
        _tp_add(out, key, val * coeff)
    return out


def _tp_sum(*polys):
    out = {}
    for poly in polys:
        for key, val in poly.items():
            _tp_add(out, key, val)
    return out


def _tp_deriv(poly, order=1):
    out = dict(poly)
    for _ in range(order):
        new = {}
        for (n, par), val in out.items():
            if n == 0:
                continue
            if par == 0:
                _tp_add(new, (n, 1), val * (-n))
            else:
                _tp_add(new, (n, 0), val * n)
        out = new
    return out


def _tp_mul(p1, p2):
    from .series import _trig_product
    out = {}
    for (n1, par1), c1 in p1.items():
        for (n2, par2), c2 in p2.items():
            for frac, n, par in _trig_product(n1, par1, n2, par2):
                _tp_add(out, (n, par), c1 * c2 * frac)
    return out


# ---------------------------------------------------------------------------
# exact Stokes series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesSeries:
    """Profile and speed of the branch, exact to third / second order.

    ``eta[(p, n)]`` is the coefficient of ``a^p cos(nz)`` and ``c[p]`` the
    ``a^p`` speed coefficient.
    """

    variant: str
    eta: dict
    c: dict

    def profile_poly(self, p):
        out = {}
        for (pp, n), val in self.eta.items():
            if pp == p:
                _tp_add(out, (n, 0), val)
        return out


def _solve_harmonics(rhs, linear_factor, skip=(1,)):
    """Per-harmonic solve of ``linear_factor(m) w_m = rhs_m``.

    The resonant harmonics in ``skip`` must have vanishing right side
    (their amplitude is fixed by the normalization).
    """
    out = {}
    for (n, par), val in rhs.items():
        if par != 0:
            raise ExactEngineError("profile corrections must be even")
        if n in skip:
            if not val.is_zero():
                raise ExactEngineError(
                    f"resonant right-hand side at harmonic {n}")
            continue
        factor = linear_factor(n)
        out[n] = val / Fraction(factor)
    return out


def stokes_series(model_variant):
    """Order-by-order exact solution of the traveling-wave hierarchy.

    The quadratic order fixes the mean and second harmonic; at cubic order
    the resonant first-harmonic component determines the speed correction
    and the rest yields the third harmonic.
    """
    one = Coeff.one()
    k2 = Coeff.k_power(2)
    k4 = Coeff.k_power(4)
    w1 = {(1, 0): one}
    d1 = _tp_deriv(w1)
    dd1 = _tp_deriv(w1, 2)

    if model_variant == "A":
        c0 = Coeff.monomial(Fraction(1, 3), ek=-1, e3=1)  # 1/(sqrt3 k)

        # (1 - m^2) w2_m = [2 k^2 w1 w1'' + k^2 (w1')^2]_m
        rhs2 = _tp_sum(_tp_scale(_tp_mul(w1, dd1), k2 * 2),
                       _tp_scale(_tp_mul(d1, d1), k2))
        w2_cos = _solve_harmonics(rhs2, lambda m: 1 - m * m)
        w2 = {(n, 0): val for n, val in w2_cos.items()}

        # (1 - m^2) w3_m = L_m + c2 M_m,  M = -6 c0 k^2 w1''
        l_poly = _tp_sum(
            _tp_scale(_tp_mul(w1, _tp_deriv(w2, 2)), k2 * 2),
            _tp_scale(_tp_mul(w2, dd1), k2 * 2),
            _tp_scale(_tp_mul(d1, _tp_deriv(w2)), k2 * 2))
        m_poly = _tp_scale(dd1, c0 * k2 * (-6))
        c2 = -(l_poly.get((1, 0), Coeff.zero()) / m_poly[(1, 0)])
        full = _tp_sum(l_poly, _tp_scale(m_poly, c2))
        w3_cos = _solve_harmonics(full, lambda m: 1 - m * m)
    else:
        c0 = Coeff.k_power(-2)
        g = Coeff.gamma()

        # (m^2 - 1) w2_m = -[k^2 w1 w1'' + (k^2/2)(w1')^2]_m
        rhs2 = _tp_scale(
            _tp_sum(_tp_scale(_tp_mul(w1, dd1), k2),
                    _tp_scale(_tp_mul(d1, d1), k2 * Fraction(1, 2))),
            Coeff.rational(-1))
        w2_cos = _solve_harmonics(rhs2, lambda m: m * m - 1)
        w2 = {(n, 0): val for n, val in w2_cos.items()}

        # (m^2 - 1) w3_m = L_m + c2 M_m,  M = k^2 w1''
        sq = _tp_mul(d1, d1)
        l_poly = _tp_scale(_tp_sum(
            _tp_scale(_tp_mul(w1, _tp_deriv(w2, 2)), k2),
            _tp_scale(_tp_mul(w2, dd1), k2),
            _tp_scale(_tp_mul(d1, _tp_deriv(w2)), k2),
            _tp_scale(_tp_mul(dd1, sq), g * k4 * Fraction(-1, 2))),
            Coeff.rational(-1))
        m_poly = _tp_scale(dd1, k2)
        c2 = -(l_poly.get((1, 0), Coeff.zero()) / m_poly[(1, 0)])
        full = _tp_sum(l_poly, _tp_scale(m_poly, c2))
        w3_cos = _solve_harmonics(full, lambda m: m * m - 1)

    eta = {(1, 1): one}
    for n, val in w2_cos.items():
        eta[(2, n)] = val
    for n, val in w3_cos.items():
        eta[(3, n)] = val
    return StokesSeries(variant=model_variant, eta=eta,
                        c={0: c0, 2: c2})


# ---------------------------------------------------------------------------
# Bloch operator at mu = 0, expanded to quadratic order in amplitude
# ---------------------------------------------------------------------------

def build_T0a(model_variant, caps=DEFAULT_CAPS):
    """Canonical amplitude expansion of the Bloch operator at ``mu = 0``.

    Model A: ``2 c lam d - 2 k^2 eta' d - 3 c^2 k^2 d^2 + 2 k^2 d^2 M[eta] - 1``.
    Model B: ``lam d - k^2 w' d - gamma k^4 w' w'' d - c k^2 d^2
    + k^2 d^2 M[w] - (gamma k^4 / 2) M[(w')^2] d^2 - 1``.
    Compositions ``d^2 M[.]`` are expanded by Leibniz into ``trig * d^s``.
    """
    stokes = stokes_series(model_variant)
    k2 = Coeff.k_power(2)
    k4 = Coeff.k_power(4)
    op = OperatorSeries(caps=caps)
    max_p = caps[0]

    profile = {p: stokes.profile_poly(p) for p in range(1, max_p + 1)}
    c_terms = {p: val for p, val in stokes.c.items() if p <= max_p}
    # speed squared, truncated
    c_sq = {}
    for p1, v1 in c_terms.items():
        for p2, v2 in c_terms.items():
            if p1 + p2 <= max_p:
                c_sq[p1 + p2] = c_sq.get(p1 + p2, Coeff.zero()) + v1 * v2

    if model_variant == "A":
        for p, val in c_terms.items():
            op.add_term(val * 2, p=p, r=1, s=1)
        for p, poly in profile.items():
            for (n, par), val in _tp_deriv(poly).items():
                op.add_term(val * k2 * (-2), p=p, n=n, par=par, s=1)
        for p, val in c_sq.items():
            op.add_term(val * k2 * (-3), p=p, s=2)
        for p, poly in profile.items():
            for (n, par), val in poly.items():
                op.add_deriv2_of_product(val * k2 * 2, p=p, n=n, par=par)
        op.add_term(Coeff.rational(-1))
        return op

    g = Coeff.gamma()
    op.add_term(Coeff.one(), r=1, s=1)
    deriv = {p: _tp_deriv(poly) for p, poly in profile.items()}
    deriv2 = {p: _tp_deriv(poly, 2) for p, poly in profile.items()}
    for p, poly in deriv.items():
        for (n, par), val in poly.items():
            op.add_term(val * k2 * (-1), p=p, n=n, par=par, s=1)
    for p1, d_a in deriv.items():
        for p2, d_b in deriv2.items():
            if p1 + p2 > max_p:
                continue
            for (n, par), val in _tp_mul(d_a, d_b).items():
                op.add_term(val * g * k4 * (-1), p=p1 + p2, n=n, par=par, s=1)
    for p, val in c_terms.items():
        op.add_term(val * k2 * (-1), p=p, s=2)
    for p, poly in profile.items():
        for (n, par), val in poly.items():
            op.add_deriv2_of_product(val * k2, p=p, n=n, par=par)
    for p1, d_a in deriv.items():
        for p2, d_b in deriv.items():
            if p1 + p2 > max_p:
                continue
            for (n, par), val in _tp_mul(d_a, d_b).items():
                op.add_term(val * g * k4 * Fraction(-1, 2),
                            p=p1 + p2, n=n, par=par, s=2)
    op.add_term(Coeff.rational(-1))
    return op


def commutator_z(op):
    """``[T, z]`` on canonical operator series."""
    return op.commutator_z()


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


def apply_to(operator, tag):
    """Action of an operator series on one basis function."""
    if tag not in BASIS_TAGS:
        raise ValueError(f"unknown basis tag {tag!r}")
    return operator.apply(tag)


# ---------------------------------------------------------------------------
# projection onto the critical subspace
# ---------------------------------------------------------------------------

def _basis_pair(stokes, caps):
    """phi1 = -(1/a) d_z eta (odd), phi2 = d_a eta (even), as exact series."""
    phi1 = TrigPolySeries(caps=caps)
    phi2 = TrigPolySeries(caps=caps)
    for (p, n), val in stokes.eta.items():
        if n >= 1:
            phi1._insert((p - 1, 0, 0, 0, n, 1), val * n)
        phi2._insert((p - 1, 0, 0, 0, n, 0), val * p)
    return phi1, phi2


def projected_matrix_series(model_variant, caps=DEFAULT_CAPS):
    """Entries ``<T phi_i, phi_j> / <phi_i, phi_i>`` of the projected
    operator, truncated to quadratic order in amplitude and exponent."""
    stokes = stokes_series(model_variant)
    phi1, phi2 = _basis_pair(stokes, caps)
    top = bch_assemble(build_T0a(model_variant, caps=caps))

    images = []
    for phi in (phi1, phi2):
        image = TrigPolySeries(caps=caps)
        for (p, q, r, im, n, par), val in phi.terms.items():
            tag = ("1" if n == 0 else
                   ("cos" if par == 0 else "sin") + str(n))
            image = image + top.apply(tag).scale(val, dp=p, dq=q, dr=r,
                                                 dim=im)
        images.append(image)

    basis = (phi1, phi2)
    inverses = [phi.inner(phi).inverse() for phi in basis]
    matrix = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            matrix[i][j] = images[i].inner(basis[j]) * inverses[i]
    return matrix


@dataclass(frozen=True)
class ExactModulation:
    """Exact determinant data of the projected pencil."""

    variant: str
    matrix: list
    b: tuple       # (b0, b1, b2) real ScalarSeries in (a, mu)
    d: tuple       # (d0, d1, d2) with b_j = d_j mu^(2-j)
    disc: ScalarSeries

    def disc_leading(self):
        """Terms of the discriminant of total order <= 2 in (a, mu)."""
        out = ScalarSeries(caps=self.disc.caps)
        for (p, q, r, im), val in self.disc.terms.items():
            if p + q <= 2:
                out._insert((p, q, r, im), val)
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
    matrix = projected_matrix_series(model_variant)
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
    return ExactModulation(variant=model_variant, matrix=matrix,
                           b=(b0, b1, b2), d=(d0, d1, d2), disc=disc)


# ---------------------------------------------------------------------------
# canonical dumps and golden comparison
# ---------------------------------------------------------------------------

def _trig_str(n, par):
    if n == 0:
        return "1"
    return f"{'cos' if par == 0 else 'sin'}({n}z)"


def _dump_operator(op):
    return {f"a^{p} mu^{q} lam^{r} i^{im} {_trig_str(n, par)} D^{s}":
            val.canonical()
            for (p, q, r, im, n, par, s), val in op.sorted_items()}


def _dump_trigpoly(tp):
    return {f"a^{p} mu^{q} lam^{r} i^{im} {_trig_str(n, par)}":
            val.canonical()
            for (p, q, r, im, n, par), val in tp.sorted_items()}


def _dump_scalar(sc):
    return {f"a^{p} mu^{q} lam^{r} i^{im}": val.canonical()
            for (p, q, r, im), val in sc.sorted_items()}


def _dump_real_scalar(sc):
    return {f"a^{p} mu^{q}": val.canonical()
            for (p, q, r, im), val in sc.sorted_items()}


def build_dump(model_variant):
    """Canonical text form of every engine object, for diffing and the CLI."""
    stokes = stokes_series(model_variant)
    t0a = build_T0a(model_variant)
    t1a = t0a.commutator_z()
    t2a = t1a.commutator_z()
    top = bch_assemble(t0a)
    exact = det_and_discriminant(model_variant)

    dump = {
        "stokes_eta": {f"a^{p} {_trig_str(n, 0)}": val.canonical()
                       for (p, n), val in sorted(stokes.eta.items())},
        "stokes_c": {f"a^{p}": val.canonical()
                     for p, val in sorted(stokes.c.items())},
        "op_T0a": _dump_operator(t0a),
        "op_T1a": _dump_operator(t1a),
        "op_T2a": _dump_operator(t2a),
    }
    for tag in ("1", "cos1", "sin1", "cos2", "sin2"):
        dump[f"act_{tag}"] = _dump_trigpoly(top.apply(tag))
    for i in range(2):
        for j in range(2):
            dump[f"matrix_{i + 1}{j + 1}"] = _dump_scalar(exact.matrix[i][j])
    for idx in range(3):
        dump[f"det_b{idx}"] = _dump_real_scalar(exact.b[idx])
    dump["disc"] = _dump_real_scalar(exact.disc)
    dump["disc_leading"] = _dump_real_scalar(exact.disc_leading())
    return dump


def load_golden(model_variant):
    name = f"model_{model_variant.lower()}.json"
    path = resources.files("mwstab.exact").joinpath("golden", name)
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_golden(model_variant):
    """Diff the engine dump against the transcribed golden tables.

    Returns a list of human-readable differences; empty means exact
    agreement on every golden section.
    """
    golden = load_golden(model_variant)
    dump = build_dump(model_variant)
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
