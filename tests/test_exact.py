import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mwstab
from mwstab.exact import (Coeff, ScalarSeries, TrigPolySeries,
                          OperatorSeries, ExactEngineError, stokes_series,
                          build_T0a, bch_assemble,
                          projected_matrix_series, det_and_discriminant,
                          check_against_golden, load_golden, build_dump)
from mwstab.exact.expansions import _add_d2_of
from mwstab.exact.series import BASIS_TAGS


def random_coeff(rng):
    terms = {}
    for _ in range(rng.integers(1, 4)):
        key = (int(rng.integers(-3, 4)), int(rng.integers(0, 2)),
               int(rng.integers(0, 3)))
        terms[key] = Fraction(int(rng.integers(-9, 10)),
                              int(rng.integers(1, 9)))
    return Coeff(terms)


def conjugated(variant):
    """The Floquet-conjugated Bloch operator of one model."""
    return bch_assemble(build_T0a(stokes_series(variant)))


class TestCoeffRing:
    def test_sqrt3_reduction(self):
        s = Coeff.sqrt3()
        assert s * s == Coeff.rational(3)

    def test_ring_axioms_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x, y, z = (random_coeff(rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_monomial_reciprocal(self):
        m = Coeff.monomial(Fraction(2, 3), ek=2, e3=1)
        assert m * m.reciprocal() == Coeff.one()
        assert Coeff.k_power(-1).reciprocal() == Coeff.k_power(1)

    def test_gamma_not_invertible(self):
        with pytest.raises(ArithmeticError):
            Coeff.gamma().reciprocal()
        with pytest.raises(ArithmeticError):
            (Coeff.one() + Coeff.gamma()).reciprocal()

    def test_evalf(self):
        c = Coeff.monomial(Fraction(1, 3), ek=-1, e3=1)  # 1/(sqrt3 k)
        assert c.evalf(2.0) == pytest.approx(1.0 / (np.sqrt(3.0) * 2.0))
        g = Coeff.gamma() * Coeff.k_power(4)
        assert g.evalf(2.0, gamma=0.5) == pytest.approx(8.0)

    def test_constructors_check_outside_values(self):
        with pytest.raises(ValueError, match="sqrt3"):
            Coeff.monomial(1, e3=2)
        with pytest.raises(ValueError, match="gamma"):
            Coeff.monomial(1, eg=-1)
        with pytest.raises(TypeError):
            Coeff.monomial(0.5)
        with pytest.raises(TypeError):
            Coeff.rational(1, 2.0)

    def test_canonical_strings(self):
        assert Coeff.rational(-7, 16).canonical() == "-7/16"
        assert (Coeff.k_power(4) - Coeff.gamma() * Coeff.k_power(4)
                ).canonical() == "1*k^4 + -1*gamma*k^4"
        assert (Coeff.k_power(4) - Coeff.gamma() * Coeff.k_power(4)
                ).factored() == "(1-gamma)*k^4"


class TestSeriesMechanics:
    def test_truncation_drops_high_orders(self):
        s = ScalarSeries.term(Coeff.one(), p=3)
        assert s.is_zero()

    def test_i_squared_folds_to_sign(self):
        s = ScalarSeries.term(Coeff.one(), im=1)
        sq = s * s
        assert sq.coefficient(0, 0, 0, 0) == Coeff.rational(-1)

    def test_inverse(self):
        half = Coeff.rational(1, 2)
        series = ScalarSeries.term(half) + ScalarSeries.term(
            half * Coeff.k_power(4), p=2)
        prod = series * series.inverse()
        assert prod == ScalarSeries.one()

    def test_mu_divide_parity_guard(self):
        odd = ScalarSeries.term(Coeff.one(), q=1)
        with pytest.raises(ExactEngineError):
            odd.mu_divide(2)

    def test_lambda_cap_at_operator_level(self):
        with pytest.raises(ExactEngineError):
            OperatorSeries.term(Coeff.one(), r=2, s=1)

    def test_canonical_commutation(self):
        # [d/dz, z] = identity
        dz = OperatorSeries.term(Coeff.one(), s=1)
        assert dz.commutator_z() == OperatorSeries.term(Coeff.one(), s=0)

    def test_product_past_the_lambda_limit_raises(self):
        square = ScalarSeries.term(Coeff.one(), r=2)
        with pytest.raises(ExactEngineError, match="lambda power 3"):
            square * ScalarSeries.term(Coeff.one(), r=1)

    def test_lowering_the_a_power_of_an_a0_term_raises(self):
        f = TrigPolySeries.term(Coeff.one(), p=1, n=1) \
            + TrigPolySeries.term(Coeff.one(), n=2)
        with pytest.raises(ExactEngineError, match="negative"):
            f.scale(1, dp=-1)

    def test_product_drops_sin0_pieces_and_terms_above_the_caps(self):
        sin1 = TrigPolySeries.basis("sin1")
        # sin z cos z = (sin 2z + sin 0z) / 2
        assert (sin1 * TrigPolySeries.basis("cos1")).terms == {
            (0, 0, 0, 0, 2, 1): Coeff.rational(1, 2)}
        # sin z sin z = (cos 0z - cos 2z) / 2; the a^3 and mu^3 pairs
        # pass the caps (2, 2)
        f = sin1 + TrigPolySeries.term(Coeff.one(), p=2, q=1, n=1, par=1)
        g = sin1 + TrigPolySeries.term(Coeff.one(), p=1, q=2, n=1, par=1)
        half = Coeff.rational(1, 2)
        assert (f * g).terms == {
            (0, 0, 0, 0, 0, 0): half, (0, 0, 0, 0, 2, 0): -half,
            (2, 1, 0, 0, 0, 0): half, (2, 1, 0, 0, 2, 0): -half,
            (1, 2, 0, 0, 0, 0): half, (1, 2, 0, 0, 2, 0): -half}


coeffs = st.builds(lambda frac, ek, e3, eg: Coeff({(ek, e3, eg): frac}),
                   st.fractions(-4, 4, max_denominator=6),
                   st.integers(-2, 2), st.integers(0, 1), st.integers(0, 1))
# (p, q, r, im, n, par); r <= 1 keeps products within the lambda limits
trig_keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                      st.integers(0, 1), st.integers(0, 3), st.integers(0, 1))
trig_polys = st.dictionaries(trig_keys, coeffs, max_size=4).map(
    lambda terms: TrigPolySeries(terms=terms))


def assert_reduced(coeff):
    """The invariants ring arithmetic trusts its terms to hold: each value
    is a pair of ints reduced as a nonzero Fraction's would be."""
    for (_, e3, eg), val in coeff.terms.items():
        assert type(val) is tuple and len(val) == 2
        num, den = val
        assert type(num) is int and type(den) is int
        assert num != 0 and den > 0 and math.gcd(num, den) == 1
        assert e3 in (0, 1) and eg >= 0


# sums of up to three monomials, zero (the empty sum) included
ring_elements = st.lists(coeffs, max_size=3).map(
    lambda terms: sum(terms, Coeff.zero()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=ring_elements, y=ring_elements, n=st.integers(-3, 3))
def test_ring_results_are_reduced(x, y, n):
    """Ring arithmetic builds its results without re-validating them, so
    every result must already hold nonzero reduced rationals with ``e3``
    reduced to 0 or 1, and cancellation must leave no zero entry behind."""
    for result in (x + y, x - y, x * y, -x, x + n, x - n, n - x, x * n,
                   n * x, x - x, x * (x - x)):
        assert_reduced(result)
    assert (x - x).is_zero() and (x * 0).is_zero()
    assert n - x == -(x - n)
    if len(x.terms) == 1 and next(iter(x.terms))[2] == 0:
        assert_reduced(x.reciprocal())
        assert x * x.reciprocal() == Coeff.one()
        assert_reduced(n / x)
        assert n / x == x.reciprocal() * n
    if n:
        assert_reduced(x / n)


def reference(coeff):
    """A ring element as a dict of Fractions, the reference ring below."""
    return {key: Fraction(*val) for key, val in coeff.terms.items()}


def reference_sum(x, y):
    out = dict(x)
    for key, val in y.items():
        out[key] = out.get(key, 0) + val
    return {key: val for key, val in out.items() if val}


def reference_times(x, y):
    out = {}
    for (ek1, e31, eg1), f1 in x.items():
        for (ek2, e32, eg2), f2 in y.items():
            key = (ek1 + ek2, (e31 + e32) % 2, eg1 + eg2)
            frac = f1 * f2 * (3 if e31 + e32 == 2 else 1)
            out[key] = out.get(key, 0) + frac
    return {key: val for key, val in out.items() if val}


def reference_scalar(n):
    return {(0, 0, 0): Fraction(n)} if n else {}


def reference_monomial(key, frac):
    ek, e3, eg = key
    parts = [str(frac)] + ["sqrt3"] * e3
    if eg:
        parts.append("gamma" if eg == 1 else f"gamma^{eg}")
    if ek:
        parts.append("k" if ek == 1 else f"k^{ek}")
    return "*".join(parts)


def reference_canonical(terms):
    keys = sorted(terms, key=lambda key: (key[2], key[1], key[0]))
    return " + ".join(reference_monomial(key, terms[key])
                      for key in keys) or "0"


def reference_factored(terms):
    if len(terms) <= 1 or len({key[:2] for key in terms}) != 1:
        return reference_canonical(terms)
    inner = ""
    for (ek, e3, eg), frac in sorted(terms.items(), key=lambda t: t[0][2]):
        body = "gamma" if eg == 1 else (f"gamma^{eg}" if eg else "")
        mag = "" if (abs(frac) == 1 and body) else str(abs(frac))
        sign = "-" if frac < 0 else ("+" if inner else "")
        inner += sign + mag + ("*" if mag and body else "") + body
    tail = reference_monomial((ek, e3, 0), Fraction(1))
    return f"({inner})*{tail[2:]}" if tail != "1" else f"({inner})"


def reference_evalf(terms, k, gamma):
    return sum((float(frac) * k**ek * (3.0**0.5 if e3 else 1.0) * gamma**eg
                for (ek, e3, eg), frac in terms.items()), 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=ring_elements, y=ring_elements, n=st.integers(-3, 3),
       k=st.floats(0.5, 2.0), gamma=st.floats(0.0, 3.0))
@example(x=Coeff({(2, 1, 0): Fraction(1, 3), (2, 1, 1): Fraction(-1, 3)}),
         y=Coeff.gamma() * Coeff.k_power(2), n=2, k=1.5, gamma=0.5)
def test_ring_matches_a_fraction_reference(x, y, n, k, gamma):
    """Every operation on the int pairs equals the same operation on
    Fractions, in the text forms, bit for bit in value, and as a ring
    element rebuilt from the Fractions."""
    rx, ry, rn = reference(x), reference(y), reference_scalar(n)
    neg_x, neg_y = ({key: -val for key, val in r.items()} for r in (rx, ry))
    cases = [(x + y, reference_sum(rx, ry)), (x - y, reference_sum(rx, neg_y)),
             (x * y, reference_times(rx, ry)), (-x, neg_x),
             (x + n, reference_sum(rx, rn)),
             (x - n, reference_sum(rx, reference_scalar(-n))),
             (n - x, reference_sum(neg_x, rn)),
             (x * n, reference_times(rx, rn))]
    if n:
        cases.append((x / n, reference_times(rx, reference_scalar(
            Fraction(1, n)))))
    if len(rx) == 1 and next(iter(rx))[2] == 0:
        ((ek, e3, _), frac), = rx.items()
        inverse = {(-ek, e3, 0): 1 / (3 * frac if e3 else frac)}
        cases += [(x.reciprocal(), inverse),
                  (n / x, reference_times(inverse, rn))]
    for got, want in cases:
        assert got.canonical() == reference_canonical(want)
        assert got.factored() == reference_factored(want)
        assert got.evalf(k, gamma) == reference_evalf(want, k, gamma)
        assert got == Coeff(want)


def test_entry_points_accept_int_and_fraction_only():
    assert Coeff.monomial(True) == Coeff.one() == Coeff.rational(
        Fraction(2, 3), Fraction(2, 3))
    assert Coeff.rational(3, -6) == Coeff.monomial(Fraction(-1, 2))
    for bad in (0.5, "1"):
        # refused before the reciprocal of a sum is attempted
        with pytest.raises(TypeError):
            bad / (Coeff.one() + Coeff.gamma())
    for bad in (0.5, "1", np.int64(1)):
        with pytest.raises(TypeError):
            Coeff.monomial(bad)
        with pytest.raises(TypeError):
            Coeff.rational(bad)
        with pytest.raises(TypeError):
            Coeff.rational(1, bad)
    with pytest.raises(ZeroDivisionError):
        Coeff.rational(1, 0)


def test_model_b_threshold_factor_is_exact():
    """At mu = 0 the discriminant's complete orders, a^2 and a^4, divide
    exactly by (1 - gamma)."""
    disc = det_and_discriminant("B").disc
    k4, k8 = Coeff.k_power(4), Coeff.k_power(8)
    assert disc.coefficient(2, 0).divide_one_minus_gamma() == k4
    assert disc.coefficient(4, 0).divide_one_minus_gamma() == \
        -(Coeff.gamma() + 3) * k8 / 16


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=ring_elements)
def test_division_by_one_minus_gamma(x):
    one_minus_gamma = Coeff.one() - Coeff.gamma()
    assert (x * one_minus_gamma).divide_one_minus_gamma() == x
    # gamma leaves the remainder 1 in the k^0 part
    with pytest.raises(ArithmeticError, match="1 - gamma"):
        (x * one_minus_gamma + Coeff.gamma()).divide_one_minus_gamma()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=trig_polys, g=trig_polys, h=trig_polys)
def test_trig_poly_product_and_derivative_rules(f, g, h):
    """The truncating product is commutative and distributive, ``deriv``
    obeys Leibniz and order 0 is the identity, and the operator built for
    ``d^2 M[f]`` acts as the second derivative of the product."""
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    # truncation commutes with the product: wider caps, then the caps of f
    wide_f, wide_g = f.copy(caps=(4, 4)), g.copy(caps=(4, 4))
    assert f * g == (wide_f * wide_g).copy(caps=f.caps)
    assert f.inner(g) == wide_f.inner(wide_g).copy(caps=f.caps)
    assert (f * g).deriv() == f.deriv() * g + f * g.deriv()
    assert f.deriv(0) == f
    op = OperatorSeries()
    _add_d2_of(op, f)
    assert op.apply(g) == (f * g).deriv(2)


op_keys = st.tuples(trig_keys, st.integers(0, 2)).map(
    lambda pair: pair[0] + (pair[1],))
op_series = st.dictionaries(op_keys, coeffs, max_size=5).map(
    lambda terms: OperatorSeries(terms=terms))
caps_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))
scalar_series = st.dictionaries(trig_keys.map(lambda key: key[:4]), coeffs,
                                max_size=4).map(
    lambda terms: ScalarSeries(terms=terms))


def reference_build(kind, caps, terms):
    """A series rebuilt term by term through the validating ``_insert``,
    from ``(key, value)`` pairs that may repeat keys, carry ``sin(0z)``,
    zero values or powers above the caps."""
    out = kind(caps=caps)
    for key, val in terms:
        out._insert(key, val)
    return out


def reference_pieces(tail1, tail2):
    """Product-to-sum of two harmonics, ``sin(0z)`` and negative
    frequencies included: ``cos A cos B = (cos(A-B) + cos(A+B))/2``,
    ``sin A sin B = (cos(A-B) - cos(A+B))/2``, ``sin A cos B = (sin(A+B) +
    sin(A-B))/2`` and ``cos A sin B = (sin(A+B) - sin(A-B))/2``."""
    (n1, par1), (n2, par2) = tail1, tail2
    half = Fraction(1, 2)
    d, s = n1 - n2, n1 + n2
    if par1 == par2:
        pieces = [(half, d, 0), (half if par1 == 0 else -half, s, 0)]
    elif par1 == 1:
        pieces = [(half, s, 1), (half, d, 1)]
    else:
        pieces = [(half, s, 1), (-half, d, 1)]
    # cos(-nz) = cos(nz), sin(-nz) = -sin(nz)
    return [(frac if n >= 0 or par == 0 else -frac, (abs(n), par))
            for frac, n, par in pieces]


def reference_product(f, g, pieces):
    terms = []
    for (p1, q1, r1, im1, *tail1), c1 in f.terms.items():
        for (p2, q2, r2, im2, *tail2), c2 in g.terms.items():
            sign = -1 if im1 + im2 == 2 else 1
            for frac, tail in pieces(tail1, tail2):
                terms.append(((p1 + p2, q1 + q2, r1 + r2, (im1 + im2) % 2)
                              + tail, c1 * c2 * frac * sign))
    return terms


def reference_deriv(f):
    return reference_build(TrigPolySeries, f.caps, [
        (key[:4] + (key[4], 1 - key[5]), val * (key[4] if key[5] else
                                                -key[4]))
        for key, val in f.terms.items()])


def assert_no_zero_coeff(series):
    for val in series.terms.values():
        assert_reduced(val)
        assert val


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f=trig_polys, g=trig_polys, op=op_series, x=scalar_series,
       y=scalar_series, caps=caps_pairs, coeff=ring_elements,
       shift=st.tuples(st.integers(0, 1), st.integers(0, 1),
                       st.integers(0, 1), st.integers(0, 1)))
def test_arithmetic_matches_the_validating_reference(f, g, op, x, y, caps,
                                                      coeff, shift):
    """Every arithmetic operation, which accumulates its terms without
    validating them again, equals the same terms rebuilt one by one
    through ``_insert``; no result keeps a zero coefficient, also where
    terms cancel."""
    dp, dq, dr, dim = shift
    trig = TrigPolySeries
    results = {
        "copy": (f.copy(caps=caps),
                 reference_build(trig, caps, f.terms.items())),
        "add": (f + g, reference_build(
            trig, f.caps, list(f.terms.items()) + list(g.terms.items()))),
        "cancel": (f + f.scale(-1) + g, g.copy()),
        "scale": (f.scale(coeff, dp, dq, dr, dim), reference_build(
            trig, f.caps, [((p + dp, q + dq, r + dr, (im + dim) % 2, n, par),
                            val * coeff * (-1 if im + dim == 2 else 1))
                           for (p, q, r, im, n, par), val in f.terms.items()
                           ])),
        "mul": (f * g, reference_build(trig, f.caps, reference_product(
            f, g, reference_pieces))),
        "mul_cancel": (f * g + f * g.scale(-1), trig()),
        "scalar_mul": (x * y, reference_build(
            ScalarSeries, x.caps, reference_product(
                x, y, lambda t1, t2: [(Fraction(1), ())]))),
        "deriv": (f.deriv(), reference_deriv(f)),
        "deriv2": (f.deriv(2), reference_deriv(reference_deriv(f))),
        "multiplier": (op.multiplier(1), reference_build(
            trig, op.caps, [(key[:6], val) for key, val in op.terms.items()
                            if key[6] == 1])),
        "commutator_z": (op.commutator_z(), reference_build(
            OperatorSeries, op.caps, [
                (key[:6] + (key[6] - 1,), val * key[6])
                for key, val in op.terms.items() if key[6]])),
        "inner": (f.inner(g), reference_build(
            ScalarSeries, f.caps, reference_product(
                f, g, lambda t1, t2: [] if t1 != t2 else [
                    (Fraction(1) if t1[0] == 0 else Fraction(1, 2), ())]))),
    }
    derivs = [g, reference_deriv(g), reference_deriv(reference_deriv(g))]
    results["apply"] = (op.apply(g), reference_build(trig, op.caps, [
        term for s in range(3) for term in reference_product(
            reference_build(trig, op.caps, [
                (key[:6], val) for key, val in op.terms.items()
                if key[6] == s]),
            derivs[s], reference_pieces)]))
    for name, (got, want) in results.items():
        assert type(got) is type(want), name
        assert got.terms == want.terms, name
        assert_no_zero_coeff(got)


class TestStokesSeries:
    def test_model_a_displayed_coefficients(self):
        s = stokes_series("A")
        k2 = Coeff.k_power(2)
        assert s.eta.harmonic(0, 0, p=2) == k2 * Fraction(-1, 2)
        assert s.eta.harmonic(2, 0, p=2) == k2 * Fraction(1, 2)
        assert s.eta.harmonic(3, 0, p=3) == Coeff.k_power(4) * Fraction(7, 16)
        assert s.c.coefficient(2, 0) == Coeff.monomial(Fraction(1, 12), ek=3,
                                                       e3=1)

    def test_model_b_displayed_coefficients(self):
        s = stokes_series("B")
        k4 = Coeff.k_power(4)
        assert s.eta.harmonic(3, 0, p=3) == k4 * Fraction(7, 64) \
            + Coeff.gamma() * k4 * Fraction(1, 64)
        expected_c2 = Coeff.k_power(2) * Fraction(1, 8) \
            - Coeff.gamma() * Coeff.k_power(2) * Fraction(1, 8)
        assert s.c.coefficient(2, 0) == expected_c2


class TestOperatorExpansion:
    def test_flat_part_of_t0a(self):
        t0a = build_T0a(stokes_series("A"))
        assert t0a.terms[(0, 0, 1, 0, 0, 0, 1)] == Coeff.monomial(
            Fraction(2, 3), ek=-1, e3=1)
        assert t0a.terms[(0, 0, 0, 0, 0, 0, 2)] == Coeff.rational(-1)
        assert t0a.terms[(0, 0, 0, 0, 0, 0, 0)] == Coeff.rational(-1)

    def test_model_b_flat_part(self):
        t0a = build_T0a(stokes_series("B"))
        assert t0a.terms[(0, 0, 1, 0, 0, 0, 1)] == Coeff.one()
        assert t0a.terms[(0, 0, 0, 0, 0, 0, 2)] == Coeff.rational(-1)

    def test_iterated_commutators(self):
        t0a = build_T0a(stokes_series("A"))
        t1 = t0a.commutator_z()
        t2 = t1.commutator_z()
        # [T0, z] = 2 lam /(sqrt3 k) - 2 d/dz at zero amplitude
        assert t1.terms[(0, 0, 1, 0, 0, 0, 0)] == Coeff.monomial(
            Fraction(2, 3), ek=-1, e3=1)
        assert t1.terms[(0, 0, 0, 0, 0, 0, 1)] == Coeff.rational(-2)
        # [[T0, z], z] = -2
        assert t2.terms[(0, 0, 0, 0, 0, 0, 0)] == Coeff.rational(-2)
        assert t2.commutator_z().is_zero()

    def test_bch_mu2_coefficient_is_identity(self):
        top = conjugated("A")
        assert top.terms[(0, 2, 0, 0, 0, 0, 0)] == Coeff.one()

    def test_bch_exactness_via_vanishing_third_commutator(self):
        for variant in ("A", "B"):
            third = build_T0a(stokes_series(variant)).commutator_z() \
                .commutator_z().commutator_z()
            assert third.is_zero()

    def test_bch_rejects_mu_content(self):
        top = conjugated("A")
        with pytest.raises(ExactEngineError):
            bch_assemble(top)


class TestActions:
    def test_action_on_one(self):
        act = conjugated("A").apply("1")
        k2 = Coeff.k_power(2)
        assert act.terms[(0, 0, 0, 0, 0, 0)] == Coeff.rational(-1)
        assert act.terms[(1, 0, 0, 0, 1, 0)] == k2 * (-2)
        assert act.terms[(2, 0, 0, 0, 2, 0)] == Coeff.k_power(4) * (-4)
        # a^1 mu^1 block: i * (-2 k^2) sin z
        assert act.terms[(1, 1, 0, 1, 1, 1)] == k2 * (-2)

    def test_action_on_cos(self):
        act = conjugated("A").apply("cos1")
        k2 = Coeff.k_power(2)
        assert act.terms[(1, 0, 0, 0, 0, 0)] == k2 * (-1)
        assert act.terms[(1, 0, 0, 0, 2, 0)] == k2 * (-3)

    def test_action_on_sin2(self):
        act = conjugated("A").apply("sin2")
        assert act.terms[(2, 1, 0, 1, 0, 0)] == Coeff.k_power(4)

    def test_lambda_linearity_everywhere(self):
        for variant in ("A", "B"):
            top = conjugated(variant)
            assert all(key[2] <= 1 for key in top.terms)
            for tag in BASIS_TAGS:
                assert all(key[2] <= 1 for key in top.apply(tag).terms)
            with pytest.raises(ValueError, match="unknown basis tag"):
                top.apply("cos4")


class TestProjection:
    def test_matrix_entries_against_displayed_blocks(self):
        stokes = stokes_series("A")
        matrix = projected_matrix_series(
            stokes, bch_assemble(build_T0a(stokes)))
        lam_unit = Coeff.monomial(Fraction(2, 3), ek=-1, e3=1)  # 2/(sqrt3 k)
        assert matrix[0][1].coefficient(0, 0, r=1) == lam_unit
        assert matrix[1][0].coefficient(0, 0, r=1) == -lam_unit
        assert matrix[1][0].coefficient(2, 1, im=1) == Coeff.k_power(4) * (-3)
        assert matrix[1][1].coefficient(2, 2) == Coeff.k_power(4) * 3
        assert matrix[0][0].coefficient(0, 2) == Coeff.one()

    def test_determinant_is_quadratic_in_lambda(self):
        exact = det_and_discriminant("A")
        assert not exact.b[2].is_zero()
        assert exact.b[0].coefficient(0, 2) == Coeff.rational(-4)

    def test_model_a_discriminant_leading_terms(self):
        exact = det_and_discriminant("A")
        lead = exact.disc_leading()
        assert lead.coefficient(0, 2) == Coeff.monomial(
            Fraction(16, 3), ek=-2)
        assert lead.coefficient(2, 0) == Coeff.monomial(Fraction(16, 3), ek=2)
        assert len(lead.terms) == 2

    def test_model_b_discriminant_leading_terms(self):
        exact = det_and_discriminant("B")
        lead = exact.disc_leading()
        assert lead.coefficient(0, 2) == Coeff.rational(4)
        assert lead.coefficient(2, 0) == Coeff.k_power(4) \
            - Coeff.gamma() * Coeff.k_power(4)
        assert len(lead.terms) == 2

    def test_gamma_threshold_is_algebraic(self):
        # the a^2 coefficient evaluates to zero exactly at gamma = 1
        exact = det_and_discriminant("B")
        coefficient = exact.disc_leading().coefficient(2, 0)
        assert coefficient.evalf(k=3.0, gamma=1.0) == 0.0


class TestGolden:
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_zero_diffs(self, variant):
        assert check_against_golden(det_and_discriminant(variant),
                                    load_golden(variant)) == []

    def test_the_oracle_loads_no_numpy(self):
        # the exact path stands alone: with numpy blocked, both models'
        # golden checks give 0 diffs in a fresh interpreter
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from mwstab.exact import (det_and_discriminant, "
                "load_golden, check_against_golden)\n"
                "print([len(check_against_golden(det_and_discriminant(v), "
                "load_golden(v))) for v in 'AB'])")
        src = os.path.dirname(os.path.dirname(mwstab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[0, 0]\n"

    def test_golden_files_are_nontrivial(self):
        golden = load_golden("A")
        assert len(golden["act_cos2"]) == 21
        assert golden["det_b1"]["a^0 mu^1"] == "-8/3*sqrt3*k^-1"

    def test_dump_covers_all_golden_sections(self):
        dump = build_dump(det_and_discriminant("A"))
        for section in load_golden("A"):
            assert section in dump


class TestOracleAgreement:
    @pytest.mark.parametrize("variant,gamma", [("A", 0.0), ("B", 2.0)])
    def test_exact_vs_numeric_bj(self, variant, gamma):
        from mwstab.waves import Model, solve_wave
        from mwstab.modulation import critical_basis, projected_det

        exact = det_and_discriminant(variant)
        model = Model(variant, gamma=gamma)
        a, mu, k = 0.04, 0.03, 1.0
        branch = solve_wave(model, a, k, n_modes=32)
        basis = critical_basis(model, branch)
        numeric = projected_det(model, branch, basis, mu)
        expected = exact.evalf_b(a, mu, k, gamma=gamma)
        bound = 10.0 * (a**3 + mu**3)
        assert abs(numeric.b0 - expected[0]) <= bound
        assert abs(numeric.b1 - expected[1]) <= bound
        assert abs(numeric.b2 - expected[2]) <= bound

    @pytest.mark.parametrize("k", [1.0, 1.5])
    @pytest.mark.parametrize("variant,gamma", [("A", 0.0), ("B", 2.0)])
    def test_numeric_d_coefficients_match_the_exact_rationals(self, variant,
                                                             gamma, k):
        """The mu^0 and mu^2 coefficients of each numeric d_j, fitted over
        a ladder of a, have the a^0 and a^2 terms of the exact tables (the
        transcribed golden tables, else the engine's dump); the rest falls
        16x per halving of a, an a^4 term.  At k != 1 the numeric d_j come
        through the unit scaling."""
        from mwstab.waves import Model, solve_wave
        from mwstab.modulation import critical_basis, _det_polynomials

        tables = build_dump(det_and_discriminant(variant))
        tables.update(load_golden(variant))
        model = Model(variant, gamma=gamma)
        amps = 0.04 / 2.0**np.arange(4) / k**2
        numeric = []
        for a in amps:
            branch = solve_wave(model, a, k, n_modes=32)
            d = _det_polynomials(model, branch,
                                 critical_basis(model, branch))
            numeric.append([branch.units.frequency(d[j], -j)
                            for j in range(3)])
        numeric = np.array(numeric)
        # d_j's mu^(2q) coefficient is b_j's mu^(2q + 2 - j) one
        exact = np.array([[[canonical_value(
            tables[f"det_b{j}"].get(f"a^{p} mu^{2 * q + 2 - j}", "0"),
            k, gamma) for q in range(2)] for j in range(3)] for p in (0, 2)])
        # Richardson extrapolation: the polynomial in a^2 through the ladder
        fit = np.linalg.solve(np.vander(amps**2, 4, increasing=True),
                              numeric.reshape(4, -1)).reshape(numeric.shape)
        assert np.all(np.abs(fit[:2] - exact)
                      <= 1e-8 * np.maximum(1.0, np.abs(exact)))
        rest = numeric - exact[0] - amps[:, None, None]**2 * exact[1]
        quartic = np.abs(rest[-1]) > 1e-14
        assert np.all(np.abs(rest[:, ~quartic]) <= 1e-14)
        ratios = rest[:-1, quartic] / rest[1:, quartic]
        assert np.all(np.abs(ratios - 16.0) <= 0.1)


def canonical_value(text, k, gamma):
    """A canonical ``Coeff`` string, such as ``1/8*k^2 + -1/8*gamma*k^2``,
    evaluated at ``k`` and ``gamma``."""
    total = 0.0
    for term in text.split(" + "):
        fraction, *factors = term.split("*")
        value = float(Fraction(fraction))
        for factor in factors:
            base, _, power = factor.partition("^")
            value *= {"sqrt3": 3.0**0.5, "gamma": gamma, "k": k}[base] \
                ** int(power or 1)
        total += value
    return total
