import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mwstab import waves
from mwstab.fourier import TrigSeries
from mwstab.waves import (Model, ConvergenceError, ValidityError,
                          analytic_wave, residual, solve_wave,
                          branch_derivative, wave_speed_expansion, SQRT3)

MODEL_A = Model("A")


def whole_operator(model, eta, c):
    """The whole ``(A0, A1, A2)`` at ``(eta, c)``, from operator terms
    evaluated afresh."""
    modes = np.arange(-eta.n_modes, eta.n_modes + 1)
    return waves._operator_block(waves._operator_terms(model, eta, c), modes,
                                 modes)


class TestAnalyticWave:
    def test_trivial_branch_point(self):
        for k in (0.5, 1.0, 2.0):
            branch = analytic_wave(MODEL_A, 0.0, k)
            assert branch.eta.sup_norm() == 0.0
            assert branch.c == pytest.approx(1.0 / (SQRT3 * k), rel=1e-15)

    def test_third_harmonic_coefficient(self):
        a = 0.1
        branch = analytic_wave(MODEL_A, a, 1.0)
        assert branch.eta.cos[3] == pytest.approx((7 / 16) * a**3, rel=1e-15)

    def test_model_b_gamma_one_speed_constant(self):
        model = Model("B", gamma=1.0)
        for a in (0.0, 0.05, 0.1):
            assert wave_speed_expansion(model, a) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="positive"):
            analytic_wave(MODEL_A, 0.05, -1.0)
        with pytest.raises(ValidityError):
            analytic_wave(MODEL_A, 0.5, 1.0)
        with pytest.raises(ValueError, match="modes"):
            analytic_wave(MODEL_A, 0.05, 1.0, n_modes=2)

    def test_speed_positive_for_small_amplitudes(self):
        for k in (0.5, 1.0, 2.0):
            for a in (0.0, 0.05, 0.1):
                assert solve_wave(MODEL_A, a, k, n_modes=24).c > 0.0


class TestResidual:
    def test_zero_wave(self):
        eta = TrigSeries.zero(16)
        for model in (MODEL_A, Model("B", gamma=2.0)):
            assert residual(model, eta, 1.3).sup_norm() == 0.0

    def test_analytic_wave_small_residual(self):
        branch = analytic_wave(MODEL_A, 1e-3, 1.0)
        assert branch.residual_norm <= 1e-11

    def test_wrong_speed_leaves_linear_residual(self):
        a = 1e-3
        eta = a * TrigSeries.cosine(1, 16)
        res = residual(MODEL_A, eta, 1.0)
        # leading term a*(1 - 3 c^2 k^2) cos z with c = k = 1
        assert res.sup_norm() >= a * abs(1.0 - 3.0) / 2.0

    def test_residual_order_a4(self):
        # sup|R| of the cubic truncation decays like a^4
        sups = [analytic_wave(MODEL_A, a, 1.0).residual_norm
                for a in (0.02, 0.01, 0.005)]
        for coarse, fine in zip(sups, sups[1:]):
            assert 8.0 <= coarse / fine <= 32.0
        assert sups[0] / 0.02**4 < 10.0

    def test_model_b_expansion_orders_vanish(self):
        # derived traveling ODE must kill the expansion order by order
        model = Model("B", gamma=1.7)
        sups = [analytic_wave(model, a, 1.2).residual_norm
                for a in (0.02, 0.01, 0.005)]
        for coarse, fine in zip(sups, sups[1:]):
            assert 8.0 <= coarse / fine <= 32.0


class TestSolveWave:
    def test_trivial_amplitude_converges_immediately(self):
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=16)
        assert branch.eta.sup_norm() == 0.0
        assert branch.c == pytest.approx(1.0 / SQRT3, rel=1e-15)
        assert len(branch.newton_residuals) == 1

    def test_speed_matches_expansion_to_fourth_order(self):
        branch = solve_wave(MODEL_A, 0.05, 1.0)
        assert abs(branch.c - wave_speed_expansion(MODEL_A, 0.05)) < 5e-6

    def test_second_harmonic_fit(self):
        amps = np.array([0.005, 0.01, 0.02])
        coeffs = np.array([solve_wave(MODEL_A, a, 1.0, n_modes=32).eta.cos[2]
                           for a in amps])
        design = np.vstack([amps**2, amps**4]).T
        fit = np.linalg.lstsq(design, coeffs, rcond=None)[0][0]
        assert fit == pytest.approx(0.5, rel=1e-3)

    def test_amplitude_normalization(self):
        branch = solve_wave(MODEL_A, 0.07, 1.5)
        assert 2.0 * branch.eta.inner(TrigSeries.cosine(1, branch.n_modes)) \
            == pytest.approx(0.07, abs=1e-13)

    def test_newton_quadratic_convergence(self):
        branch = solve_wave(MODEL_A, 0.15, 1.0, n_modes=32)
        hist = branch.newton_residuals
        assert len(hist) >= 3
        for current, following in zip(hist, hist[1:]):
            if current <= 1e-3:
                assert following <= max(50.0 * current**2, 1e-14)

    def test_branch_symmetry_under_sign_flip(self):
        plus = solve_wave(MODEL_A, 0.05, 1.0, n_modes=32)
        minus = solve_wave(MODEL_A, -0.05, 1.0, n_modes=32)
        assert minus.c == pytest.approx(plus.c, abs=1e-12)
        harmonics = np.arange(33)
        signs = (-1.0) ** harmonics
        assert_allclose(minus.eta.cos, signs * plus.eta.cos, atol=1e-12)

    def test_evenness_is_structural(self):
        branch = solve_wave(Model("B", gamma=3.0), 0.05, 1.0)
        assert branch.eta.is_even()

    def test_one_residual_norm_per_newton_iterate(self, monkeypatch):
        # the analytic seed is Newton's first iterate: its residual is
        # measured there, not once more while seeding
        calls = []
        sup_norm = TrigSeries.sup_norm

        def counted(series):
            calls.append(series)
            return sup_norm(series)

        monkeypatch.setattr(TrigSeries, "sup_norm", counted)
        for model in (MODEL_A, Model("B", gamma=2.0)):
            calls.clear()
            branch = solve_wave(model, 0.05, 1.0, n_modes=32)
            assert len(calls) == len(branch.newton_residuals) > 1

    def test_seeded_newton_starts_from_the_analytic_wave(self):
        seed = analytic_wave(MODEL_A, 0.05, 1.0, n_modes=32)
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=32)
        assert branch.newton_residuals[0] == seed.residual_norm

    def test_convergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as info:
            solve_wave(MODEL_A, 0.2, 1.0, max_iter=1, n_modes=16)
        assert info.value.residual_norm > 0.0

    def test_diverging_newton_stops_within_five_solves(self, monkeypatch):
        from mwstab import waves

        solves = []
        jacobian = waves._bordered_jacobian

        def counted(*args):
            solves.append(args)
            return jacobian(*args)

        monkeypatch.setattr(waves, "_bordered_jacobian", counted)
        with pytest.raises(ConvergenceError, match="diverges") as info:
            solve_wave(Model("B", gamma=1e20), 0.02, 1.0)
        assert 1 <= len(solves) <= 5
        assert 0.0 < info.value.residual_norm < 1e70

    @pytest.mark.parametrize("variant, gamma, a, k, steps", [
        ("A", 0.0, 0.45, 1.0, 7), ("B", 50.0, 0.078, 1.0, 3),
        ("B", 2.0, 0.2, 1.0, 3), ("B", 1000.0, 0.078, 1.0, 9),
        ("B", -1000.0, 0.02, 1.4, 6), ("B", 2.0, 0.45, 1.0, 4),
        ("B", 0.0, 0.45, 1.0, 4), ("B", 100.0, 0.25, 1.0, 20)])
    def test_converging_waves_keep_their_newton_steps(self, variant, gamma,
                                                      a, k, steps):
        # the last one's error grows 466-fold over its seed's on the way
        branch = solve_wave(Model(variant, gamma=gamma), a, k)
        assert len(branch.newton_residuals) == steps

    def test_validity_guard(self):
        # the one bound is |a| k^2 <= 0.45
        for a, k in ((0.46, 1.0), (0.115, 2.0)):
            with pytest.raises(ValidityError):
                solve_wave(MODEL_A, a, k)


class TestBranchDerivative:
    def test_limit_at_zero_amplitude_is_cos(self):
        dda = branch_derivative(solve_wave(MODEL_A, 0.0, 1.0, n_modes=16))
        assert dda.cos[1] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(np.delete(dda.cos, 1))) < 1e-6

    def test_constant_term_slope(self):
        # d/da of the a^2 mean term is 2 a A0 = -a k^2 at k = 1
        dda = branch_derivative(solve_wave(MODEL_A, 0.02, 1.0, n_modes=32))
        assert dda.cos[0] == pytest.approx(-0.02, abs=1e-4)
        # at a = 0.05 the branch's own a^4 mean term contributes ~2.5e-4
        dda = branch_derivative(solve_wave(MODEL_A, 0.05, 1.0, n_modes=32))
        assert dda.cos[0] == pytest.approx(-0.05, abs=5e-4)

    def test_result_is_even(self):
        branch = solve_wave(Model("B", gamma=2.0), 0.03, 1.0, n_modes=16)
        assert branch_derivative(branch).is_even()

    def test_singular_bordered_system_is_arithmetic_error(self,
                                                          monkeypatch):
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=16)
        monkeypatch.setattr(waves, "_bordered_jacobian",
                            lambda model, terms, eta, c: np.zeros((18, 18)))
        with pytest.raises(ArithmeticError, match="singular"):
            branch_derivative(branch)


@pytest.mark.parametrize("variant,gamma", [("A", 0.0), ("B", 0.0),
                                           ("B", 2.0), ("B", -1000.0)])
@pytest.mark.parametrize("n", [16, 64])
def test_cosine_fold_is_the_fold_of_the_whole_operator(variant, gamma, n):
    """Newton's and the tangent's folded A0, assembled from the operator's
    bands alone, equals the fold of the whole operator's A0 to the
    last bit: at the analytic seed, Newton's first Jacobian, and at the
    converged wave."""
    model = Model(variant, gamma=gamma)
    branch = solve_wave(model, 0.02, 1.0, n_modes=n)
    seed = waves._analytic_seed(model, 0.02, n)
    for eta, c in (seed, (branch.unit_eta, branch.unit_c)):
        a0 = whole_operator(model, eta, c)[0]
        whole = a0[n:, n:].copy()
        whole[:, 1:] += a0[n:, n - 1::-1]
        fold = waves._cosine_fold(waves._operator_terms(model, eta, c))
        assert fold.shape == (n + 1, n + 1)
        assert np.array_equal(fold, whole)
    # the converged wave holds the terms its last Newton iterate evaluated,
    # which are those evaluated afresh and give its tangent's fold and its
    # linearization, all bit for bit
    assert "_terms" in vars(branch)
    fresh = waves._operator_terms(model, branch.unit_eta, branch.unit_c)
    for held, built in zip(branch._terms, fresh):
        assert (held is None) == (built is None)
        if held is not None:
            assert held.shape == built.shape == (4 * n + 1,)
            assert held.tobytes() == built.tobytes()
    assert np.array_equal(waves._cosine_fold(branch._terms), fold)
    modes = np.arange(-n, n + 1)
    for held, built in zip(waves._operator_block(branch._terms, modes, modes),
                           whole_operator(model, branch.unit_eta,
                                          branch.unit_c)):
        assert np.array_equal(held, built)


def series_residual_and_terms(model, eta, c):
    """The series expressions that ``_residual_and_terms`` evaluates in band
    arithmetic: the summands of the residual and of each term ``(R, C,
    E)``, in the order they were added (``None`` for model A's ``E``)."""
    n = eta.n_modes
    d1, d2 = eta.deriv(), eta.deriv(2)
    if model.is_a:
        res = [(3.0 * c**2) * d2, -2.0 * (eta * d2), -(d1 * d1), eta]
        return res, ([-2.0 * d1], [2.0 * eta,
                                   TrigSeries.constant(-3.0 * c**2, n)], None)
    g, sq = model.gamma, d1 * d1
    res = [eta * d2, -(c * d2), 0.5 * sq, -(0.5 * g * (d2 * sq)), -eta]
    return res, ([-d1, (-g) * (d1 * d2)],
                 [eta, TrigSeries.constant(-c, n)], [(-0.5 * g) * sq])


def rounding_excess(value, summands, entries):
    """The largest gap between ``value`` and the sum of the series
    ``summands``, both read by ``entries``, over eps of the sum of the
    summands' largest entries, which bounds the rounding of both routes."""
    total = functools.reduce(operator.add, summands)
    scale = sum(np.abs(entries(part)).max() for part in summands)
    gap = np.abs(value - entries(total)).max()
    return gap / (np.finfo(float).eps * scale) if gap else 0.0


@pytest.mark.parametrize("variant,gamma", [
    ("A", 0.0), ("B", 0.0), ("B", 2.0), ("B", 1000.0), ("B", -1000.0)])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_band_arithmetic_is_the_series_arithmetic(variant, gamma, n):
    """``_residual_and_terms`` in real band arithmetic gives the residual's
    cosines and the bands of ``(R, C, E)`` of the series products it
    replaces to within a few eps (at most 4.4 measured over 2250 random
    profiles) of the largest summand, on random even profiles whose
    cosines decay as ``(a k^2)^j`` up to ``a k^2 = 0.45``; the terms a
    solved wave holds are those of a fresh evaluation to the bit."""
    model = Model(variant, gamma=gamma)
    rng = np.random.default_rng(n)
    for amplitude in (0.0, 0.01, 0.078, 0.2, 0.45, *rng.uniform(0, 0.45, 5)):
        cos = amplitude ** np.arange(n + 1.0) * rng.uniform(-1.0, 1.0, n + 1)
        cos[0] *= amplitude * amplitude
        eta, c = TrigSeries(cos), rng.uniform(0.5, 1.5)
        res, terms = waves._residual_and_terms(model, eta, c)
        parts, term_parts = series_residual_and_terms(model, eta, c)
        assert not res.sin.any()
        assert rounding_excess(res.cos, parts, lambda s: s.cos) <= 8.0
        for band, summands in zip(terms, term_parts):
            assert (band is None) == (summands is None)
            if band is not None:
                assert band.shape == (4 * n + 1,)
                assert rounding_excess(band, summands,
                                       TrigSeries.band) <= 8.0
    branch = solve_wave(model, 0.02, 1.0, n_modes=n)
    fresh = waves._operator_terms(model, branch.unit_eta, branch.unit_c)
    for held, built in zip(branch._terms, fresh):
        assert (held is None) == (built is None)
        if held is not None:
            assert held.tobytes() == built.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0))
def test_kernel_of_the_linearization(variant, a, k, gamma):
    """The mu = 0 kernel: L0 kills eta' (translation), and the bordered
    tangent d eta/da matches a centered difference along the branch."""
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=32)
    op = whole_operator(model, branch.unit_eta, branch.unit_c)[0]
    deta = branch.unit_eta.deriv().to_modes()
    # L0 eta' is -/+ the derivative of the residual along the translation
    # orbit: zero at an exact solution, Newton's leftover here
    sign = -1.0 if model.is_a else 1.0
    drift = sign * residual(model, branch.unit_eta, branch.unit_c).deriv()
    assert np.max(np.abs(op @ deta - drift.to_modes())) \
        <= 1e-15 * np.max(np.abs(op)) * np.max(np.abs(deta))

    step = 1e-4
    hi = solve_wave(model, a + step, k, n_modes=32)
    lo = solve_wave(model, a - step, k, n_modes=32)
    assert_allclose(branch_derivative(branch).cos,
                    (hi.eta.cos - lo.eta.cos) / (2.0 * step),
                    rtol=0.0, atol=1e-7)
