import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mwstab import waves
from mwstab.fourier import TrigSeries
from mwstab.waves import (Model, ConvergenceError, ValidityError,
                          analytic_wave, residual, linearized_operator,
                          solve_wave, branch_derivative,
                          wave_speed_expansion, SQRT3)

MODEL_A = Model("A")


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
            assert wave_speed_expansion(model, a, 1.0) == 1.0

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
            assert residual(model, eta, 1.3, 0.7).sup_norm() == 0.0

    def test_analytic_wave_small_residual(self):
        branch = analytic_wave(MODEL_A, 1e-3, 1.0)
        assert branch.residual_norm <= 1e-11

    def test_wrong_speed_leaves_linear_residual(self):
        a = 1e-3
        eta = TrigSeries.cosine(1, 16, amplitude=a)
        res = residual(MODEL_A, eta, 1.0, 1.0)
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
        assert abs(branch.c - wave_speed_expansion(MODEL_A, 0.05, 1.0)) < 5e-6

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
        branch = solve_wave(MODEL_A, 0.15, 1.0, seed_order=1, n_modes=32)
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

    def test_convergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as info:
            solve_wave(MODEL_A, 0.2, 1.0, max_iter=1, seed_order=1,
                       n_modes=16)
        assert info.value.residual_norm > 0.0

    def test_validity_guard(self):
        with pytest.raises(ValidityError):
            solve_wave(MODEL_A, 0.21, 1.0)


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
        monkeypatch.setattr(waves, "_jacobian",
                            lambda model, eta, c, k: np.zeros((18, 18)))
        with pytest.raises(ArithmeticError, match="singular"):
            branch_derivative(branch)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0))
def test_kernel_of_the_linearization(variant, a, k, gamma):
    """The mu = 0 kernel: L0 kills eta' (translation), and the bordered
    tangent d eta/da matches a centered difference along the branch."""
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=32)
    op = linearized_operator(model, branch.eta, branch.c, k)
    deta = branch.eta.deriv().to_modes()
    # L0 eta' is -/+ the derivative of the residual along the translation
    # orbit: zero at an exact solution, Newton's leftover here
    sign = -1.0 if model.is_a else 1.0
    drift = sign * residual(model, branch.eta, branch.c, k).deriv()
    assert np.max(np.abs(op @ deta - drift.to_modes())) \
        <= 1e-15 * np.max(np.abs(op)) * np.max(np.abs(deta))

    step = 1e-4
    hi = solve_wave(model, a + step, k, n_modes=32)
    lo = solve_wave(model, a - step, k, n_modes=32)
    assert_allclose(branch_derivative(branch).cos,
                    (hi.eta.cos - lo.eta.cos) / (2.0 * step),
                    rtol=0.0, atol=1e-7)
