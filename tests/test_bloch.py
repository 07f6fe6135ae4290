import numpy as np
import pytest
from numpy.testing import assert_allclose

from mwstab.fourier import TrigSeries
from mwstab.waves import Model, solve_wave, SQRT3
from mwstab.bloch import (assemble_pencil, apply_bloch, dispersion,
                          find_collisions, spectrum_slice, symmetry_check,
                          hausdorff_distance, sweep_mus)

MODEL_A = Model("A")


def flat_branch(model, k=1.0, n_modes=16):
    return solve_wave(model, 0.0, k, n_modes=n_modes)


class TestDispersion:
    def test_origin_collision_values(self):
        assert dispersion(MODEL_A, 1, 0.0, 1.0) == 0.0
        assert dispersion(MODEL_A, -1, 0.0, 1.0) == 0.0
        assert dispersion(Model("B"), 1, 0.0, 1.0) == 0.0

    def test_model_a_value(self):
        assert dispersion(MODEL_A, 2, 0.0, 1.0) == pytest.approx(
            3.0 * SQRT3 / 4.0, rel=1e-14)

    def test_model_scaling(self):
        # model A carries the sqrt3*k/2 prefactor, model B does not
        base = dispersion(Model("B"), 3, 0.1, 2.0)
        assert dispersion(MODEL_A, 3, 0.1, 2.0) == pytest.approx(
            SQRT3 * 2.0 / 2.0 * base, rel=1e-14)

    def test_singularity(self):
        with pytest.raises(ZeroDivisionError):
            dispersion(MODEL_A, 0, 0.0, 1.0)


class TestCollisions:
    def test_table_for_nmin_minus3(self):
        records = find_collisions(n_min=-3, k=1.0)
        assert len(records) == 2
        origin, pair = records
        assert (origin.n, origin.m, origin.mu0, origin.omega) == (-1, 1, 0, 0)
        assert pair.n == 0 and pair.m == -3
        assert pair.mu0 == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0,
                                         abs=1e-12)
        assert pair.omega == pytest.approx(-np.sqrt(15.0) / 2.0, abs=1e-12)

    def test_no_collision_for_n_minus2(self):
        records = find_collisions(n_min=-6, k=1.0)
        assert all(rec.m != -2 for rec in records)
        assert {rec.m for rec in records} == {1, -3, -4, -5, -6}

    def test_certificate(self):
        for rec in find_collisions(n_min=-8, k=0.7):
            assert abs((rec.n + rec.mu0) * (rec.m + rec.mu0) + 1.0) <= 1e-12
            if rec.mu0 > 0:
                assert 0.0 < rec.mu0 <= 0.5

    def test_omega_scales_with_k(self):
        one = find_collisions(n_min=-3, k=1.0)[1]
        two = find_collisions(n_min=-3, k=2.0)[1]
        assert two.omega == pytest.approx(2.0 * one.omega, rel=1e-14)

    def test_nmin_precondition(self):
        with pytest.raises(ValueError):
            find_collisions(n_min=-2)


class TestPencilAssembly:
    def test_flat_state_is_diagonal_model_a(self):
        branch = flat_branch(MODEL_A)
        pencil = assemble_pencil(MODEL_A, branch, 0.3)
        n = np.arange(-16, 17)
        off0 = pencil.L0 - np.diag(np.diag(pencil.L0))
        assert np.max(np.abs(off0)) == 0.0
        assert_allclose(np.diag(pencil.L0), (n + 0.3) ** 2 - 1.0, atol=1e-14)
        assert_allclose(np.diag(pencil.L1),
                        2.0 * branch.c * 1j * (n + 0.3), atol=1e-14)

    def test_flat_state_is_diagonal_model_b(self):
        model = Model("B", gamma=2.0)
        branch = flat_branch(model)
        pencil = assemble_pencil(model, branch, 0.2)
        n = np.arange(-16, 17)
        assert_allclose(np.diag(pencil.L0), (n + 0.2) ** 2 - 1.0, atol=1e-14)
        assert_allclose(np.diag(pencil.L1), 1j * (n + 0.2), atol=1e-14)

    def test_real_operator_conjugate_flip_at_mu_zero(self):
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=12)
        pencil = assemble_pencil(MODEL_A, branch, 0.0)
        for mat in (pencil.L0, pencil.L1):
            assert np.max(np.abs(mat - np.conj(mat[::-1, ::-1]))) < 1e-14

    def test_mu_domain_guard(self):
        branch = flat_branch(MODEL_A)
        with pytest.raises(ValueError):
            assemble_pencil(MODEL_A, branch, 0.7)

    def test_matrix_action_matches_direct_application(self):
        # independent path: convolution in mode space, model A operator
        rng = np.random.default_rng(8)
        branch = solve_wave(MODEL_A, 0.05, 1.3, n_modes=24)
        mu, lam, n = 0.17, 0.3 + 0.2j, 24
        pencil = assemble_pencil(MODEL_A, branch, mu)
        v = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)

        def convolve(series, vec):
            full = np.convolve(series.to_modes(), vec)
            return full[n:3 * n + 1]

        k, c = branch.k, branch.c
        dz = 1j * (np.arange(-n, n + 1) + mu)
        coef = 2.0 * branch.eta + TrigSeries.constant(-3.0 * c**2, n)
        direct = (2.0 * c * lam * dz * v
                  - 2.0 * k**2 * convolve(branch.eta.deriv(), dz * v)
                  + k**2 * dz**2 * convolve(coef, v) - v)
        via_matrix = apply_bloch(pencil, lam, v).modes
        assert np.max(np.abs(direct - via_matrix)) < 1e-10

    def test_matrix_action_matches_direct_application_model_b(self):
        rng = np.random.default_rng(9)
        model = Model("B", gamma=1.5)
        branch = solve_wave(model, 0.04, 0.8, n_modes=20)
        mu, lam, n = 0.21, -0.1 + 0.4j, 20
        pencil = assemble_pencil(model, branch, mu)
        v = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)

        def convolve(series, vec):
            full = np.convolve(series.to_modes(), vec)
            return full[n:3 * n + 1]

        k, c, g = branch.k, branch.c, model.gamma
        dz = 1j * (np.arange(-n, n + 1) + mu)
        w, wz = branch.eta, branch.eta.deriv()
        wzz = branch.eta.deriv(2)
        first = (-k**2) * wz + (-g * k**4) * (wz * wzz)
        direct = (lam * dz * v + convolve(first, dz * v)
                  + k**2 * dz**2 * convolve(
                      w + TrigSeries.constant(-c, n), v)
                  - 0.5 * g * k**4 * convolve(wz * wz, dz**2 * v) - v)
        via_matrix = apply_bloch(pencil, lam, v).modes
        assert np.max(np.abs(direct - via_matrix)) < 1e-10


class TestSpectrum:
    def test_flat_spectrum_matches_dispersion(self):
        branch = flat_branch(MODEL_A, n_modes=24)
        for mu in (0.1, 0.3, 0.5):
            sample = spectrum_slice(assemble_pencil(MODEL_A, branch, mu))
            assert sample.eigenvalues.size == 49
            for n in range(-22, 23):
                target = 1j * dispersion(MODEL_A, n, mu, 1.0)
                assert np.min(np.abs(sample.eigenvalues - target)) < 1e-10

    def test_branch_labels_at_flat_state(self):
        branch = flat_branch(MODEL_A, n_modes=12)
        sample = spectrum_slice(assemble_pencil(MODEL_A, branch, 0.25))
        for lam, label in zip(sample.eigenvalues, sample.branch_ids):
            assert abs(lam - 1j * dispersion(MODEL_A, label, 0.25, 1.0)) \
                < 1e-10

    def test_mu_zero_filters_singular_direction(self):
        branch = flat_branch(MODEL_A, n_modes=16)
        sample = spectrum_slice(assemble_pencil(MODEL_A, branch, 0.0))
        # the n = 0 direction is an infinite eigenvalue, dropped
        assert sample.eigenvalues.size == 32
        near_zero = np.sort(np.abs(sample.eigenvalues))[:2]
        assert np.max(near_zero) < 1e-12  # double zero from n = +-1

    def test_small_amplitude_critical_pair_stays_imaginary(self):
        branch = solve_wave(MODEL_A, 0.02, 1.0, n_modes=32)
        for mu in (0.01, 0.03, 0.05):
            sample = spectrum_slice(assemble_pencil(MODEL_A, branch, mu))
            idx = np.argsort(np.abs(sample.eigenvalues))[:2]
            assert np.max(np.abs(sample.eigenvalues[idx].real)) <= 1e-6

    def test_truncation_robustness(self):
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=64)
        pair = {}
        for n in (32, 64):
            sample = spectrum_slice(assemble_pencil(MODEL_A, branch, 0.04,
                                                    n_modes=n))
            idx = np.argsort(np.abs(sample.eigenvalues))[:2]
            pair[n] = np.sort_complex(sample.eigenvalues[idx])
        assert np.max(np.abs(pair[32] - pair[64])) <= 1e-8


class TestSymmetry:
    def test_flat_spectrum_purely_imaginary(self):
        branch = flat_branch(MODEL_A, n_modes=16)
        sample = spectrum_slice(assemble_pencil(MODEL_A, branch, 0.2))
        assert np.max(np.abs(sample.eigenvalues.real)) < 1e-12

    def test_model_a_symmetry_maps(self):
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=32)
        plus = spectrum_slice(assemble_pencil(MODEL_A, branch, 0.2))
        minus = spectrum_slice(assemble_pencil(MODEL_A, branch, -0.2))
        report = symmetry_check(plus, minus)
        assert report.ok
        assert report.hausdorff_reflection <= 1e-8
        assert report.hausdorff_conjugation <= 1e-8

    def test_unstable_quadruplet_structure(self):
        model = Model("B", gamma=3.0)
        branch = solve_wave(model, 0.02, 1.0, n_modes=32)
        mu = 0.005
        plus = spectrum_slice(assemble_pencil(model, branch, mu))
        minus = spectrum_slice(assemble_pencil(model, branch, -mu))
        assert np.max(plus.eigenvalues.real) > 1e-6  # genuinely unstable
        report = symmetry_check(plus, minus)
        assert report.ok

    def test_hausdorff_distance(self):
        a = np.array([0.0, 1.0 + 1j])
        b = np.array([0.0, 1.0 + 1.5j])
        assert hausdorff_distance(a, b) == pytest.approx(0.5)


class TestSweep:
    def test_sweep_orders_results(self):
        branch = flat_branch(MODEL_A, n_modes=8)
        mus = [0.1, 0.2, 0.3]
        samples = sweep_mus(MODEL_A, branch, mus)
        assert [s.mu for s in samples] == mus
