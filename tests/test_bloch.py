import dataclasses
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from mwstab.fourier import TrigSeries
from mwstab.waves import Model, Units, solve_wave, SQRT3
from mwstab import bloch, waves
from mwstab.bloch import (assemble_pencil, dispersion, find_collisions,
                          spectrum_slice, symmetry_check, hausdorff_distance,
                          sweep_mus, one_blas_thread,
                          INFINITE_EIGENVALUE_CUTOFF)

MODEL_A = Model("A")


def whole_operator(model, eta, c):
    """The whole ``(A0, A1, A2)`` at ``(eta, c)``, from operator terms
    evaluated afresh."""
    modes = np.arange(-eta.n_modes, eta.n_modes + 1)
    return waves._operator_block(waves._operator_terms(model, eta, c), modes,
                                 modes)


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

    @pytest.mark.parametrize("k", [-1.0, 0.0, np.nan, np.inf])
    def test_wavenumber_must_be_positive_and_finite(self, k):
        # omega used to come out as +1.936 at k = -1 and nan at k = nan
        with pytest.raises(ValueError, match="positive and finite"):
            find_collisions(n_min=-3, k=k)
        for model in (MODEL_A, Model("B")):
            with pytest.raises(ValueError, match="positive and finite"):
                dispersion(model, 3, 0.1, k)
            with pytest.raises(ValueError, match="positive and finite"):
                Units(model, k)

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
        assert_allclose(pencil.s, 2.0 * branch.c * (n + 0.3), atol=1e-14)

    def test_flat_state_is_diagonal_model_b(self):
        model = Model("B", gamma=2.0)
        branch = flat_branch(model)
        pencil = assemble_pencil(model, branch, 0.2)
        n = np.arange(-16, 17)
        assert_allclose(np.diag(pencil.L0), (n + 0.2) ** 2 - 1.0, atol=1e-14)
        assert_allclose(pencil.s, n + 0.2, atol=1e-14)

    def test_real_operator_conjugate_flip_at_mu_zero(self):
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=12)
        pencil = assemble_pencil(MODEL_A, branch, 0.0)
        # L0 = conj(L0) flipped, L1 = i diag(s) likewise, with L0 and s real
        assert np.max(np.abs(pencil.L0 - pencil.L0[::-1, ::-1])) < 1e-14
        assert np.max(np.abs(pencil.s + pencil.s[::-1])) < 1e-14

    @pytest.mark.parametrize("model", [MODEL_A, Model("B", gamma=2.0)])
    def test_operator_of_an_even_profile_is_real(self, model):
        # real coefficients in mu, whose sum at mu acts as the operator
        # with d/dz + i mu does
        rng = np.random.default_rng(3)
        branch = solve_wave(model, 0.05, 1.0, n_modes=32)
        coeffs = whole_operator(model, branch.unit_eta, branch.unit_c)
        assert all(m.dtype == np.float64 for m in coeffs)
        v = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        for mu in (0.0, 0.2, -0.37):
            op = coeffs[0] + mu * coeffs[1] + mu**2 * coeffs[2]
            direct = l0_by_convolution(model, branch, mu, v)
            assert np.max(np.abs(op @ v - direct)) < 1e-10

    @pytest.mark.parametrize("model", [MODEL_A, Model("B", gamma=2.0)])
    def test_central_block_is_the_whole_pencils_to_the_bit(self, model):
        # the critical pair's block and the whole pencil come from one
        # gather: the block's entries are the whole one's, not close
        branch = solve_wave(model, 0.05, 1.2, n_modes=32)
        alpha = 2.0 * branch.unit_c if model.is_a else 1.0
        for mu in (0.1, 1e-3, 0.37, -0.1, -1e-3, -0.49):
            whole = assemble_pencil(model, branch, mu)
            assert whole.n_modes == 32
            for half in (16, 5, 1, 32):
                modes = np.arange(-half, half + 1)
                a0, a1, a2 = waves._operator_block(branch._terms, modes,
                                                   modes)
                l0 = a0 + mu * a1
                l0 += (mu * mu) * a2
                inner = slice(32 - half, 32 + half + 1)
                assert np.array_equal(l0, whole.L0[inner, inner])
                assert np.array_equal(alpha * (modes + mu), whole.s[inner])

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("model", [MODEL_A, Model("B", gamma=2.0)],
                             ids=["A", "B"])
    def test_every_block_gather_is_a_slice_of_the_whole(self, model, n):
        # the central row, the wave's block, the rows outside it against
        # it, and random sets of rows and columns, in any order and with
        # repeats: each of A0, A1, A2 is the whole matrix's slice to the
        # bit, and so is A0 gathered alone
        branch = solve_wave(model, 0.05, 1.2, n_modes=n)
        whole = whole_operator(model, branch.unit_eta, branch.unit_c)
        half = n // 4
        rng = np.random.default_rng(n)
        inner = np.arange(-half, half + 1)
        outer = np.r_[-n:-half, half + 1:n + 1]
        picks = [([0], np.arange(n + 1)), (inner, inner), (outer, inner)]
        picks += [(rng.integers(-n, n + 1, size), rng.integers(-n, n + 1, 7))
                  for size in (1, 9, 2 * n + 1)]
        for rows, cols in picks:
            index = np.ix_(np.asarray(rows) + n, np.asarray(cols) + n)
            gathered = waves._operator_block(branch._terms, rows, cols)
            assert len(gathered) == 3
            for block, matrix in zip(gathered, whole):
                assert np.array_equal(block, matrix[index])
            first, = waves._operator_block(branch._terms, rows, cols, 1)
            assert np.array_equal(first, whole[0][index])
        modes = np.arange(-n, n + 1)
        for term, matrix in zip(
                waves._operator_block(branch._terms, modes, modes), whole):
            assert np.array_equal(term, matrix)

    def test_mu_domain_guard(self):
        branch = flat_branch(MODEL_A)
        with pytest.raises(ValueError):
            assemble_pencil(MODEL_A, branch, 0.7)

    def test_pencils_are_built_in_the_floquet_domain(self):
        # the pencil refuses what bloch.in_floquet_domain refuses, with
        # the pencil's message, and the predicate reads arrays whole
        branch = flat_branch(MODEL_A)
        for mu in (-0.5, np.nan, 0.5 + 1e-12):
            assert not bloch.in_floquet_domain(mu)
            with pytest.raises(ValueError, match=r"outside \(-1/2, 1/2\]"):
                assemble_pencil(MODEL_A, branch, mu)
        assert bloch.in_floquet_domain(0.5)
        assert assemble_pencil(MODEL_A, branch, 0.5).mu == 0.5
        grid = np.array([-0.25, 0.0, 0.5])
        assert bloch.in_floquet_domain(grid)
        assert not bloch.in_floquet_domain(np.append(grid, -0.5))
        assert not bloch.in_floquet_domain(np.append(grid, np.nan))

    @pytest.mark.parametrize("other", [Model("B", gamma=2.0),
                                       Model("A", gamma=1.0)])
    @pytest.mark.parametrize("n_modes", [None, 8])
    def test_model_must_be_the_branchs(self, other, n_modes):
        # another model's operator on this profile is no pencil: B's
        # operator on A's wave was built without complaint
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=12)
        with pytest.raises(ValueError, match="not the branch's model"):
            bloch._pencil_terms(other, branch, n_modes)
        with pytest.raises(ValueError, match="not the branch's model"):
            assemble_pencil(other, branch, 0.1, n_modes)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(mu=st.floats(-0.5, 0.5, exclude_min=True),
           seed=st.integers(0, 2**32 - 1))
    def test_matrix_action_matches_direct_application(self, mu, seed):
        # independent path: convolution in mode space, model A operator
        rng = np.random.default_rng(seed)
        branch = solve_wave(MODEL_A, 0.05, 1.3, n_modes=24)
        lam, n = 0.3 + 0.2j, 24
        pencil = assemble_pencil(MODEL_A, branch, mu)
        v = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        dz = 1j * (np.arange(-n, n + 1) + mu)
        direct = (2.0 * branch.unit_c * lam * dz * v
                  + l0_by_convolution(MODEL_A, branch, mu, v))
        via_matrix = pencil.L0 @ v + lam * 1j * pencil.s * v
        assert np.max(np.abs(direct - via_matrix)) < 1e-10

    def test_matrix_action_matches_direct_application_model_b(self):
        rng = np.random.default_rng(9)
        model = Model("B", gamma=1.5)
        branch = solve_wave(model, 0.04, 0.8, n_modes=20)
        mu, lam, n = 0.21, -0.1 + 0.4j, 20
        pencil = assemble_pencil(model, branch, mu)
        v = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        dz = 1j * (np.arange(-n, n + 1) + mu)
        direct = lam * dz * v + l0_by_convolution(model, branch, mu, v)
        via_matrix = pencil.L0 @ v + lam * 1j * pencil.s * v
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

    def test_complex_l0_is_rejected(self):
        # a profile with a sine part has a complex operator: it is refused
        # before any matrix is built
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=16)
        sine = np.zeros(16)
        sine[2] = 1e-12
        odd = dataclasses.replace(branch, unit_eta=TrigSeries(
            branch.unit_eta.cos, sine))
        with pytest.raises(ValueError, match="even profile"):
            assemble_pencil(MODEL_A, odd, 0.2)

    @pytest.mark.parametrize("mu", [1.3877787807814457e-17, -1e-12, 1e-20,
                                    1e-300, 5e-324])
    @pytest.mark.parametrize("model", [MODEL_A, Model("B", gamma=2.0)])
    def test_tiny_mu_matches_qz(self, model, mu):
        # linspace(-0.1, 0.2, 31) puts its "zero" at 1.4e-17; the
        # ~1/(alpha mu) eigenvalue lies beyond the cutoff, 2N remain
        branch = solve_wave(model, 0.05, 1.0, n_modes=32)
        pencil = assemble_pencil(model, branch, mu)
        sample = spectrum_slice(pencil)
        assert sample.eigenvalues.size == 64
        assert_matches_qz(pencil, sample)

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

    def test_sweep_is_the_slice_of_each_assembled_pencil(self):
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.05, 1.0, n_modes=16)
        mus = [-0.3, 0.0, 0.02, 0.5]
        modes = np.arange(-16, 17)
        a0, a1, a2 = waves._operator_block(branch._terms, modes, modes)
        for mu, sample in zip(mus, sweep_mus(model, branch, mus)):
            pencil = assemble_pencil(model, branch, mu)
            l0 = a0 + mu * a1
            l0 += (mu * mu) * a2
            assert np.array_equal(l0, pencil.L0)
            assert np.array_equal(
                sample.eigenvalues, spectrum_slice(pencil).eigenvalues)

    def test_a_sweep_gathers_the_whole_matrices_once(self, monkeypatch):
        # every mu of the grid forms its pencil from the one gather
        branch = solve_wave(MODEL_A, 0.05, 1.0, n_modes=16)
        gather, gathered = waves._operator_block, []

        def counted(terms, rows, cols, *rest):
            gathered.append((len(rows), len(cols)))
            return gather(terms, rows, cols, *rest)

        monkeypatch.setattr(bloch, "_operator_block", counted)
        samples = sweep_mus(MODEL_A, branch, [-0.3, 0.0, 0.02, 0.25, 0.5])
        assert len(samples) == 5
        assert gathered == [(33, 33)]


def allow_cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs, as ``parallel_map`` sees it."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def count_forks(monkeypatch):
    """Record each ``os.fork`` this process makes."""
    fork, forks = os.fork, []

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_samples(samples, reference):
    assert [s.mu for s in samples] == [s.mu for s in reference]
    for mine, theirs in zip(samples, reference):
        assert np.array_equal(mine.eigenvalues, theirs.eigenvalues)
        assert np.array_equal(mine.branch_ids, theirs.branch_ids)


class TestParallelMap:
    @pytest.fixture(scope="class")
    def branch(self):
        return solve_wave(MODEL_A, 0.05, 1.0, n_modes=16)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("mus", [
        [0.5], [0.0, 0.5], [-0.2, 0.0, 0.5], np.linspace(0.0, 0.5, 51)])
    def test_the_sweep_is_the_serial_one_to_the_bit(self, monkeypatch, branch,
                                                     count, mus):
        allow_cpus(monkeypatch, 1)
        serial = sweep_mus(MODEL_A, branch, mus)
        allow_cpus(monkeypatch, count)
        forks = count_forks(monkeypatch)
        assert_same_samples(sweep_mus(MODEL_A, branch, mus), serial)
        assert len(forks) == min(count, len(mus)) - 1
        assert_no_worker_left()

    def test_every_slice_runs_on_one_blas_thread(self, monkeypatch, branch,
                                                 blas_threads):
        # the caller runs 2 OpenBLAS threads; each slice, in this process
        # or a worker, serial or forked, sees 1, and the caller keeps 2
        get, _ = bloch._openblas_threads()
        solve = bloch.spectrum_slice
        monkeypatch.setattr(bloch, "spectrum_slice",
                            lambda pencil: (solve(pencil), get()))
        mus = np.linspace(0.0, 0.5, 9)
        sweeps = []
        for count in (1, 2):
            allow_cpus(monkeypatch, count)
            forks = count_forks(monkeypatch)
            sweeps.append(sweep_mus(MODEL_A, branch, mus))
            assert len(forks) == count - 1
            assert_no_worker_left()
            assert [threads for _, threads in sweeps[-1]] == [1] * len(mus)
            assert get() == 2
        serial, forked = ([sample for sample, _ in sweep] for sweep in sweeps)
        assert_same_samples(forked, serial)

    def test_each_process_takes_every_wth_item(self, monkeypatch):
        # this process takes items 0::3, the two workers 1::3 and 2::3
        allow_cpus(monkeypatch, 3)
        pairs = bloch.parallel_map(lambda x: (x, os.getpid()), range(8))
        assert [x for x, _ in pairs] == list(range(8))
        pids = [pid for _, pid in pairs]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert pids == pids[:3] * 2 + pids[:2]
        assert_no_worker_left()

    @pytest.mark.parametrize("why", [
        "one item", "one cpu", "no affinity", "no fork", "a thread runs"])
    def test_it_runs_serially(self, monkeypatch, why):
        allow_cpus(monkeypatch, 2)
        count_forks(monkeypatch)
        items = [1, 2]
        if why == "one item":
            items = [1]
        elif why == "one cpu":
            allow_cpus(monkeypatch, 1)
        elif why == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        elif why == "no fork":
            monkeypatch.delattr(os, "fork")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if why == "a thread runs":
            thread.start()
        try:
            pairs = bloch.parallel_map(lambda x: (x, os.getpid()), items)
        finally:
            stop.set()
            if thread.is_alive():
                thread.join()
        assert pairs == [(x, os.getpid()) for x in items]

    @pytest.mark.parametrize("failing", [{4}, {4, 6}, {3, 5}, {1, 5}])
    def test_a_failing_slice_raises_the_serial_error(self, monkeypatch,
                                                      branch, failing):
        # on 3 CPUs this process solves mus 0, 3, 6 and the workers 1, 4
        # and 2, 5: the first failing mu of the grid raises, wherever it is
        mus = np.linspace(-0.3, 0.3, 7)
        broken_mus = {mus[i] for i in failing}
        eigvals = np.linalg.eigvals

        def broken(matrix):
            if sys._getframe(1).f_locals["pencil"].mu in broken_mus:
                raise np.linalg.LinAlgError("broken")
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", broken)
        messages = []
        for count in (1, 3):
            allow_cpus(monkeypatch, count)
            with pytest.raises(ArithmeticError) as info:
                sweep_mus(MODEL_A, branch, mus)
            messages.append(str(info.value))
            assert_no_worker_left()
        assert messages[0] == messages[1] == (
            f"pencil eigensolver failed at mu={mus[min(failing)]}: broken")

    def test_a_dead_workers_slices_come_from_this_process(self, monkeypatch,
                                                          branch):
        mus = np.linspace(0.0, 0.5, 9)
        allow_cpus(monkeypatch, 1)
        serial = sweep_mus(MODEL_A, branch, mus)
        parent, solve = os.getpid(), bloch.spectrum_slice

        def dying(pencil):
            if os.getpid() != parent and pencil.mu == mus[4]:
                os._exit(1)
            return solve(pencil)

        monkeypatch.setattr(bloch, "spectrum_slice", dying)
        allow_cpus(monkeypatch, 3)
        assert_same_samples(sweep_mus(MODEL_A, branch, mus), serial)
        assert_no_worker_left()

    @pytest.mark.parametrize("kept", ["nothing", "half", "all-but-one"])
    def test_a_pickle_cut_short_is_recomputed_here(self, monkeypatch, branch,
                                                   kept):
        # worker 1 of 3 dies while it sends, leaving no byte, half or all
        # but the last byte of its pickle: its items come from this
        # process, worker 2's from worker 2
        mus = np.linspace(0.0, 0.5, 9)
        allow_cpus(monkeypatch, 1)
        serial = sweep_mus(MODEL_A, branch, mus)
        dump = pickle.dump

        def cut(share, pipe, protocol):
            if share[0][0] != 1:
                return dump(share, pipe, protocol)
            data = pickle.dumps(share, protocol)
            size = {"nothing": 0, "half": len(data) // 2,
                    "all-but-one": len(data) - 1}[kept]
            pipe.write(data[:size])
            pipe.flush()
            os._exit(1)

        monkeypatch.setattr(pickle, "dump", cut)
        allow_cpus(monkeypatch, 3)
        parent = os.getpid()
        pids = bloch.parallel_map(lambda x: os.getpid(), range(9))
        assert pids[0::3] == pids[1::3] == [parent] * 3
        assert parent not in pids[2::3]
        assert_no_worker_left()
        assert_same_samples(sweep_mus(MODEL_A, branch, mus), serial)
        assert_no_worker_left()

    def test_an_interrupt_kills_and_reaps_the_workers(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        parent = os.getpid()

        def work(item):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return item

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            bloch.parallel_map(work, range(6))
        assert_no_worker_left()
        assert time.perf_counter() - started < 30


def greedy_labels(model, eigenvalues, mu, n_modes):
    """Reference for ``bloch._branch_labels``: every (eigenvalue, mode) pair
    in one stable sort by (distance, flat index), taken while both are
    free."""
    modes = np.arange(-n_modes, n_modes + 1)
    modes = modes[modes + mu != 0]
    with np.errstate(over="ignore", invalid="ignore"):
        targets = 1j * dispersion(model, modes, mu)
    dist = np.abs(eigenvalues[:, None] - targets[None, :])
    labels = np.full(eigenvalues.size, 10**9, dtype=int)
    free_rows = np.ones(dist.shape[0], dtype=bool)
    free_cols = np.ones(dist.shape[1], dtype=bool)
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), dist.shape[1])
        if free_rows[i] and free_cols[j]:
            free_rows[i] = free_cols[j] = False
            labels[i] = modes[j]
    return labels


class TestBranchLabels:
    @pytest.mark.parametrize("model, a, mus", [
        # mu = 0 ties the Jordan pair against the zero targets of modes +-1
        (MODEL_A, 0.05, np.r_[0.0, np.linspace(-0.45, 0.5, 20)]),
        # every complex pair is equidistant from each target
        (Model("B", gamma=3.0), 0.02, np.linspace(0.001, 0.012, 8)),
    ])
    def test_rounds_are_the_stable_greedy(self, model, a, mus):
        branch = solve_wave(model, a, 1.0)
        samples = sweep_mus(model, branch, mus)
        if not model.is_a:
            assert all(s.eigenvalues.real.max() > 1e-6 for s in samples)
        for sample in samples:
            assert np.array_equal(sample.branch_ids, greedy_labels(
                model, sample.eigenvalues, sample.mu, branch.n_modes))

    def test_a_target_at_infinity_is_matched_last(self):
        # n + mu subnormal: mode 0's target overflows to infinity, so the
        # one eigenvalue left for it is infinitely far from every free mode
        mu = 5e-324
        with np.errstate(over="ignore", invalid="ignore"):
            omega = dispersion(MODEL_A, np.array([-2, -1, 1, 2]), mu)
        lam = np.r_[1j * omega, 3.0 + 40j]
        labels = bloch._branch_labels(MODEL_A, lam, mu, 2)
        assert labels.tolist() == [-2, -1, 1, 2, 0]
        assert np.array_equal(labels, greedy_labels(MODEL_A, lam, mu, 2))

    def test_more_eigenvalues_than_modes(self):
        # mu = 0 drops mode 0: six eigenvalues for four modes
        lam = np.array([0.1j, -1.3j, 5j, 1.3j, 0.2 + 2.6j, -2.6j])
        labels = bloch._branch_labels(MODEL_A, lam, 0.0, 2)
        assert np.array_equal(labels, greedy_labels(MODEL_A, lam, 0.0, 2))
        assert sorted(labels.tolist()) == [-2, -1, 1, 2, 10**9, 10**9]

    def test_ties_go_to_the_lower_position_then_the_lower_mode(self):
        # mu = 0: the Jordan pair -d + iy, d + iy is equidistant from the
        # zero targets of modes -1 and 1; the member listed first, the one
        # with the negative real part, takes the lower mode
        branch = solve_wave(MODEL_A, 0.05, 1.0)
        sample = sweep_mus(MODEL_A, branch, [0.0])[0]
        lam, ids = sample.eigenvalues, sample.branch_ids
        pair = np.argsort(np.abs(lam))[:2]
        assert lam[pair[0]].imag == lam[pair[1]].imag
        assert lam[pair[0]].real == -lam[pair[1]].real != 0.0
        negative = pair[np.argmin(lam[pair].real)]
        assert ids[negative] == -1 and set(ids[pair]) == {-1, 1}

    def test_an_unstable_pair_splits_by_position(self):
        # both members of a complex pair are equally far from each mode:
        # the one with the negative real part, listed first, takes the
        # nearer of modes -1 and 1, its partner the other
        model = Model("B", gamma=3.0)
        branch = solve_wave(model, 0.02, 1.0, n_modes=32)
        mu = 0.005
        sample = sweep_mus(model, branch, [mu])[0]
        lam, ids = sample.eigenvalues, sample.branch_ids
        pair = np.flatnonzero(np.abs(lam.real) > 1e-6)
        assert pair.size == 2 and lam[pair[0]] == -np.conj(lam[pair[1]])
        assert lam[pair[0]].real < 0.0
        targets = 1j * dispersion(model, np.array([-1, 1]), mu)
        nearer = [-1, 1][np.argmin(np.abs(lam[pair[0]] - targets))]
        assert ids[pair].tolist() == [nearer, -nearer]


class TestOneBlasThread:
    def test_restores_the_thread_count(self):
        threads = bloch._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, _ = threads
        before = get()
        with one_blas_thread():
            assert get() == 1
        assert get() == before
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError
        assert get() == before

    def test_without_openblas_the_sweep_runs_as_it_is(self, monkeypatch):
        branch = flat_branch(MODEL_A)
        pinned = sweep_mus(MODEL_A, branch, [0.0, 0.2])
        monkeypatch.setattr(bloch, "_openblas_threads", lambda: None)
        for mine, theirs in zip(sweep_mus(MODEL_A, branch, [0.0, 0.2]),
                                pinned):
            assert np.array_equal(mine.eigenvalues, theirs.eigenvalues)


def l0_by_convolution(model, branch, mu, v):
    """``L0 v`` at ``mu``, independently of the pencil matrices: products
    with the profile's series by ``np.convolve`` in mode space and
    ``d/dz + i mu`` as a complex diagonal."""
    n, k, c = branch.n_modes, branch.k, branch.c

    def convolve(series, vec):
        return np.convolve(series.to_modes(), vec)[n:3 * n + 1]

    dz = 1j * (np.arange(-n, n + 1) + mu)
    w, wz = branch.eta, branch.eta.deriv()
    if model.is_a:
        coef = 2.0 * w + TrigSeries.constant(-3.0 * c**2, n)
        return (-2.0 * k**2 * convolve(wz, dz * v)
                + k**2 * dz**2 * convolve(coef, v) - v)
    g = model.gamma
    first = (-k**2) * wz + (-g * k**4) * (wz * w.deriv(2))
    return (convolve(first, dz * v)
            + k**2 * dz**2 * convolve(w + TrigSeries.constant(-c, n), v)
            - 0.5 * g * k**4 * convolve(wz * wz, dz**2 * v) - v)


def assert_matches_qz(pencil, sample):
    """``spectrum_slice`` against the complex QZ of ``L0 + lambda L1``,
    filtered alike, matched one to one.  Each eigenvalue agrees to
    1e-10 max(1, |lambda|) + min(r, r^2 / gap), r = sqrt(eps max|L0|): a
    rounding-sized change r^2 of the pencil moves an eigenvalue whose
    nearest neighbour is ``gap`` away by about r^2 / gap, and splits a
    double eigenvalue with a Jordan block (the mu = 0 zero) by about r."""
    ref = scipy.linalg.eig(pencil.L0, -1j * np.diag(pencil.s), right=False)
    ref = ref[np.isfinite(ref)]
    ref = ref[np.abs(ref) <= INFINITE_EIGENVALUE_CUTOFF]
    lam = sample.eigenvalues
    assert lam.size == ref.size
    r = np.sqrt(np.finfo(float).eps * np.abs(pencil.L0).max())
    gaps = np.abs(ref[:, None] - ref[None, :])
    np.fill_diagonal(gaps, np.inf)
    tol = 1e-10 * np.maximum(1.0, np.abs(ref)) \
        + np.minimum(r, r * r / gaps.min(axis=1))
    dist = np.abs(ref[:, None] - lam[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert np.all(dist[rows, cols] <= tol[rows])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0),
       mu=st.one_of(st.just(0.0),
                    st.floats(-0.5, 0.5, exclude_min=True).filter(
                        lambda mu: abs(mu) >= 1e-3)))
def test_real_reduction_matches_qz(variant, a, k, gamma, mu):
    """The real standard eigenproblem gives the pencil's QZ spectrum, one
    eigenvalue fewer at mu = 0, and an exactly reflection-symmetric set.

    Below |mu| = 1e-3 the ~1/(alpha mu) eigenvalue passes 1e3 and QZ's own
    relative error on it grows like 1/mu^2 (5e-10 at mu = 1e-6);
    ``test_tiny_mu_matches_qz`` covers mu where that eigenvalue is cut."""
    n = 32
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=n)
    pencil = assemble_pencil(model, branch, mu)
    sample = spectrum_slice(pencil)
    assert sample.eigenvalues.size == (2 * n if mu == 0 else 2 * n + 1)
    assert_matches_qz(pencil, sample)
    # mu = -1/2 is mu = 1/2 shifted by one mode
    minus = sample if mu == 0.5 else spectrum_slice(
        assemble_pencil(model, branch, -mu))
    assert symmetry_check(sample, minus).hausdorff_reflection == 0.0
