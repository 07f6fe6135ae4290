from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwstab import bloch, modulation, waves
from mwstab.fourier import TrigSeries
from mwstab.waves import Model, solve_wave, SQRT3, ConvergenceError
from mwstab.bloch import assemble_pencil, spectrum_slice
from mwstab.modulation import (critical_basis, projected_det,
                               discriminant_sweep, critical_growth,
                               threshold_bisect, DegeneratePairError,
                               positivity_margin)

MODEL_A = Model("A")


@pytest.fixture(scope="module")
def branch_a005():
    return solve_wave(MODEL_A, 0.05, 1.0, n_modes=48)


@pytest.fixture(scope="module")
def basis_a005(branch_a005):
    return critical_basis(MODEL_A, branch_a005)


NAN = float("nan")


@pytest.mark.parametrize("error,message,call", [
    (waves.ValidityError, "small-amplitude range",
     lambda branch, basis: solve_wave(MODEL_A, NAN, 1.0)),
    (waves.ValidityError, "small-amplitude range",
     lambda branch, basis: waves.analytic_wave(Model("B"), NAN, 1.0)),
    (ValueError, "gamma must be finite",
     lambda branch, basis: Model("B", gamma=NAN)),
    (ValueError, "gamma must be finite",
     lambda branch, basis: Model("B", gamma=-np.inf)),
    (ValueError, r"only for \|mu\| <= 0\.2",
     lambda branch, basis: projected_det(MODEL_A, branch, basis, NAN)),
    (ValueError, r"restricted to \|mu\| <= 0\.1",
     lambda branch, basis: critical_growth(MODEL_A, branch, NAN)),
    (ValueError, r"sweep grid must satisfy \|mu\| <= 0\.1",
     lambda branch, basis: discriminant_sweep(MODEL_A, 0.05, 1.0,
                                              [0.05, NAN])),
], ids=["solve_wave", "analytic_wave", "gamma-nan", "gamma-inf",
        "projected_det", "critical_growth", "discriminant_sweep"])
def test_non_finite_input_meets_its_own_guard(monkeypatch, branch_a005,
                                              basis_a005, error, message,
                                              call):
    # a guard written as x > bound lets NaN through to the solvers; each
    # one refuses it before any residual, wave or pencil is computed
    def solved(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in ((waves, "residual"), (modulation, "solve_wave"),
                         (modulation, "pencil_coefficients")):
        monkeypatch.setattr(module, name, solved)
    with pytest.raises(error, match=message) as raised:
        call(branch_a005, basis_a005)
    assert type(raised.value) is error


def test_critical_growth_refuses_another_models_branch(monkeypatch,
                                                      branch_a005):
    # it used to step 200 times on B's operator over A's wave, then fail
    def stepped(*args, **kwargs):
        raise AssertionError("a subspace step ran")

    monkeypatch.setattr(modulation, "_subspace_step", stepped)
    with pytest.raises(ValueError, match="not the branch's model"):
        critical_growth(Model("B", gamma=2.0), branch_a005, 0.01)


@pytest.mark.parametrize("call", [
    lambda branch, mu: critical_growth(MODEL_A, branch, mu),
    lambda branch, mu: discriminant_sweep(MODEL_A, 0.05, 1.0, [mu],
                                          n_modes=16),
], ids=["critical_growth", "discriminant_sweep"])
def test_sweep_domain_is_one_bound(branch_a005, call):
    edge = modulation.SWEEP_MU_MAX
    for mu in (edge, -edge):
        call(branch_a005, mu)
    for mu in (np.nextafter(edge, 1.0), np.nextafter(-edge, -1.0)):
        with pytest.raises(ValueError, match=rf"\|mu\| <= {edge}"):
            call(branch_a005, mu)


class TestCriticalBasis:
    def test_flat_limit_is_sin_cos(self):
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=16)
        basis = critical_basis(MODEL_A, branch)
        assert np.array_equal(basis.phi1.sin,
                              TrigSeries.sine(1, 16).sin)
        assert np.array_equal(basis.phi2.cos,
                              TrigSeries.cosine(1, 16).cos)

    def test_parity_and_orthogonality(self, basis_a005):
        assert basis_a005.phi1.is_odd()
        assert basis_a005.phi2.is_even()
        assert basis_a005.phi1.inner(basis_a005.phi2) == 0.0

    def test_phi1_second_harmonic(self, basis_a005):
        # phi1 = sin z + a k^2 sin 2z + (21/16) a^2 k^4 sin 3z + O(a^3)
        assert basis_a005.phi1.sin[1] == pytest.approx(0.05, abs=1e-4)
        assert basis_a005.phi1.sin[2] == pytest.approx(
            21.0 / 16.0 * 0.05**2, abs=2e-4)

    def test_subnormal_amplitude_gives_the_flat_basis(self):
        # 1/a overflows here; eta' / a does not
        branch = solve_wave(MODEL_A, 5e-324, 1.0, n_modes=16)
        basis = critical_basis(MODEL_A, branch)
        assert np.array_equal(basis.phi1.sin, TrigSeries.sine(1, 16).sin)

    def test_norms_match_expansions(self):
        branch = solve_wave(MODEL_A, 0.1, 1.0, n_modes=32)
        basis = critical_basis(MODEL_A, branch)
        assert basis.phi1.inner(basis.phi1) == pytest.approx(
            (1.0 + 0.1**2) / 2.0, abs=1e-3)
        assert basis.phi2.inner(basis.phi2) == pytest.approx(
            (1.0 + 3.0 * 0.1**2) / 2.0, abs=1e-3)


class TestProjectedDet:
    def test_flat_state_closed_form(self):
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=24)
        basis = critical_basis(MODEL_A, branch)
        mu = 0.01
        det = projected_det(MODEL_A, branch, basis, mu)
        assert det.b0 == pytest.approx(-4.0 * mu**2 + mu**4, rel=1e-10)
        assert det.b1 == pytest.approx((-8.0 * mu + 4.0 * mu**3) / SQRT3,
                                       rel=1e-10)
        assert det.b2 == pytest.approx((4.0 / 3.0) * (1.0 - mu**2),
                                       rel=1e-10)
        assert det.disc == pytest.approx(16.0 * mu**2 / 3.0, rel=1e-6)

    def test_parity_in_mu(self, branch_a005, basis_a005):
        plus = projected_det(MODEL_A, branch_a005, basis_a005, 0.03)
        minus = projected_det(MODEL_A, branch_a005, basis_a005, -0.03)
        assert minus.b0 == pytest.approx(plus.b0, abs=1e-10)
        assert minus.b1 == pytest.approx(-plus.b1, abs=1e-10)
        assert minus.b2 == pytest.approx(plus.b2, abs=1e-10)

    def test_coperiodic_double_root(self, branch_a005, basis_a005):
        det = projected_det(MODEL_A, branch_a005, basis_a005, 0.0)
        a = branch_a005.a
        assert abs(det.b0) <= 1e-8
        assert abs(det.b1) <= 1e-8
        assert det.b2 == pytest.approx(4.0 / 3.0 + 2.0 * a**2 / 3.0,
                                       abs=10.0 * a**3)

    def test_model_b_coperiodic_discriminant(self):
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.02, 1.0, n_modes=32)
        basis = critical_basis(model, branch)
        det = projected_det(model, branch, basis, 0.0)
        assert det.disc == pytest.approx(-0.02**2, rel=0.05)

    def test_discriminant_asymptotics(self):
        for k in (0.5, 2.0):
            branch = solve_wave(MODEL_A, 0.02, k, n_modes=32)
            basis = critical_basis(MODEL_A, branch)
            for mu in (0.005, 0.02):
                det = projected_det(MODEL_A, branch, basis, mu)
                lead = 16.0 * mu**2 / (3.0 * k**2) \
                    + 16.0 * 0.02**2 * k**2 / 3.0
                assert 0.95 <= det.disc / lead <= 1.05

    def test_discriminant_is_continuous_near_mu_zero(self):
        # D(mu) - D(0) = 4 mu^2 to leading order for model B at k = 1; the
        # parent's mu -> 0 limit path below |mu| = 1e-4 put it 4x off there
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.02, 1.0)
        basis = critical_basis(model, branch)
        at_zero = projected_det(model, branch, basis, 0.0).disc
        for mu in (1e-5, 9.9e-5, 1.01e-4, 1e-3):
            rise = projected_det(model, branch, basis, mu).disc - at_zero
            assert rise / (4.0 * mu**2) == pytest.approx(1.0, rel=1e-2)

    def test_coefficients_match_a_projection_at_each_mu(self, branch_a005,
                                                         basis_a005):
        # b0 + i b1 lambda + b2 lambda^2: the determinant of the 2x2 matrix
        # <T(lambda) phi_i, phi_j> / <phi_i, phi_i> on the pencil at mu
        vecs = [basis_a005.phi1.to_modes(), basis_a005.phi2.to_modes()]
        for mu in (-0.1, 0.003, 0.05):
            pencil = assemble_pencil(MODEL_A, branch_a005, mu)

            def det(lam):
                op = pencil.L0 + lam * 1j * np.diag(pencil.s)
                return np.linalg.det([[np.vdot(w, op @ v) / np.vdot(v, v)
                                       for w in vecs] for v in vecs])

            b1 = (0.5 * (det(1.0) - det(-1.0))).imag
            b2 = (0.5 * (det(1.0) + det(-1.0)) - det(0.0)).real
            have = projected_det(MODEL_A, branch_a005, basis_a005, mu)
            assert have.d0 == pytest.approx(det(0.0).real / mu**2, rel=1e-9)
            assert have.d1 == pytest.approx(b1 / mu, rel=1e-9)
            assert have.d2 == pytest.approx(b2, rel=1e-9)

    def test_guard_on_large_parameters(self, branch_a005, basis_a005):
        with pytest.raises(ValueError):
            projected_det(MODEL_A, branch_a005, basis_a005, 0.5)

    def test_degenerate_basis_is_rejected(self, branch_a005):
        from mwstab.modulation import CriticalBasis
        n = branch_a005.n_modes
        broken = CriticalBasis(phi1=TrigSeries.zero(n),
                               phi2=TrigSeries.cosine(1, n), a=0.05, k=1.0)
        with pytest.raises(ArithmeticError, match="degenerate"):
            projected_det(MODEL_A, branch_a005, broken, 0.01)


def whole_pair(coefficients, mu):
    """The critical pair at ``k = 1`` solved on the whole pencil."""
    return modulation._labelled_pair(
        coefficients.model, mu,
        *modulation._block_pair(coefficients, mu, coefficients.n_modes))


def collapsed_step(collapse):
    """``_subspace_step`` fed an image that has lost a dimension: both
    columns the first (``"rank"``) or all zero (``"zero"``)."""
    step = modulation._subspace_step

    def collapsed(matrix, basis):
        if collapse == "zero":
            return step(np.zeros_like(matrix), basis)
        return step(matrix, np.column_stack([basis[:, 0], basis[:, 0]]))

    return collapsed


class TestCriticalGrowth:
    def test_flat_state_matches_dispersion(self):
        from mwstab.bloch import dispersion
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=24)
        mu = 0.04
        lam_plus, lam_minus = critical_growth(MODEL_A, branch, mu)
        assert lam_plus == pytest.approx(
            1j * dispersion(MODEL_A, 1, mu, 1.0), abs=1e-10)
        assert lam_minus == pytest.approx(
            1j * dispersion(MODEL_A, -1, mu, 1.0), abs=1e-10)

    def test_flat_double_root_is_group_velocity(self):
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=24)
        basis = critical_basis(MODEL_A, branch)
        det = projected_det(MODEL_A, branch, basis, 1e-3)
        xp, xm = det.q_roots()
        # Q at a = mu = 0 has the double root X = sqrt3 = dOmega/dmu at 0
        assert xp.real == pytest.approx(SQRT3, abs=5e-3)
        assert xm.real == pytest.approx(SQRT3, abs=5e-3)

    def test_degenerate_pair_flag(self):
        branch = solve_wave(MODEL_A, 0.0, 1.0, n_modes=16)
        with pytest.raises(DegeneratePairError):
            critical_growth(MODEL_A, branch, 0.0)

    def test_root_correspondence(self, branch_a005, basis_a005):
        for mu in (0.01, 0.03, 0.05):
            det = projected_det(MODEL_A, branch_a005, basis_a005, mu)
            lam_plus, lam_minus = critical_growth(MODEL_A, branch_a005, mu)
            predicted = sorted(det.lambda_roots(), key=lambda z: z.imag)
            measured = sorted((lam_plus, lam_minus), key=lambda z: z.imag)
            bound = 10.0 * (mu**3 + 0.05**3)
            for have, want in zip(measured, predicted):
                assert abs(have - want) <= bound

    def test_unstable_growth_rate_formula(self):
        model = Model("B", gamma=3.0)
        branch = solve_wave(model, 0.02, 1.0, n_modes=32)
        basis = critical_basis(model, branch)
        mu = 0.005
        det = projected_det(model, branch, basis, mu)
        assert det.disc < 0.0
        lam_plus, _ = critical_growth(model, branch, mu)
        predicted = mu * np.sqrt(-det.disc) / (2.0 * det.d2)
        assert lam_plus.real == pytest.approx(predicted, rel=0.2)

    @pytest.mark.parametrize("variant", "AB")
    def test_pair_is_reported_at_the_waves_k(self, variant):
        # the pair at k is the pair of the (a k^2, 1) wave carried by
        # Units.frequency, in the units of projected_det's roots
        model = Model(variant, gamma=2.0 if variant == "B" else 0.0)
        k, a, mu = 2.0, 0.01, 0.02
        branch = solve_wave(model, a, k, n_modes=32)
        unit = solve_wave(model, a * k * k, 1.0, n_modes=32)
        pair = critical_growth(model, branch, mu)
        factor = k if variant == "A" else 1.0
        assert pair == tuple(factor * x
                             for x in critical_growth(model, unit, mu))
        roots = projected_det(model, branch, critical_basis(model, branch),
                              mu).lambda_roots()
        bound = 10.0 * ((a * k * k)**3 + mu**3)
        for measured in pair:
            assert min(abs(measured - root) for root in roots) <= bound

    @pytest.mark.parametrize("mu", [0.005, -0.005])
    def test_growing_member_comes_first(self, mu):
        # the reflected pair ties under the nearest-dispersion labelling
        model = Model("B", gamma=3.0)
        branch = solve_wave(model, 0.02, 1.0, n_modes=32)
        lam_plus, lam_minus = critical_growth(model, branch, mu)
        assert lam_plus.real > 1e-5
        assert lam_minus == pytest.approx(-lam_plus.conjugate(), abs=1e-15)

    def test_pair_where_it_crosses_the_shift_level(self):
        # a shift of the pair's own sign would be a critical frequency here,
        # and the shifted matrix singular to rounding
        from mwstab.bloch import dispersion
        model = Model("B", gamma=0.5)
        branch = solve_wave(model, 0.05, 1.0, n_modes=32)
        level = abs(modulation._critical_shift(model, 0.05))
        assert level == pytest.approx(dispersion(model, 2, 0.0, 1.0) / 30.0)

        def slice_pair(mu):
            lam = spectrum_slice(assemble_pencil(model, branch, mu)) \
                .eigenvalues
            return np.sort_complex(lam[np.argsort(np.abs(lam))[:2]])

        lo, hi = 1e-3, 0.1
        assert slice_pair(lo)[1].imag < level < slice_pair(hi)[1].imag
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slice_pair(mid)[1].imag < level \
                else (lo, mid)
        pair = np.sort_complex(np.array(critical_growth(model, branch, lo)))
        assert pair[1].imag == pytest.approx(level, abs=1e-12)
        assert np.abs(pair - slice_pair(lo)).max() <= 1e-12
        # at -mu the frequencies change sign, and so does the shift
        minus = np.array(critical_growth(model, branch, -lo))
        assert np.abs(np.sort_complex(minus.conj()) - pair).max() <= 1e-12

    def test_unsettled_subspace_is_a_convergence_error(self, branch_a005,
                                                       monkeypatch):
        monkeypatch.setattr(modulation, "_MAX_SUBSPACE_STEPS", 1)
        with pytest.raises(ConvergenceError, match="critical subspace") as err:
            critical_growth(MODEL_A, branch_a005, 0.03)
        assert err.value.residual_norm > modulation._SUBSPACE_TOL

    def test_a_stall_above_the_tolerance_does_not_stop(self, branch_a005,
                                                       monkeypatch):
        # a move that stops shrinking marks the rounding floor only when it
        # is small; here the first two steps read as a stall at 1
        lam = spectrum_slice(assemble_pencil(MODEL_A, branch_a005, 0.03)) \
            .eigenvalues
        ref = np.sort_complex(lam[np.argsort(np.abs(lam))[:2]])
        step = modulation._subspace_step
        moves = []

        def stalled(*args):
            image, move = step(*args)
            moves.append(move)
            return image, 1.0 if len(moves) <= 2 else move

        monkeypatch.setattr(modulation, "_subspace_step", stalled)
        pair = np.sort_complex(np.array(
            critical_growth(MODEL_A, branch_a005, 0.03)))
        assert len(moves) > 2
        assert np.abs(pair - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("collapse", ["rank", "zero"])
    def test_a_rank_deficient_image_is_refused(self, branch_a005,
                                               monkeypatch, collapse):
        monkeypatch.setattr(modulation, "_subspace_step",
                            collapsed_step(collapse))
        with pytest.raises((ConvergenceError, ArithmeticError),
                           match="critical subspace"):
            critical_growth(MODEL_A, branch_a005, 0.03)

    def test_pair_on_the_side_of_the_shift_is_refused(self, branch_a005,
                                                      monkeypatch):
        # with the shift on the pair's side the span settles on the pair,
        # but nothing then shows that no other mode lies nearer zero
        shift = modulation._critical_shift
        monkeypatch.setattr(modulation, "_critical_shift",
                            lambda model, mu: -shift(model, mu))
        with pytest.raises(ConvergenceError, match="side of the shift"):
            critical_growth(MODEL_A, branch_a005, 0.03)

    @pytest.mark.parametrize("variant,gamma,a,mu", [
        ("A", 0.0, 0.05, 0.03), ("B", 2.0, 0.05, -0.01),
        ("B", 3.0, 0.2, 0.1), ("A", 0.0, 0.0, 0.05)])
    def test_subspace_runs_to_its_rounding_floor(self, variant, gamma, a, mu,
                                                 monkeypatch):
        # a stop at a move of 1e-6 leaves the pair off by up to 1e-11
        # relative, too little for a comparison with the slice to see
        # each iteration, on the central block and on the whole pencil
        # after a block that fails its certificate, from its own size
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, 1.0, n_modes=32)
        runs = []
        step = modulation._subspace_step

        def recorded(*args):
            q, move = step(*args)
            if not runs or runs[-1][-1].shape != q.shape:
                runs.append([])
            runs[-1].append(q)
            return q, move

        monkeypatch.setattr(modulation, "_subspace_step", recorded)
        critical_growth(model, branch, mu)
        assert runs[0][0].shape[0] == 2 * (branch.n_modes // 2) + 1
        for spans in runs:
            n = spans[0].shape[0] // 2
            start = np.zeros((2 * n + 1, 2))
            start[n + 1, 0] = start[n - 1, 1] = 1.0
            moves = [np.linalg.norm(q - p @ (p.T @ q))
                     for p, q in zip([start] + spans, spans)]
            assert moves[-1] <= 64 * np.finfo(float).eps
            # and stopped at the first step whose move did not shrink
            assert moves[-2] <= moves[-1]
            assert not any(m <= m_next <= modulation._SUBSPACE_TOL
                           for m, m_next in zip(moves[:-2], moves[1:-1]))

    @pytest.mark.parametrize("variant,gamma,a,k", [
        ("B", -1000.0, 0.02, 1.4), ("B", 1000.0, 0.005, 1.0),
        ("B", -3.0, 0.2, 1.4), ("A", 0.0, 0.0005, 30.0),
        ("A", 0.0, 0.2, 0.05)])
    @pytest.mark.parametrize("mu", [0.1, -0.1, 1e-3])
    def test_pair_at_the_edges_of_the_accepted_domain(self, variant, gamma,
                                                      a, k, mu):
        # far outside gamma in [0, 3] and k in [0.8, 1.5], where the wave
        # still converges; gamma = -1000 contracts the slowest (0.45 a step);
        # compared at k = 1, the units of the slice
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, k, n_modes=32)
        lam = spectrum_slice(assemble_pencil(model, branch, mu)).eigenvalues
        ref = np.sort_complex(lam[np.argsort(np.abs(lam))[:2]])
        pair = np.sort_complex(np.array(critical_growth(model, branch, mu))
                               / branch.units.frequency(1.0))
        assert np.abs(pair - ref).max() <= 1e-10 * max(1.0, abs(ref).max())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0),
       mu=st.one_of(st.just(0.0),
                    st.floats(-0.1, 0.1).filter(
                        lambda mu: abs(mu) >= 1e-3)))
def test_critical_pair_is_the_slice_pair_nearest_zero(variant, a, k, gamma,
                                                      mu):
    """``critical_growth`` gives the two smallest-|lambda| eigenvalues of
    the whole slice, to 1e-10 max(1, |lambda|) + min(r, r^2 / gap) with
    r = sqrt(eps max|L0|) and ``gap`` the distance to the nearest other
    eigenvalue, the bound ``test_real_reduction_matches_qz`` uses; a growing
    pair comes with its growing member first.  Compared at ``k = 1``, the
    units of the slice."""
    n = 32
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=n)
    pencil = assemble_pencil(model, branch, mu)
    full = spectrum_slice(pencil).eigenvalues
    nearest = np.argsort(np.abs(full))[:2]
    ref = full[nearest]
    gaps = np.abs(full[nearest, None] - full[None, :])
    gaps[[0, 1], nearest] = np.inf
    r = np.sqrt(np.finfo(float).eps * np.abs(pencil.L0).max())
    tol = 1e-10 * np.maximum(1.0, np.abs(ref)) \
        + np.minimum(r, r * r / gaps.min(axis=1))
    pair = np.array(critical_growth(model, branch, mu)) \
        / branch.units.frequency(1.0)
    assert (np.all(np.abs(pair - ref) <= tol)
            or np.all(np.abs(pair[::-1] - ref) <= tol))
    if mu != 0.0 and ref.real.max() > tol.max():
        assert pair[0].real > 0.0
        assert pair[0].real == pytest.approx(ref.real.max(), rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0),
       mu=st.one_of(st.just(0.0),
                    st.floats(-0.1, 0.1).filter(
                        lambda mu: abs(mu) >= 1e-3)))
def test_certified_block_pair_is_the_whole_pencils(variant, a, k, gamma, mu):
    """At N = 64, over ``test_critical_pair_is_the_slice_pair_nearest_zero``'s
    domain: where the central block's certificate holds, ``critical_growth``
    gives the whole pencil's pair to 1e-13 relative; elsewhere, and at
    ``mu = 0``, that pair to the last bit.  The certificate holds wherever
    ``a k^2 <= 0.078``, the benchmark's domain."""
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=64)
    coefficients = bloch.pencil_coefficients(model, branch)
    whole = tuple(branch.units.frequency(x)
                  for x in whole_pair(coefficients, mu))
    central = None if mu == 0.0 else modulation._block_pair(coefficients, mu,
                                                            64 // 2)
    pair = critical_growth(model, branch, mu)
    if central is None:
        assert a * k * k > 0.078 or mu == 0.0
        assert pair == whole
    else:
        scale = max(abs(x) for x in whole)
        assert max(abs(x - y) for x, y in zip(pair, whole)) <= 1e-13 * scale


class TestCentralBlock:
    @pytest.mark.parametrize("variant,gamma,a", [
        ("A", 0.0, 0.45), ("B", 50.0, 0.078), ("B", 2.0, 0.2)])
    def test_a_failed_certificate_gives_the_whole_pencils_pair(
            self, variant, gamma, a):
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, 1.0, n_modes=64)
        coefficients = bloch.pencil_coefficients(model, branch)
        for mu in (0.005, 0.03, -0.05, 0.1):
            assert modulation._block_pair(coefficients, mu, 64 // 2) is None
            whole = whole_pair(coefficients, mu)
            assert critical_growth(model, branch, mu) == whole

    @pytest.mark.parametrize("error", [
        ArithmeticError("block"), ConvergenceError("block", 1.0)])
    def test_a_failed_block_solve_gives_the_whole_pencils_pair(
            self, monkeypatch, error):
        # only the block's solve raises; the whole pencil's is left alone
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=64)
        coefficients = bloch.pencil_coefficients(model, branch)
        solve = modulation._block_pair
        blocks = []

        def failing(coefficients, mu, half):
            if half < coefficients.n_modes:
                blocks.append(mu)
                raise error
            return solve(coefficients, mu, half)

        mus = (0.005, 0.03, -0.05)
        wholes = [whole_pair(coefficients, mu) for mu in mus]
        monkeypatch.setattr(modulation, "_block_pair", failing)
        assert [critical_growth(model, branch, mu) for mu in mus] == wholes
        assert blocks == list(mus)

    def test_the_sweep_runs_on_the_block(self, monkeypatch):
        # with the whole pencil's solve refused, a sweep in the benchmark's
        # domain still completes: every pair came from the block
        solve = modulation._block_pair

        def refused(coefficients, mu, half):
            if half == coefficients.n_modes:
                raise AssertionError("whole pencil solved")
            return solve(coefficients, mu, half)

        monkeypatch.setattr(modulation, "_block_pair", refused)
        report = discriminant_sweep(Model("B", gamma=2.0), 0.05, 1.2,
                                    np.linspace(0.0, 0.05, 11))
        assert report.verdict == "unstable"


class TestVerdicts:
    def test_model_a_stable(self):
        report = discriminant_sweep(MODEL_A, 0.02, 1.0,
                                    np.linspace(0.005, 0.05, 6), n_modes=32)
        assert report.verdict == "stable"
        assert min(disc for _, disc in report.disc_samples) \
            >= 16.0 * 0.02**2 / 3.0 * 0.95
        assert report.max_growth <= 1e-6

    def test_model_b_gamma2_unstable(self):
        report = discriminant_sweep(Model("B", gamma=2.0), 0.02, 1.0,
                                    np.linspace(0.002, 0.02, 6), n_modes=32)
        assert report.verdict == "unstable"
        assert report.max_growth > 1e-6

    def test_model_b_gamma0_stable(self):
        report = discriminant_sweep(Model("B", gamma=0.0), 0.02, 1.0,
                                    np.linspace(0.005, 0.05, 6), n_modes=32)
        assert report.verdict == "stable"

    @pytest.mark.parametrize("gamma, k", [(2.0, 1.0), (5.0, 1.4)])
    def test_band_edge_is_where_the_discriminant_changes_sign(self, gamma,
                                                              k):
        model = Model("B", gamma=gamma)
        report = discriminant_sweep(model, 0.01, k, [0.05], n_modes=32)
        edge = report.band_edge
        assert edge == pytest.approx(0.01 * k**2 * np.sqrt(gamma - 1) / 2,
                                     rel=1e-3)
        branch = solve_wave(model, 0.01, k, n_modes=32)
        basis = critical_basis(model, branch)
        assert report.disc_at_zero == \
            projected_det(model, branch, basis, 0.0).disc < 0.0
        for mu in (edge * (1 - 1e-6), -edge * (1 - 1e-6)):
            assert projected_det(model, branch, basis, mu).disc < 0.0
        assert projected_det(model, branch, basis, edge * (1 + 1e-6)).disc \
            > 0.0

    @pytest.mark.parametrize("model, a", [(MODEL_A, 0.02), (MODEL_A, 0.0),
                                          (Model("B", gamma=0.5), 0.02),
                                          (Model("B", gamma=2.0), 0.0)])
    def test_no_band_edge_without_a_band(self, model, a):
        report = discriminant_sweep(model, a, 1.0, [0.05], n_modes=32)
        assert report.band_edge is None

    def test_mu_zero_alone_is_decided_by_the_discriminant(self,
                                                          monkeypatch):
        # B, gamma = 2, a = 0.01: of this grid only mu = 0 lies in the band
        # mu < a k^2 sqrt(gamma - 1) / 2 = 0.005, where the critical pair is
        # the double zero, whose measured real part is rounding noise
        measured = modulation._pair_at
        solved = []

        def recorded(coefficients, mu):
            solved.append(mu)
            return measured(coefficients, mu)

        monkeypatch.setattr(modulation, "_pair_at", recorded)
        report = discriminant_sweep(Model("B", gamma=2.0), 0.01, 1.0,
                                    np.linspace(0.0, 0.05, 5), n_modes=32)
        assert report.disc_samples[0][1] < 0.0
        assert min(disc for _, disc in report.disc_samples[1:]) > 0.0
        assert report.verdict == "unstable"
        assert repr(report.max_growth) == "0.0"
        # the double zero's pair is not solved for at all
        assert solved == list(np.linspace(0.0, 0.05, 5)[1:])

    def test_one_coefficient_build_per_branch(self, monkeypatch):
        # the operator is built once per converged wave, for its Bloch
        # pencil and projection; each Newton Jacobian and the bordered
        # tangent fold A0 onto cosines instead: one fold per entry of
        # newton_residuals (the last iterate converges without a Jacobian,
        # and the tangent takes one).  The profile's operator terms are
        # evaluated once per Jacobian and once per converged wave, whose
        # tangent and linearization share them
        builds, folds, terms, starts, branches = [], [], [], [], []
        build, solve = waves._operator_matrices, modulation.solve_wave
        fold, evaluate = waves._cosine_fold, waves._operator_terms

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        def counted_solve(*args, **kwargs):
            starts.append(len(builds))
            branches.append(solve(*args, **kwargs))
            return branches[-1]

        def per_solve():
            ends = starts[1:] + [len(builds)]
            return [end - start for start, end in zip(starts, ends)]

        # every linearization, the branch's and linearized_operator's,
        # goes through _operator_matrices
        monkeypatch.setattr(waves, "_operator_matrices",
                            counted(builds, build))
        monkeypatch.setattr(waves, "_cosine_fold", counted(folds, fold))
        monkeypatch.setattr(waves, "_operator_terms",
                            counted(terms, evaluate))
        monkeypatch.setattr(modulation, "solve_wave", counted_solve)
        discriminant_sweep(Model("B", gamma=2.0), 0.01, 1.0,
                           np.linspace(0.0, 0.05, 11), n_modes=16)
        assert len(branches) == 1
        assert per_solve() == [1]
        assert len(folds) == len(branches[0].newton_residuals)
        assert len(terms) == (len(branches[0].newton_residuals) - 1) + 1
        builds.clear(), folds.clear(), terms.clear()
        starts.clear(), branches.clear()
        threshold_bisect(1.0, 0.01, 0.0, 2.0, width=0.1, n_modes=16)
        # one wave per evaluation
        assert len(branches) > 3
        assert per_solve() == [1] * len(branches)
        assert len(folds) == sum(len(b.newton_residuals) for b in branches)
        assert len(terms) == sum((len(b.newton_residuals) - 1) + 1
                                 for b in branches)

    def test_margin_function(self):
        assert positivity_margin(0.0, 0.0) == 1e-10
        assert positivity_margin(0.1, 0.0) == pytest.approx(1e-5)


def counted_solves(monkeypatch):
    """Record the gamma of every wave ``modulation`` solves."""
    gammas, solve = [], modulation.solve_wave

    def counted(model, *args, **kwargs):
        gammas.append(model.gamma)
        return solve(model, *args, **kwargs)

    monkeypatch.setattr(modulation, "solve_wave", counted)
    return gammas


class TestThreshold:
    def test_bisection_brackets_unit_gamma(self):
        for k in (1.0, 2.0):
            gamma_star = threshold_bisect(k, 0.01, 0.0, 2.0, n_modes=24)
            assert 0.95 <= gamma_star <= 1.05

    @pytest.mark.parametrize("k", [1.0, 2.0])
    @pytest.mark.parametrize("bracket", [(0.0, 2.0), (0.3, 1.8)])
    def test_root_in_a_handful_of_solves(self, monkeypatch, k, bracket):
        gammas = counted_solves(monkeypatch)
        gamma_star = threshold_bisect(k, 0.01, *bracket, n_modes=24)
        assert abs(gamma_star - 1.0) <= 1e-8
        # bisection to the default width 1e-3 took 13 solves; a midpoint
        # fallback after two non-halving steps, not three, takes 6 at k = 2
        assert len(gammas) <= 5

    @pytest.mark.parametrize("power", [1, 9, 25])
    def test_one_sided_convergence_is_broken(self, monkeypatch, power):
        # D(gamma) = gamma^power - 1/2 on [0, 1.5]: for power 9 and 25
        # plain regula falsi creeps in from one side; Illinois steps and
        # the midpoint fallback close the bracket to the width
        gammas = []
        exact_wave = SimpleNamespace(residual_norm=0.0)

        def stub_det(model, branch, basis, mu, n_modes=None):
            gammas.append(model.gamma)
            disc = model.gamma ** power - 0.5
            return modulation.QuadraticDet(
                mu=mu, a=0.01, k=1.0, b0=0.0, b1=0.0, b2=1.0,
                d0=(disc - 1.0) / 4.0, d1=1.0, d2=1.0, disc=disc)

        # an exact wave: the root test's residual allowance is 0
        monkeypatch.setattr(modulation, "solve_wave",
                            lambda *args, **kwargs: exact_wave)
        monkeypatch.setattr(modulation, "critical_basis",
                            lambda model, branch: None)
        monkeypatch.setattr(modulation, "projected_det", stub_det)
        gamma_star = threshold_bisect(1.0, 0.01, 0.0, 1.5, width=1e-6)
        assert abs(gamma_star - 0.5 ** (1 / power)) <= 1e-6
        # bisection takes 2 + 21 evaluations here; without the Illinois
        # halving, power 9 and 25 took 32 and 40
        assert len(gammas) <= 2 + 21

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (1.0, 2.0)])
    def test_endpoint_at_the_root_is_the_root(self, monkeypatch, bracket):
        # D(1) is rounding noise of either sign (3.6e-15 here)
        gammas = counted_solves(monkeypatch)
        assert threshold_bisect(1.0, 0.01, *bracket, n_modes=24) == 1.0
        assert gammas == list(bracket)

    def test_same_sign_endpoints_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            threshold_bisect(1.0, 0.01, 0.0, 0.5, n_modes=24)
        with pytest.raises(ValueError, match="bracket"):
            threshold_bisect(1.0, 0.01, 1.5, 2.0, n_modes=24)
