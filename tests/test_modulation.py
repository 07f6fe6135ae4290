import ast
from pathlib import Path
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
                         (modulation, "_pencil_terms"),
                         (modulation, "_pencils")):
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


#: names NumPy has only from 2.0 on; pyproject.toml declares numpy>=1.24
NUMPY_2_ONLY = {"mT", "vecdot", "matvec", "vecmat", "matrix_transpose",
                "permute_dims", "unstack", "concat", "trapezoid", "isdtype",
                "cumulative_sum", "cumulative_prod", "vector_norm",
                "matrix_norm", "to_device"}


def test_the_package_reads_no_numpy_2_only_name():
    # ndarray.mT in _subspace_step raised AttributeError on NumPy 1.26
    package = Path(modulation.__file__).parent
    used = {(path.name, node.attr) for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY}
    assert not used


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


def projection_excess(model, a, k, n=64):
    """The largest ratio, over ``j`` and the four entries, of ``|u^T A_j u|``
    projected from the operator terms (``waves._operator_projection``)
    minus that of the whole matrices, over the rounding bound ``(8N + 16)
    eps (|u|^T S_j |u|)``, where ``u`` is ``_det_polynomials``' basis and
    ``S_j`` the sum of the absolute terms ``A_j`` is formed from: ``|R| |X|
    + X^2 |C| + |E| X^2 + 1``, ``|R| + 2 |X| |C| + 2 |E| |X|`` and ``|C| +
    |E|``.  Each route sums ``2N + 1`` products twice and a few more
    terms, first-order rounding ``(4N + 5) eps`` of that magnitude; over
    60 random waves of the hypothesis domain the ratio read at most
    7.1e-3, where flipping the sign of one term of ``u^T A1 u`` read 3e10."""
    branch = solve_wave(model, a, k, n_modes=n)
    basis = critical_basis(model, branch)
    u = np.column_stack([basis.phi1.to_modes().imag,
                         basis.phi2.to_modes().real])
    projected = waves._operator_projection(branch._terms, u)
    modes = np.arange(-n, n + 1)
    whole = np.stack([u.T @ term @ u for term in waves._operator_block(
        branch._terms, modes, modes)], axis=-1)
    index = modes[:, None] - modes + 2 * n
    r, c, e = (np.zeros((2 * n + 1,) * 2) if term is None
               else np.abs(term.band()[index]) for term in branch._terms)
    x = np.abs(modes).astype(float)
    sizes = [r * x + (x * x)[:, None] * c + e * (x * x) + np.eye(2 * n + 1),
             r + 2.0 * x[:, None] * c + 2.0 * e * x, c + e]
    bound = (8 * n + 16) * np.finfo(float).eps * np.stack(
        [np.abs(u).T @ size @ np.abs(u) for size in sizes], axis=-1)
    return np.max(np.abs(projected - whole) / bound)


#: the waves of the CI step "Critical pairs outside the block's
#: certificate", (model, gamma, a, k)
FALLBACK_WAVES = [("A", 0.0, 0.45, 1.0), ("B", 50.0, 0.078, 1.0),
                  ("B", 2.0, 0.2, 1.0), ("B", 1000.0, 0.078, 1.0),
                  ("B", -1000.0, 0.02, 1.4)]


class TestProjectionFromTerms:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
           k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0))
    def test_within_rounding_of_the_whole_matrices(self, variant, a, k,
                                                   gamma):
        model = Model(variant, gamma=gamma if variant == "B" else 0.0)
        assert projection_excess(model, a, k) <= 1.0

    @pytest.mark.parametrize("variant,gamma,a,k", [
        ("A", 0.0, 0.0, 1.0), ("B", 2.0, 0.0, 1.0), *FALLBACK_WAVES])
    def test_flat_and_fallback_waves(self, variant, gamma, a, k):
        assert projection_excess(Model(variant, gamma=gamma), a, k) <= 1.0

    @pytest.mark.parametrize("n", [16, 128])
    def test_at_other_cutoffs(self, n):
        for model in (MODEL_A, Model("B", gamma=2.0)):
            assert projection_excess(model, 0.05, 1.2, n) <= 1.0


def gathered(branch, half):
    """The pencil's ``(A0, A1, A2)`` on every mode against the modes ``|n|
    <= half``, the one gather ``_critical_pairs`` gives ``_grid_pairs``."""
    n = branch.n_modes
    return waves._operator_block(branch._terms, np.arange(-n, n + 1),
                                 np.arange(-half, half + 1))


def half_of(columns):
    """The block half-width of a ``gathered`` set of columns."""
    return columns[0].shape[1] // 2


def grid_pair(branch, mu, half):
    """``_grid_pairs``' result at the one ``mu`` and its shift, on the modes
    ``|n| <= half``."""
    sigma = modulation._critical_shift(branch.model, mu)
    alpha = bloch._pencil_terms(branch.model, branch)[1]
    solved, = modulation._grid_pairs(gathered(branch, half), alpha, [mu],
                                     [sigma])
    return solved


def whole_pair(branch, mu):
    """``critical_growth``'s pair with the whole pencil solved in place of
    the wave's block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modulation, "_block_half",
                      lambda terms: branch.n_modes)
        return critical_growth(branch.model, branch, mu)


def block_pair(branch, mu, half):
    """The frequencies of the pair solved on the block of modes ``|n| <=
    half``, or ``None`` where the block failed."""
    solved = grid_pair(branch, mu, half)
    return None if isinstance(solved, Exception) else solved


def collapsed_step(collapse):
    """``_subspace_step`` fed images that have lost a dimension: both
    columns the first (``"rank"``) or all zero (``"zero"``)."""
    step = modulation._subspace_step

    def collapsed(matrix, basis):
        if collapse == "zero":
            return step(np.zeros_like(matrix), basis)
        return step(matrix, basis[..., [0, 0]])

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
            image, move, errors = step(*args)
            moves.append(move)
            return image, np.ones_like(move) if len(moves) <= 2 else move, \
                errors

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
        # each iteration, on the wave's block and on the whole pencil
        # after a block that fails its certificate, from its own size
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, 1.0, n_modes=32)
        runs = []
        step = modulation._subspace_step

        def recorded(*args):
            q, move, errors = step(*args)
            # one mu: a stack of one basis
            if not runs or runs[-1][-1].shape != q[0].shape:
                runs.append([])
            runs[-1].append(q[0].copy())
            return q, move, errors

        monkeypatch.setattr(modulation, "_subspace_step", recorded)
        critical_growth(model, branch, mu)
        assert runs[0][0].shape[0] \
            == 2 * modulation._block_half(branch._terms) + 1
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
    try:
        whole = whole_pair(branch, mu)
    except DegeneratePairError:
        # the double zero stays double (model B at gamma = 1, mu = 0): no
        # label tells the pair apart, and critical_growth refuses it too
        with pytest.raises(DegeneratePairError):
            critical_growth(model, branch, mu)
        return
    central = None if mu == 0.0 else block_pair(branch, mu, 64 // 2)
    pair = critical_growth(model, branch, mu)
    if central is None:
        assert a * k * k > 0.078 or mu == 0.0
        assert pair == whole
    else:
        scale = max(abs(x) for x in whole)
        assert max(abs(x - y) for x, y in zip(pair, whole)) <= 1e-13 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(variant=st.sampled_from("AB"), a=st.floats(0.005, 0.1),
       k=st.floats(0.8, 1.5), gamma=st.floats(0.0, 3.0),
       mu=st.floats(-0.1, 0.1).filter(lambda mu: abs(mu) >= 1e-3))
def test_the_waves_block_gives_the_whole_pencils_pair(variant, a, k, gamma,
                                                      mu):
    """At N = 64, over ``test_certified_block_pair_is_the_whole_pencils``'
    domain: where the wave's block (``_block_half``) is certified, its pair
    is the whole pencil's to 1e-13 relative; it is certified wherever
    ``a k^2 <= 0.078``."""
    model = Model(variant, gamma=gamma if variant == "B" else 0.0)
    branch = solve_wave(model, a, k, n_modes=64)
    half = modulation._block_half(branch._terms)
    solved = block_pair(branch, mu, half)
    if solved is None:
        assert a * k * k > 0.078
        return
    # the block is certified, so critical_growth's pair is the block's
    pair, whole = critical_growth(model, branch, mu), whole_pair(branch, mu)
    scale = max(abs(x) for x in whole)
    assert max(abs(x - y) for x, y in zip(pair, whole)) <= 1e-13 * scale


class TestCentralBlock:
    @pytest.mark.parametrize("model", [
        MODEL_A, Model("B", gamma=0.3), Model("B", gamma=2.0)],
        ids=["A", "B-0.3", "B-2"])
    def test_the_waves_block_does_not_grow_with_n(self, model):
        # the pair's eigenvectors decay with the wave, not with N
        for a in (0.005, 0.01, 0.02, 0.03, 0.05):
            halves = {modulation._block_half(
                solve_wave(model, a, 1.0, n_modes=n)._terms)
                for n in (64, 128, 256)}
            assert len(halves) == 1 and halves.pop() < 64 // 2, a

    @pytest.mark.parametrize("model", [
        MODEL_A, Model("B", gamma=0.3), Model("B", gamma=2.0)],
        ids=["A", "B-0.3", "B-2"])
    def test_small_waves_keep_their_central_block(self, model):
        # with np.linalg.qr in place of _subspace_step's Gram-Schmidt, 19
        # of these 60 blocks failed their certificate
        for a in (0.005, 0.01, 0.02, 0.03, 0.05):
            branch = solve_wave(model, a, 1.0, n_modes=64)
            for mu in (0.005, 0.02, 0.05, -0.03):
                assert block_pair(branch, mu, 64 // 2) is not None, \
                    (a, mu)

    @pytest.mark.parametrize("variant,gamma,a", [
        ("A", 0.0, 0.45), ("B", 50.0, 0.078), ("B", 2.0, 0.2)])
    def test_a_failed_certificate_gives_the_whole_pencils_pair(
            self, variant, gamma, a):
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, 1.0, n_modes=64)
        for mu in (0.005, 0.03, -0.05, 0.1):
            solved = grid_pair(branch, mu, 64 // 2)
            assert isinstance(solved, ArithmeticError)
            assert "not certified" in str(solved)
            whole = whole_pair(branch, mu)
            assert critical_growth(model, branch, mu) == whole

    @pytest.mark.parametrize("error", [
        ArithmeticError("block"), ConvergenceError("block", 1.0)])
    def test_a_failed_block_solve_gives_the_whole_pencils_pair(
            self, monkeypatch, error):
        # only the block's solve raises; the whole pencil's is left alone
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=64)
        solve = modulation._grid_pairs
        blocks = []

        def failing(columns, alpha, mus, shifts):
            if half_of(columns) < branch.n_modes:
                blocks.extend(mus)
                return [error] * len(mus)
            return solve(columns, alpha, mus, shifts)

        mus = (0.005, 0.03, -0.05)
        wholes = [whole_pair(branch, mu) for mu in mus]
        monkeypatch.setattr(modulation, "_grid_pairs", failing)
        assert [critical_growth(model, branch, mu) for mu in mus] == wholes
        assert blocks == list(mus)

    def test_the_sweep_runs_on_the_block(self, monkeypatch):
        # with every block larger than the wave's refused, the whole
        # pencil's included, a sweep in the benchmark's domain still
        # completes, and so do the grids of its waves in GRID_WAVES: every
        # pair came from the wave's block
        solve, measure, halves = (modulation._grid_pairs,
                                  modulation._block_half, [])

        def measured(terms):
            halves.append(measure(terms))
            return halves[-1]

        def refused(columns, alpha, mus, shifts):
            if half_of(columns) > halves[-1]:
                raise AssertionError(
                    f"block of half-width {half_of(columns)} solved")
            return solve(columns, alpha, mus, shifts)

        monkeypatch.setattr(modulation, "_block_half", measured)
        monkeypatch.setattr(modulation, "_grid_pairs", refused)
        report = discriminant_sweep(Model("B", gamma=2.0), 0.05, 1.2,
                                    np.linspace(0.0, 0.05, 11))
        assert report.verdict == "unstable"
        waves = [wave for wave in GRID_WAVES
                 if wave[2] * wave[3]**2 <= 0.078 and 0.0 <= wave[1] <= 3.0]
        assert len(waves) == 6
        for variant, gamma, a, k in waves:
            model = Model(variant, gamma=gamma)
            branch = solve_wave(model, a, k, n_modes=64)
            for grid in GRIDS.values():
                modulation._critical_pairs(
                    model, branch, [float(mu) for mu in grid if mu])


#: (model, gamma, a, k) of verdict-sweep and threshold-bisect operations of
#: the benchmark's seeds, and waves whose central block fails (gamma = 50,
#: a k^2 = 0.45) or keeps the least margin on ``_RANK_FLOOR`` (gamma =
#: 1000)
GRID_WAVES = [("A", 0.0, 0.022014, 0.93812), ("B", 0.2072, 0.042624, 1.1712),
              ("B", 2.7376, 0.03267, 1.1263), ("B", 1.6173, 0.035977, 1.0565),
              ("B", 2.8133, 0.0064939, 0.81901),
              ("B", 0.18343, 0.047087, 1.1804), ("B", 50.0, 0.078, 1.0),
              ("A", 0.0, 0.45, 1.0), ("B", 1000.0, 0.078, 1.0)]
GRIDS = {"benchmark": np.linspace(0.001, 0.05, 11),
         "with-zero": np.linspace(0.0, 0.05, 11),
         "mixed-sign": [0.03, -0.01, 0.002, -0.05, 0.1, -0.1, 0.0, -0.002]}


class TestGridSolver:
    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    @pytest.mark.parametrize("variant,gamma,a,k", GRID_WAVES)
    def test_grid_matches_one_mu_at_a_time(self, variant, gamma, a, k,
                                           grid):
        # the shift, and with it the side the pair settles on, flips with
        # the sign of each mu; mu = 0 goes to the whole pencil alone
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, k, n_modes=64)
        grid = [float(mu) for mu in grid]
        together = modulation._critical_pairs(model, branch, grid)
        assert together.shape == (len(grid), 2)
        for mu, have in zip(grid, together):
            alone, = modulation._critical_pairs(model, branch, [mu])
            scale = max(abs(x) for x in alone)
            assert max(abs(x - y) for x, y in zip(have, alone)) \
                <= 1e-12 * scale, mu

    @pytest.mark.parametrize("failure", ["zero", "unsettled"])
    def test_a_block_failing_mid_grid_takes_the_whole_pencil_there_only(
            self, monkeypatch, failure):
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=64)
        grid, mid = [0.005, 0.02, 0.03, -0.04, 0.05], 2
        half = modulation._block_half(branch._terms)
        blocks = [block_pair(branch, mu, half) for mu in grid]
        whole = grid_pair(branch, grid[mid], 64)
        step, solve, solves = (modulation._subspace_step,
                               modulation._grid_pairs, [])

        def failing(matrix, basis):
            on_block = matrix.shape[1] < 2 * 64 + 1
            if on_block and failure == "zero":
                basis = basis.copy()
                basis[mid] = 0.0
            image, move, errors = step(matrix, basis)
            if on_block and failure == "unsettled":
                move = move.copy()
                move[mid] = 1.0
            return image, move, errors

        def recorded(columns, alpha, mus, shifts):
            solves.append((half_of(columns), list(mus)))
            return solve(columns, alpha, mus, shifts)

        monkeypatch.setattr(modulation, "_subspace_step", failing)
        monkeypatch.setattr(modulation, "_grid_pairs", recorded)
        pairs = modulation._critical_pairs(model, branch, grid)
        assert solves == [(half, grid), (64, [grid[mid]])]
        assert pairs[mid].tobytes() == whole.tobytes()
        for i in [i for i in range(len(grid)) if i != mid]:
            assert pairs[i].tobytes() == blocks[i].tobytes()

    @pytest.mark.parametrize("variant,gamma,a,k", GRID_WAVES)
    def test_the_stack_gives_each_mus_pair_bit_for_bit(self, variant, gamma,
                                                       a, k):
        # the grid's stacked inverse, Ritz pencils, eigenvalues and
        # certificates against a grid of one mu at a time, on the same block
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, k, n_modes=64)
        grid = [float(mu) for mu in GRIDS["mixed-sign"] if mu]
        alpha = bloch._pencil_terms(model, branch)[1]
        for half in (modulation._block_half(branch._terms), 64):
            together = modulation._grid_pairs(
                gathered(branch, half), alpha, grid,
                modulation._critical_shift(model, grid))
            for mu, solved in zip(grid, together):
                alone = grid_pair(branch, mu, half)
                if isinstance(alone, Exception):
                    assert type(solved) is type(alone)
                    assert str(solved) == str(alone)
                else:
                    assert solved.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("variant,gamma", [("A", 0.0), ("B", 2.0)])
    def test_the_grids_blocks_are_the_pencils_to_the_bit(self, variant,
                                                         gamma):
        # one broadcast for the grid, from the block rows of the columns
        # _grid_pairs is given, entry for entry the pencil formed at each mu
        # from the square block's gather, and the whole pencil's block
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, 0.05, 1.2, n_modes=32)
        alpha = 2.0 * branch.unit_c if model.is_a else 1.0
        grid = [0.1, 1e-3, -0.1, -1e-3, 0.0]
        for half in (modulation._block_half(branch._terms), 5, 32):
            modes = np.arange(-half, half + 1)
            inner = slice(32 - half, 32 + half + 1)
            a0, a1, a2 = waves._operator_block(branch._terms, modes, modes)
            l0, s = bloch._pencils(
                [term[inner] for term in gathered(branch, half)], alpha, grid)
            for i, mu in enumerate(grid):
                pencil = a0 + mu * a1
                pencil += (mu * mu) * a2
                assert l0[i].tobytes() == pencil.tobytes()
                whole = assemble_pencil(model, branch, mu)
                assert np.array_equal(l0[i], whole.L0[inner, inner])
                assert s[i].tobytes() == (alpha * (modes + mu)).tobytes()
                assert np.array_equal(s[i], whole.s[inner])

    def test_a_singular_shifted_pencil_fails_at_its_mu_only(self):
        # with the operator's mode-0 row zero, L0 - sigma diag(s) is
        # singular at mu = 0 alone; the stacked inverse keeps the others,
        # on the whole pencil, which needs no certificate
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=32)

        broken = gathered(branch, 32)
        for term in broken:
            term[32] = 0.0
        assert not broken[0][32].any() and not broken[2][32].any()
        grid, alpha = [0.03, 0.0, -0.02], 1.0
        together = modulation._grid_pairs(
            broken, alpha, grid, modulation._critical_shift(model, grid))
        assert isinstance(together[1], ArithmeticError)
        assert str(together[1]) \
            == "critical pair solve failed at mu=0.0: Singular matrix"
        for mu, solved in zip(grid[::2], together[::2]):
            alone, = modulation._grid_pairs(
                broken, alpha, [mu], [modulation._critical_shift(model, mu)])
            assert not isinstance(solved, Exception)
            assert solved.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("solve,stacks", [
        (np.linalg.inv, [np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)]),
        (np.linalg.eigvals, [[[1.0, 2.0], [0.0, 3.0]],
                             [[np.nan, 0.0], [0.0, 1.0]],
                             [[0.0, -1.0], [1.0, 0.0]]])],
        ids=["inv", "eigvals"])
    def test_a_stack_sets_its_failing_matrix_apart(self, solve, stacks):
        # the middle matrix raises LinAlgError alone; the others keep the
        # results of one call each
        results, errors = modulation._stacked(solve, np.array(stacks))
        assert list(errors) == [1]
        assert isinstance(errors[1], np.linalg.LinAlgError)
        for i in (0, 2):
            assert np.array_equal(results[i], solve(np.array(stacks[i])))

    @pytest.mark.parametrize("turn", range(2))
    def test_the_first_failure_in_grid_order_is_raised(self, monkeypatch,
                                                       turn):
        # a solve error and a pair on the shift's side, in each order after
        # a good point, on the block and on the whole pencil alike: the
        # first failure in grid order is the one raised
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=32)
        grid = [0.01, 0.02, 0.03]
        failing, side = grid[1 + turn], grid[2 - turn]
        error = ArithmeticError("critical pair solve failed")
        solve = modulation._grid_pairs

        def broken(columns, alpha, mus, shifts):
            # the shift moved to the pair's side of zero at one mu
            shifts = [-x if mu == side else x for mu, x in zip(mus, shifts)]
            solved = solve(columns, alpha, mus, shifts)
            return [error if mu == failing else result
                    for mu, result in zip(mus, solved)]

        monkeypatch.setattr(modulation, "_grid_pairs", broken)
        with pytest.raises((ArithmeticError, ConvergenceError)) as raised:
            modulation._critical_pairs(model, branch, grid)
        if turn == 0:
            assert raised.value is error
        else:
            assert type(raised.value) is ConvergenceError
            assert f"at mu={side} settled on" in str(raised.value)
            assert "side of the shift" in str(raised.value)

    def test_a_block_on_the_shifts_side_takes_the_whole_pencils_pair(
            self, monkeypatch):
        # with the shift on the pair's side of zero, the block settles
        # there at every mu; the whole pencil, at the true shift, gives the
        # pair
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=64)
        mus = (0.005, 0.03, -0.05)
        wholes = [whole_pair(branch, mu) for mu in mus]
        solve, blocks = modulation._grid_pairs, []

        def flipped(columns, alpha, mus, shifts):
            if half_of(columns) == branch.n_modes:
                return solve(columns, alpha, mus, shifts)
            solved = solve(columns, alpha, mus, [-x for x in shifts])
            blocks.extend(solved)
            return solved

        monkeypatch.setattr(modulation, "_grid_pairs", flipped)
        assert [critical_growth(model, branch, mu) for mu in mus] == wholes
        assert len(blocks) == len(mus)
        for solved in blocks:
            assert isinstance(solved, ConvergenceError)
            assert "side of the shift" in str(solved)

    def test_only_critical_growth_refuses_a_coinciding_pair(self,
                                                            monkeypatch):
        # a pair that coincides to 1e-12 has no labels, so critical_growth
        # refuses it; the sweep reads only the real parts and takes it
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=32)
        pair = np.array([0.02, 0.02], dtype=complex)

        def coinciding(columns, alpha, mus, shifts):
            return [pair] * len(mus)

        monkeypatch.setattr(modulation, "_grid_pairs", coinciding)
        with pytest.raises(DegeneratePairError, match=r"coincide at mu=0\.02 "
                           r"\(spacing 0\.000e\+00\)"):
            critical_growth(model, branch, 0.02)
        grid = [0.01, 0.02, 0.03]
        assert np.array_equal(modulation._critical_pairs(model, branch, grid),
                              [pair] * len(grid))

    def test_the_step_power_keeps_a_hundred_times_the_rank_floor(
            self, monkeypatch):
        # the least share of the scan behind _RANK_FLOOR (B, gamma = 1000,
        # a = 0.078, N = 64, mu = -0.003, on the block): 2.8e-4 with the
        # first power, 4.4e-6 with the second, 1.2e-9 with the fourth
        model = Model("B", gamma=1000.0)
        branch = solve_wave(model, 0.078, 1.0, n_modes=64)
        step, shares = modulation._subspace_step, []

        def measured(matrix, basis):
            image = matrix @ basis
            x, y = image[..., 0], image[..., 1]
            along = np.sum(x * y, axis=1) / np.sum(x * x, axis=1)
            off = y - along[:, None] * x
            shares.extend(np.linalg.norm(off, axis=1)
                          / np.linalg.norm(y, axis=1))
            return step(matrix, basis)

        monkeypatch.setattr(modulation, "_subspace_step", measured)
        solved = grid_pair(branch, -0.003, 64 // 2)
        # the block settles, and then fails its certificate
        assert "not certified" in str(solved)
        assert len(shares) > 2
        assert min(shares) >= 100.0 * modulation._RANK_FLOOR

    @pytest.mark.parametrize("variant,gamma", [("A", 0.0), ("B", 2.0)])
    def test_the_shift_is_evaluated_once_per_grid(self, monkeypatch,
                                                  variant, gamma):
        # |Omega_2(0)| / 30 on the far side of zero from each mu's pair,
        # bit for bit the one-mu value, from one dispersion call per grid
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, 0.03, 1.0, n_modes=32)
        grid = [0.03, -0.01, 0.002, -0.05, 0.1, 0.0]
        sigma = abs(bloch.dispersion(model, 2, 0.0)) / 30.0
        want = [(-sigma if mu > 0 else sigma).hex() for mu in grid]
        assert [float(modulation._critical_shift(model, mu)).hex()
                for mu in grid] == want
        evaluate, solve, levels, used = (modulation.dispersion,
                                         modulation._grid_pairs, [], {})

        def counted(model, n, mu, *rest):
            if np.ndim(n) == 0:
                levels.append((n, mu))
            return evaluate(model, n, mu, *rest)

        def recorded(columns, alpha, mus, shifts):
            used.update(zip(mus, (float(x).hex() for x in shifts)))
            return solve(columns, alpha, mus, shifts)

        monkeypatch.setattr(modulation, "dispersion", counted)
        monkeypatch.setattr(modulation, "_grid_pairs", recorded)
        modulation._critical_pairs(model, branch, grid)
        assert levels == [(2, 0.0)]
        assert [used[mu] for mu in grid] == want

    def test_a_long_grid_is_solved_in_batches_within_the_stack_bound(
            self, monkeypatch):
        # at N = 128 the wave's 31x31 block takes 7.7 KB, so 136 fit in the
        # bound; a 200-point grid in one stack would take 1.5 MB
        model = Model("B", gamma=2.0)
        branch = solve_wave(model, 0.03, 1.0, n_modes=128)
        assert modulation._block_half(branch._terms) == 15
        grid = [float(mu) for mu in np.linspace(-0.1, 0.1, 201) if mu]
        step, solve, stacks, solves = (modulation._subspace_step,
                                       modulation._grid_pairs, [], [])

        def measured(matrix, basis):
            stacks.append(matrix.shape)
            return step(matrix, basis)

        def recorded(columns, alpha, mus, shifts):
            solves.append((half_of(columns), list(mus)))
            return solve(columns, alpha, mus, shifts)

        monkeypatch.setattr(modulation, "_subspace_step", measured)
        monkeypatch.setattr(modulation, "_grid_pairs", recorded)
        modulation._critical_pairs(model, branch, grid)
        assert {half for half, _ in solves} == {15}
        assert [mu for _, mus in solves for mu in mus] == grid
        assert [len(mus) for _, mus in solves] == [136, 64]
        assert max(8 * m * size * size for m, size, _ in stacks) \
            <= modulation._STACK_BYTES

    @pytest.mark.parametrize("variant,gamma,a", [("B", 2.0, 0.03),
                                                 ("A", 0.0, 0.45)])
    def test_batches_do_not_change_the_pairs(self, monkeypatch, variant,
                                             gamma, a):
        # one stack for the grid against one mu a batch, on the block and,
        # at a k^2 = 0.45 and mu = 0, on the whole pencil
        model = Model(variant, gamma=gamma)
        branch = solve_wave(model, a, 1.0, n_modes=64)
        grid = [float(mu) for mu in np.linspace(-0.1, 0.1, 21)]
        together = modulation._critical_pairs(model, branch, grid)
        monkeypatch.setattr(modulation, "_STACK_BYTES", 1)
        assert modulation._critical_pairs(model, branch, grid).tobytes() \
            == together.tobytes()


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
        measured = modulation._critical_pairs
        solved = []

        def recorded(model, branch, mus):
            solved.extend(mus)
            return measured(model, branch, mus)

        monkeypatch.setattr(modulation, "_critical_pairs", recorded)
        report = discriminant_sweep(Model("B", gamma=2.0), 0.01, 1.0,
                                    np.linspace(0.0, 0.05, 5), n_modes=32)
        assert report.disc_samples[0][1] < 0.0
        assert min(disc for _, disc in report.disc_samples[1:]) > 0.0
        assert report.verdict == "unstable"
        assert repr(report.max_growth) == "0.0"
        # the double zero's pair is not solved for at all
        assert solved == list(np.linspace(0.0, 0.05, 5)[1:])

    def test_one_coefficient_build_per_branch(self, monkeypatch):
        # the whole (2N+1)^2 operator is gathered only where the wave's
        # block fails its certificate: the projection comes from the
        # operator terms, the block and the certificate gather their own
        # rows.  Each Newton Jacobian and the bordered tangent fold A0 onto
        # cosines: one fold per entry of newton_residuals (the last iterate
        # converges without a Jacobian, and the tangent takes one).  The
        # profile's operator terms are evaluated with each iterate's
        # residual, once per entry of newton_residuals, and the converged
        # wave keeps its last iterate's: none after convergence
        wholes, folds, evaluations, starts, branches = [], [], [], [], []
        gather, solve = waves._operator_block, modulation.solve_wave
        fold, evaluate = waves._cosine_fold, waves._residual_and_terms

        def counted_gather(terms, rows, cols, *rest):
            size = 2 * terms[1].n_modes + 1
            if len(rows) == size and len(cols) == size:
                wholes.append(size)
            return gather(terms, rows, cols, *rest)

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        def counted_solve(*args, **kwargs):
            starts.append(len(evaluations))
            branches.append(solve(*args, **kwargs))
            starts.append(len(evaluations))
            return branches[-1]

        def per_solve():
            """Evaluations in each solve and between it and the next."""
            ends = starts[1:] + [len(evaluations)]
            return [end - start for start, end in zip(starts, ends)]

        def refused(*args):
            raise AssertionError("operator terms evaluated alone")

        # every gather, the block's, the certificate's, the whole pencil's
        # and the fold's, goes through _operator_block
        for module in (waves, bloch, modulation):
            monkeypatch.setattr(module, "_operator_block", counted_gather)
        monkeypatch.setattr(waves, "_cosine_fold", counted(folds, fold))
        monkeypatch.setattr(waves, "_residual_and_terms",
                            counted(evaluations, evaluate))
        monkeypatch.setattr(waves, "_operator_terms", refused)
        monkeypatch.setattr(bloch, "_operator_terms", refused)
        monkeypatch.setattr(modulation, "solve_wave", counted_solve)
        # at N = 32 the wave's block, h = 12, is certified at every mu (at
        # N = 16 it is capped at N // 2 = 8, and is not)
        discriminant_sweep(Model("B", gamma=2.0), 0.01, 1.0,
                           np.linspace(0.0, 0.05, 11), n_modes=32)
        assert len(branches) == 1
        assert wholes == []
        assert len(folds) == len(branches[0].newton_residuals)
        assert per_solve() == [len(branches[0].newton_residuals), 0]
        wholes.clear(), folds.clear(), evaluations.clear()
        starts.clear(), branches.clear()
        threshold_bisect(1.0, 0.01, 0.0, 2.0, width=0.1, n_modes=16)
        # one wave per evaluation
        assert len(branches) > 3
        assert wholes == []
        assert len(folds) == sum(len(b.newton_residuals) for b in branches)
        assert per_solve() == [count for b in branches
                               for count in (len(b.newton_residuals), 0)]
        wholes.clear()
        # a wave whose block fails its certificate at every mu: its pairs
        # come from the whole pencil, in two batches of at most seven
        # 129x129 stacks, from one gather
        report = discriminant_sweep(MODEL_A, 0.45, 1.0,
                                    np.linspace(0.005, 0.05, 10))
        assert report.verdict == "stable"
        assert wholes == [2 * 64 + 1]

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

        def stub_det(model, branch, basis, mu):
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

    @pytest.mark.parametrize("a", [0.0, 1e-8])
    def test_a_bracket_where_d_is_nowhere_resolved_is_refused(self, a):
        # D(0) is within its rounding floor at both ends (0 or about 1e-15
        # against a floor of about 6e-14): the search used to return the
        # lower end as the threshold
        with pytest.raises(ValueError, match="resolves no root") as raised:
            threshold_bisect(1.0, a, 5.0, 7.0, n_modes=16)
        assert "D(5.0)=" in str(raised.value)
        assert "D(7.0)=" in str(raised.value)

    def test_same_sign_endpoints_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            threshold_bisect(1.0, 0.01, 0.0, 0.5, n_modes=24)
        with pytest.raises(ValueError, match="bracket"):
            threshold_bisect(1.0, 0.01, 1.5, 2.0, n_modes=24)
