"""Acceptance suite: one test per criterion, at the stated tolerances,
N = 64 modes throughout.  Each test prints a single PASS line on success
(run with ``pytest -s`` to see them inline)."""

import itertools

import numpy as np

from mwstab.waves import Model, solve_wave, SQRT3
from mwstab.bloch import (assemble_pencil, dispersion, find_collisions,
                          spectrum_slice, symmetry_check)
from mwstab.modulation import (critical_basis, projected_det,
                               discriminant_sweep, critical_growth,
                               threshold_bisect)
from mwstab.exact import (check_against_golden, det_and_discriminant, Coeff,
                          load_golden)

N_MODES = 64

_branch_cache = {}
_basis_cache = {}


def get_branch(model, a, k):
    key = (model.variant, model.gamma, a, k)
    if key not in _branch_cache:
        _branch_cache[key] = solve_wave(model, a, k, n_modes=N_MODES)
    return _branch_cache[key]


def get_basis(model, a, k):
    key = (model.variant, model.gamma, a, k)
    if key not in _basis_cache:
        _basis_cache[key] = critical_basis(model, get_branch(model, a, k))
    return _basis_cache[key]


def two_term_fit(amps, values, leading_power):
    """Least-squares coefficient of a^leading_power with one correction
    term two orders higher (isolates the leading Stokes coefficient)."""
    amps = np.asarray(amps)
    design = np.vstack([amps**leading_power, amps**(leading_power + 2)]).T
    return np.linalg.lstsq(design, np.asarray(values), rcond=None)[0][0]


def check_rel(fitted, expected, rel, scale):
    """Relative check with a graceful scale for exactly-zero targets."""
    if expected == 0.0:
        assert abs(fitted) <= rel * scale
    else:
        assert abs(fitted - expected) <= rel * abs(expected)


AMPS = (0.005, 0.01, 0.02)


def test_c01_stokes_coefficients():
    """Fitted branch coefficients match the small-amplitude expansions."""
    for k in (0.5, 1.0, 2.0):
        model = Model("A")
        branches = [get_branch(model, a, k) for a in AMPS]
        check_rel(two_term_fit(AMPS, [b.eta.cos[0] for b in branches], 2),
                  -k**2 / 2.0, 1e-3, k**2)
        check_rel(two_term_fit(AMPS, [b.eta.cos[2] for b in branches], 2),
                  k**2 / 2.0, 1e-3, k**2)
        check_rel(two_term_fit(AMPS, [b.eta.cos[3] for b in branches], 3),
                  7.0 * k**4 / 16.0, 1e-3, k**4)
        c0 = model.c0(k)
        check_rel(two_term_fit(AMPS, [b.c - c0 for b in branches], 2),
                  k**3 / (4.0 * SQRT3), 1e-3, k**3)
        for gamma in (0.0, 1.0, 2.0):
            model = Model("B", gamma=gamma)
            branches = [get_branch(model, a, k) for a in AMPS]
            check_rel(two_term_fit(AMPS, [b.eta.cos[0] for b in branches], 2),
                      -k**2 / 4.0, 1e-3, k**2)
            check_rel(two_term_fit(AMPS, [b.eta.cos[2] for b in branches], 2),
                      k**2 / 4.0, 1e-3, k**2)
            check_rel(two_term_fit(AMPS, [b.eta.cos[3] for b in branches], 3),
                      (7.0 + gamma) * k**4 / 64.0, 1e-3, k**4)
            check_rel(two_term_fit(AMPS, [b.c - model.c0(k) for b in
                                          branches], 2),
                      (1.0 - gamma) * k**2 / 8.0, 1e-3, k**2 / 8.0)
    print("ACCEPTANCE 01 PASS: Stokes coefficients recovered to 1e-3 "
          "relative for both models")


def test_c02_zero_amplitude_spectrum():
    """Hill's method reproduces the dispersion relation at a = 0."""
    worst = 0.0
    for model in (Model("A"), Model("B")):
        branch = get_branch(model, 0.0, 1.0)
        for mu in np.linspace(0.0, 0.5, 11):
            sample = spectrum_slice(assemble_pencil(model, branch, mu))
            for n in range(-(N_MODES - 2), N_MODES - 1):
                if n + mu == 0:
                    continue
                target = 1j * dispersion(model, n, mu, 1.0)
                gap = np.min(np.abs(sample.eigenvalues - target))
                worst = max(worst, gap)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 02 PASS: zero-amplitude spectra match the "
          f"dispersion relation (worst gap {worst:.2e} <= 1e-10)")


def test_c03_collision_table():
    """Collision locations and multiplicity structure."""
    records = find_collisions(n_min=-3, mu_tol=1e-12, k=1.0)
    at_origin = [r for r in records if r.mu0 == 0.0]
    assert len(at_origin) == 1
    assert (at_origin[0].n, at_origin[0].m) == (-1, 1)
    assert at_origin[0].omega == 0.0
    pair = [r for r in records if r.m == -3][0]
    assert abs(pair.mu0 - (3.0 - np.sqrt(5.0)) / 2.0) <= 1e-12
    gap = abs(dispersion(Model("A"), 0, pair.mu0, 1.0)
              - dispersion(Model("A"), -3, pair.mu0, 1.0))
    assert gap <= 1e-12
    deep = find_collisions(n_min=-10, k=1.0)
    assert all(rec.m != -2 for rec in deep)
    print("ACCEPTANCE 03 PASS: collision table (origin pair, "
          "mu0 = (3-sqrt5)/2, no n = -2 collision)")


def test_c04_coperiodic_determinant():
    """At mu = 0 the determinant is lambda^2 times a positive constant."""
    model = Model("A")
    for a in (0.02, 0.05):
        det = projected_det(model, get_branch(model, a, 1.0),
                            get_basis(model, a, 1.0), 0.0)
        assert abs(det.b0) <= 1e-8
        assert abs(det.b1) <= 1e-8
        assert abs(det.b2 - (4.0 / 3.0 + 2.0 * a**2 / 3.0)) <= 10.0 * a**3
    print("ACCEPTANCE 04 PASS: co-periodic determinant has a double zero "
          "root and the stated lambda^2 coefficient")


def test_c05_discriminant_asymptotics():
    """Numeric discriminant tracks its leading-order form within 5%."""
    model = Model("A")
    ratios = []
    for k in (0.5, 1.0, 2.0):
        for a in AMPS:
            branch = get_branch(model, a, k)
            basis = get_basis(model, a, k)
            for mu in AMPS:
                det = projected_det(model, branch, basis, mu)
                lead = 16.0 * mu**2 / (3.0 * k**2) + 16.0 * a**2 * k**2 / 3.0
                assert det.disc > 0.0
                ratios.append(det.disc / lead)
    assert min(ratios) >= 0.95 and max(ratios) <= 1.05
    print(f"ACCEPTANCE 05 PASS: discriminant / leading-order ratio in "
          f"[{min(ratios):.4f}, {max(ratios):.4f}] on the 27-point grid, "
          f"all positive")


def test_c06_model_b_threshold():
    """Verdict flip across gamma = 1 and the unstable growth rate."""
    # at a = 0.01, gamma = 2 the instability band is mu < a k^2/2 = 0.005,
    # so the sweep grid must reach below it
    grid = np.linspace(0.001, 0.05, 11)
    unstable = discriminant_sweep(Model("B", gamma=2.0), 0.01, 1.0, grid,
                                  n_modes=N_MODES)
    stable = discriminant_sweep(Model("B", gamma=0.0), 0.01, 1.0, grid,
                                n_modes=N_MODES)
    assert unstable.verdict == "unstable"
    assert stable.verdict == "stable"
    gamma_star = threshold_bisect(1.0, 0.01, 0.0, 2.0, n_modes=N_MODES)
    assert 0.95 <= gamma_star <= 1.05
    model = Model("B", gamma=3.0)
    branch = get_branch(model, 0.02, 1.0)
    det = projected_det(model, branch, get_basis(model, 0.02, 1.0), 0.005)
    lam_plus, _ = critical_growth(model, branch, 0.005)
    predicted = 0.005 * np.sqrt(-det.disc) / (2.0 * det.d2)
    assert abs(lam_plus.real - predicted) <= 0.2 * predicted
    print(f"ACCEPTANCE 06 PASS: verdicts flip across gamma* = "
          f"{gamma_star:.4f}; growth rate matches the quadratic-root "
          f"formula within 20%")


def test_c07_exact_series_golden_suite():
    """The exact engine reproduces every transcribed coefficient."""
    for variant in ("A", "B"):
        diffs = check_against_golden(det_and_discriminant(variant),
                                     load_golden(variant))
        assert diffs == [], "\n".join(diffs)
    lead_a = det_and_discriminant("A").disc_leading()
    assert lead_a.coefficient(0, 2) == Coeff.monomial(16, ek=-2) / 3
    assert lead_a.coefficient(2, 0) == Coeff.monomial(16, ek=2) / 3
    assert len(lead_a.terms) == 2
    lead_b = det_and_discriminant("B").disc_leading()
    assert lead_b.coefficient(0, 2) == Coeff.rational(4)
    assert lead_b.coefficient(2, 0) == \
        Coeff.k_power(4) - Coeff.gamma() * Coeff.k_power(4)
    assert len(lead_b.terms) == 2
    print("ACCEPTANCE 07 PASS: exact-series golden suite (zero diffs; "
          "discriminant leading terms exact for both models)")


def test_c08_oracle_cross_validation():
    """Numeric and exact determinant coefficients agree to O(a^3 + mu^3),
    as do the critical eigenvalues and the quadratic roots."""
    points = list(itertools.product((0.01, 0.03, 0.05), repeat=2))
    for variant, gamma in (("A", 0.0), ("B", 2.0)):
        exact = det_and_discriminant(variant)
        model = Model(variant, gamma=gamma)
        for a, mu in points:
            branch = get_branch(model, a, 1.0)
            basis = get_basis(model, a, 1.0)
            numeric = projected_det(model, branch, basis, mu)
            expected = exact.evalf_b(a, mu, 1.0, gamma=gamma)
            bound = 10.0 * (a**3 + mu**3)
            assert abs(numeric.b0 - expected[0]) <= bound
            assert abs(numeric.b1 - expected[1]) <= bound
            assert abs(numeric.b2 - expected[2]) <= bound
            lam_plus, lam_minus = critical_growth(model, branch, mu)
            roots = numeric.lambda_roots()
            for measured in (lam_plus, lam_minus):
                assert min(abs(measured - root) for root in roots) <= bound
    print("ACCEPTANCE 08 PASS: numeric b_j and critical eigenvalues agree "
          "with the exact oracle within 10*(a^3 + mu^3)")


def test_c09_spectral_symmetry():
    """Both symmetry maps hold to Hausdorff distance 1e-8."""
    cases = [(Model("A"), 0.05), (Model("B", gamma=3.0), 0.02)]
    worst = 0.0
    for model, a in cases:
        branch = get_branch(model, a, 1.0)
        for mu in (0.005, 0.2):
            plus = spectrum_slice(assemble_pencil(model, branch, mu))
            minus = spectrum_slice(assemble_pencil(model, branch, -mu))
            report = symmetry_check(plus, minus, tol=1e-8)
            assert report.ok
            worst = max(worst, report.hausdorff_reflection,
                        report.hausdorff_conjugation)
    assert worst <= 1e-8
    print(f"ACCEPTANCE 09 PASS: spectral symmetry maps hold "
          f"(worst Hausdorff defect {worst:.2e} <= 1e-8)")


def test_c10_stability_at_desk_scale():
    """Critical eigenvalues of the stable model stay on the axis."""
    model = Model("A")
    worst = 0.0
    for a in (0.02, 0.05):
        branch = get_branch(model, a, 1.0)
        for mu in np.linspace(0.005, 0.05, 10):
            lam_plus, lam_minus = critical_growth(model, branch, mu)
            worst = max(worst, abs(lam_plus.real), abs(lam_minus.real))
    assert worst <= 1e-6
    print(f"ACCEPTANCE 10 PASS: max |Re lambda| = {worst:.2e} <= 1e-6 "
          f"over the stable sweep")
