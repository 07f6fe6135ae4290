import numpy as np
import pytest
from numpy.testing import assert_allclose

from mwstab.fourier import TrigSeries


def random_series(rng, n_modes, support=None):
    support = n_modes if support is None else support
    cos = np.zeros(n_modes + 1)
    sin = np.zeros(n_modes)
    cos[:support + 1] = rng.standard_normal(support + 1)
    sin[:support] = rng.standard_normal(support)
    return TrigSeries(cos, sin)


class TestProducts:
    def test_cos_squared(self):
        f = TrigSeries.cosine(1, 8)
        g = f * f
        assert_allclose(g.cos[:3], [0.5, 0.0, 0.5], atol=1e-15)
        assert_allclose(g.sin, 0.0, atol=1e-15)

    def test_sin_times_cos(self):
        s = TrigSeries.sine(1, 8)
        c = TrigSeries.cosine(1, 8)
        p = s * c
        assert_allclose(p.sin[1], 0.5, atol=1e-15)
        assert_allclose(p.cos, 0.0, atol=1e-15)
        assert abs(p.sin[0]) < 1e-15

    def test_top_harmonic_truncates(self):
        n = 6
        f = TrigSeries.cosine(n, n)
        g = f * f
        # cos(2Nz) part is dropped, the constant 1/2 survives
        assert_allclose(g.cos[0], 0.5, atol=1e-15)
        assert_allclose(g.cos[1:], 0.0, atol=1e-15)

    def test_matches_pointwise_product_when_untruncated(self):
        rng = np.random.default_rng(7)
        n = 16
        f = random_series(rng, n, support=5)
        g = random_series(rng, n, support=5)
        z = np.linspace(0, 2 * np.pi, 4 * n + 1, endpoint=False)
        assert_allclose((f * g).eval(z), f.eval(z) * g.eval(z),
                        atol=1e-12, rtol=0)

    def test_cutoff_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            TrigSeries.cosine(1, 4) * TrigSeries.cosine(1, 5)
        with pytest.raises(ValueError, match="mismatch"):
            TrigSeries.cosine(1, 4).inner(TrigSeries.cosine(1, 5))


class TestDerivative:
    def test_basic_rules(self):
        n = 8
        assert_allclose(TrigSeries.cosine(1, n).deriv().sin[0], -1.0)
        d2 = TrigSeries.cosine(2, n).deriv(2)
        assert_allclose(d2.cos[2], -4.0)
        assert TrigSeries.constant(3.0, n).deriv().sup_norm() == 0.0

    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(0)
        f = random_series(rng, 8)
        g = f.deriv(0)
        assert_allclose(g.cos, f.cos)
        assert_allclose(g.sin, f.sin)

    def test_parity_flips(self):
        even = TrigSeries.cosine(3, 8)
        assert even.is_even() and even.deriv().is_odd()
        odd = TrigSeries.sine(2, 8)
        assert odd.is_odd() and odd.deriv().is_even()

    def test_commutes_with_mode_multiplication(self):
        rng = np.random.default_rng(3)
        f = random_series(rng, 12)
        direct = f.deriv().to_modes()
        n = np.arange(-12, 13)
        via_modes = f.to_modes() * (1j * n)
        assert np.max(np.abs(direct - via_modes)) < 1e-13


class TestInnerAndEval:
    def test_orthogonality(self):
        n = 8
        c = TrigSeries.cosine(1, n)
        s = TrigSeries.sine(1, n)
        assert c.inner(c) == pytest.approx(0.5, abs=1e-15)
        assert c.inner(s) == 0.0

    def test_parseval_against_quadrature(self):
        rng = np.random.default_rng(11)
        f = random_series(rng, 10)
        z = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        quad = np.mean(f.eval(z) ** 2)
        assert abs(f.inner(f) - quad) < 1e-12

    def test_eval_points(self):
        n = 8
        assert TrigSeries.cosine(1, n).eval(0.0) == pytest.approx(1.0)
        assert TrigSeries.sine(2, n).eval(np.pi / 4) == pytest.approx(1.0)

    def test_periodicity(self):
        rng = np.random.default_rng(5)
        f = random_series(rng, 9)
        z = rng.uniform(-10, 10, size=20)
        assert_allclose(f.eval(z + 2 * np.pi), f.eval(z), atol=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n", [1, 3, 64, 257])
    @pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
    def test_sup_norm_is_the_max_on_its_grid(self, n, parity):
        # The reference is eval's direct sum on the same 8N+9 points, in
        # long double: in double, eval's rounding of j*z alone moves the
        # maximum by up to 2e-14 relative at N = 257 (7e-15 at N = 64).
        rng = np.random.default_rng(n)
        z = np.linspace(0, 2 * np.pi, 8 * n + 9, endpoint=False)
        jz = np.multiply.outer(z.astype(np.longdouble), np.arange(1, n + 1))
        cos_jz, sin_jz = np.cos(jz), np.sin(jz)
        for _ in range(10):
            f = random_series(rng, n)
            f = TrigSeries(f.cos * (parity != "odd"),
                           f.sin * (parity != "even"))
            direct = np.max(np.abs(f.cos[0] + cos_jz @ f.cos[1:]
                                   + sin_jz @ f.sin))
            assert abs(f.sup_norm() - direct) <= 1e-14 * direct


class TestComplexConversion:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        f = random_series(rng, 14)
        g = TrigSeries.from_modes(f.to_modes())
        assert np.max(np.abs(g.cos - f.cos)) < 1e-14
        assert np.max(np.abs(g.sin - f.sin)) < 1e-14

    def test_real_series_is_conjugate_symmetric(self):
        rng = np.random.default_rng(4)
        modes = random_series(rng, 7).to_modes()
        assert np.max(np.abs(modes - np.conj(modes[::-1]))) <= 1e-14

    def test_vector_helpers(self):
        # cos 2z = (exp(2iz) + exp(-2iz)) / 2 in the exponential basis
        modes = TrigSeries.cosine(2, 5).to_modes()
        assert modes[5 + 2] == pytest.approx(0.5)
        assert modes[5 - 2] == pytest.approx(0.5)
        assert np.vdot(modes, modes) == pytest.approx(0.5)
        back = TrigSeries.from_modes(modes)
        assert_allclose(back.cos[2], 1.0)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_band_gather_is_the_truncated_product(self, parity):
        # the (p, q) entry at p - q + 2N, as the linearized operator reads it
        rng = np.random.default_rng(6)
        f, g = random_series(rng, 9), random_series(rng, 9)
        f = TrigSeries(f.cos) if parity == "even" \
            else TrigSeries(np.zeros(10), f.sin)
        unit = 1.0 if parity == "even" else 1j
        idx = np.arange(19)
        matrix = f.band()[idx[:, None] - idx + 18]
        product = unit * (matrix @ g.to_modes())
        assert np.max(np.abs(product - (f * g).to_modes())) <= 1e-14

    def test_band_needs_one_parity(self):
        with pytest.raises(ValueError, match="both"):
            (TrigSeries.cosine(1, 4) + TrigSeries.sine(2, 4)).band()


class TestValueSemantics:
    def test_arrays_are_read_only(self):
        f = TrigSeries.cosine(1, 4)
        with pytest.raises(ValueError):
            f.cos[0] = 1.0
        with pytest.raises(ValueError):
            f.sin[0] = 1.0

    def test_constructor_copies(self):
        cos = np.zeros(5)
        f = TrigSeries(cos)
        cos[0] = 99.0
        assert f.cos[0] == 0.0

    def test_resized(self):
        f = TrigSeries.cosine(3, 4)
        g = f.resized(8)
        assert g.n_modes == 8 and g.cos[3] == 1.0
        h = g.resized(2)
        assert h.sup_norm() == 0.0
