import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covshrink import (
    MPModel,
    boundary_stieltjes,
    identity_hilbert,
    mp_cdf,
    mp_density,
    mp_stieltjes,
)


class TestMPModel:
    def test_support_edges(self):
        m = MPModel(c=0.25)
        assert_allclose(m.lambda_minus, 0.25)
        assert_allclose(m.lambda_plus, 2.25)

    def test_half_concentration_edges(self):
        m = MPModel(c=0.5)
        assert_allclose(m.lambda_minus, (1 - math.sqrt(0.5)) ** 2)
        assert_allclose(m.lambda_plus, (1 + math.sqrt(0.5)) ** 2)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7, 1e-300, 5e-324])
    def test_concentration_range(self, c):
        # up to about 3.1e-33 both support edges round to 1.0, leaving no support
        with pytest.raises(ValueError):
            MPModel(c=c)

    def test_a_tiny_concentration_keeps_its_support(self):
        m = MPModel(c=1e-32)
        assert m.lambda_minus < m.lambda_plus
        assert mp_cdf(m.lambda_minus, m) == 0.0
        assert mp_cdf(m.lambda_plus, m) == 1.0


class TestMPDensity:
    def test_quarter_concentration_hand_values(self):
        m = MPModel(c=0.25)
        # at x=1: sqrt(0.75 * 1.25) / (pi/2) = sqrt(15)/(2 pi)
        assert_allclose(mp_density(1.0, m), math.sqrt(15.0) / (2 * math.pi), rtol=1e-12)
        # at x=1.25 the radical is exactly 1, leaving 1.6/pi
        assert_allclose(mp_density(1.25, m), 1.6 / math.pi, rtol=1e-12)

    def test_zero_at_edges_and_outside(self):
        m = MPModel(c=0.25)
        assert mp_density(m.lambda_minus, m) == 0.0
        assert mp_density(m.lambda_plus, m) == 0.0
        assert mp_density(0.1, m) == 0.0
        assert mp_density(5.0, m) == 0.0

    def test_vectorized(self):
        m = MPModel(c=0.25)
        out = mp_density(np.array([0.25, 1.25, 2.25]), m)
        assert_allclose(out, [0.0, 1.6 / math.pi, 0.0], rtol=1e-12)

    def test_positive_inside_support(self):
        m = MPModel(c=0.6)
        x = np.linspace(m.lambda_minus + 1e-6, m.lambda_plus - 1e-6, 101)
        assert np.all(mp_density(x, m) > 0)


class TestMPCdf:
    def test_boundary_values(self):
        for c in (1e-6, 0.25, 0.9):
            m = MPModel(c=c)
            assert mp_cdf(m.lambda_minus, m) == 0.0
            assert mp_cdf(0.0, m) == 0.0
            assert mp_cdf(m.lambda_plus, m) == 1.0
            assert mp_cdf(10.0, m) == 1.0
            edges = np.array([0.0, m.lambda_minus, m.lambda_plus, 10.0])
            assert mp_cdf(edges, m).tolist() == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.9])
    def test_total_mass(self, c):
        m = MPModel(c=c)
        x = m.lambda_plus - 1e-12
        assert abs(mp_cdf(x, m) - 1.0) < 1e-6

    def test_monotone_on_grid(self):
        m = MPModel(c=0.25)
        x = np.linspace(m.lambda_minus, m.lambda_plus, 200)
        assert np.all(np.diff(mp_cdf(x, m)) >= -1e-12)

    def test_array_matches_scalar_calls(self):
        m = MPModel(c=0.3)
        x = np.linspace(m.lambda_minus - 0.1, m.lambda_plus + 0.1, 57).reshape(3, 19)
        out = mp_cdf(x, m)
        assert out.shape == x.shape
        assert out.tolist() == [[mp_cdf(float(v), m) for v in row] for row in x]
        assert type(mp_cdf(1.0, m)) is float

    @pytest.mark.parametrize("c", [1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99])
    def test_matches_high_precision_quadrature(self, c):
        # integrate the density from the nearer edge with u = edge +- t^2,
        # which leaves t^2 sqrt(w - t^2) / (pi c u): smooth on the half of the
        # support it covers, so quad reaches 1e-13 (checked against 40-digit
        # mpmath to 1.3e-13 on this grid)
        from scipy.integrate import quad

        m = MPModel(c=c)
        lo, hi = m.lambda_minus, m.lambda_plus
        w = hi - lo

        def mass(edge, sign, x):
            def f(t):
                u = edge + sign * t * t
                return t * t * math.sqrt(max(w - t * t, 0.0)) / (math.pi * c * u)

            return quad(f, 0.0, math.sqrt(abs(x - edge)), epsabs=1e-13, epsrel=1e-13, limit=200)[0]

        x = np.linspace(lo, hi, 43)[1:-1]
        ref = [mass(lo, 1.0, xi) if xi <= 0.5 * (lo + hi) else 1.0 - mass(hi, -1.0, xi) for xi in x]
        assert np.max(np.abs(mp_cdf(x, m) - ref)) <= 1e-10

    def test_increments_match_direct_quadrature(self):
        from scipy.integrate import quad

        m = MPModel(c=0.5)
        a, b = 0.8, 1.9
        direct, _ = quad(lambda u: mp_density(u, m), a, b, epsabs=1e-10)
        assert_allclose(mp_cdf(b, m) - mp_cdf(a, m), direct, atol=1e-7)


class TestIdentityHilbert:
    def test_hand_values(self):
        m = MPModel(c=0.5)
        assert_allclose(identity_hilbert(1.0, m), -0.5)
        assert identity_hilbert(1.0 - m.c, m) == 0.0
        assert_allclose(identity_hilbert(1.0, MPModel(c=0.25)), -0.5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            identity_hilbert(0.0, MPModel(c=0.5))


class TestBoundaryStieltjes:
    def test_real_part_is_hilbert_everywhere(self):
        m = MPModel(c=0.5)
        for x in np.linspace(0.05, 3.5, 40):
            assert_allclose(boundary_stieltjes(x, m).real, identity_hilbert(x, m), rtol=1e-12)

    def test_imaginary_part_is_pi_density(self):
        m = MPModel(c=0.5)
        x = np.linspace(m.lambda_minus, m.lambda_plus, 200)
        for xi in x:
            assert abs(boundary_stieltjes(xi, m).imag - math.pi * mp_density(xi, m)) < 1e-10

    def test_imaginary_part_vanishes_off_support(self):
        m = MPModel(c=0.25)
        assert boundary_stieltjes(0.1, m).imag == 0.0
        assert boundary_stieltjes(3.0, m).imag == 0.0


class TestMPStieltjes:
    def test_equation_residual_on_grid(self):
        # the point-mass population's fixed point m = 1 / (1 - c - c z m - z)
        m = MPModel(c=0.3)
        for re in (-1.0, 0.5, 1.0, 2.5):
            for im in (0.01, 0.1, 1.0):
                z = complex(re, im)
                s = mp_stieltjes(z, m)
                assert abs(s - 1.0 / (1.0 - m.c - m.c * z * s - z)) < 1e-8

    def test_upper_half_plane_image(self):
        m = MPModel(c=0.7)
        for re in (0.2, 1.0, 3.0):
            assert mp_stieltjes(complex(re, 0.05), m).imag > 0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            mp_stieltjes(1.0 - 1j, MPModel(c=0.5))

    def test_boundary_limit(self):
        # shrinking the imaginary offset converges to the closed boundary form
        m = MPModel(c=0.5)
        xs = np.linspace(0.5, 2.4, 9)
        prev = None
        for eta in (1e-3, 1e-5, 1e-7):
            worst = max(abs(mp_stieltjes(x + 1j * eta, m) - boundary_stieltjes(x, m)) for x in xs)
            if prev is not None:
                assert worst < prev
            prev = worst
        assert prev < 1e-5

    def test_matches_large_sample_empirical(self):
        # one Wishart draw at p=300 stays within O(1/sqrt(p)) of the MP transform
        rng = np.random.default_rng(60)
        p, n = 300, 1200
        x = rng.standard_normal((n, p))
        l = np.linalg.eigvalsh(x.T @ x / n)
        m = MPModel(c=p / n)
        for z in (1.0 + 0.5j, 0.5 + 0.2j, 2.0 + 1.0j):
            assert abs(np.mean(1.0 / (l - z)) - mp_stieltjes(z, m)) < 0.05


def test_esd_tracks_mp_cdf():
    # Kolmogorov distance of one p=400 spectrum against the c=1/4 law
    rng = np.random.default_rng(2718)
    p, n = 400, 1600
    x = rng.standard_normal((n, p))
    l = np.sort(np.linalg.eigvalsh(x.T @ x / n))
    m = MPModel(c=p / n)
    f = np.array([mp_cdf(li, m) for li in l])
    i = np.arange(1, p + 1)
    ks = max(np.abs(f - i / p).max(), np.abs(f - (i - 1) / p).max())
    print(f"esd ks at p=400: {ks:.4f}")
    assert ks < 0.05
