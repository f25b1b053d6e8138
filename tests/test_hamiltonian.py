import numpy as np
import pytest

from robustport import (CoefficientFn, MarketModel, UncertaintyRectangle,
                        WorstCaseMeasure)

from oracles import (DerivativeBundle, grid_minimax_value, hamiltonian_measure,
                     hamiltonian_point, pure_min_substituted, saddle_point)

K = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)


def const_model(b=0.0, beta=0.0, r=0.0, rho=0.5):
    return MarketModel(CoefficientFn.constant(b), CoefficientFn.constant(beta),
                       CoefficientFn.constant(r), rho)


def random_instance(rng):
    """Random (x, y, bundle, model, rectangle) with q11 < 0 and A3 satisfied."""
    mu_lo = rng.uniform(0.05, 0.25)
    s_lo = rng.uniform(0.2, 0.45)
    k = UncertaintyRectangle(mu_lo, mu_lo + rng.uniform(0.02, 0.2),
                             s_lo, s_lo + rng.uniform(0.08, 0.3))
    b_val = rng.uniform(-mu_lo, 0.3)
    m = const_model(b=b_val, beta=rng.uniform(-0.3, 0.3), r=rng.uniform(0, 0.05),
                    rho=rng.uniform(0.3, 1.0))
    d = DerivativeBundle(p1=rng.uniform(0.3, 1.5), p2=rng.uniform(-1, 1),
                         q11=-rng.uniform(0.5, 3.0), q12=rng.uniform(-3, 3),
                         q22=rng.uniform(-1, 1))
    return rng.uniform(0.5, 2.0), rng.uniform(-1, 1), d, m, k


class TestHamiltonianPoint:
    def test_hand_evaluated_five_term_sum(self):
        m = const_model(rho=0.6)
        d = DerivativeBundle(p1=1.0, p2=0.0, q11=-1.0, q12=0.5, q22=0.0)
        val = hamiltonian_point(1.0, 0.1, 0.2, 1.0, 0.0, d, m)
        assert val == pytest.approx(-0.02 + 0.06 + 0.1)

    def test_zero_position_drops_pi_terms(self):
        m = const_model(b=0.3, beta=0.2, r=0.05, rho=0.7)
        d = DerivativeBundle(p1=1.3, p2=-0.4, q11=-2.0, q12=0.5, q22=0.8)
        val = hamiltonian_point(0.0, 0.15, 0.3, 2.0, 0.5, d, m)
        assert val == pytest.approx(0.5 * 0.8 + 2.0 * 0.05 * 1.3 + 0.2 * (-0.4))

    def test_linear_in_mu(self):
        m = const_model()
        d = DerivativeBundle(p1=0.7, p2=0.1, q11=-1.0, q12=0.2, q22=0.3)
        h1 = hamiltonian_point(1.4, 0.25, 0.3, 1.0, 0.0, d, m)
        h2 = hamiltonian_point(1.4, 0.10, 0.3, 1.0, 0.0, d, m)
        assert h1 - h2 == pytest.approx(1.4 * 0.15 * 0.7)


class TestHamiltonianMeasure:
    def test_single_atom_equals_point(self):
        rng = np.random.default_rng(5)
        m = const_model(b=0.1, beta=0.2, r=0.02, rho=0.8)
        for _ in range(20):
            d = DerivativeBundle(*rng.uniform(-1, 1, 2), -rng.uniform(0.2, 2),
                                 *rng.uniform(-1, 1, 2))
            mu, sig = rng.uniform(0.1, 0.3), rng.uniform(0.2, 0.4)
            nu = WorstCaseMeasure.point(mu, sig)
            pi = rng.uniform(-2, 2)
            assert hamiltonian_measure(pi, nu, 1.0, 0.3, d, m) == pytest.approx(
                hamiltonian_point(pi, mu, sig, 1.0, 0.3, d, m), abs=1e-14)

    def test_atom_average(self):
        m = const_model(rho=0.9)
        d = DerivativeBundle(p1=1.0, p2=0.5, q11=-1.5, q12=0.7, q22=-0.2)
        nu = WorstCaseMeasure(0.2, 0.2, 0.4, 0.3)
        pi = 1.7
        avg = sum(w * hamiltonian_point(pi, mu, sig, 1.0, 0.0, d, m)
                  for (mu, sig), w in nu.atoms)
        assert hamiltonian_measure(pi, nu, 1.0, 0.0, d, m) == pytest.approx(avg, abs=1e-13)

    def test_equal_weights_use_mean_square(self):
        m = const_model(rho=0.0)
        d = DerivativeBundle(p1=0.0, p2=0.0, q11=-2.0, q12=0.0, q22=0.0)
        nu = WorstCaseMeasure(0.2, 0.2, 0.4, 0.5)
        val = hamiltonian_measure(1.0, nu, 1.0, 0.0, d, m)
        assert val == pytest.approx(0.5 * ((0.04 + 0.16) / 2) * (-2.0))


class TestSaddlePoint:
    def test_requires_concavity(self):
        d = DerivativeBundle(1.0, 0.0, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            saddle_point(1.0, 0.0, d, const_model(), K)

    def test_reference_minus_corner(self):
        d = DerivativeBundle(p1=1.0, p2=0.0, q11=-1.0, q12=0.0, q22=0.0)
        sp = saddle_point(1.0, 0.0, d, const_model(rho=0.5), K)
        assert sp.pi_star == pytest.approx(0.1 / 0.16)
        assert sp.value == pytest.approx(0.1**2 / (2 * 0.16))
        assert sp.nu_star.atoms == (((0.1, 0.4), 1.0),)

    def test_first_order_condition(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y, d, m, k = random_instance(rng)
            sp = saddle_point(x, y, d, m, k)
            mu_m, sig_m, sig2_m = sp.nu_star.moments()
            foc = (sig2_m * d.q11 * sp.pi_star + sig_m * m.rho * d.q12
                   + (float(m.b(y)) + mu_m) * d.p1)
            assert abs(foc) < 1e-10 * (1 + abs(d.q11 * sp.pi_star))

    def test_value_attained_at_saddle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y, d, m, k = random_instance(rng)
            sp = saddle_point(x, y, d, m, k)
            h = hamiltonian_measure(sp.pi_star, sp.nu_star, x, y, d, m)
            assert h == pytest.approx(sp.value, abs=1e-11, rel=1e-11)

    def test_saddle_inequalities(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            x, y, d, m, k = random_instance(rng)
            sp = saddle_point(x, y, d, m, k)
            for _ in range(50):
                pi = rng.uniform(-6, 6)
                assert hamiltonian_measure(pi, sp.nu_star, x, y, d, m) <= sp.value + 1e-9
            # upper side against corner atoms with the Bernoulli substitution
            s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
            b_val = float(m.b(y))
            const = 0.5 * d.q22 + float(m.beta(y)) * d.p2 + x * float(m.r(y)) * d.p1
            for mu in (k.mu_minus, k.mu_plus):
                for sig in (s_lo, s_hi):
                    sub = 2 * s_mid * sig - s_lo * s_hi
                    h_sub = (const + 0.5 * sp.pi_star**2 * sub * d.q11
                             + m.rho * sp.pi_star * sig * d.q12
                             + sp.pi_star * (b_val + mu) * d.p1)
                    assert sp.value <= h_sub + 1e-9

    def test_matches_fine_grid_minimax(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            x, y, d, m, k = random_instance(rng)
            sp = saddle_point(x, y, d, m, k)
            oracle = grid_minimax_value(x, y, d, m, k, n=400, refine=2)
            assert abs(sp.value - oracle) <= 1e-8 * (1 + abs(sp.value))

    def test_relaxed_equals_pure_substituted_minimum(self):
        from robustport.worst_case import minimize_ratio
        rng = np.random.default_rng(10)
        for _ in range(25):
            _, _, d, m, k = random_instance(rng)
            b_val = float(m.b(0.0))
            kappa = m.rho * d.q12 / d.p1
            relaxed = minimize_ratio(b_val, kappa, k).value
            pure = pure_min_substituted(b_val, kappa, k, n=1500)
            assert abs(relaxed - pure) <= 2e-4 * (1 + abs(relaxed))
            assert pure >= relaxed - 1e-9

    def test_p1_zero_branch(self):
        m = const_model(beta=0.3, rho=0.8)
        d = DerivativeBundle(p1=0.0, p2=0.3, q11=-2.0, q12=1.5, q22=-0.4)
        sp = saddle_point(1.0, 0.0, d, m, K)
        # worst volatility mean is the Bernoulli point sigma-*sigma+/sigma_M
        assert sp.nu_star.moments()[1] == pytest.approx(0.08 / 0.3)
        # closed-form value against a grid search over the Bernoulli means
        ys = np.linspace(0.2, 0.4, 20001)
        ratio = ys**2 / (2 * 0.3 * ys - 0.08)
        expected = (0.5 * d.q22 + 0.3 * d.p2
                    - m.rho**2 * d.q12**2 / (2 * d.q11) * float(np.min(ratio)))
        assert sp.value == pytest.approx(expected, rel=1e-7)
        mu_m, sig_m, sig2_m = sp.nu_star.moments()
        assert sp.pi_star == pytest.approx(-sig_m * m.rho * d.q12 / (sig2_m * d.q11))

    def test_value_affine_in_p2_and_q22(self):
        rng = np.random.default_rng(13)
        x, y, d, m, k = random_instance(rng)
        base = saddle_point(x, y, d, m, k).value
        bumped_p2 = DerivativeBundle(d.p1, d.p2 + 0.7, d.q11, d.q12, d.q22)
        bumped_q22 = DerivativeBundle(d.p1, d.p2, d.q11, d.q12, d.q22 + 0.4)
        assert saddle_point(x, y, bumped_p2, m, k).value - base == pytest.approx(
            float(m.beta(y)) * 0.7, abs=1e-12)
        assert saddle_point(x, y, bumped_q22, m, k).value - base == pytest.approx(
            0.2, abs=1e-12)
