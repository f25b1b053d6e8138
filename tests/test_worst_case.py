import numpy as np
import pytest

from robustport import UncertaintyRectangle
from robustport.worst_case import (BranchRegion, WorstCaseMeasure, branch_fields,
                                   brute_force_min, min_ratio_values, minimize_ratio,
                                   ratio_kernel)

from oracles import psi, psi_critical_points

K = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)  # sigma_mid = 0.3


def random_rect(rng, s_lo_min=0.05):
    s_lo = rng.uniform(s_lo_min, 0.7)
    s_hi = s_lo + rng.uniform(0.02, 0.6)
    mu_lo = rng.uniform(0.0, 0.4)
    mu_hi = mu_lo + rng.uniform(0.0, 0.5)
    return UncertaintyRectangle(mu_lo, mu_hi, s_lo, s_hi)


class TestBranches:
    def test_thresholds_for_reference_rectangle(self):
        _, _, branch = minimize_ratio(0.0, -1.0, K)
        assert branch.t1 == pytest.approx(-4.5)
        assert branch.t2 == pytest.approx(-1.5)
        assert branch.t3 == pytest.approx(-0.25)
        assert branch.t4 == pytest.approx(0.75)

    def test_zero_branch(self):
        nu, value, branch = minimize_ratio(0.0, -1.0, K)
        assert branch.region is BranchRegion.ZERO
        assert value == 0.0
        (mu, sig), w = nu.atoms[0]
        assert w == 1.0
        assert mu + (-1.0) * sig == pytest.approx(0.0, abs=1e-14)
        assert K.contains(mu, sig)

    def test_plus_corner(self):
        nu, value, branch = minimize_ratio(0.0, -3.0, K)
        assert branch.region is BranchRegion.PLUS_CORNER
        assert value == pytest.approx(2.25)
        assert nu.atoms == (((0.3, 0.2), 1.0),)

    def test_low_tail(self):
        nu, value, branch = minimize_ratio(0.0, -5.0, K)
        assert branch.region is BranchRegion.LOW_TAIL
        assert value == pytest.approx(-5 * (0.18 - 0.4) / 0.09)
        assert nu.mean_mu == pytest.approx(0.3)
        assert nu.mean_sigma == pytest.approx(0.3 / -5 + 0.08 / 0.3)

    def test_minus_corner_at_kappa_zero(self):
        nu, value, branch = minimize_ratio(0.0, 0.0, K)
        assert branch.region is BranchRegion.MINUS_CORNER
        assert value == pytest.approx(0.1**2 / 0.4**2)
        assert nu.atoms == (((0.1, 0.4), 1.0),)

    def test_high_tail(self):
        nu, value, branch = minimize_ratio(0.0, 5.0, K)
        assert branch.region is BranchRegion.HIGH_TAIL
        assert nu.mean_mu == pytest.approx(0.1)
        assert nu.mean_sigma == pytest.approx(0.1 / 5 + 0.08 / 0.3)

    def test_threshold_kappa_assigned_left_closed(self):
        br = minimize_ratio(0.0, 0.0, K).branch
        for kappa, region in ((br.t1, BranchRegion.LOW_TAIL),
                              (br.t2, BranchRegion.PLUS_CORNER),
                              (br.t3, BranchRegion.ZERO),
                              (br.t4, BranchRegion.MINUS_CORNER)):
            assert minimize_ratio(0.0, kappa, K).branch.region is region

    def test_threshold_ordering_property(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5)
            br = minimize_ratio(b, 0.0, k).branch
            assert br.t1 <= br.t2 <= br.t3 <= br.t4


class TestAgainstBruteForce:
    def test_matches_brute_force_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            k = random_rect(rng, s_lo_min=0.1)
            b = rng.uniform(-k.mu_minus, 0.5)
            kappa = rng.uniform(-10, 10)
            closed = minimize_ratio(b, kappa, k)
            brute = brute_force_min(b, kappa, k, resolution=300)
            assert abs(closed.value - brute.value) <= 5e-3 * (1 + abs(closed.value))

    def test_closed_form_is_a_lower_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5)
            kappa = rng.uniform(-8, 8)
            closed = minimize_ratio(b, kappa, k)
            brute = brute_force_min(b, kappa, k, resolution=60)
            assert brute.value >= closed.value - 1e-9

    def test_plus_corner_reference_value(self):
        brute = brute_force_min(0.0, -3.0, K, resolution=400)
        assert brute.value == pytest.approx(2.25, abs=1e-2)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            brute_force_min(0.0, 1.0, K, resolution=5)

    @pytest.mark.parametrize("kappa, atom", [(0.0, (0.1, 0.4)), (-3.0, (0.3, 0.2))])
    def test_endpoint_alpha_is_a_single_atom(self, kappa, atom):
        n = 60
        mus = np.linspace(K.mu_minus, K.mu_plus, n)[:, None]
        alphas = np.linspace(0.0, 1.0, n)
        mean = alphas * K.sigma_minus + (1.0 - alphas) * K.sigma_plus
        mean_sq = alphas * K.sigma_minus**2 + (1.0 - alphas) * K.sigma_plus**2
        vals = (mus + kappa * mean) ** 2 / mean_sq
        # the Bernoulli family's grid optimum puts all weight on one volatility
        assert alphas[np.unravel_index(np.argmin(vals), vals.shape)[1]] in (0.0, 1.0)
        assert brute_force_min(0.0, kappa, K, resolution=n).measure.atoms == ((atom, 1.0),)


class TestInvariantsAndProperties:
    def test_continuity_across_thresholds(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5)
            br = minimize_ratio(b, 0.0, k).branch
            for t in (br.t1, br.t2, br.t3, br.t4):
                lo = minimize_ratio(b, t - 1e-9, k).value
                hi = minimize_ratio(b, t + 1e-9, k).value
                assert abs(hi - lo) <= 1e-6 * (1 + abs(lo))

    def test_value_nonnegative_and_zero_only_on_zero_branch(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5)
            kappa = rng.uniform(-12, 12)
            nu, value, branch = minimize_ratio(b, kappa, k)
            assert value >= 0.0
            if branch.region is BranchRegion.ZERO:
                assert value == 0.0

    def test_measure_feasibility(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5)
            kappa = rng.uniform(-12, 12)
            nu = minimize_ratio(b, kappa, k).measure
            for (mu, sig), w in nu.atoms:
                assert k.contains(mu, sig)
                assert w > 0
            assert k.sigma_minus - 1e-12 <= nu.mean_sigma <= k.sigma_plus + 1e-12

    def test_bernoulli_moment_identity(self):
        rng = np.random.default_rng(24)
        seen_two_atoms = 0
        for _ in range(400):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.3)
            kappa = rng.uniform(-20, 20)
            nu = minimize_ratio(b, kappa, k).measure
            if len(nu.atoms) == 2:
                seen_two_atoms += 1
                (mu1, s1), _ = nu.atoms[0]
                (mu2, s2), _ = nu.atoms[1]
                assert mu1 == mu2
                assert {s1, s2} == {k.sigma_minus, k.sigma_plus}
                assert nu.mean_sigma_sq == pytest.approx(
                    2 * k.sigma_mid * nu.mean_sigma - k.sigma_minus * k.sigma_plus,
                    abs=1e-14)
        assert seen_two_atoms > 20

    def test_scale_covariance(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.3)
            kappa = rng.uniform(-6, 6)
            c = rng.uniform(0.2, 4.0)
            ks = UncertaintyRectangle(c * k.mu_minus, c * k.mu_plus,
                                      k.sigma_minus, k.sigma_plus)
            v = minimize_ratio(b, kappa, k).value
            vs = minimize_ratio(c * b, c * kappa, ks).value
            assert vs == pytest.approx(c * c * v, rel=1e-10, abs=1e-12)

    def test_vectorized_equals_scalar(self):
        rng = np.random.default_rng(26)
        bs = rng.uniform(-0.05, 0.4, 300)
        kaps = rng.uniform(-12, 12, 300)
        vec = min_ratio_values(bs, kaps, K)
        scalar = np.array([minimize_ratio(b, kk, K).value for b, kk in zip(bs, kaps)])
        assert np.array_equal(vec, scalar)

    def test_a3_precondition_error(self):
        with pytest.raises(ValueError):
            minimize_ratio(-0.2, 1.0, K)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def value_kernels(b, kap, k):
    """The value-only kernel, called once and prepared for b."""
    return min_ratio_values(b, kap, k), ratio_kernel(b, k)(kap)


def all_same_bits(values, expect):
    return all(same_bits(v, expect) for v in values)


class TestValueKernel:
    """min_ratio_values and ratio_kernel(b, k)(kappa) are
    branch_fields(...)["value"] bit for bit."""

    def test_random_draws_reach_every_region(self):
        rng = np.random.default_rng(41)
        codes = set()
        for _ in range(50):
            k = random_rect(rng)
            b = rng.uniform(-k.mu_minus, 0.5, 400)
            kap = rng.uniform(-15, 15, 400)
            codes |= set(branch_fields(b, kap, k)["code"].tolist())
            assert all_same_bits(value_kernels(b, kap, k), branch_fields(b, kap, k)["value"])
        assert codes == set(range(len(BranchRegion)))

    def test_region_boundaries(self):
        rng = np.random.default_rng(45)
        for b in rng.uniform(-0.1, 0.4, 50):
            br = minimize_ratio(b, 0.0, K).branch
            t = np.array([br.t1, br.t2, br.t3, br.t4])
            kap = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)])
            assert all_same_bits(value_kernels(b, kap, K), branch_fields(b, kap, K)["value"])

    def test_degenerate_rectangle(self):
        k = UncertaintyRectangle(0.1, 0.3, 0.25, 0.25)
        rng = np.random.default_rng(42)
        b = rng.uniform(-0.1, 0.5, 500)
        kap = rng.uniform(-6, 6, 500)
        assert all_same_bits(value_kernels(b, kap, k), branch_fields(b, kap, k)["value"])

    def test_1d_b_against_2d_kappa(self):
        rng = np.random.default_rng(43)
        b = rng.uniform(-0.1, 0.4, 37)
        kap = rng.uniform(-12, 12, (23, 37))
        vecs = value_kernels(b, kap, K)
        assert [v.shape for v in vecs] == [(23, 37)] * 2
        assert all_same_bits(vecs, branch_fields(b, kap, K)["value"])

    def test_scalar_inputs(self):
        rng = np.random.default_rng(44)
        # a numpy scalar's `** 2` (pow) rounds these two corner values
        # differently from the array square
        pairs = [(0.2090906936536096, -2.655853075767002),
                 (0.17151950263083726, 0.1131305006406027)]
        pairs += list(zip(rng.uniform(-0.1, 0.4, 300), rng.uniform(-12, 12, 300)))
        for b, kap in pairs:
            vs = value_kernels(b, kap, K)
            assert [v.shape for v in vs] == [()] * 2
            assert all_same_bits(vs, branch_fields(b, kap, K)["value"])

    def test_a3_precondition_error(self):
        with pytest.raises(ValueError, match="b \\+ mu_minus >= 0"):
            min_ratio_values(np.array([0.0, -0.2]), 1.0, K)

    def test_a3_precondition_error_when_prepared(self):
        with pytest.raises(ValueError, match="b \\+ mu_minus >= 0"):
            ratio_kernel(np.array([0.0, -0.2]), K)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_kappa_error(self, bad):
        with pytest.raises(ValueError, match="kappa must be finite"):
            min_ratio_values(0.0, np.array([0.5, bad]), K)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_kappa_error_on_each_call(self, bad):
        values = ratio_kernel(np.array([0.0, 0.1]), K)
        for _ in range(2):
            with pytest.raises(ValueError, match="kappa must be finite"):
                values(np.array([0.5, bad]))
            assert same_bits(values(np.array([0.5, 1.5])),
                             branch_fields(np.array([0.0, 0.1]), np.array([0.5, 1.5]),
                                           K)["value"])

    @pytest.mark.parametrize("kernel", [
        lambda b: branch_fields(np.array([b, 0.0]), 0.0, K),
        lambda b: min_ratio_values(b, 0.0, K),
        lambda b: ratio_kernel(b, K),
        lambda b: minimize_ratio(b, 0.0, K),
    ], ids=["branch_fields", "min_ratio_values", "ratio_kernel", "minimize_ratio"])
    def test_nan_b_fails_the_a3_precondition(self, kernel):
        # no region mask selects a NaN node, so it must not get that far
        with pytest.raises(ValueError, match="b \\+ mu_minus >= 0"):
            kernel(np.nan)


class TestDegenerateRectangles:
    def test_point_volatility_corner_drift(self):
        k = UncertaintyRectangle(0.1, 0.3, 0.25, 0.25)
        nu, value, branch = minimize_ratio(0.0, 0.0, k)
        assert value == pytest.approx(0.1**2 / 0.25**2)
        assert nu.atoms == (((0.1, 0.25), 1.0),)
        assert branch.t1 == -np.inf and branch.t4 == np.inf

    def test_point_volatility_interior_zero(self):
        k = UncertaintyRectangle(0.1, 0.3, 0.25, 0.25)
        nu, value, branch = minimize_ratio(0.0, -0.8, k)
        assert branch.region is BranchRegion.ZERO
        assert value == 0.0
        (mu, sig), _ = nu.atoms[0]
        assert sig == 0.25 and k.contains(mu, sig)

    def test_point_volatility_matches_brute_force(self):
        k = UncertaintyRectangle(0.1, 0.3, 0.25, 0.25)
        for kappa in (-3.0, -1.0, 0.0, 2.0):
            closed = minimize_ratio(0.0, kappa, k)
            brute = brute_force_min(0.0, kappa, k, resolution=600)
            assert abs(closed.value - brute.value) <= 1e-4 * (1 + closed.value)

    def test_point_drift(self):
        k = UncertaintyRectangle(0.2, 0.2, 0.2, 0.4)
        for kappa in (-4.0, -1.0, 0.0, 1.5):
            closed = minimize_ratio(0.0, kappa, k)
            brute = brute_force_min(0.0, kappa, k, resolution=500)
            assert abs(closed.value - brute.value) <= 5e-3 * (1 + closed.value)


class TestPsi:
    def test_reference_roots(self):
        y1, y2 = psi_critical_points(0.3, -3.0, K)
        assert y1 == pytest.approx(0.1)
        assert y2 == pytest.approx(0.3 / -3 + 0.08 / 0.3)

    def test_psi_vanishes_at_y1(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = random_rect(rng)
            m_a = rng.uniform(0.0, 0.6)
            kappa = rng.uniform(0.2, 6.0) * rng.choice([-1, 1])
            y1, y2 = psi_critical_points(m_a, kappa, k)
            assert psi(y1, m_a, kappa, k) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_vanishes_at_y2(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            k = random_rect(rng, s_lo_min=0.2)
            m_a = rng.uniform(0.05, 0.6)
            kappa = rng.uniform(0.5, 6.0) * rng.choice([-1, 1])
            _, y2 = psi_critical_points(m_a, kappa, k)
            h = 1e-6
            dpsi = (psi(y2 + h, m_a, kappa, k) - psi(y2 - h, m_a, kappa, k)) / (2 * h)
            assert abs(dpsi) < 1e-6 * (1 + abs(kappa) ** 2)

    def test_zero_drift_special_case(self):
        y1, y2 = psi_critical_points(0.0, -2.0, K)
        assert y1 == 0.0
        assert y2 == pytest.approx(0.08 / 0.3)

    def test_kappa_zero_error(self):
        with pytest.raises(ValueError):
            psi_critical_points(0.3, 0.0, K)


class TestWorstCaseMeasure:
    def test_moment_cache_consistency(self):
        nu = WorstCaseMeasure.from_atoms((((0.2, 0.2), 0.25), ((0.2, 0.4), 0.75)))
        assert nu.mean_mu == pytest.approx(0.2, abs=1e-14)
        assert nu.mean_sigma == pytest.approx(0.25 * 0.2 + 0.75 * 0.4, abs=1e-14)
        assert nu.mean_sigma_sq == pytest.approx(0.25 * 0.04 + 0.75 * 0.16, abs=1e-14)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WorstCaseMeasure(atoms=(((0.1, 0.2), 0.4), ((0.1, 0.4), 0.4)),
                             mean_mu=0.1, mean_sigma=0.3, mean_sigma_sq=0.1)

    def test_bernoulli_collapse(self):
        nu = WorstCaseMeasure.bernoulli(0.1, 0.2, 0.4, 1.0)
        assert nu.atoms == (((0.1, 0.2), 1.0),)
        nu = WorstCaseMeasure.bernoulli(0.1, 0.2, 0.4, 0.0)
        assert nu.atoms == (((0.1, 0.4), 1.0),)
        nu = WorstCaseMeasure.bernoulli(0.1, 0.3, 0.3, 0.4)
        assert nu.atoms == (((0.1, 0.3), 1.0),)
