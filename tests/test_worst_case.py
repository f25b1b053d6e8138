import hashlib

import numpy as np
import pytest

from robustport import UncertaintyRectangle, worst_case
from robustport.worst_case import (BranchRegion, WorstCaseMeasure, branch_fields,
                                   brute_force_min, draw_sigma, measure_moments,
                                   min_ratio_values, minimize_ratio, ratio_kernel)

from oracles import nested_ratio_values, psi, psi_critical_points

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
        mu_m, sig_m, _ = nu.moments()
        assert mu_m == pytest.approx(0.3)
        assert sig_m == pytest.approx(0.3 / -5 + 0.08 / 0.3)

    def test_minus_corner_at_kappa_zero(self):
        nu, value, branch = minimize_ratio(0.0, 0.0, K)
        assert branch.region is BranchRegion.MINUS_CORNER
        assert value == pytest.approx(0.1**2 / 0.4**2)
        assert nu.atoms == (((0.1, 0.4), 1.0),)

    def test_high_tail(self):
        nu, value, branch = minimize_ratio(0.0, 5.0, K)
        assert branch.region is BranchRegion.HIGH_TAIL
        mu_m, sig_m, _ = nu.moments()
        assert mu_m == pytest.approx(0.1)
        assert sig_m == pytest.approx(0.1 / 5 + 0.08 / 0.3)

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
            assert k.sigma_minus - 1e-12 <= nu.moments()[1] <= k.sigma_plus + 1e-12

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
                _, sig_m, sig2_m = nu.moments()
                assert sig2_m == pytest.approx(
                    2 * k.sigma_mid * sig_m - k.sigma_minus * k.sigma_plus,
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


MEASURE_KEYS = ("code", "atom_mu", "sigma_a", "sigma_b", "weight_a")


def kernel_cases():
    """Named groups of (b, kappa, k) inputs for the two halves of the
    minimizer: random draws that reach every region, each threshold with its
    float neighbours, a degenerate rectangle, 1-D and (1, n) b against 2-D
    kappa, and scalars."""
    rng = np.random.default_rng(41)
    random = []
    for _ in range(50):
        k = random_rect(rng)
        random.append((rng.uniform(-k.mu_minus, 0.5, 400), rng.uniform(-15, 15, 400), k))
    thresholds = []
    for b in np.random.default_rng(45).uniform(-0.1, 0.4, 50):
        br = minimize_ratio(b, 0.0, K).branch
        t = np.array([br.t1, br.t2, br.t3, br.t4])
        thresholds.append((b, np.concatenate([t, np.nextafter(t, np.inf),
                                              np.nextafter(t, -np.inf)]), K))
    rng = np.random.default_rng(42)
    degenerate = [(rng.uniform(-0.1, 0.5, 500), rng.uniform(-6, 6, 500),
                   UncertaintyRectangle(0.1, 0.3, 0.25, 0.25))]
    rng = np.random.default_rng(43)
    b = rng.uniform(-0.1, 0.4, 37)
    broadcast = [(b, rng.uniform(-12, 12, (23, 37)), K),
                 (b[None, :], rng.uniform(-12, 12, (23, 37)), K)]
    rng = np.random.default_rng(44)
    # a numpy scalar's `** 2` (pow) rounds these two corner values
    # differently from the array square
    pairs = [(0.2090906936536096, -2.655853075767002),
             (0.17151950263083726, 0.1131305006406027)]
    pairs += list(zip(rng.uniform(-0.1, 0.4, 300), rng.uniform(-12, 12, 300)))
    return {"random": random, "thresholds": thresholds, "degenerate": degenerate,
            "broadcast": broadcast, "scalar": [(b, kap, K) for b, kap in pairs]}


def kernel_digest(cases):
    """sha256 over every case's measure arrays and minimal ratio, group by
    group."""
    h = hashlib.sha256()
    for b, kap, k in (case for group in cases.values() for case in group):
        f = branch_fields(b, kap, k)
        for a in [f[key] for key in MEASURE_KEYS] + [ratio_kernel(b, k)(kap)]:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def moment_ratio(b, kap, k):
    """((b+mu, nu) + kappa (sigma, nu))^2 / (sigma^2, nu) from branch_fields'
    measure."""
    f = branch_fields(b, kap, k)
    wa, sa, sb = f["weight_a"], f["sigma_a"], f["sigma_b"]
    return (b + f["atom_mu"] + kap * (wa * sa + (1 - wa) * sb)) ** 2 / (
        wa * sa**2 + (1 - wa) * sb**2)


def assert_consistent(b, kap, k):
    """The kernel's value is the ratio at branch_fields' measure; a region
    mismatch between the two would be an error of order 1."""
    v = ratio_kernel(b, k)(kap)
    assert v.shape == np.broadcast(b, kap).shape
    assert same_bits(min_ratio_values(b, kap, k), v)
    err = np.abs(v - moment_ratio(b, kap, k))
    assert np.all(err <= 1e-13 * (1 + np.abs(v) + np.square(kap)))


@pytest.fixture(scope="module")
def cases():
    return kernel_cases()


class TestValueKernel:
    """ratio_kernel owns the minimal ratio, branch_fields the measure that
    attains it."""

    def test_random_draws_reach_every_region(self, cases):
        codes = set()
        for b, kap, k in cases["random"]:
            f = branch_fields(b, kap, k)
            assert tuple(f) == MEASURE_KEYS
            codes |= set(f["code"].tolist())
            assert_consistent(b, kap, k)
        assert codes == set(range(len(BranchRegion)))

    def test_region_boundaries(self, cases):
        for b, kap, k in cases["thresholds"]:
            assert_consistent(b, kap, k)

    def test_degenerate_rectangle(self, cases):
        (b, kap, k), = cases["degenerate"]
        assert k.sigma_minus == k.sigma_plus
        assert_consistent(b, kap, k)

    def test_1d_b_against_2d_kappa(self, cases):
        for b, kap, k in cases["broadcast"]:
            assert ratio_kernel(b, k)(kap).shape == (23, 37)
            assert all(a.shape == (23, 37) for a in branch_fields(b, kap, k).values())
            assert_consistent(b, kap, k)

    def test_scalar_inputs(self, cases):
        for b, kap, k in cases["scalar"]:
            assert all(a.shape == () for a in branch_fields(b, kap, k).values())
            assert_consistent(b, kap, k)

    def test_values_written_into_out(self, cases):
        # the solver passes out=: the allocating call's bits, in out, whatever
        # out held; the second call reuses the kernel's scratch row
        for group in cases.values():
            for b, kap, k in group:
                values = ratio_kernel(b, k)
                expect = values(kap)
                for _ in range(2):
                    out = np.full(expect.shape, np.nan)
                    assert values(kap, out=out) is out
                    assert same_bits(out, expect)

    def test_outputs_are_pinned(self, cases):
        # the five measure arrays and the minimal ratio of every case
        assert kernel_digest(cases) == (
            "8ca6b8652e1bb33371415d7fafd37209c5902f8d93e32aa298e881a3f5646af7")

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
        first = values(np.array([0.5, 1.5]))
        for _ in range(2):
            with pytest.raises(ValueError, match="kappa must be finite"):
                values(np.array([0.5, bad]))
            assert same_bits(values(np.array([0.5, 1.5])), first)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (319,), (4096,), (4097,), (3, 5000)])
    def test_all_finite_is_exact(self, shape):
        # every position of the first and last ddot chunk, for each kind of
        # non-finite value; finite extremes never read as non-finite (tier-1
        # turns numpy's RuntimeWarnings into errors, so none is emitted)
        rng = np.random.default_rng(len(shape) + int(np.prod(shape)))
        a = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape))
        assert worst_case.all_finite(a)
        for extreme in (np.finfo(float).max, -np.finfo(float).max, 5e-324, -0.0):
            assert worst_case.all_finite(np.full(shape, extreme))
        flat_index = sorted({*range(min(a.size, 40)), *range(max(0, a.size - 40), a.size)})
        for bad in (np.inf, -np.inf, np.nan):
            for j in flat_index:
                b = a.copy()
                b.flat[j] = bad
                assert not worst_case.all_finite(b), (bad, j)
        assert worst_case.all_finite(np.zeros(0))

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


def with_neighbours(t):
    """The thresholds t stacked with one ulp either side, where a degenerate
    rectangle's infinite ones are replaced by 0 (kappa must be finite)."""
    t = np.where(np.isfinite(t), t, 0.0)
    return np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)])


class TestAgainstNestedSelection:
    """ratio_kernel evaluates only the branches that occur; its value must be
    the nested np.where selection over all five branches, bit for bit."""

    RECTS = [K, UncertaintyRectangle(0.1, 0.3, 0.25, 0.25),  # sigma- == sigma+
             UncertaintyRectangle(0.2, 0.2, 0.2, 0.4),  # mu- == mu+
             UncertaintyRectangle(0.2, 0.2, 0.3, 0.3)]  # a point

    @staticmethod
    def assert_nested(b, kap, k):
        assert same_bits(ratio_kernel(b, k)(kap), nested_ratio_values(b, kap, k))

    def test_kernel_cases(self, cases):
        for group in cases.values():
            for b, kap, k in group:
                self.assert_nested(b, kap, k)

    def test_random_rectangles(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            k = random_rect(rng)
            self.assert_nested(rng.uniform(-k.mu_minus, 0.5, 300),
                               rng.uniform(-15, 15, 300), k)

    @pytest.mark.parametrize("k", RECTS, ids=["K", "point-sigma", "point-mu", "point"])
    def test_at_each_threshold_and_one_ulp_off(self, k):
        rng = np.random.default_rng(47)
        for b in [*rng.uniform(-k.mu_minus, 0.5, 20), 0.0, 0.4]:
            self.assert_nested(b, with_neighbours(np.array(worst_case._prepared(b, k)[3])), k)
        # every threshold of every b as a row: 1-D b against 2-D kappa
        bs = rng.uniform(-k.mu_minus, 0.5, 30)
        self.assert_nested(bs, with_neighbours(np.array(worst_case._prepared(bs, k)[3])), k)

    def test_thresholds_out_of_order_by_rounding(self):
        # sigma- is below half an ulp of sigma+, so sigma_M rounds and t1's
        # formula lands one ulp above t2; _prepared clamps t1 to t2.  The
        # nested selection on the raw thresholds puts kappa = raw t1 in the
        # low tail (-0.0); it lies in ZERO, for the value and the measure
        # alike.  Every other neighbour keeps the nested value.
        k = UncertaintyRectangle(0.0, 0.020486761968097345, 1.5721481466038875e-17,
                                 1.3102272059107631)
        b = 0.008263817764264547
        raw_t1 = (b + k.mu_plus) * k.sigma_mid / (
            k.sigma_minus * (k.sigma_mid - k.sigma_plus))
        ts = np.array(worst_case._prepared(b, k)[3])
        assert raw_t1 > ts[1] and ts[0] == ts[1]
        for kap in with_neighbours(np.array([raw_t1, *ts[1:]])):
            if kap == raw_t1:
                r = minimize_ratio(b, kap, k)
                assert r.branch.region is BranchRegion.ZERO
                assert same_bits(r.value, 0.0)
            else:
                self.assert_nested(b, kap, k)

    @pytest.mark.parametrize("k", RECTS, ids=["K", "point-sigma", "point-mu", "point"])
    def test_thresholds_tie_at_signed_zero(self, k):
        # b = -mu- makes m- = 0, so t3 = -0.0 and t4 = +0.0 (and t1 = t2 = -0.0
        # when also mu- == mu+)
        b = -k.mu_minus
        tiny = np.finfo(float).tiny
        kap = np.array([-0.0, 0.0, 5e-324, -5e-324, tiny, -tiny, 1e-300, -1e-300,
                        0.5, -0.5, 3.0, -3.0])
        for bb in (b, np.full(kap.shape, b), np.full((1, kap.size), b)):
            self.assert_nested(bb, kap, k)

    @pytest.mark.parametrize("k", RECTS, ids=["K", "point-sigma", "point-mu", "point"])
    def test_shapes(self, k):
        rng = np.random.default_rng(48)
        b = rng.uniform(-k.mu_minus, 0.4, 17)
        kap = rng.uniform(-10, 10, (9, 17))
        for bb, kk in ((float(b[0]), float(kap[0, 0])),  # Python floats
                       (np.float64(b[1]), np.float64(kap[0, 1])),  # numpy scalars
                       (np.array(b[2]), np.array(kap[0, 2])),  # 0-d arrays
                       (float(b[3]), kap[0]),  # scalar b, 1-D kappa
                       (b, kap[0]),  # 1-D
                       (b, kap),  # 1-D b against 2-D kappa
                       (b[None, :], kap)):
            v = ratio_kernel(bb, k)(kk)
            assert isinstance(v, np.ndarray) and v.shape == np.broadcast(bb, kk).shape
            self.assert_nested(bb, kk, k)

    def test_a_prepared_kernel_serves_every_kappa_shape(self):
        rng = np.random.default_rng(49)
        b = rng.uniform(-0.1, 0.4, 11)
        values = ratio_kernel(b, K)
        for kap in (rng.uniform(-10, 10, 11), rng.uniform(-10, 10, (5, 11)), 0.25):
            assert same_bits(values(kap), nested_ratio_values(b, kap, K))


class TestMinusCornerFields:
    """Where no node leaves the minus corner, branch_fields' arrays are the
    full arrays' values, dtypes and shapes, and read-only."""

    def test_equals_the_full_arrays(self):
        # kappa in (t3, t4] = (-(b + 0.1)/0.4, 7.5 (b + 0.1)] at every node
        b = np.linspace(0.0, 0.3, 7)
        kap = np.linspace(-0.2, 0.7, 5)[:, None]
        f = branch_fields(b, kap, K)
        shape = (5, 7)
        want = {"code": np.full(shape, 3, dtype=np.int8), "atom_mu": np.full(shape, 0.1),
                "sigma_a": np.full(shape, 0.4), "sigma_b": np.full(shape, 0.4),
                "weight_a": np.ones(shape)}
        assert list(f) == list(want)
        for key, full in want.items():
            got = f[key]
            assert got.dtype == full.dtype and got.shape == shape, key
            assert np.ascontiguousarray(got).tobytes() == full.tobytes(), key
            assert not got.flags.writeable, key

    def test_zero_d_kappa_serves_minimize_ratio(self):
        nu, value, branch = minimize_ratio(0.0, 0.5, K)
        assert nu == WorstCaseMeasure(0.1, 0.4, 0.4, 1.0)
        assert branch.region is BranchRegion.MINUS_CORNER
        assert value == float(ratio_kernel(0.0, K)(0.5))
        assert all(np.shape(a) == () for a in branch_fields(0.0, 0.5, K).values())


class TestOnePreparation:
    """minimize_ratio prepares b once and hands it to the measure, the value
    and the thresholds."""

    @staticmethod
    def grid():
        return [(b, kappa, k) for k in (K, UncertaintyRectangle(0.0, 0.25, 0.15, 0.5),
                                        UncertaintyRectangle(0.1, 0.3, 0.25, 0.25))
                for b in (0.0, 0.05, 0.4) for kappa in np.linspace(-8.0, 4.0, 97)]

    def test_outputs_are_pinned(self):
        # repr of every float is exact; the digest is the one the three
        # separate preparations gave
        results = [minimize_ratio(float(b), float(kappa), k) for b, kappa, k in self.grid()]
        assert {r.branch.region for r in results} == set(BranchRegion)
        text = "".join(repr((r.measure.atoms, r.value, r.branch)) for r in results)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bae7a7a143a642754ac3cc801b5ba1da85330194281b19bcd2ecf6e118d52cf6")

    def test_matches_its_public_parts(self):
        for b, kappa, k in self.grid()[::7]:
            nu, value, _ = minimize_ratio(b, kappa, k)
            f = branch_fields(b, kappa, k)
            assert nu == WorstCaseMeasure(
                float(f["atom_mu"]), float(f["sigma_a"]), float(f["sigma_b"]),
                float(f["weight_a"]))
            assert value == float(ratio_kernel(b, k)(kappa))

    def test_scalar_moments_are_the_field_moments(self):
        # one moment formula: the 0-d measure's moments are the field's, bit
        # for bit, at every node of every region
        nodes = {}
        for b, kappa, k in self.grid():
            nodes.setdefault(k, []).append((b, kappa))
        for k, bk in nodes.items():
            b, kappa = np.array(bk).T
            f = branch_fields(b, kappa, k)
            field = measure_moments(f["atom_mu"], f["sigma_a"], f["sigma_b"], f["weight_a"])
            scalar = [minimize_ratio(float(bb), float(kk), k).measure.moments() for bb, kk in bk]
            for got, want in zip(zip(*scalar), field):
                assert same_bits(got, want)

    def test_one_preparation_per_call(self, monkeypatch):
        calls = []
        prepared = worst_case._prepared

        def counted(b_vals, k):
            calls.append(b_vals)
            return prepared(b_vals, k)

        monkeypatch.setattr(worst_case, "_prepared", counted)
        for kappa in (-6.0, -1.0, -0.5, 0.5, 2.0):
            minimize_ratio(0.0, kappa, K)
        assert len(calls) == 5


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


class TestDegenerateUpToRounding:
    """Rectangles that rounding makes degenerate: the value and the measure
    put every node in one region."""

    def test_rounded_thresholds_agree_on_the_zero_region(self):
        # t1's formula lands above t2; just above t2 the node is in ZERO,
        # not in the low tail, whose formula reads -25.67 there
        k = UncertaintyRectangle(0.0, 0.3, 1e-17, 0.4)
        b = 0.07
        kap = np.nextafter(worst_case._prepared(b, k)[3][1], np.inf)
        r = minimize_ratio(b, kap, k)
        assert r.branch.region is BranchRegion.ZERO
        assert same_bits(r.value, 0.0)
        assert branch_fields(b, kap, k)["code"] == worst_case._REGION_CODE[BranchRegion.ZERO]
        assert same_bits(ratio_kernel(b, k)(kap), 0.0)

    def test_sigma_mid_rounding_onto_sigma_minus_is_degenerate(self):
        # sigma_mid rounds onto sigma-: t4 would be 0/0; the tails are empty
        # and every node with kappa > t3 = -0.0 is the minus corner
        k = UncertaintyRectangle(0.1, 0.3, 0.2, np.nextafter(0.2, 1))
        assert k.sigma_mid == k.sigma_minus
        kap = np.array([1.0, 5e-324, 0.5, 3.0, 1e6])
        r = minimize_ratio(-0.1, 1.0, k)
        assert r.branch.region is BranchRegion.MINUS_CORNER
        assert (r.branch.t1, r.branch.t4) == (-np.inf, np.inf)
        assert r.measure.atoms == (((0.1, k.sigma_plus), 1.0),)
        f = branch_fields(-0.1, kap, k)
        assert np.all(f["code"] == worst_case._REGION_CODE[BranchRegion.MINUS_CORNER])
        assert np.all(f["atom_mu"] == 0.1) and np.all(f["weight_a"] == 1.0)
        assert np.all(f["sigma_a"] == k.sigma_plus) and np.all(f["sigma_b"] == k.sigma_plus)
        assert_consistent(-0.1, kap, k)

    @pytest.mark.parametrize("k", [
        UncertaintyRectangle(0.0, 0.3, 1e-17, 0.4),
        UncertaintyRectangle(0.1, 0.3, 0.2, np.nextafter(0.2, 1)),
        UncertaintyRectangle(0.1, 0.3, np.nextafter(0.2, 0), 0.2)],
        ids=["tiny-sigma-minus", "mid-onto-minus", "mid-onto-plus"])
    def test_every_threshold_and_one_ulp_off(self, k):
        rng = np.random.default_rng(50)
        for b in [*rng.uniform(-k.mu_minus, 0.5, 20), -k.mu_minus]:
            ts = np.array(worst_case._prepared(b, k)[3])
            assert not np.isnan(ts).any() and np.all(ts[:-1] <= ts[1:])
            assert_consistent(b, with_neighbours(ts), k)


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
        nu = WorstCaseMeasure(0.2, 0.2, 0.4, 0.25)
        assert nu.atoms == (((0.2, 0.2), 0.25), ((0.2, 0.4), 0.75))
        mu_m, sig_m, sig2_m = nu.moments()
        assert mu_m == 0.2
        assert sig_m == pytest.approx(0.25 * 0.2 + 0.75 * 0.4, abs=1e-14)
        assert sig2_m == pytest.approx(0.25 * 0.04 + 0.75 * 0.16, abs=1e-14)
        # the moments of a point are its coordinates and the square of its sigma
        assert WorstCaseMeasure.point(0.1, 0.3).moments() == (0.1, 0.3, 0.3 * 0.3)

    def test_weight_validation(self):
        for w in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                WorstCaseMeasure(0.1, 0.2, 0.4, w)

    def test_bernoulli_collapse(self):
        assert WorstCaseMeasure(0.1, 0.2, 0.4, 1.0).atoms == (((0.1, 0.2), 1.0),)
        assert WorstCaseMeasure(0.1, 0.2, 0.4, 0.0).atoms == (((0.1, 0.4), 1.0),)
        assert WorstCaseMeasure(0.1, 0.3, 0.3, 0.4).atoms == (((0.1, 0.3), 1.0),)
        # a weight short of 1 or above 0 by any amount leaves both atoms
        # drawable (worst_case.draw_sigma), so the measure keeps both
        assert WorstCaseMeasure(0.1, 0.2, 0.4, 1.0 - 1e-13).atoms == (
            ((0.1, 0.2), 1.0 - 1e-13), ((0.1, 0.4), 1.0 - (1.0 - 1e-13)))
        assert WorstCaseMeasure(0.1, 0.2, 0.4, 1e-13).atoms == (
            ((0.1, 0.2), 1e-13), ((0.1, 0.4), 1.0 - 1e-13))
        assert len(WorstCaseMeasure(0.1, 0.2, 0.4, 1e-11).atoms) == 2

    @pytest.mark.parametrize("weight", [0.0, 5e-324, 1e-13, 0.5, 1.0 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("sigma_b", [0.2, 0.4])
    def test_atoms_are_the_drawable_volatilities(self, weight, sigma_b):
        # the least and the greatest uniform in [0, 1) draw every volatility
        # a path can draw: the atoms are exactly those
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        atoms = WorstCaseMeasure(0.1, 0.2, sigma_b, weight).atoms
        assert {sig for (_, sig), _ in atoms} == set(draw_sigma(0.2, sigma_b, weight, u).tolist())
