import dataclasses
import tracemalloc

import numpy as np
import pytest

from robustport import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                        UncertaintyRectangle, build_policy, solve_hjbi, value_function)
from robustport.strategy import _one_valued
from robustport.worst_case import BranchRegion, _REGION_CODE, branch_fields, measure_moments

from oracles import DerivativeBundle, saddle_point

K = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)


@pytest.fixture(scope="module")
def flat_surface(smoke_model, smoke_util):
    g = GridSpec(1.0, 401, 101, 3.0, 0.5)
    return solve_hjbi(smoke_model, K, smoke_util, g)


@pytest.fixture(scope="module")
def flat_policy(flat_surface, smoke_model, smoke_util):
    return build_policy(flat_surface, smoke_model, K, smoke_util)


@pytest.fixture(scope="module")
def ramp_surface(ramp_model, smoke_util):
    g = GridSpec(1.0, 501, 81, 4.0, 0.5)
    return solve_hjbi(ramp_model, K, smoke_util, g)


class TestFlatDriftPolicy:
    def test_worst_corner_everywhere(self, flat_policy):
        assert np.all(flat_policy.mu_mean == 0.1)
        assert np.all(flat_policy.sigma_mean == 0.4)
        assert flat_policy.branch_code[0, 50] == _REGION_CODE[BranchRegion.MINUS_CORNER]
        assert (flat_policy.atom_mu[0, 50], flat_policy.sigma_a[0, 50],
                flat_policy.weight_a[0, 50]) == (0.1, 0.4, 1.0)

    def test_merton_fraction(self, flat_policy):
        expect = 0.1 / ((1 - 0.5) * 0.4**2)
        assert np.max(np.abs(flat_policy.pi_frac - expect)) < 1e-8
        assert flat_policy.fraction_at(0.37, np.array([0.21]))[0] == pytest.approx(expect)

    def test_monotone_exposure_in_mu_minus(self, smoke_model, smoke_util):
        g = GridSpec(1.0, 201, 51, 3.0, 0.5)
        fracs = []
        for mu_lo in (0.05, 0.1, 0.2):
            k = UncertaintyRectangle(mu_lo, 0.3, 0.2, 0.4)
            s = solve_hjbi(smoke_model, k, smoke_util, g)
            pf = build_policy(s, smoke_model, k, smoke_util)
            fracs.append(pf.fraction_at(0.0, np.array([0.0]))[0])
        assert fracs[0] <= fracs[1] <= fracs[2]


class TestDegenerateVolatility:
    def test_fixed_sigma_formula(self, smoke_model, smoke_util):
        k = UncertaintyRectangle(0.1, 0.3, 0.3, 0.3)
        g = GridSpec(1.0, 201, 51, 3.0, 0.5)
        s = solve_hjbi(smoke_model, k, smoke_util, g)
        pf = build_policy(s, smoke_model, k, smoke_util)
        assert np.all(pf.sigma_mean == 0.3)
        expect = (0.0 + pf.mu_mean + 0.5 * 0.3 * s.u_y) / ((1 - 0.5) * 0.09)
        assert np.max(np.abs(pf.pi_frac - expect)) < 1e-12


class TestSaddleConsistency:
    def test_policy_matches_pointwise_saddle(self, ramp_surface, ramp_model, smoke_util):
        s = ramp_surface
        pf = build_policy(s, ramp_model, K, smoke_util)
        rng = np.random.default_rng(17)
        q = smoke_util.q
        dy = s.grid.dy
        for _ in range(100):
            i = int(rng.integers(0, s.grid.n_t - 1))
            j = int(rng.integers(1, s.grid.n_y - 1))
            x = float(rng.uniform(0.3, 3.0))
            u = s.u[i, j]
            uy = s.u_y[i, j]
            uyy = (s.u[i, j + 1] - 2 * s.u[i, j] + s.u[i, j - 1]) / dy**2
            e_u = np.exp(u)
            d = DerivativeBundle(
                p1=x ** (q - 1) * e_u,
                p2=x**q / q * e_u * uy,
                q11=(q - 1) * x ** (q - 2) * e_u,
                q12=x ** (q - 1) * e_u * uy,
                q22=x**q / q * e_u * (uyy + uy * uy),
            )
            sp = saddle_point(x, float(s.y[j]), d, ramp_model, K)
            assert sp.pi_star == pytest.approx(x * pf.pi_frac[i, j], rel=1e-9, abs=1e-12)
            # one moment formula for the field and the pointwise measure
            got = (pf.mu_mean[i, j], pf.sigma_mean[i, j], pf.sigma_sq_mean[i, j])
            assert got == sp.nu_star.moments()

    def test_sign_sanity_where_drift_and_hedge_align(self, ramp_surface, ramp_model,
                                                     smoke_util):
        s = ramp_surface
        pf = build_policy(s, ramp_model, K, smoke_util)
        b_vec = np.asarray(ramp_model.b(s.y))[None, :]
        aligned = ((b_vec + pf.mu_mean >= 0)
                   & (s.u_y * ramp_model.rho * pf.sigma_mean >= 0))
        assert np.all(pf.pi_frac[aligned] >= 0)

    def test_fraction_continuous_in_y(self, ramp_model, smoke_util):
        jumps = []
        for n_t, n_y in ((501, 81), (1001, 161)):
            g = GridSpec(1.0, n_t, n_y, 4.0, 0.5)
            s = solve_hjbi(ramp_model, K, smoke_util, g)
            pf = build_policy(s, ramp_model, K, smoke_util)
            jumps.append(np.max(np.abs(np.diff(pf.pi_frac, axis=1))))
        assert jumps[1] < jumps[0]
        assert jumps[0] < 0.5


ATOMS = ("atom_mu", "sigma_a", "sigma_b", "weight_a")
SURFACES = dict(zip(ATOMS, ATOMS), branch_code="code")


def full_fields(s, m, k):
    """branch_fields' full arrays on the surface, as build_policy forms them."""
    return branch_fields(np.asarray(m.b(s.y))[None, :], m.rho * s.u_y, k)


@pytest.fixture(scope="module")
def tail_market():
    """mu- = 0 lets the tail branch win: two-atom measures on ~40% of nodes."""
    zero = CoefficientFn.constant(0.0)
    m = MarketModel(CoefficientFn.ramp(0.0, 0.4, 1.0), zero, zero, 0.9)
    k = UncertaintyRectangle(0.0, 0.3, 0.2, 0.4)
    s = solve_hjbi(m, k, PowerUtility(0.5), GridSpec(1.0, 201, 61, 3.0))
    return s, m, k, build_policy(s, m, k, PowerUtility(0.5))


class TestOneValueStorage:
    @pytest.mark.parametrize("market", ["flat", "ramp"])
    def test_corner_field_is_one_value(self, market, flat_surface, ramp_surface,
                                       smoke_model, ramp_model, smoke_util):
        # nu* is the (mu-, sigma+) corner at every node: the five surfaces
        # are broadcasts of one value with the bits of the full arrays
        s, m = (flat_surface, smoke_model) if market == "flat" else (ramp_surface, ramp_model)
        pf = build_policy(s, m, K, smoke_util)
        fields = full_fields(s, m, K)
        for name, key in SURFACES.items():
            got = getattr(pf, name)
            assert got.strides == (0, 0) and not got.flags.writeable, name
            assert got.dtype == fields[key].dtype, name
            assert np.ascontiguousarray(got).tobytes() == fields[key].tobytes(), name
        full = measure_moments(*(fields[name] for name in ATOMS))
        for n, name in ((1, "sigma_mean"), (2, "sigma_sq_mean")):
            got = getattr(pf, name)
            assert got.strides == (0, 0), name
            assert np.ascontiguousarray(got).tobytes() == full[n].tobytes(), name
        b_vec = np.asarray(m.b(s.y))[None, :]
        pi_frac = ((b_vec + full[0]) + m.rho * full[1] * s.u_y) / ((1 - smoke_util.q) * full[2])
        assert pf.pi_frac.tobytes() == pi_frac.tobytes()

    def test_tail_field_stays_full(self, tail_market):
        s, m, k, pf = tail_market
        fields = full_fields(s, m, k)
        for name, key in SURFACES.items():
            got = getattr(pf, name)
            assert got.flags.c_contiguous, name
            assert got.tobytes() == fields[key].tobytes(), name

    def test_bits_not_values_decide(self):
        # -0.0 == 0.0, but a surface that mixes them keeps both
        mixed = np.array([[0.0, -0.0], [0.0, 0.0]])
        assert _one_valued(mixed) is mixed
        one = _one_valued(np.full((2, 3), -0.0))
        assert one.strides == (0, 0) and one.shape == (2, 3)
        assert np.signbit(one).all()
        codes = _one_valued(np.full((3, 2), 4, dtype=np.int8))
        assert codes.dtype == np.int8 and codes.strides == (0, 0)

    def test_lookups_return_the_one_value(self, ramp_surface, ramp_model, smoke_util):
        # the same bits as the nearest-node gathers of a full-array field
        pf = build_policy(ramp_surface, ramp_model, K, smoke_util)
        full = dataclasses.replace(pf, **{name: np.array(getattr(pf, name))
                                          for name in SURFACES})
        y = np.linspace(-5.0, 5.0, 37)
        for t in (0.0, 0.4999, 1.0):
            for got, want in (*zip(pf.moments_at(t, y), full.moments_at(t, y)),
                              *zip(pf.atoms_at(t, y), full.atoms_at(t, y))):
                assert np.ndim(got) == 0
                assert np.full(y.shape, got).tobytes() == want.tobytes()


@pytest.mark.memory
class TestPolicyMemory:
    def test_field_stores_no_moment_surface(self, ramp_model, smoke_util):
        # ramp's measure is one corner of K at every node: the field keeps
        # pi_frac and five one-value broadcasts (about 1.0x u.nbytes).  Four
        # full atom surfaces and the int8 codes would make it 5.1x, and two
        # stored moment surfaces on top 7.1x.  Traced, not summed from
        # .nbytes: a broadcast reports the size of the full array
        g = GridSpec(1.0, 2001, 321, 4.0)
        s = solve_hjbi(ramp_model, K, smoke_util, g)
        tracemalloc.start()
        try:
            pf = build_policy(s, ramp_model, K, smoke_util)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pf.pi_frac.shape == s.u.shape
        assert live <= 1.5 * s.u.nbytes, live / s.u.nbytes


class TestValueFunction:
    def test_terminal_value(self, flat_surface):
        assert value_function(flat_surface, 1.0, 2.0, 0.3, 0.5) == pytest.approx(
            2.0**0.5 / 0.5)

    def test_flat_drift_reference(self, flat_surface):
        got = value_function(flat_surface, 0.0, 1.0, 0.0, 0.5)
        assert got == pytest.approx(2.0 * np.exp(0.03125), rel=1e-9)

    def test_homogeneity_in_wealth(self, flat_surface):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t, x, y, c = rng.uniform(0, 1), rng.uniform(0.2, 3), rng.uniform(-2, 2), rng.uniform(0.5, 4)
            v1 = value_function(flat_surface, t, c * x, y, 0.5)
            v2 = value_function(flat_surface, t, x, y, 0.5)
            assert v1 == pytest.approx(c**0.5 * v2, rel=1e-12)

    def test_positive_wealth_required(self, flat_surface):
        with pytest.raises(ValueError):
            value_function(flat_surface, 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            value_function(flat_surface, 0.0, -1.0, 0.0, 0.5)
