"""Test oracles: grid searches and quadratic closed forms that share no code
with the implementation paths they check, and the pointwise game Hamiltonian
with its saddle.

With first derivatives p = (p1, p2) and second derivatives q = (q11, q12, q22)
of a candidate value function,

    H(pi, mu, sigma) = 1/2 pi^2 sigma^2 q11 + rho pi sigma q12 + 1/2 q22
                       + x r(y) p1 + pi b(y) p1 + pi mu p1 + beta(y) p2.

For q11 < 0 the max-min over (pi, measures on K) has a saddle; the adversary
part reduces to the five-branch ratio minimizer with kappa = rho*q12/p1.
saddle_point takes that part from robustport's minimize_ratio, so it is not
independent of the minimizer: it checks how strategy assembles the saddle in
the separated variables, and the grid searches check the minimizer itself.

constant_field is a stand-in, not an oracle: a policy field with one measure
at every node, stored as build_policy stores it.  words, record_results and
traced_peak are probes: bit patterns, the results of a patched call, a
tracemalloc peak.
"""

import math
import re
import tracemalloc
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded

from robustport.model import MarketModel, UncertaintyRectangle
from robustport.strategy import PolicyField, _one_valued
from robustport.worst_case import WorstCaseMeasure, minimize_ratio


def lognormal_eu(x0, q, f, mu, sigma, r0, b0, horizon):
    """Exact E[X_T^q/q] for constant coefficients and a constant fraction f:
    ln X_T is Gaussian with mean ln x0 + (r0 + f(b0+mu) - f^2 sigma^2/2) T and
    variance f^2 sigma^2 T."""
    m = (r0 + f * (b0 + mu) - 0.5 * f * f * sigma * sigma) * horizon
    v = f * f * sigma * sigma * horizon
    return x0**q / q * math.exp(q * m + 0.5 * q * q * v)


def grid_minimax_value(x, y, d, m, k, n=400, refine=0):
    """max_pi min over an n x n grid of K, inner pi maximization in closed
    form, with the Bernoulli substitution sigma^2 -> 2 sigma_M sigma - s- s+.
    refine > 0 re-grids around the incumbent minimizer (pure grid search)."""
    b = float(m.b(y))
    const = 0.5 * d.q22 + float(m.beta(y)) * d.p2 + x * float(m.r(y)) * d.p1

    def scan(mu_lo, mu_hi, s_lo, s_hi):
        mus = np.linspace(mu_lo, mu_hi, n)[:, None]
        sigs = np.linspace(s_lo, s_hi, n)[None, :]
        sub = 2.0 * k.sigma_mid * sigs - k.sigma_minus * k.sigma_plus
        big_b = (b + mus) * d.p1 + m.rho * sigs * d.q12
        vals = const - big_b * big_b / (2.0 * sub * d.q11)
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        return float(vals[i, j]), float(mus[i, 0]), float(sigs[0, j])

    lo_mu, hi_mu = k.mu_minus, k.mu_plus
    lo_s, hi_s = k.sigma_minus, k.sigma_plus
    best, mu_b, s_b = scan(lo_mu, hi_mu, lo_s, hi_s)
    for _ in range(refine):
        dmu = 2.0 * (hi_mu - lo_mu) / (n - 1)
        ds = 2.0 * (hi_s - lo_s) / (n - 1)
        lo_mu = max(k.mu_minus, mu_b - dmu)
        hi_mu = min(k.mu_plus, mu_b + dmu)
        lo_s = max(k.sigma_minus, s_b - ds)
        hi_s = min(k.sigma_plus, s_b + ds)
        best, mu_b, s_b = scan(lo_mu, hi_mu, lo_s, hi_s)
    return best


def pure_min_substituted(b_val, kappa, k, n=2000):
    """min over an n x n grid of K points of (b+mu+kappa*sigma)^2 over the
    substituted denominator 2 sigma_M sigma - s- s+ (no measures involved)."""
    mus = np.linspace(k.mu_minus, k.mu_plus, n)[:, None]
    sigs = np.linspace(k.sigma_minus, k.sigma_plus, n)[None, :]
    sub = 2.0 * k.sigma_mid * sigs - k.sigma_minus * k.sigma_plus
    vals = (b_val + mus + kappa * sigs) ** 2 / sub
    return float(np.min(vals))


def nested_ratio_values(b_vals, kappas, k):
    """The minimal ratio as the value kernel first computed it: all five
    branch values at every node, selected by nested np.where on the raw
    thresholds t1..t4 (left-open, right-closed regions).  ratio_kernel must
    equal it bit for bit."""
    b = np.asarray(b_vals, dtype=float)
    kap = np.asarray(kappas, dtype=float)
    m_lo = b + k.mu_minus
    m_hi = b + k.mu_plus
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    if s_lo == s_hi:
        t1 = np.full_like(m_hi, -np.inf)
        t4 = np.full_like(m_lo, np.inf)
    else:
        t1 = m_hi * s_mid / (s_lo * (s_mid - s_hi))
        t4 = m_lo * s_mid / (s_hi * (s_mid - s_lo))
    t2, t3 = -m_hi / s_lo, -m_lo / s_hi
    prod = s_lo * s_hi
    lin_hi = 2.0 * m_hi * s_mid
    lin_lo = 2.0 * m_lo * s_mid
    s_mid_sq, s_lo_sq, s_hi_sq = s_mid**2, s_lo**2, s_hi**2
    quad = kap * prod
    low = kap * (lin_hi + quad) / s_mid_sq
    high = kap * (lin_lo + quad) / s_mid_sq
    plus = np.square(m_hi + kap * s_lo) / s_lo_sq
    minus = np.square(m_lo + kap * s_hi) / s_hi_sq
    return np.where(kap <= t1, low,
                    np.where(kap <= t2, plus,
                             np.where(kap <= t3, 0.0,
                                      np.where(kap <= t4, minus, high))))


def smooth_ramp(y, left, right, n):
    """CoefficientFn.ramp(left, right, n) at y, written out: the 9th-degree
    smoothstep of z = clip((y + n) / 2n, 0, 1), with exact tails."""
    y = np.asarray(y, dtype=float)
    z = np.clip((y + n) / (2.0 * n), 0.0, 1.0)
    s = z**5 * (126.0 + z * (-420.0 + z * (540.0 + z * (-315.0 + 70.0 * z))))
    out = left + (right - left) * s
    out = np.where(y <= -n, left, out)
    return np.where(y >= n, right, out)


def flat_tail_u(t, b_side, r_side, k, q, horizon):
    """u on a tail where b == b_side and r == r_side are constant: nature
    takes the (mu-, sigma+) corner (kappa = rho*u_y = 0), so u solves
    u' + q r_side + q (b_side + mu-)^2 / (2 (1-q) sigma+^2) = 0, u(T) = 0."""
    rate = q * r_side + q * (b_side + k.mu_minus) ** 2 / (2.0 * (1.0 - q) * k.sigma_plus**2)
    return (horizon - np.asarray(t, dtype=float)) * rate


def closed_form_b0(t, k, q, horizon):
    """y-independent solution of the value-exponent PDE for b == 0, r == 0:
    u(t) = q (T - t) mu-^2 / (2 (1-q) sigma+^2)."""
    return flat_tail_u(t, 0.0, 0.0, k, q, horizon)


def minus_corner_reference(m, k, q, horizon=1.0, n_t=1201, n_y=3841, radius=12.0):
    """u(t, y) for a market whose worst case is the (mu-, sigma+) corner at
    every node, by Zariphopoulou's power transform.  There the HJBI's min
    term is (m- + rho s+ p)^2 / s+^2 with m- = b + mu-, so with
    c = q/(2(1-q)) the Hamiltonian is quadratic in p = u_y,

        H(y, p) = (1/2 + c rho^2) p^2 + B p + C,
        B = beta + 2 c rho m-/s+,   C = q r + c m-^2/s+^2,

    and u = delta ln w, delta = 1/(1 + 2 c rho^2), makes the PDE linear:

        w_t + w_yy/2 + B w_y + (C/delta) w = 0,   w(T, .) = 1.

    Crank-Nicolson in t, its first step taken as two implicit-Euler half
    steps (Rannacher), and central differences in y on [-radius, radius],
    with the flat-tail data w = exp(C_edge (T - t)/delta) at the edges.
    Returns (t, y, u) with u of shape (n_t, n_y).  The corner must be checked
    on the result: rho u_y has to stay in its region."""
    c = q / (2.0 * (1.0 - q))
    delta = 1.0 / (1.0 + 2.0 * c * m.rho**2)
    t = np.linspace(0.0, horizon, n_t)
    y = np.linspace(-radius, radius, n_y)
    dy = y[1] - y[0]
    m_lo = np.asarray(m.b(y), dtype=float) + k.mu_minus
    s_hi = k.sigma_plus
    big_b = np.asarray(m.beta(y), dtype=float) + 2.0 * c * m.rho * m_lo / s_hi
    big_c = q * np.asarray(m.r(y), dtype=float) + c * m_lo**2 / s_hi**2
    # L w = w_yy/2 + B w_y + (C/delta) w at the interior nodes
    sub = 0.5 / dy**2 - big_b[1:-1] / (2.0 * dy)
    diag = -1.0 / dy**2 + big_c[1:-1] / delta
    sup = 0.5 / dy**2 + big_b[1:-1] / (2.0 * dy)

    def edges(tau):
        return np.exp(big_c[[0, -1]] * (horizon - tau) / delta)

    def step(w, h, theta, tau):
        """w at time tau from w at tau + h: (I - theta h L) w_new =
        (I + (1 - theta) h L) w."""
        lw = sub * w[:-2] + diag * w[1:-1] + sup * w[2:]
        new = np.empty_like(w)
        new[[0, -1]] = edges(tau)
        rhs = w[1:-1] + (1.0 - theta) * h * lw
        rhs[0] += theta * h * sub[0] * new[0]
        rhs[-1] += theta * h * sup[-1] * new[-1]
        ab = np.zeros((3, n_y - 2))
        ab[0, 1:] = -theta * h * sup[:-1]
        ab[1] = 1.0 - theta * h * diag
        ab[2, :-1] = -theta * h * sub[1:]
        new[1:-1] = solve_banded((1, 1), ab, rhs)
        return new

    u = np.empty((n_t, n_y))
    w = np.ones(n_y)
    u[-1] = 0.0
    for i in range(n_t - 2, -1, -1):
        h = t[i + 1] - t[i]
        if i == n_t - 2:
            w = step(step(w, h / 2, 1.0, t[i] + h / 2), h / 2, 1.0, t[i])
        else:
            w = step(w, h, 0.5, t[i])
        u[i] = delta * np.log(w)
    return t, y, u


def psi(y, m_a, kappa, k):
    """Tail objective (m_a + kappa*y)^2 / (2*sigma_M*y - sigma-*sigma+) in the
    Bernoulli mean y = (sigma, nu)."""
    y = np.asarray(y, dtype=float)
    out = (m_a + kappa * y) ** 2 / (2.0 * k.sigma_mid * y - k.sigma_minus * k.sigma_plus)
    return out if out.ndim else float(out)


def psi_critical_points(m_a, kappa, k):
    """Roots of psi': y1 = -m_a/kappa (psi(y1)=0) and
    y2 = m_a/kappa + sigma-*sigma+/sigma_M (interior extremum)."""
    if kappa == 0:
        raise ValueError("psi has no critical points for kappa == 0")
    y1 = -m_a / kappa
    y2 = m_a / kappa + k.sigma_minus * k.sigma_plus / k.sigma_mid
    return float(y1), float(y2)


_PROVENANCE = re.compile(r"# config_hash=(\S+) seed=\S+ version=\S+")


def read_config_hash(path):
    """The config hash of a CSV's provenance line; None if the first line is
    not one."""
    with open(path, encoding="utf-8") as fh:
        m = _PROVENANCE.fullmatch(fh.readline().rstrip("\n"))
    return m.group(1) if m else None


def reference_csv(config_hash, seed, version, header, rows):
    """An artifact written by hand: the provenance line, the header, then one
    line per row, floats as f"{x:.17g}", None as "" and anything else as
    str, joined by commas."""
    def cell(v):
        if v is None:
            return ""
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    lines = [f"# config_hash={config_hash} seed={seed} version={version}", header]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def constant_field(frac, mu, sigma_a, sigma_b, weight_a):
    """A PolicyField on a 2 x 3 grid over [0, 1] x [-3, 3] holding the fraction
    frac and the measure weight_a * d(mu, sigma_a) + (1 - weight_a) *
    d(mu, sigma_b) at every node.  The atom surfaces and the codes go through
    _one_valued, as build_policy stores them: the field is one node."""
    shape = (2, 3)

    def one(v, dtype=float):
        return _one_valued(np.full(shape, v, dtype=dtype))

    return PolicyField(
        t=np.array([0.0, 1.0]), y=np.array([-3.0, 0.0, 3.0]),
        pi_frac=np.full(shape, frac), atom_mu=one(mu),
        sigma_a=one(sigma_a), sigma_b=one(sigma_b), weight_a=one(weight_a),
        branch_code=one(0, np.int8), q=0.5)


@dataclass(frozen=True)
class DerivativeBundle:
    """Value-function derivatives (v_x, v_y, v_xx, v_xy, v_yy)."""

    p1: float
    p2: float
    q11: float
    q12: float
    q22: float


def hamiltonian_point(pi: float, mu: float, sigma: float, x: float, y: float,
                      d: DerivativeBundle, m: MarketModel) -> float:
    return (0.5 * pi * pi * sigma * sigma * d.q11
            + m.rho * pi * sigma * d.q12
            + 0.5 * d.q22
            + x * float(m.r(y)) * d.p1
            + pi * float(m.b(y)) * d.p1
            + pi * mu * d.p1
            + float(m.beta(y)) * d.p2)


def hamiltonian_measure(pi: float, nu: WorstCaseMeasure, x: float, y: float,
                        d: DerivativeBundle, m: MarketModel) -> float:
    """Measure-averaged Hamiltonian: the atom average, equivalently the point
    formula with (mu, sigma, sigma^2) replaced by the measure moments."""
    mu_m, sig_m, sig2_m = nu.moments()
    return (0.5 * pi * pi * sig2_m * d.q11
            + m.rho * pi * sig_m * d.q12
            + 0.5 * d.q22
            + x * float(m.r(y)) * d.p1
            + pi * float(m.b(y)) * d.p1
            + pi * mu_m * d.p1
            + float(m.beta(y)) * d.p2)


class SaddlePoint(NamedTuple):
    pi_star: float
    nu_star: WorstCaseMeasure
    value: float


def saddle_point(x: float, y: float, d: DerivativeBundle, m: MarketModel,
                 k: UncertaintyRectangle) -> SaddlePoint:
    """Pointwise saddle (pi*, nu*) of max_pi min_nu H and the saddle value.

    Requires q11 < 0 (strict concavity in pi).  For p1 != 0 the worst measure
    is the ratio minimizer at kappa = rho*q12/p1 and

        value = 1/2 q22 + beta p2 + x r p1 - p1^2/(2 q11) * min_ratio.

    For p1 = 0 only the volatility moments matter; the minimum of
    (sigma,nu)^2/(sigma^2,nu) over the Bernoulli closure sits at mean
    sigma-*sigma+/sigma_M with value sigma-*sigma+/sigma_M^2.
    """
    if d.q11 >= 0:
        raise ValueError("saddle requires q11 < 0")
    b_val = float(m.b(y))
    const = 0.5 * d.q22 + float(m.beta(y)) * d.p2 + x * float(m.r(y)) * d.p1
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid

    if d.p1 != 0.0:
        kappa = m.rho * d.q12 / d.p1
        nu, min_val, _ = minimize_ratio(b_val, kappa, k)
        mu_m, sig_m, _ = nu.moments()
        denom = (2.0 * s_mid * sig_m - s_lo * s_hi) * d.q11
        pi_star = -((b_val + mu_m) * d.p1 + sig_m * m.rho * d.q12) / denom
        value = const - d.p1 * d.p1 / (2.0 * d.q11) * min_val
        return SaddlePoint(pi_star, nu, value)

    # p1 == 0: mean sigma-*sigma+/sigma_M is attainable by the Bernoulli family
    sbar = s_lo * s_hi / s_mid
    if s_hi > s_lo:
        alpha = (s_hi - sbar) / (s_hi - s_lo)
        nu = WorstCaseMeasure(k.mu_minus, s_lo, s_hi, alpha)
    else:
        nu = WorstCaseMeasure.point(k.mu_minus, s_lo)
    _, sig_m, sig2_m = nu.moments()
    pi_star = -sig_m * m.rho * d.q12 / (sig2_m * d.q11)
    value = const - m.rho**2 * d.q12**2 * s_lo * s_hi / (2.0 * d.q11 * s_mid**2)
    return SaddlePoint(pi_star, nu, value)


def words(x):
    """The float64 bytes of x, or None for None: equal words are equal
    bits, so -0.0 and 0.0 differ."""
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def record_results(monkeypatch, owner, name, record=lambda out: out) -> list:
    """A list that receives record(result) of each call of owner.name while
    the test runs."""
    fn = getattr(owner, name)
    results = []

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        results.append(record(out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return results


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
