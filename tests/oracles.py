"""Independent test oracles: no code shared with the implementation paths they
check (grid searches, quadratic closed forms)."""

import math

import numpy as np


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
