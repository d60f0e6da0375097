"""Regenerate the high-precision reference values frozen into the tests.

Run directly (``python3 tests/gen_oracles.py``) to print every constant
used as an expected value in the test suite, each tagged with the test
that consumes it.  The evaluations here use mpmath arbitrary-precision
arithmetic and are deliberately independent of the package's own series
and quadrature code; mpmath is a test-only dependency.

Conventions that matter for correctness:

- Near-pole gamma arguments are built from exact fractions, never from
  binary floats that merely round to them.
- Alternating series are summed at a working precision that covers the
  largest intermediate term, then rounded once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


def ml(alpha, beta, z, dps: int = 60) -> mp.mpf:
    """Two- or three-parameter Mittag-Leffler by direct summation."""
    return gml(alpha, beta, 1, z, dps=dps)


def gml(alpha, beta, gamma, z, dps: int = 60) -> mp.mpf:
    with mp.workdps(dps):
        alpha = mp.mpf(Fraction(alpha).numerator) / Fraction(alpha).denominator
        beta = mp.mpf(Fraction(beta).numerator) / Fraction(beta).denominator
        zz = mp.mpf(z)

        def term(j):
            j = int(j)
            return (
                mp.rf(gamma, j)
                / mp.factorial(j)
                * zz**j
                * mp.rgamma(alpha * j + beta)
            )

        return mp.nsum(term, [0, mp.inf])


def wright_m(nu, x, dps: int = 80) -> mp.mpf:
    """M-Wright density M_nu(x) = sum (-x)^j / (j! Gamma(-nu j + 1 - nu)).

    Summed by an explicit loop: the vanishing terms at the rgamma poles
    make the term pattern irregular enough to derail mp.nsum's series
    acceleration in the tail region (it returned values off by orders of
    magnitude for M_{1/2}(5), where the closed form exp(-x^2/4)/sqrt(pi)
    is known).  The working precision covers the pre-cancellation peak;
    the loop stops once terms fall 10^(dps) below the running maximum.
    """
    fr = Fraction(nu)
    with mp.workdps(2 * dps):
        nu_ = mp.mpf(fr.numerator) / fr.denominator
        xx = mp.mpf(x)
        total = mp.mpf(0)
        peak = mp.mpf(0)
        threshold = mp.mpf(10) ** (-2 * dps)
        small_run = 0
        j = 0
        while True:
            term = (-xx) ** j / mp.factorial(j) * mp.rgamma(-nu_ * j + 1 - nu_)
            total += term
            peak = max(peak, abs(term))
            j += 1
            # zero terms at the rgamma poles must not end the loop early, so
            # demand a sustained run of negligible terms before stopping
            if j > 16 and abs(term) < peak * threshold:
                small_run += 1
                if small_run >= 8:
                    break
            else:
                small_run = 0
            if j > 100000:
                raise RuntimeError("wright_m oracle did not converge")
        return total


def psi_distributed(n1, n2, lam, t, dps: int = 60) -> mp.mpf:
    """Two-order law with (nu1, nu2) = (1/2, 1): double series in mpmath."""
    with mp.workdps(dps):
        n1_, n2_, lam_, t_ = (mp.mpf(v) for v in (n1, n2, lam, t))
        x = lam_ * t_ / n2_
        q = n1_ * mp.sqrt(t_) / n2_

        def outer(r):
            r = int(r)
            # beta = nu2 + delta*r + 1 with nu2 = 1, delta = 1/2
            inner = gml(1, 2 + Fraction(r, 2), r + 1, -x, dps=dps)
            return (-q) ** r * inner

        return 1 - x * mp.nsum(outer, [0, mp.inf])


def main() -> None:
    mp.mp.dps = 40
    out: list[tuple[str, str, mp.mpf]] = []

    # --- test_specfun: Mittag-Leffler level-crossing values (quadrature targets)
    for nu_num, nu_den in ((3, 10), (1, 2), (7, 10)):
        nu = Fraction(nu_num, nu_den)
        for t in ("0.5", "1", "2"):
            z = -mp.mpf(t) ** (mp.mpf(nu_num) / nu_den)
            out.append((f"E_{nu}(-{t}^{nu})", "test_specfun/test_acceptance", ml(nu, 1, z)))

    # --- test_specfun: order-1/4 and order-1/3 values
    out.append(("E_{1/4}(-1)", "test_specfun", ml(Fraction(1, 4), 1, -1)))
    out.append(("E_{1/3}(-1)", "test_specfun", ml(Fraction(1, 3), 1, -1)))
    for t in ("0.5", "2"):
        z = -mp.mpf(t) ** (mp.mpf(1) / 3)
        out.append((f"E_{{1/3}}(-{t}^(1/3))", "test_stochsim airy crossing", ml(Fraction(1, 3), 1, z)))

    # --- test_specfun: two-parameter and three-parameter points
    out.append(("E_{1/2,2}(-1)", "test_specfun", ml(Fraction(1, 2), 2, -1)))
    out.append(("E_{3/4,5/4}(-2)", "test_specfun", ml(Fraction(3, 4), Fraction(5, 4), -2)))
    out.append(("E^2_{1/2,3/2}(-1)", "test_specfun", gml(Fraction(1, 2), Fraction(3, 2), 2, -1)))
    out.append(("E^3_{3/5,11/10}(-3/2)", "test_specfun", gml(Fraction(3, 5), Fraction(11, 10), 3, mp.mpf("-1.5"))))
    out.append(("E_{1/2}(-8) deep integral region", "test_specfun", ml(Fraction(1, 2), 1, -8)))
    # alpha near 1, where the integral's denominator nearly vanishes at u = c
    for alpha, beta, z in ((0.99999, 1, -5), (0.9999, 0.75, -8), (0.99999, 1.5, -5)):
        out.append((f"E_{{{alpha},{beta}}}({z}) near-unit order", "test_specfun", ml(alpha, beta, z)))

    # --- test_specfun: M-Wright values (body and tails)
    out.append(("M_{1/2}(1)", "test_specfun", wright_m(Fraction(1, 2), 1)))
    out.append(("M_{1/3}(1/2)", "test_specfun", wright_m(Fraction(1, 3), mp.mpf("0.5"))))
    out.append(("M_{0.3}(2)", "test_specfun", wright_m(Fraction(3, 10), 2)))
    out.append(("M_{0.3}(20)", "test_specfun tail", wright_m(Fraction(3, 10), 20, dps=120)))
    out.append(("M_{1/2}(5)", "test_specfun tail", wright_m(Fraction(1, 2), 5, dps=120)))
    out.append(("M_{0.7}(4)", "test_specfun tail", wright_m(Fraction(7, 10), 4, dps=120)))

    # --- test_specfun: Airy, Bessel
    out.append(("Ai(0)", "test_specfun", mp.airyai(0)))
    out.append(("Ai(1)", "test_specfun", mp.airyai(1)))
    out.append(("Ai(5)", "test_specfun", mp.airyai(5)))
    out.append(("I_0(1)", "test_specfun", mp.besseli(0, 1)))
    out.append(("I_{1/3}(2)", "test_specfun", mp.besseli(mp.mpf(1) / 3, 2)))
    out.append(("I_{-1/3}(25)", "test_specfun crossover", mp.besseli(-mp.mpf(1) / 3, 25)))

    # --- test_relaxation: law values
    out.append(("sojourn psi(1), lam=1", "test_relaxation", mp.e ** mp.mpf("-0.5") * mp.besseli(0, mp.mpf("0.5"))))
    y = 1 / mp.sqrt(2)
    out.append(("elastic equal-rate psi(1), alpha=lam=1", "test_relaxation", 1 - y * gml(Fraction(1, 2), Fraction(3, 2), 2, -y)))
    out.append(("gamma-boundary psi(1), k=2 lam=1", "test_relaxation", 1 - gml(Fraction(1, 2), 2, 2, -1)))
    out.append(("distributed psi(1), (0.5,0.5) lam=1", "test_relaxation", psi_distributed("0.5", "0.5", 1, 1)))
    out.append(("distributed psi(2), (0.2,0.8) lam=1", "test_relaxation", psi_distributed("0.2", "0.8", 1, 2)))
    a, lam_, t_ = mp.mpf("0.7"), mp.mpf("1.3"), mp.mpf(2)
    ea = ml(Fraction(1, 2), 1, -a * mp.sqrt(t_ / 2))
    el = ml(Fraction(1, 2), 1, -lam_ * mp.sqrt(t_ / 2))
    out.append(("elastic psi(2), alpha=0.7 lam=1.3", "test_relaxation", 1 - lam_ / (lam_ - a) * (ea - el)))
    # large t, where the double series is useless: Talbot inversion of the
    # transform w / (s (lam + w)), w = n1 sqrt(s) + n2 s
    with mp.workdps(40):
        half = mp.mpf(1) / 2
        F = lambda s: (half * mp.sqrt(s) + half * s) / (s * (1 + half * mp.sqrt(s) + half * s))  # noqa: E731
        for t in (30000, 100000, 1000000):
            value = mp.invertlaplace(F, t, method="talbot")
            out.append((f"distributed psi({t}), (0.5,0.5) lam=1", "test_relaxation/test_stochsim large t", value))

    # --- test_parity: psi of the five laws that frax eval inverts on the
    # contour (the 17-point log grid over [1e-4, 1e4] of tests/gen_parity.py),
    # each transform inverted by mpmath's Talbot rule at 40 digits
    grid = [math.exp(math.log(1e-4) + i * (math.log(1e4) - math.log(1e-4)) / 16) for i in range(17)]
    with mp.workdps(40):
        sq2 = mp.sqrt(2)
        one, a, lam = mp.mpf(1), mp.mpf(0.8), mp.mpf(1.1)
        ea, el = mp.mpf(0.7), mp.mpf(1.3)
        inverted = [
            ("fractional nu=0.5 lam=1",
             lambda s: 1 / (mp.sqrt(s) * (mp.sqrt(s) + 1))),
            ("elastic alpha=0.7 lam=1.3",
             lambda s: (ea * el / s + sq2 * ea / mp.sqrt(s) + 2) / ((mp.sqrt(2 * s) + ea) * (mp.sqrt(2 * s) + el))),
            ("gammaboundary k=2 lam=1",
             lambda s: 1 / s - one / (s * (mp.sqrt(s) + one) ** 2)),
            ("elasticgamma k=2 alpha=0.8 lam=1.1",
             lambda s: 1 / s - sq2 * lam**2 / (mp.sqrt(s) * (mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + lam) ** 2)),
            ("distributed nu1=0.5 nu2=1 n1=0.5 n2=0.5 lam=1",
             lambda s: (mp.sqrt(s) + s) / (s * (2 + mp.sqrt(s) + s))),
        ]
        for name, F in inverted:
            for t in grid:
                value = mp.invertlaplace(F, mp.mpf(t), method="talbot")
                out.append((f"{name} psi({t!r})", "test_parity", value))

    # --- test_parity: psi in the analytic column of the frax simulate rows
    # whose law psi inverts on the contour (t = 0.25, 1, 4), and
    # test_relaxation: the elastic law at t = 1 beside the equal-rate branch,
    # each transform inverted by mpmath's Talbot rule at 40 digits
    with mp.workdps(40):
        sq2, one, quarter = mp.sqrt(2), mp.mpf(1), mp.mpf(1) / 4

        def elastic(alpha):
            a = mp.mpf(alpha)
            return lambda s: (a / s + sq2 * a / mp.sqrt(s) + 2) / ((mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + one))

        def gamma_boundary(k):
            return lambda s: 1 / s - one / (s * (mp.sqrt(s) + one) ** k)

        simulated = [
            ("reflectedbm exponential", lambda s: 1 / (mp.sqrt(s) * (mp.sqrt(s) + 1))),
            ("iteratedbm k=2 exponential", lambda s: s ** (quarter - 1) / (s**quarter + 1)),
            ("elasticbm alpha=0.5", elastic(0.5)),
            ("elasticbm alpha=1.0", elastic(1.0)),
            ("elasticbm alpha=2.0", elastic(2.0)),
            ("reflectedbm gamma k=2", gamma_boundary(2)),
            ("reflectedbm gamma k=3", gamma_boundary(3)),
        ]
        for name, F in simulated:
            for t in ("0.25", "1", "4"):
                value = mp.invertlaplace(F, mp.mpf(t), method="talbot")
                out.append((f"{name} psi({t})", "test_parity simulate", value))
        for d in (0.0, 3e-8, -3e-8):
            value = mp.invertlaplace(elastic(1.0 + d), 1, method="talbot")
            out.append((f"Elastic(alpha={1.0 + d!r}, lam=1) psi(1)", "test_relaxation", value))

    # --- test_fraccalc: Riemann-Liouville integral of f(t) = t at order 1/2
    out.append(("RL-1/2 of t: coefficient of t^{3/2}", "test_fraccalc", mp.gamma(2) / mp.gamma(mp.mpf("2.5"))))

    for name, consumer, value in out:
        print(f"{name}  [{consumer}]\n    {mp.nstr(value, 22)}")


if __name__ == "__main__":
    main()
