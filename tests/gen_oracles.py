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


def psi_distributed(nu1, nu2, n1, n2, lam, t, dps: int = 40) -> mp.mpf:
    """Two-order law psi(t) by mpmath's Talbot inversion of its transform
    w / (s (w + lam)), w = n1 s^nu1 + n2 s^nu2, at ``dps`` digits.  Each
    argument is taken exactly: a decimal string as that decimal, a float
    as its binary value (the parameters a float law holds)."""
    with mp.workdps(dps):
        nu1_, nu2_, n1_, n2_, lam_ = (mp.mpf(v) for v in (nu1, nu2, n1, n2, lam))

        def F(s):
            w = n1_ * s**nu1_ + n2_ * s**nu2_
            return w / (s * (w + lam_))

        return mp.invertlaplace(F, mp.mpf(t), method="talbot")


# test_relaxation: the distributed law's regrouped series, at times where
# it answers: (nu1, nu2) -> n1 -> times, lam = 1 and n2 = 1 - n1 in floats;
# the close pair at n1 = 0.9 has q >= 0.57 wherever t >= 1e-20, and its
# series fails there
DISTRIBUTED_SERIES_CASES = {
    **{pair: {0.1: (0.25, 4.0), 0.5: (0.01, 0.25), 0.9: (1e-6, 0.01)}
       for pair in ((0.05, 0.7), (0.05, 0.95), (0.05, 1.0), (0.3, 0.7), (0.3, 0.95), (0.3, 1.0))},
    (0.89, 0.95): {0.1: (0.25, 4.0), 0.5: (0.01, 0.25)},
}


def distributed_series_values() -> list[tuple[str, str, mp.mpf]]:
    """test_relaxation: Distributed(nu1, nu2, n1, 1 - n1, 1) at the
    ``DISTRIBUTED_SERIES_CASES``, each by 40-digit Talbot inversion."""
    out = []
    for (nu1, nu2), weights in DISTRIBUTED_SERIES_CASES.items():
        for n1, times in weights.items():
            for t in times:
                value = psi_distributed(nu1, nu2, n1, 1.0 - n1, 1.0, t)
                out.append((f"Distributed({nu1!r}, {nu2!r}, {n1!r}, {1.0 - n1!r}, 1.0) psi({t!r})",
                            "test_relaxation distributed series", value))
    return out


# test_relaxation: the gamma-boundary law's series, at x = lam sqrt(t) = 0.1
# and 1 and at the time, for lam = 1, about 0.5% inside the x where its gate
# fails (k -> that time); each rate scales the three times by 1/lam**2
GAMMA_BOUNDARY_EDGES = {1: "10.4", 2: "7.75", 3: "6.17", 5: "4.55", 10: "3.47"}
GAMMA_BOUNDARY_RATES = ("0.01", "1", "10")


def gamma_boundary_times(k: int, lam: str) -> tuple[float, ...]:
    """The three times of ``GAMMA_BOUNDARY_EDGES`` at shape k and rate
    ``lam``, each the float nearest its decimal value."""
    scale = Fraction(lam) ** 2
    return tuple(float(Fraction(x) / scale) for x in ("0.01", "1", GAMMA_BOUNDARY_EDGES[k]))


def psi_gamma_boundary(k: int, lam: float, t: float, dps: int = 40) -> mp.mpf:
    """1 - x**k E^k_{1/2,k/2+1}(-x), x = lam sqrt(t) from the floats' exact
    values, summed term by term at a working precision that covers the
    largest term (about exp(x**2)), then rounded to ``dps`` digits."""
    with mp.workdps(dps + int(lam * lam * t / 2.3 + 3 * k * math.log10(2.0 + lam * lam * t)) + 20):
        x = mp.mpf(lam) * mp.sqrt(mp.mpf(t))
        beta = mp.mpf(k + 2) / 2
        total, peak, j = mp.mpf(0), mp.mpf(0), 0
        while True:
            term = mp.rf(k, j) / mp.factorial(j) * (-x) ** j * mp.rgamma(j / mp.mpf(2) + beta)
            total += term
            peak = max(peak, abs(term))
            j += 1
            if j > 2 * k + 8 and abs(term) < peak * mp.mpf(10) ** (-2 * mp.mp.dps):
                break
        value = 1 - x**k * total
    with mp.workdps(dps):
        return +value


def gamma_boundary_series_values() -> list[tuple[str, str, mp.mpf]]:
    """test_relaxation: GammaBoundary(k, lam) at the times of
    ``gamma_boundary_times``, k in ``GAMMA_BOUNDARY_EDGES`` and lam in
    ``GAMMA_BOUNDARY_RATES``."""
    out = []
    for k in GAMMA_BOUNDARY_EDGES:
        for lam in GAMMA_BOUNDARY_RATES:
            for t in gamma_boundary_times(k, lam):
                out.append((f"GammaBoundary(k={k}, lam={float(lam)!r}) psi({t!r})",
                            "test_relaxation gamma-boundary series", psi_gamma_boundary(k, float(lam), t)))
    return out


def elastic_gamma_series_values() -> list[tuple[str, str, mp.mpf]]:
    """test_relaxation: ElasticGamma at equal rates, alpha/lam = 1e-3 and
    alpha/lam = 1e3, k in {1, 3, 10}, at two times each where its series
    answers; each transform inverted by mpmath's Talbot rule at 40 digits."""
    out = []
    with mp.workdps(40):
        sq2 = mp.sqrt(2)
        for alpha, lam, times in ((1.0, 1.0, (1.0, 5.0)), (1e-3, 1.0, (1.0, 5.0)), (10.0, 0.01, (0.01, 0.25))):
            a, la = mp.mpf(alpha), mp.mpf(lam)
            for k in (1, 3, 10):
                def F(s, k=k, a=a, la=la):
                    return 1 / s - sq2 * la**k / (mp.sqrt(s) * (mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + la) ** k)

                for t in times:
                    value = mp.invertlaplace(F, mp.mpf(t), method="talbot")
                    out.append((f"ElasticGamma(k={k}, alpha={alpha!r}, lam={lam!r}) psi({t!r})",
                                "test_relaxation elastic-gamma series", value))
    return out


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
    # alpha within 1e-6 and 1e-8 of 1, where the integrand's peak at u = c
    # is that narrow: an adaptive rule once stepped over it (E_{0.999999,1}(-8)
    # read 9.59e-7)
    for alpha in (0.999999, 0.99999999):
        for beta in (0.5, 1, 1.5):
            for z in (-5, -8, -20):
                out.append((f"E_{{{alpha},{beta}}}({z}) within 1e-6 or 1e-8 of unit order", "test_specfun",
                            ml(alpha, beta, z)))

    # --- test_specfun: M-Wright values (body and tails)
    out.append(("M_{1/2}(1)", "test_specfun", wright_m(Fraction(1, 2), 1)))
    out.append(("M_{1/3}(1/2)", "test_specfun", wright_m(Fraction(1, 3), mp.mpf("0.5"))))
    out.append(("M_{0.3}(2)", "test_specfun", wright_m(Fraction(3, 10), 2)))
    out.append(("M_{0.3}(20)", "test_specfun tail", wright_m(Fraction(3, 10), 20, dps=120)))
    out.append(("M_{1/2}(5)", "test_specfun tail", wright_m(Fraction(1, 2), 5, dps=120)))
    out.append(("M_{0.7}(4)", "test_specfun tail", wright_m(Fraction(7, 10), 4, dps=120)))
    # small orders past the series' reach, the peak at nu = 0.95 and a
    # point near nu = 1 where both powers of A once underflowed to a 0/0
    for nu, x in (((1, 100), "4.6"), ((1, 20), "3.19"), ((1, 10), "3.63"), ((19, 20), "1.15"), ((99, 100), "0.88")):
        out.append((f"M_{{{nu[0]}/{nu[1]}}}({x})", "test_specfun", wright_m(Fraction(*nu), mp.mpf(x), dps=120)))

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
    out.append(("distributed psi(1), (0.5,0.5) lam=1", "test_relaxation",
                psi_distributed("0.5", 1, "0.5", "0.5", 1, 1)))
    out.append(("distributed psi(2), (0.2,0.8) lam=1", "test_relaxation",
                psi_distributed("0.5", 1, "0.2", "0.8", 1, 2)))
    a, lam_, t_ = mp.mpf("0.7"), mp.mpf("1.3"), mp.mpf(2)
    ea = ml(Fraction(1, 2), 1, -a * mp.sqrt(t_ / 2))
    el = ml(Fraction(1, 2), 1, -lam_ * mp.sqrt(t_ / 2))
    out.append(("elastic psi(2), alpha=0.7 lam=1.3", "test_relaxation", 1 - lam_ / (lam_ - a) * (ea - el)))
    # Fractional(nu=0.99999999255, lam=0.0044960) at t = 1192.04, its z =
    # -lam t^nu formed from the floats' exact values, where the series
    # reference once read 3.0e-8
    with mp.workdps(60):
        nu_f, lam_f, t_f = (mp.mpf(Fraction(v).numerator) / Fraction(v).denominator
                            for v in (0.99999999255, 0.0044960, 1192.04))
        out.append(("fractional psi(1192.04), nu=0.99999999255 lam=0.0044960", "test_relaxation",
                    ml(0.99999999255, 1, -lam_f * t_f**nu_f)))
    # large t, where the double series is useless
    for t in (30000, 100000, 1000000):
        value = psi_distributed("0.5", 1, "0.5", "0.5", 1, t)
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
            ("elasticbm alpha=0.8 gamma k=2 lam=1.1",
             lambda s: 1 / s - sq2 * mp.mpf(1.1) ** 2
             / (mp.sqrt(s) * (mp.sqrt(2 * s) + mp.mpf(0.8)) * (mp.sqrt(2 * s) + mp.mpf(1.1)) ** 2)),
        ]
        for name, F in simulated:
            for t in ("0.25", "1", "4"):
                value = mp.invertlaplace(F, mp.mpf(t), method="talbot")
                out.append((f"{name} psi({t})", "test_parity simulate", value))
        for d in (0.0, 3e-8, -3e-8):
            value = mp.invertlaplace(elastic(1.0 + d), 1, method="talbot")
            out.append((f"Elastic(alpha={1.0 + d!r}, lam=1) psi(1)", "test_relaxation", value))

    # --- test_relaxation: the elastic law near and beyond its equal-rate
    # band, from its closed form with E_{1/2,1}(-x) = erfcx(x):
    # psi = 1 - lam/(lam - alpha) (erfcx(alpha y) - erfcx(lam y)), y = sqrt(t/2),
    # at 60 digits, alpha the binary float 1 + d
    with mp.workdps(60):
        def erfcx(x):
            return mp.exp(x * x) * mp.erfc(x)

        for d, t in ((1e-6, 10), (-1e-6, 10), (1e-4, 1), (-1e-4, 1), (1e-4, 10), (-1e-4, 10),
                     (1e-2, 1), (-1e-2, 1), (1e-2, 10), (-1e-2, 10)):
            a, y = mp.mpf(1.0 + d), mp.sqrt(mp.mpf(t) / 2)
            value = 1 - 1 / (1 - a) * (erfcx(a * y) - erfcx(y))
            out.append((f"Elastic(alpha={1.0 + d!r}, lam=1) psi({t})", "test_relaxation two-rate", value))

        # relative offsets 1e-10 and 1e-9 from equal rates at lam = 100,
        # t = 6.3e-4, alpha the binary float 100 * (1 + d); the elastic law
        # and the elastic law with a k = 1 gamma boundary agree
        lam, y = mp.mpf(100), mp.sqrt(mp.mpf(6.3e-4) / 2)
        for d in (0.99e-10, -0.99e-10, 1e-9, -1e-9):
            a = mp.mpf(100 * (1.0 + d))
            value = 1 - lam / (lam - a) * (erfcx(a * y) - erfcx(lam * y))
            out.append((f"Elastic(alpha={100 * (1.0 + d)!r}, lam=100) psi(6.3e-4)", "test_relaxation band edge", value))

    out.extend(gamma_boundary_series_values())
    out.extend(elastic_gamma_series_values())
    out.extend(distributed_series_values())

    # --- test_stochsim: quadrature crossings of a gamma boundary that no
    # closed form pairs, integral of density * P(boundary > y) at 30 digits;
    # AiryTime in w = y / (3t)^(1/3), where its density is 3 Ai(w)
    with mp.workdps(30):
        def erlang2(lam):
            return lambda y: mp.exp(-lam * y) * (1 + lam * y)

        for t in ("0.25", "1", "4"):
            tt = mp.mpf(t)
            cube, survive = mp.cbrt(3 * tt), erlang2(mp.mpf(1.3))
            value = 3 * mp.quad(lambda w: mp.airyai(w) * survive(cube * w), [0, 1, 10, mp.inf])
            out.append((f"AiryTime x Gamma(2, 1.3) at t={t}", "test_stochsim gamma quadrature", value))
        for t in ("0.25", "1", "4"):
            tt, half, survive = mp.mpf(t), mp.mpf(1) / 2, erlang2(mp.mpf(1))

            def dist_density(y):
                gap = tt - half * y
                return half * (tt - half * half * y) / (mp.sqrt(mp.pi) * gap**1.5) * mp.exp(-(half * y) ** 2 / (4 * gap))

            end = tt / half
            value = mp.quad(lambda y: dist_density(y) * survive(y), mp.linspace(0, end, 9))
            out.append((f"DistributedTime(0.5, 0.5) x Gamma(2, 1) at t={t}", "test_stochsim gamma quadrature", value))

    # --- test_parity: the quadrature rows, P(endpoint < boundary) at t =
    # 0.25, 1, 4 of each quadrature pairing of stochsim.PAIRINGS; the
    # exponential-boundary rows from their Mittag-Leffler law, the others as
    # integrals of density * P(boundary > y) at 30 digits
    for t in ("0.25", "1", "4"):
        tt = mp.mpf(t)
        for nu in (Fraction(3, 10), Fraction(7, 10)):
            value = ml(nu, 1, -tt ** (mp.mpf(nu.numerator) / nu.denominator))
            out.append((f"wrighttime-{float(nu)}-exponential-1 at t={t}", "test_parity quadrature", value))
        with mp.workdps(30):
            # M_{1/2}(x) = exp(-x^2/4)/sqrt(pi) under Gamma(2, 1) at y = sqrt(t) x
            root = mp.sqrt(tt)
            value = mp.quad(lambda x: mp.exp(-x * x / 4) / mp.sqrt(mp.pi) * (1 + root * x) * mp.exp(-root * x),
                            [0, 1, 10, mp.inf])
        out.append((f"wrighttime-0.5-gamma-2-1 at t={t}", "test_parity quadrature", value))
        value = ml(Fraction(1, 3), 1, -mp.mpf(1.3) * mp.cbrt(tt))
        out.append((f"airytime-exponential-1.3 at t={t}", "test_parity quadrature", value))
        with mp.workdps(30):
            half = mp.mpf(1) / 2

            def dist_density(y):
                gap = tt - half * y
                return half * (tt - half * half * y) / (mp.sqrt(mp.pi) * gap**1.5) * mp.exp(-(half * y) ** 2 / (4 * gap))

            value = mp.quad(lambda y: dist_density(y) * mp.exp(-y), mp.linspace(0, tt / half, 9))
        out.append((f"distributedtime-0.5-0.5-exponential-1 at t={t}", "test_parity quadrature", value))

    # --- test_fraccalc: Riemann-Liouville integral of f(t) = t at order 1/2
    out.append(("RL-1/2 of t: coefficient of t^{3/2}", "test_fraccalc", mp.gamma(2) / mp.gamma(mp.mpf("2.5"))))

    for name, consumer, value in out:
        print(f"{name}  [{consumer}]\n    {mp.nstr(value, 22)}")


if __name__ == "__main__":
    main()
