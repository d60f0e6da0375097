"""Independent high-precision reference values for the crossing laws.

Nothing here calls into ``frax``: the laws are written out again from their
documented closed forms.  Elementary laws use their closed forms in mpmath
(the order-1/2 Mittag-Leffler function is ``erfcx``).  The others invert
their closed-form Laplace transforms on a fixed Talbot contour (Abate &
Valko, IJNME 2004), first in numpy at two contour sizes; when the two differ
by more than ``AGREE`` the point is redone in mpmath at a working precision
well above the node count.  Either way the reference error stays orders of
magnitude below the 1e-5 gate (``selfcheck.py`` compares both paths).

A law is passed as ``(name, params)`` with ``name`` the frax class name, so
references can be cached as plain JSON.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

TALBOT_NODES = 32
TALBOT_DPS = 40
FAST_NODES = (20, 24)
AGREE = 1e-10
_SQRT2 = math.sqrt(2.0)


def _np_transform(name: str, p: dict):
    """numpy (complex128) form of :func:`_transform`."""
    lam = p["lam"]
    if name == "Fractional":
        nu = p["nu"]
        return lambda s: s ** (nu - 1) / (s**nu + lam)
    if name == "Elastic":
        a = p["alpha"]
        return lambda s: (a * lam / s + _SQRT2 * a / np.sqrt(s) + 2) / (
            (np.sqrt(2 * s) + a) * (np.sqrt(2 * s) + lam)
        )
    if name == "GammaBoundary":
        k = p["k"]
        return lambda s: ((np.sqrt(s) + lam) ** k - lam**k) / (s * (np.sqrt(s) + lam) ** k)
    if name == "ElasticGamma":
        k, a = p["k"], p["alpha"]
        return lambda s: 1 / s - _SQRT2 * lam**k / (
            np.sqrt(s) * (np.sqrt(2 * s) + a) * (np.sqrt(2 * s) + lam) ** k
        )
    if name == "Distributed":
        def F(s):
            w = p["n1"] * s ** p["nu1"] + p["n2"] * s ** p["nu2"]
            return w / (s * (lam + w))

        return F
    raise ValueError(f"no transform for {name}")


def talbot_np(F, ts: np.ndarray, nodes: int) -> np.ndarray:
    """Fixed-Talbot inversion of F at every t in ``ts`` in double precision."""
    t = ts[:, None]
    th = np.arange(1, nodes) * np.pi / nodes
    cot = 1.0 / np.tan(th)
    r = 2.0 * nodes / (5.0 * ts)
    s = (r[:, None] * th) * (cot + 1j)
    sigma = th + (th * cot - 1.0) * cot
    acc = 0.5 * (F(r + 0j) * np.exp(r * ts)).real
    acc += np.sum((np.exp(t * s) * F(s) * (1.0 + 1j * sigma)).real, axis=1)
    return acc * r / nodes


def _transform(name: str, p: dict):
    """Closed-form Laplace transform F(s) of psi, valid off the negative axis."""
    sqrt2 = mp.sqrt(2)
    if name == "Fractional":
        nu, lam = mp.mpf(p["nu"]), mp.mpf(p["lam"])
        return lambda s: s ** (nu - 1) / (s**nu + lam)
    if name == "Elastic":
        a, lam = mp.mpf(p["alpha"]), mp.mpf(p["lam"])
        return lambda s: (a * lam / s + sqrt2 * a / mp.sqrt(s) + 2) / (
            (mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + lam)
        )
    if name == "GammaBoundary":
        k, lam = int(p["k"]), mp.mpf(p["lam"])
        return lambda s: ((mp.sqrt(s) + lam) ** k - lam**k) / (s * (mp.sqrt(s) + lam) ** k)
    if name == "ElasticGamma":
        k, a, lam = int(p["k"]), mp.mpf(p["alpha"]), mp.mpf(p["lam"])
        return lambda s: 1 / s - sqrt2 * lam**k / (
            mp.sqrt(s) * (mp.sqrt(2 * s) + a) * (mp.sqrt(2 * s) + lam) ** k
        )
    if name == "Distributed":
        nu1, nu2 = mp.mpf(p["nu1"]), mp.mpf(p["nu2"])
        n1, n2, lam = mp.mpf(p["n1"]), mp.mpf(p["n2"]), mp.mpf(p["lam"])

        def F(s):
            w = n1 * s**nu1 + n2 * s**nu2
            return w / (s * (lam + w))

        return F
    raise ValueError(f"no transform for {name}")


def talbot(F, t, nodes: int = TALBOT_NODES):
    """Fixed-Talbot inversion of F at t > 0 (call inside a raised mp.dps)."""
    t = mp.mpf(t)
    r = mp.mpf(2 * nodes) / (5 * t)
    acc = F(r) * mp.exp(r * t) / 2
    for k in range(1, nodes):
        th = k * mp.pi / nodes
        cot = mp.cot(th)
        s = r * th * mp.mpc(cot, 1)
        sigma = th + (th * cot - 1) * cot
        acc += mp.re(mp.exp(t * s) * F(s) * mp.mpc(1, sigma))
    return acc * r / nodes


def _erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


def _elementary(name: str, p: dict) -> bool:
    return name in ("Standard", "FirstPassage", "BesselSq", "Sojourn") or (
        name == "Fractional" and p["nu"] == 0.5
    ) or (name == "Elastic" and p["alpha"] != p["lam"])


def psi_many(name: str, p: dict, ts) -> list[float]:
    """Reference psi at every t in ``ts`` for law ``name`` with parameters ``p``."""
    if _elementary(name, p):
        return [psi(name, p, t) for t in ts]
    arr = np.asarray(ts, dtype=float)
    F = _np_transform(name, p)
    with np.errstate(all="ignore"):
        a, b = (talbot_np(F, arr, n) for n in FAST_NODES)
    out = []
    for t, va, vb in zip(arr, a, b):
        ok = math.isfinite(va) and math.isfinite(vb) and abs(va - vb) <= AGREE
        out.append(float(vb) if ok else psi(name, p, float(t)))
    return out


def psi(name: str, p: dict, t: float) -> float:
    """Reference psi(t) in mpmath for law ``name`` with parameters ``p``."""
    with mp.workdps(TALBOT_DPS):
        t_ = mp.mpf(t)
        if name == "Standard":
            v = mp.exp(-mp.mpf(p["lam"]) * t_)
        elif name == "FirstPassage":
            n = int(p["n"])
            rate = mp.mpf(2) ** (1 - mp.mpf(2) ** -n) * mp.mpf(p["lam"]) ** (mp.mpf(2) ** -n)
            v = mp.exp(-rate * t_)
        elif name == "BesselSq":
            v = (2 * mp.mpf(p["lam"]) * t_ + 1) ** (-mp.mpf(p["gamma"]) / 2)
        elif name == "Sojourn":
            x = mp.mpf(p["lam"]) * t_ / 2
            v = mp.besseli(0, x) * mp.exp(-x)
        elif name == "Fractional" and p["nu"] == 0.5:
            v = _erfcx(mp.mpf(p["lam"]) * mp.sqrt(t_))
        elif name == "Elastic" and p["alpha"] != p["lam"]:
            a, lam = mp.mpf(p["alpha"]), mp.mpf(p["lam"])
            h = mp.sqrt(t_ / 2)
            v = 1 - lam / (lam - a) * (_erfcx(a * h) - _erfcx(lam * h))
        else:
            v = talbot(_transform(name, p), t_)
        return float(v)


def asymptote(name: str, p: dict, small: bool, t: float) -> float:
    """Leading small-t or large-t term of psi, as documented for each law."""
    lam = p["lam"]
    if name == "Standard":
        return 1.0 - lam * t if small else math.exp(-lam * t)
    if name == "FirstPassage":
        rate = 2.0 ** (1.0 - 0.5 ** p["n"]) * lam ** (0.5 ** p["n"])
        return 1.0 - rate * t if small else math.exp(-rate * t)
    if name == "BesselSq":
        return (2.0 * lam * t + 1.0) ** (-0.5 * p["gamma"])
    if name == "Fractional":
        nu = p["nu"]
        if small:
            return 1.0 - lam * t**nu / math.gamma(1.0 + nu)
        return 1.0 / (lam * t**nu * math.gamma(1.0 - nu))
    if name == "Sojourn":
        return 1.0 - 0.5 * lam * t if small else 1.0 / math.sqrt(lam * math.pi * t)
    if name == "Elastic":
        if small:
            return 1.0 - lam * math.sqrt(2.0 * t / math.pi)
        return 1.0 - math.sqrt(2.0) / (p["alpha"] * math.sqrt(math.pi * t))
    if name == "GammaBoundary":
        k = p["k"]
        if small:
            return 1.0 - (lam * math.sqrt(t)) ** k / math.gamma(0.5 * k + 1.0)
        return k / (lam * math.sqrt(math.pi * t))
    if name == "ElasticGamma":
        k = p["k"]
        if small:
            return 1.0 - (lam * math.sqrt(t / 2.0)) ** k / math.gamma(0.5 * k + 1.0)
        return 1.0 - math.sqrt(2.0) / (p["alpha"] * math.sqrt(math.pi * t))
    if name == "Distributed":
        if small:
            return 1.0 - lam * t ** p["nu2"] / (p["n2"] * math.gamma(1.0 + p["nu2"]))
        return p["n1"] / (lam * t ** p["nu1"] * math.gamma(1.0 - p["nu1"]))
    raise ValueError(f"no asymptote for {name}")
