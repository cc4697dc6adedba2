"""Independent reference spectra from dense 1d finite differences.

These oracles validate the finite-element pipeline without sharing any
code with it.  Each one discretizes a one-dimensional model (the real
line with a point coupling, or the radial reduction of a circle problem)
as a symmetric tridiagonal pencil (T, M) with a positive diagonal M,
scales it to the standard form M^{-1/2} T M^{-1/2}, and finds every
eigenvalue below a level with LAPACK dstebz: bisection on Sturm counts
(Barth, Martin & Wilkinson 1967) to absolute tolerance 1e-10.  The
counts are exact, but rounding in the second-difference matrix limits a
single grid's absolute accuracy to about eps * ||T||, which grows as
1/h^2.  Each oracle solves on two grids, kappa * h = 4e-3 and about half
that (kappa the decay rate, alpha/2 or 2/beta), and extrapolates the h^2
term away.  That step balances the two errors left: the extrapolation
remainder, O((kappa h)^4), and the rounding floor, O(eps / (kappa h)^2),
both scaled by kappa^2.  The closed forms are met within 7e-10 for
kappa <= 4, that is alpha <= 8 and beta >= 0.5 (measured at eleven
values of alpha from 0.2 to 8 with beta = 4/alpha).  No transcendental
matching formulas are trusted: the closed forms -alpha^2/4 and -4/beta^2,
and the Bessel matching conditions of the circle, appear only in the
test suite as cross-checks of the oracles themselves.

Point couplings enter the grid exactly: the delta sits on a grid node
and subtracts alpha from that diagonal entry of the form; the
delta-prime sits between two nodes and replaces the bond coefficient
1/h by 1/(h - beta), which encodes a trace jump of -beta times the
(continuous) flux across the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dstebz

from .errors import ConsistencyError, DomainError

_KH_TARGET = 4e-3         # decay rate times the coarse grid step
_BISECT_TOL = 1e-10


def _eigs_below(d, e, m, upper):
    """All pencil eigenvalues strictly below `upper`, ascending.

    The pencil (T, M), with T tridiagonal (diagonal d, off-diagonal e) and
    M = diag(m) positive, is scaled in place to M^{-1/2} T M^{-1/2}, so d
    and e are overwritten.  LAPACK dstebz then bisects on Sturm counts
    over (Gershgorin bound - 1, upper) to absolute tolerance 1e-10; its
    own default, eps * ||T||, would be up to 4e-9 on the fine grids.
    """
    s = np.sqrt(m)
    d /= s          # d / s / s, not d / m: each entry is divided by the
    d /= s          # same rounded factors, so zero row sums stay near zero
    e /= s[:-1]
    e /= s[1:]
    r = np.zeros_like(d)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    lower = float(np.min(d - r)) - 1.0
    del s, r        # dstebz allocates about 7n words of its own
    # range 1 selects the values in (vl, vu], a half-open interval, so
    # nextafter keeps `upper` itself out; il and iu are unused
    count, w, _, _, info = dstebz(d, e, 1, lower,
                                  float(np.nextafter(upper, -np.inf)),
                                  1, 1, _BISECT_TOL, "E")
    if info != 0:
        raise ConsistencyError(f"LAPACK dstebz failed with info={info}")
    return w[:count].copy()


def _eigs_extrapolated(build, h0, upper=0.0):
    """Eigenvalues below `upper` on grids near h0 and h0/2, combined by
    quadratic extrapolation (r^2 E_f - E_c) / (r^2 - 1).

    build(h) returns the pencil and the step it actually used (the radial
    grids move h to put the circle on or between nodes), and r = h_c/h_f
    is the ratio of those steps, so the h^2 term cancels exactly even
    when it is not 2.  The bisection counts are exact for each grid, but
    the second-difference pencil limits single-grid absolute accuracy to
    about eps * ||T||; two moderately fine grids plus extrapolation beat
    one very fine grid.  Unpaired near-threshold states keep their
    fine-grid values.
    """
    *pencil, hc = build(h0)
    coarse = _eigs_below(*pencil, upper)
    *pencil, hf = build(0.5 * h0)
    fine = _eigs_below(*pencil, upper)
    r2 = (hc / hf) ** 2
    n = min(coarse.size, fine.size)
    vals = (r2 * fine[:n] - coarse[:n]) / (r2 - 1.0)
    if fine.size > n:
        vals = np.concatenate([vals, fine[n:]])
    return np.sort(vals)


def _check_grid(step, halfwidth):
    """Reject a grid keyword that was given but is not positive."""
    for name, value in (("step", step), ("halfwidth", halfwidth)):
        if value is not None and not value > 0:
            raise DomainError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class OracleResult:
    """Eigenvalues below the continuum threshold of a 1d reference model."""

    eigenvalues: np.ndarray
    resolution: dict = field(default_factory=dict)
    per_mode: tuple | None = None


def point_delta_1d(alpha: float, step: float | None = None,
                   halfwidth: float | None = None) -> OracleResult:
    """Bound states of the line operator -u'' - alpha * delta_0.

    Dense second differences on [-R, R] with the delta on the center
    node; every eigenvalue below zero is returned (the model has exactly
    one).  Non-positive alpha yields an empty list; a non-positive step
    or halfwidth raises DomainError.
    """
    _check_grid(step, halfwidth)
    if alpha <= 0:
        return OracleResult(np.empty(0), {"alpha": alpha})
    kappa = 0.5 * alpha
    R = halfwidth if halfwidth is not None else 25.0 / kappa
    h0 = step if step is not None else _KH_TARGET / kappa

    def build(h):
        half = int(math.ceil(R / h))
        n = 2 * half + 1
        d = np.full(n, 2.0 / h)
        d[half] -= alpha
        e = np.full(n - 1, -1.0 / h)
        m = np.full(n, h)
        return d, e, m, h

    eigs = _eigs_extrapolated(build, h0)
    return OracleResult(eigs, {"alpha": alpha, "step": h0, "halfwidth": R})


def point_deltaprime_1d(beta: float, step: float | None = None,
                        halfwidth: float | None = None) -> OracleResult:
    """Bound states of the line operator with a delta-prime coupling at 0.

    The grid is staggered so the coupling sits between the two middle
    nodes; the bond coefficient 1/(h - beta) reproduces a value jump of
    -beta times the continuous flux.  Non-positive beta yields an empty
    list; a non-positive step or halfwidth raises DomainError.
    """
    _check_grid(step, halfwidth)
    if beta <= 0:
        return OracleResult(np.empty(0), {"beta": beta})
    kappa = 2.0 / beta
    R = halfwidth if halfwidth is not None else 25.0 / kappa
    h0 = step if step is not None else _KH_TARGET / kappa
    if h0 >= beta / 20.0:
        h0 = beta / 20.0

    def build(h):
        half = max(2, int(math.ceil(R / h)))
        n = 2 * half
        c = np.full(n - 1, 1.0 / h)     # bond coefficients of the form
        c[half - 1] = 1.0 / (h - beta)  # crack between nodes half-1 and half
        d = np.zeros(n)
        d[:-1] += c
        d[1:] += c
        d[0] += 1.0 / h                 # Dirichlet ghost bonds at the ends
        d[-1] += 1.0 / h
        e = -c
        m = np.full(n, h)
        return d, e, m, h

    eigs = _eigs_extrapolated(build, h0)
    return OracleResult(eigs, {"beta": beta, "step": h0, "halfwidth": R})


def _radial_pencil(R, strength, mode, h, r_out, coupling):
    """Tridiagonal form/mass pencil of the radial reduction at one angular
    mode, and the step it used; `coupling` is "delta" (node term) or
    "deltaprime" (bond term)."""
    if coupling == "delta":
        i0 = max(4, round(R / h - 0.5))
        h = R / (i0 + 0.5)          # interface exactly on node i0
    else:
        i0 = max(4, round(R / h))
        h = R / i0                  # interface exactly between i0-1 and i0
    n = int(math.ceil(r_out / h))
    r = (np.arange(n) + 0.5) * h    # staggered: no node at the axis
    rb = (np.arange(1, n) * h)      # bond radii
    c = rb / h
    d = np.zeros(n)
    if coupling == "delta":
        d[i0] -= strength * R
    else:
        c[i0 - 1] = R / (h - strength)
    d[:-1] += c
    d[1:] += c
    d[-1] += n * h / h              # Dirichlet at the outer radius
    if mode:
        d += mode * mode * h / r
    e = -c
    m = r * h
    return d, e, m, h


def _radial_eigs(R, strength, m_max, step, r_out, coupling, tent_kappa):
    if R <= 0 or strength <= 0:
        raise DomainError("radius and coupling strength must be positive")
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    _check_grid(step, None)
    if r_out is not None and not r_out > R:
        raise DomainError(f"r_out must exceed the radius {R}, got {r_out!r}")
    h0 = step if step is not None else _KH_TARGET / tent_kappa
    if coupling == "deltaprime" and h0 >= strength / 20.0:
        h0 = strength / 20.0
    rout = r_out if r_out is not None else R + 24.0 / tent_kappa
    for _ in range(3):
        per_mode = []
        for mode in range(m_max + 1):
            def build(h, mode=mode):
                return _radial_pencil(R, strength, mode, h, rout, coupling)
            per_mode.append(_eigs_extrapolated(build, h0))
        out = per_mode
        lam1 = per_mode[0][0] if per_mode[0].size else None
        if r_out is not None or lam1 is None:
            break
        need = R + 22.0 / math.sqrt(-lam1)
        if rout >= need:
            break
        rout = 1.1 * need
    all_eigs = np.sort(np.concatenate(out))
    return out, all_eigs, {"step": h0, "r_out": rout, "m_max": m_max}


def circle_delta_radial(R: float, alpha: float, m_max: int = 2,
                        step: float | None = None,
                        r_out: float | None = None) -> OracleResult:
    """Negative eigenvalues of the plane problem with a delta coupling of
    strength alpha on the circle of radius R, one list per angular mode.

    The outer truncation radius adapts to the computed decay rate.  The
    lowest eigenvalue must respect the proven bound lambda_1 >= -alpha^2:
    on each ray r > R, R |u(R)|^2 <= 2 ||u|| ||d_r u||, so
    alpha * int_circle |u|^2 <= ||grad u||^2 + alpha^2 ||u||^2.  A value
    below it raises ConsistencyError.
    """
    per_mode, eigs, res = _radial_eigs(R, alpha, m_max, step, r_out,
                                       "delta", 0.5 * alpha)
    res["alpha"] = alpha
    if eigs.size and eigs[0] < -alpha * alpha:
        raise ConsistencyError(
            f"radial oracle fell below the bound -alpha^2: {eigs[0]}")
    return OracleResult(eigs, res, per_mode=tuple(per_mode))


def circle_deltaprime_radial(R: float, beta: float, m_max: int = 2,
                             step: float | None = None,
                             r_out: float | None = None) -> OracleResult:
    """Delta-prime analog of circle_delta_radial: the trace may jump across
    the circle, with the jump proportional to the continuous radial flux."""
    per_mode, eigs, res = _radial_eigs(R, beta, m_max, step, r_out,
                                       "deltaprime", 2.0 / beta)
    res["beta"] = beta
    return OracleResult(eigs, res, per_mode=tuple(per_mode))
