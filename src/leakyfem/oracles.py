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
(continuous) flux across the gap.  Both line grids are symmetric about
the coupling, and only one symmetry sector can hold a bound state, so
each is solved on its half-line: the delta in the even sector (the odd
one has u(0) = 0 and is a Dirichlet Laplacian), the delta-prime in the
odd sector (the even one sees no jump).  Their eigenvalues below zero
are those of the whole line in exact arithmetic, from half the nodes.

Every grid reaches 16 decay lengths past the coupling.  The line models
take halfwidth 16/kappa.  Each angular mode of a circle gets its own
outer radius R + 16/sqrt(-lambda), lambda that mode's weakest bound
value: mode 0 starts from R + 16/kappa, mode m + 1 from mode m's radius,
and the radius widens on the coarse grid only before the fine grid is
solved once.  A mode too weakly bound to show on its starting grid is
not reported.

Most of the bisection is spent halving down from the Gershgorin bound
(about -6.5e5 on a fine grid), although a coarser grid already places
each value far closer.  So only a rough grid at 8 times the coarse step
is bisected over its full range.  Every other grid is bisected in a
window: the coarse grid around the rough values, a widened circle grid
just below the narrower grid's values, and the fine grid around the h^2
prediction from the rough and coarse grids.  One exact Sturm count of
all values below zero certifies each window; a window that misses a
counted value falls back to the full range, so the counts stay exact
and the tolerance stays 1e-10 (Parlett, The Symmetric Eigenvalue
Problem, ch. 3, on counts confirming a guessed interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dstebz

from .errors import ConsistencyError, DomainError

_KH_TARGET = 4e-3         # decay rate times the coarse grid step
_DECAY_LENGTHS = 16.0     # grid reach beyond the coupling, in decay lengths
_BISECT_TOL = 1e-10
_ROUGH = 8.0              # rough grid step, in coarse grid steps
_ROUGH_PAD = 1e-2         # coarse window half-width, relative to the value
_FINE_PAD = 1e-2          # fine window half-width, relative to the h^2 term
_WALL_LIFT = 16.0         # four times the 1d lift 4 exp(-2L) of a wall


def _bisect(d, e, lo, hi, tol):
    """dstebz over (lo, hi] to absolute tolerance tol: the values there,
    ascending.  Range 1 selects a half-open interval; il and iu are
    unused."""
    count, w, _, _, info = dstebz(d, e, 1, lo, hi, 1, 1, tol, "E")
    if info != 0:
        raise ConsistencyError(f"LAPACK dstebz failed with info={info}")
    return w[:count].copy()


def _eigs_below(d, e, m, upper, window=None):
    """All pencil eigenvalues strictly below `upper`, ascending.

    The pencil (T, M), with T tridiagonal (diagonal d, off-diagonal e) and
    M = diag(m) positive, is scaled in place to M^{-1/2} T M^{-1/2}, so d
    and e are overwritten.  LAPACK dstebz then bisects on Sturm counts
    over (Gershgorin bound - 1, upper) to absolute tolerance 1e-10; its
    own default, eps * ||T||, would be up to 4e-9 on the fine grids.

    A window (lo, hi), a guess of where the values lie, saves most of
    the halvings from the Gershgorin bound.  One exact Sturm count of the
    values below `upper` comes first: dstebz with a tolerance wider than
    the whole range counts at its two ends and does no bisection.  The
    bisection to 1e-10 then runs inside the window only, and its result
    stands only if it holds every counted value; otherwise (a window too
    narrow, empty, or off the spectrum) the full range is bisected.
    Either way the count is exact and the tolerance 1e-10.
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
    top = float(np.nextafter(upper, -np.inf))   # keeps `upper` itself out
    if window is not None:
        count = _bisect(d, e, lower, top, 2.0 * (top - lower)).size
        if count == 0:
            return np.empty(0)
        lo, hi = max(window[0], lower), min(window[1], top)
        if lo < hi:
            w = _bisect(d, e, lo, hi, _BISECT_TOL)
            if w.size == count:
                return w
    return _bisect(d, e, lower, top, _BISECT_TOL)


def _window(values, pad):
    """The interval (min(values - pad), max(values + pad)), empty when
    there are no values."""
    return (float(np.min(values - pad, initial=np.inf)),
            float(np.max(values + pad, initial=-np.inf)))


def _solve(build, h, window=None):
    """Eigenvalues below zero of the pencil build(h), bisected in
    `window` when one is given (see _eigs_below), and the step that
    pencil actually used."""
    *pencil, h_used = build(h)
    return _eigs_below(*pencil, 0.0, window), h_used


def _rough_and_coarse(build, h0):
    """The rough grid near 8 h0, bisected over its full range, and the
    coarse grid near h0, bisected in a window 1% wider than the rough
    values on each side: the h^2 term at 8 h0 is a few 1e-4 of the
    value.  Both are (values, step) pairs."""
    rough = _solve(build, _ROUGH * h0)
    return rough, _solve(build, h0,
                         _window(rough[0], _ROUGH_PAD * np.abs(rough[0])))


def _eigs_extrapolated(build, h0, rough, first, coarse=None):
    """Eigenvalues below zero on grids near h0 and h0/2, combined by
    quadratic extrapolation (r^2 E_f - E_c) / (r^2 - 1).

    build(h) returns the pencil and the step it actually used (the radial
    grids move h to put the circle on or between nodes), and r = h_c/h_f
    is the ratio of those steps, so the h^2 term cancels exactly even
    when it is not 2.  The bisection counts are exact for each grid, but
    the second-difference pencil limits single-grid absolute accuracy to
    about eps * ||T||; two moderately fine grids plus extrapolation beat
    one very fine grid.  Unpaired near-threshold states keep their
    fine-grid values.

    rough and first are _rough_and_coarse(build, h0), solved at the same
    outer boundary; coarse is the coarse grid's (values, step) after the
    boundary moved, or first when it did not.  The fine grid is bisected
    in a window around the h^2 prediction coarse + (first - rough)
    (h_f^2 - h_c^2) / (h_c^2 - h_r^2), padded by 1% of the h^2 term seen,
    |first - rough|, and of the boundary's move, |coarse - first|.  On
    the line models for alpha in [0.05, 8] the prediction misses the
    fine value by at most 3e-4 of |first - rough|, well inside the pad.
    A coarse value with no rough partner gets the coarse window's pad.
    """
    (rough, hr), (first, hc) = rough, first
    coarse = first if coarse is None else coarse[0]
    *pencil, hf = build(0.5 * h0)
    n = min(rough.size, first.size, coarse.size)
    centre, pad = coarse.copy(), _ROUGH_PAD * np.abs(coarse)
    trend = first[:n] - rough[:n]
    centre[:n] += trend * (hf * hf - hc * hc) / (hc * hc - hr * hr)
    pad[:n] = _FINE_PAD * (np.abs(trend) + np.abs(coarse[:n] - first[:n]))
    fine = _eigs_below(*pencil, 0.0, _window(centre, pad))
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


def _delta_line(alpha, R, h):
    """Even-sector pencil (d, e, m, h) of the delta on the line grid of
    step h over [-R, R]: the nodes 0 ... ceil(R/h), with a Dirichlet ghost
    bond past the last.  Folding u(-x) = u(x) onto x >= 0 halves the
    center row: d_0 = 1/h - alpha/2 and m_0 = h/2."""
    n = int(math.ceil(R / h)) + 1
    d = np.full(n, 2.0 / h)
    d[0] = 1.0 / h - 0.5 * alpha
    e = np.full(n - 1, -1.0 / h)
    m = np.full(n, h)
    m[0] = 0.5 * h
    return d, e, m, h


def _deltaprime_line(beta, R, h):
    """Odd-sector pencil (d, e, m, h) of the delta-prime on the staggered
    line grid of step h over [-R, R]: the max(2, ceil(R/h)) nodes right of
    the crack, with a Dirichlet ghost bond past the last.  Under u(-x) =
    -u(x) the crack bond 1/(h - beta) sees the jump 2 u_0 and, halved,
    adds 2/(h - beta) to d_0."""
    n = max(2, int(math.ceil(R / h)))
    d = np.full(n, 2.0 / h)
    d[0] = 1.0 / h + 2.0 / (h - beta)
    e = np.full(n - 1, -1.0 / h)
    m = np.full(n, h)
    return d, e, m, h


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
    node, solved in the even sector: the nodes 0 ... R/h with the center
    row halved.  Every eigenvalue below zero is returned (the model has
    exactly one).  Non-positive alpha yields an empty list; a
    non-positive step or halfwidth raises DomainError.
    """
    _check_grid(step, halfwidth)
    if alpha <= 0:
        return OracleResult(np.empty(0), {"alpha": alpha})
    kappa = 0.5 * alpha
    R = halfwidth if halfwidth is not None else _DECAY_LENGTHS / kappa
    h0 = step if step is not None else _KH_TARGET / kappa
    def build(h):
        return _delta_line(alpha, R, h)
    eigs = _eigs_extrapolated(build, h0, *_rough_and_coarse(build, h0))
    return OracleResult(eigs, {"alpha": alpha, "step": h0, "halfwidth": R})


def point_deltaprime_1d(beta: float, step: float | None = None,
                        halfwidth: float | None = None) -> OracleResult:
    """Bound states of the line operator with a delta-prime coupling at 0.

    The grid on [-R, R] is staggered so the coupling sits between the two
    middle nodes; the bond coefficient 1/(h - beta) reproduces a value
    jump of -beta times the continuous flux.  It is solved in the odd
    sector, on the nodes right of the crack, where the crack bond
    contributes 2/(h - beta) to the first diagonal entry.  Non-positive
    beta yields an empty list; a non-positive step or halfwidth raises
    DomainError.  The coarse step is capped at beta / 20, a given step
    included: step=0.5 with beta = 2 runs at 0.1.  resolution["step"]
    reports the step used.
    """
    _check_grid(step, halfwidth)
    if beta <= 0:
        return OracleResult(np.empty(0), {"beta": beta})
    kappa = 2.0 / beta
    R = halfwidth if halfwidth is not None else _DECAY_LENGTHS / kappa
    h0 = step if step is not None else _KH_TARGET / kappa
    if h0 >= beta / 20.0:
        h0 = beta / 20.0
    def build(h):
        return _deltaprime_line(beta, R, h)
    eigs = _eigs_extrapolated(build, h0, *_rough_and_coarse(build, h0))
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


def _mode_eigs(R, strength, mode, h0, rout, coupling, widen):
    """One angular mode's extrapolated eigenvalues below zero, and the
    outer radius they were solved at.  With widen, the radius grows from
    rout until it reaches R + 16 / sqrt(-lambda), lambda the mode's
    weakest bound value on the coarse grid (three coarse solves at most);
    the rough and fine grids are solved once, at the first and the final
    radius.  A wider grid holds the narrower one as a leading block, so
    its values lie at or below the narrower grid's (Cauchy interlacing),
    and a wall L decay lengths out lifts a value by about 4 exp(-2L) of
    itself (the 1d delta's lift): each wider coarse grid is bisected in a
    window reaching four times that lift below the narrower grid's
    values."""
    def build(h):
        return _radial_pencil(R, strength, mode, h, rout, coupling)
    rough, first = _rough_and_coarse(build, h0)
    coarse = first
    for _ in range(2):
        lam = coarse[0]
        if not widen or not lam.size:
            break
        kappa = math.sqrt(-lam[-1])
        need = R + _DECAY_LENGTHS / kappa
        if rout >= need:
            break
        lift = _WALL_LIFT * math.exp(-2.0 * (rout - R) * kappa)
        rout = need
        coarse = _solve(build, h0,
                        _window(lam, lift * np.abs(lam) + _BISECT_TOL))
    return _eigs_extrapolated(build, h0, rough, first, coarse), rout


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
    # mode m + 1 starts from mode m's radius: on one grid its pencil is
    # mode m's plus a positive diagonal, so it is no more bound
    rout = r_out if r_out is not None else R + _DECAY_LENGTHS / tent_kappa
    per_mode = []
    for mode in range(m_max + 1):
        eigs, rout = _mode_eigs(R, strength, mode, h0, rout, coupling,
                                r_out is None)
        per_mode.append(eigs)
    all_eigs = np.sort(np.concatenate(per_mode))
    return per_mode, all_eigs, {"step": h0, "r_out": rout, "m_max": m_max}


def circle_delta_radial(R: float, alpha: float, m_max: int = 2,
                        step: float | None = None,
                        r_out: float | None = None) -> OracleResult:
    """Negative eigenvalues of the plane problem with a delta coupling of
    strength alpha on the circle of radius R, one list per angular mode.

    Each mode's outer radius adapts to its own computed decay rate (see
    the module docstring) unless r_out is given; resolution["r_out"] is
    the largest radius any mode used, so passing it back as r_out gives
    every mode at least its own grid.  The lowest eigenvalue must
    respect the proven bound lambda_1 >= -alpha^2: on each ray r > R,
    R |u(R)|^2 <= 2 ||u|| ||d_r u||, so alpha * int_circle |u|^2 <=
    ||grad u||^2 + alpha^2 ||u||^2.  A value below it raises
    ConsistencyError.
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
    the circle, with the jump proportional to the continuous radial flux.
    Its radii adapt per mode as there, and resolution["r_out"] is again
    the largest, which gives every mode at least its own grid when passed
    back as r_out.  As in point_deltaprime_1d the coarse step is capped
    at beta / 20, a given step included (step=0.5 with beta = 0.8 runs
    at 0.04), and resolution["step"] reports the step used."""
    per_mode, eigs, res = _radial_eigs(R, beta, m_max, step, r_out,
                                       "deltaprime", 2.0 / beta)
    res["beta"] = beta
    return OracleResult(eigs, res, per_mode=tuple(per_mode))
