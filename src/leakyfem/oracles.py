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
that (kappa the decay rate, alpha/2 or 2/beta, and h the step at the
coupling), and extrapolates the h^2 term away.  That step balances the
two errors left: the extrapolation remainder, O((kappa h)^4), and the
rounding floor, O(eps / (kappa h)^2), both scaled by kappa^2.  The
closed forms are met within 3e-10 for kappa <= 4, that is alpha <= 8
and beta >= 0.5 (measured at eleven values of alpha from 0.2 to 8 with
beta = 4/alpha).  No transcendental matching formulas are trusted: the
closed forms -alpha^2/4 and -4/beta^2, and the Bessel matching
conditions of the circle, appear only in the test suite as cross-checks
of the oracles themselves.

Point couplings enter the grid exactly: the delta sits on a grid node
and subtracts alpha from that diagonal entry of the form; the
delta-prime sits between two nodes and replaces the bond coefficient
1/dx by 1/(dx - beta), dx that bond's length, which encodes a trace
jump of -beta times the (continuous) flux across the gap.  Both line
grids are symmetric about the coupling, and only one symmetry sector
can hold a bound state, so each is solved on its half-line: the delta
in the even sector (the odd one has u(0) = 0 and is a Dirichlet
Laplacian), the delta-prime in the odd sector (the even one sees no
jump).  Their eigenvalues below zero
are those of the whole line in exact arithmetic, from half the nodes.

Every grid is graded away from the coupling: its nodes are x(s) =
expm1(b s) / b of a uniform coordinate s of step h, with b = kappa/2.
The step is h at the coupling to first order and grows like h (1 + b x)
at the distance x from it, where the bound state has decayed like
exp(-kappa x) (graded meshes for decaying eigenfunctions: Babuska &
Osborn, Eigenvalue problems, Handbook of Numerical Analysis II, 1991).
The map is smooth and the same on the three grids of an oracle, so the
error still expands in even powers of h and the extrapolation still
cancels the h^2 term.  A line grid 16 decay lengths wide takes 1100
nodes at kappa h = 4e-3, against 4000 on a uniform grid.  A circle grid
is uniform inside the circle and graded past it.  The map depends
neither on the halfwidth nor on the outer radius, so a wider grid holds
the narrower one as a leading block.

Every grid reaches 16 decay lengths past the coupling.  The line models
take halfwidth 16/kappa.  Each angular mode of a circle gets its own
outer radius R + 16/sqrt(-lambda), lambda that mode's weakest bound
value: mode 0 starts from R + 16/kappa, mode m + 1 from mode m's radius,
and the radius widens on the coarse grid only, when it falls short by
more than a relative 1e-9, before the fine grid is solved once.  A mode
too weakly bound to show on its starting grid is not reported.

The resolution is fixed: no oracle takes a grid argument.  Each result
reports the grid it solved in `resolution`: the coarse step h0 =
4e-3/kappa, and the line's halfwidth or the largest outer radius any
circle mode was built at.

All four models climb one ladder of grids.  Most of the bisection is
spent halving down from the Gershgorin bound (about -6.5e5 on a fine
grid), although a coarser grid already places each value far closer.
So only a rough grid at 8 h0 is bisected over its full range.  Every
other grid is bisected in a window: the coarse grid at h0 around the
rough values (padded by 1% of the value or of kappa^2, whichever is
larger), a widened circle grid just below the narrower grid's values,
and the fine grid at h0/2 around the h^2 prediction from the rough and
coarse grids.  One exact Sturm count of all values below zero certifies
each window; a window that misses a counted value falls back to the
full range, so the counts stay exact and the tolerance stays 1e-10
(Parlett, The Symmetric Eigenvalue Problem, ch. 3, on counts confirming
a guessed interval).
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
                          # or to kappa^2, whichever is larger
_FINE_PAD = 1e-2          # fine window half-width, relative to the h^2 term
_WALL_LIFT = 16.0         # four times the 1d lift 4 exp(-2L) of a wall
_WIDEN_SLACK = 1e-9       # relative shortfall of a radius left unwidened
_GRADE = 0.5              # grid grading rate b, in units of the decay rate


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
    own default, eps * ||T||, would be up to 4e-9 on the fine grids.  When
    that range is empty (Gershgorin bound - 1 >= upper, as on the grids
    of a high angular mode of a circle), no value lies below `upper` and
    dstebz, which refuses an empty range, is not called.

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
    if lower >= top:
        return np.empty(0)
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


def _coarse_pad(values, kappa):
    """Half-width of the coarse window around rough values: 1% of the
    value, or of kappa^2 when that is larger (kappa the coupling's decay
    rate).  The h^2 term at 8 h0 is a few 1e-4 of kappa^2, so it is a
    larger share of a weakly bound value: R = 1, alpha = 2.02, m = 1
    moves by 1.9% from the rough to the coarse grid."""
    return _ROUGH_PAD * np.maximum(np.abs(values), kappa * kappa)


def _ladder(build, h0, kappa, reach, R=None):
    """Eigenvalues below zero of the pencils build(h, reach), extrapolated
    to h = 0, and the reach of the last grid.

    build(h, reach) returns the pencil of a grid of step near h reaching
    out to `reach`, and the step it actually used (the radial grids move
    h to put the circle on or between nodes).  The ladder solves:

    - the rough grid at 8 h0 over its full range;
    - the coarse grid at h0 in a window _coarse_pad wider than the rough
      values on each side;
    - for a circle mode (R its radius), the coarse grid again at a wider
      reach while `reach` falls short of R + 16 / sqrt(-lambda), lambda
      the weakest coarse value, by more than a relative 1e-9 (twice at
      most).  A wider grid holds the narrower one as a leading block, so
      its values lie at or below the narrower grid's (Cauchy
      interlacing), and a wall L decay lengths out lifts a value by about
      4 exp(-2L) of itself (the 1d delta's lift): the window reaches four
      times that lift below the narrower grid's values;
    - the fine grid at h0/2 and the final reach, in a window around the
      h^2 prediction coarse + (first - rough) (h_f^2 - h_c^2) / (h_c^2 -
      h_r^2), first the coarse values at the first reach, padded by 1%
      of the h^2 term seen, |first - rough|, and of the reach's move,
      |coarse - first|.  A coarse value with no rough partner gets the
      coarse window's pad.  On the line models for alpha in [0.05, 8]
      the prediction misses the fine value by at most 3e-4 of |first -
      rough|, well inside the pad.

    The coarse and fine values are combined by quadratic extrapolation
    (r^2 E_f - E_c) / (r^2 - 1), r = h_c/h_f the ratio of the steps
    used, so the h^2 term cancels exactly even when r is not 2.  The
    bisection counts are exact for each grid, but the second-difference
    pencil limits single-grid absolute accuracy to about eps * ||T||;
    two moderately fine grids plus extrapolation beat one very fine
    grid.  Unpaired near-threshold states keep their fine-grid values.
    """
    def solve(h, window=None):      # at the current reach
        *pencil, step = build(h, reach)
        return _eigs_below(*pencil, 0.0, window), step
    rough, hr = solve(_ROUGH * h0)
    first, hc = solve(h0, _window(rough, _coarse_pad(rough, kappa)))
    coarse = first
    for _ in range(0 if R is None else 2):
        if not coarse.size:
            break
        rate = math.sqrt(-coarse[-1])
        need = R + _DECAY_LENGTHS / rate
        if reach >= need * (1.0 - _WIDEN_SLACK):
            break
        lift = _WALL_LIFT * math.exp(-2.0 * (reach - R) * rate)
        reach = need
        coarse, _ = solve(h0, _window(coarse,
                                      lift * np.abs(coarse) + _BISECT_TOL))
    *pencil, hf = build(0.5 * h0, reach)
    n = min(rough.size, first.size, coarse.size)
    centre, pad = coarse.copy(), _coarse_pad(coarse, kappa)
    trend = first[:n] - rough[:n]
    centre[:n] += trend * (hf * hf - hc * hc) / (hc * hc - hr * hr)
    pad[:n] = _FINE_PAD * (np.abs(trend) + np.abs(coarse[:n] - first[:n]))
    fine = _eigs_below(*pencil, 0.0, _window(centre, pad))
    r2 = (hc / hf) ** 2
    n = min(coarse.size, fine.size)
    vals = (r2 * fine[:n] - coarse[:n]) / (r2 - 1.0)
    return np.sort(np.concatenate([vals, fine[n:]])), reach


def _graded(n, shift, a, bh, h):
    """A grid of n nodes and a Dirichlet ghost past them: the node and
    face coordinates and the bond and cell lengths, all times h.

    In steps of h, node j sits at t(j + shift), j = 0 ... n (n is the
    ghost), and face j at t(j + shift - 1/2), clipped at 0: the faces
    halve the uniform coordinate between the nodes, and cell j runs from
    face j to face j + 1.  The map t(u) = u for u <= a and a + expm1(bh
    (u - a)) / bh beyond keeps the grid uniform up to a and the step h
    at a to first order; past a the step grows like h (1 + b x) with the
    distance x from a.  Each coordinate depends only on its own index,
    so a larger n adds nodes and leaves the others as they were, and the
    lengths inside the uniform part are exactly h."""
    def t(u):
        v = u - a
        return np.where(v > 0, a + np.expm1(bh * v) / bh, u)
    u = np.arange(n + 1) + shift
    nodes, faces = t(u), t(np.maximum(u - 0.5, 0.0))
    return nodes * h, faces * h, np.diff(nodes) * h, np.diff(faces) * h


def _reach(length, bh):
    """How many steps of the map in _graded it takes to go `length` steps
    past a."""
    return math.log1p(bh * length) / bh


def _tridiagonal(c):
    """Diagonal and off-diagonal of the bond sum: bond j joins node j
    and j + 1, the last bond the Dirichlet ghost."""
    d = c.copy()
    d[1:] += c[:-1]
    return d, -c[:-1]


def _delta_line(alpha, R, h):
    """Even-sector pencil (d, e, m, h) of the delta over [-R, R], on the
    graded line grid of coordinate step h: the nodes x(j h), j = 0 ...
    n - 1 with x((n - 1) h) >= R, and a Dirichlet ghost at x(n h), where
    x(s) = expm1(b s) / b and b = kappa/2.  Each bond weight is 1/dx (dx
    the bond's length) and each mass the cell between the images of the
    midpoints in s.  Folding u(-x) = u(x) onto x >= 0 leaves node 0 half
    its cell and only its right bond: d_0 = 1/x(h) - alpha/2 and m_0 =
    x(h/2)."""
    bh = _GRADE * 0.5 * alpha * h
    n = int(math.ceil(_reach(R / h, bh))) + 1
    _, _, bond, cell = _graded(n, 0.0, 0.0, bh, h)
    d, e = _tridiagonal(1.0 / bond)
    d[0] -= 0.5 * alpha
    return d, e, cell, h


def _deltaprime_line(beta, R, h):
    """Odd-sector pencil (d, e, m, h) of the delta-prime over [-R, R], on
    the staggered graded line grid of coordinate step h: the nodes x((j +
    1/2) h), j = 0 ... n - 1, n = max(2, ceil(s_R / h)) with x(s_R) = R,
    and a Dirichlet ghost at x((n + 1/2) h), x as in _delta_line with b =
    kappa/2.  Each bond weight is 1/dx and each mass the cell between
    x(j h) and x((j + 1) h).  The crack bond joins -x(h/2) and x(h/2);
    under u(-x) = -u(x) its coefficient 1/(2 x(h/2) - beta) sees the jump
    2 u_0 and, halved, adds 2/(2 x(h/2) - beta) to d_0."""
    bh = _GRADE * 2.0 / beta * h
    n = max(2, int(math.ceil(_reach(R / h, bh))))
    x, _, bond, cell = _graded(n, 0.5, 0.0, bh, h)
    d, e = _tridiagonal(1.0 / bond)
    d[0] += 2.0 / (2.0 * x[0] - beta)
    return d, e, cell, h


@dataclass(frozen=True)
class OracleResult:
    """Eigenvalues below the continuum threshold of a 1d reference model."""

    eigenvalues: np.ndarray
    resolution: dict = field(default_factory=dict)
    per_mode: tuple | None = None


def _decay_rate(coupling, strength):
    """The decay rate kappa of the straight coupling's bound state:
    alpha/2 for the delta, 2/beta for the delta-prime."""
    return 0.5 * strength if coupling == "delta" else 2.0 / strength


def _point(coupling, strength):
    """The line model of `coupling` ("delta" with strength alpha or
    "deltaprime" with beta) on its half-line 16 decay lengths wide; no
    bound state for a non-positive strength."""
    key = "alpha" if coupling == "delta" else "beta"
    if strength <= 0:
        return OracleResult(np.empty(0), {key: strength})
    line = _delta_line if coupling == "delta" else _deltaprime_line
    kappa = _decay_rate(coupling, strength)
    h0 = _KH_TARGET / kappa
    eigs, R = _ladder(lambda h, R: line(strength, R, h), h0, kappa,
                      _DECAY_LENGTHS / kappa)
    return OracleResult(eigs, {key: strength, "step": h0, "halfwidth": R})


def point_delta_1d(alpha: float) -> OracleResult:
    """Bound states of the line operator -u'' - alpha * delta_0.

    Second differences on the graded grid over [-R, R] with the delta on
    the center node, solved in the even sector: the nodes from the
    center to R with the center row halved (see _delta_line).  Every
    eigenvalue below zero is returned (the model has exactly one).
    Non-positive alpha yields an empty list.
    """
    return _point("delta", alpha)


def point_deltaprime_1d(beta: float) -> OracleResult:
    """Bound states of the line operator with a delta-prime coupling at 0.

    The graded grid on [-R, R] is staggered so the coupling sits between
    the two middle nodes; the bond coefficient 1/(dx - beta), dx that
    bond's length, reproduces a value jump of -beta times the continuous
    flux.  It is solved in the odd sector, on the nodes right of the
    crack, where the crack bond contributes 2/(dx - beta) to the first
    diagonal entry (see _deltaprime_line).  Non-positive beta yields an
    empty list.
    """
    return _point("deltaprime", beta)


def _radial_pencil(R, strength, mode, h, r_out, coupling):
    """Tridiagonal form/mass pencil of the radial reduction at one angular
    mode, and the step it used; `coupling` is "delta" (node term) or
    "deltaprime" (bond term).

    The nodes sit at r((j + 1/2) h) and the faces at r(j h), r the map
    of _graded: uniform (r(s) = s) inside the circle, so the node or bond
    that carries the coupling is placed as on a uniform grid, and graded
    past R with b = kappa/2.  The last cell reaches r_out, and a
    Dirichlet ghost follows it.  Each bond weight is r_face/dx, each mass
    r dx' (dx the bond's length, dx' the cell's) and the mode term
    mode^2 dx'/r; the delta-prime bond across R has the weight
    R/(dx - beta)."""
    if coupling == "delta":
        i0 = max(4, round(R / h - 0.5))
        a = i0 + 0.5                # interface exactly on node i0
    else:
        i0 = max(4, round(R / h))
        a = float(i0)               # interface exactly between i0-1 and i0
    h = R / a
    bh = _GRADE * _decay_rate(coupling, strength) * h
    n = int(math.ceil(a + _reach((r_out - R) / h, bh)))
    r, faces, bond, cell = _graded(n, 0.5, a, bh, h)
    r = r[:-1]
    c = faces[1:] / bond
    if coupling == "deltaprime":
        c[i0 - 1] = R / (bond[i0 - 1] - strength)
    d, e = _tridiagonal(c)
    if coupling == "delta":
        d[i0] -= strength * R
    if mode:
        d += mode * mode * cell / r
    return d, e, r * cell, h


def _circle(coupling, R, strength, m_max):
    """The radial ladders of modes 0 ... m_max, as an OracleResult."""
    if R <= 0 or strength <= 0:
        raise DomainError("radius and coupling strength must be positive")
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    kappa = _decay_rate(coupling, strength)
    h0 = _KH_TARGET / kappa
    # mode m + 1 starts from mode m's radius: on one grid its pencil is
    # mode m's plus a positive diagonal, so it is no more bound
    r_out = R + _DECAY_LENGTHS / kappa
    per_mode = []
    for mode in range(m_max + 1):
        def build(h, r):
            return _radial_pencil(R, strength, mode, h, r, coupling)
        eigs, r_out = _ladder(build, h0, kappa, r_out, R)
        per_mode.append(eigs)
    key = "alpha" if coupling == "delta" else "beta"
    return OracleResult(np.sort(np.concatenate(per_mode)),
                        {"step": h0, "r_out": r_out, "m_max": m_max,
                         key: strength}, per_mode=tuple(per_mode))


def circle_delta_radial(R: float, alpha: float,
                        m_max: int = 2) -> OracleResult:
    """Negative eigenvalues of the plane problem with a delta coupling of
    strength alpha on the circle of radius R, one list per angular mode.

    Each mode's outer radius adapts to its own computed decay rate (see
    the module docstring); resolution["r_out"] is the largest radius any
    mode used.  A mode too weakly bound to go below 0 on its starting
    grid is not reported: R = 1, alpha = 2.005, m = 1 has the Bessel
    root -0.00136, but its starting radius, set by mode 0, pushes it
    above 0, and its list is empty.  The lowest eigenvalue must respect
    the proven bound lambda_1 >= -alpha^2: on each ray r > R, R |u(R)|^2
    <= 2 ||u|| ||d_r u||, so alpha * int_circle |u|^2 <= ||grad u||^2 +
    alpha^2 ||u||^2.  A value below it raises ConsistencyError.
    """
    result = _circle("delta", R, alpha, m_max)
    eigs = result.eigenvalues
    if eigs.size and eigs[0] < -alpha * alpha:
        raise ConsistencyError(
            f"radial oracle fell below the bound -alpha^2: {eigs[0]}")
    return result


def circle_deltaprime_radial(R: float, beta: float,
                             m_max: int = 2) -> OracleResult:
    """Delta-prime analog of circle_delta_radial: the trace may jump across
    the circle, with the jump proportional to the continuous radial flux.
    Its radii adapt per mode as there, and resolution["r_out"] is again
    the largest.  As there, a mode too weakly bound to go below 0 on its
    starting grid is not reported."""
    return _circle("deltaprime", R, beta, m_max)
