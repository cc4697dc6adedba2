import ast
import inspect
import runpy
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import optimize, special

from leakyfem import oracles
from leakyfem.errors import DomainError


def test_point_delta_closed_form():
    # elementary matching gives the single bound state -alpha^2/4;
    # alpha = 8 is the edge of the documented safe range
    for alpha, exact in ((2.0, -1.0), (4.0, -4.0), (1.0, -0.25),
                         (8.0, -16.0)):
        r = oracles.point_delta_1d(alpha)
        assert r.eigenvalues.shape == (1,)
        assert r.eigenvalues[0] == pytest.approx(exact, abs=1e-8)


def test_point_closed_forms_over_the_safe_range():
    # beta = 4/alpha: both models have the one bound state -alpha^2/4
    # (= -4/beta^2), met within 2e-9 from alpha = 0.2 to the edge of the
    # safe range
    for alpha in (0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        exact = -0.25 * alpha * alpha
        d = oracles.point_delta_1d(alpha).eigenvalues
        dp = oracles.point_deltaprime_1d(4.0 / alpha).eigenvalues
        assert d.shape == dp.shape == (1,)
        assert abs(d[0] - exact) <= 2e-9, alpha
        assert abs(dp[0] - exact) <= 2e-9, alpha


def test_point_delta_small_alpha_limit():
    vals = [oracles.point_delta_1d(a).eigenvalues[0]
            for a in (0.5, 0.25, 0.125)]
    assert all(v < 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]  # tends to zero from below


def test_point_delta_nonpositive_alpha_empty():
    assert oracles.point_delta_1d(0.0).eigenvalues.size == 0
    assert oracles.point_delta_1d(-2.0).eigenvalues.size == 0


def test_point_deltaprime_closed_form():
    # beta = 0.5 is the edge of the documented safe range
    for beta, exact in ((2.0, -1.0), (4.0, -0.25), (1.0, -4.0),
                        (0.5, -16.0)):
        r = oracles.point_deltaprime_1d(beta)
        assert r.eigenvalues.shape == (1,)
        assert r.eigenvalues[0] == pytest.approx(exact, abs=1e-8)


def test_point_deltaprime_nonpositive_beta_empty():
    assert oracles.point_deltaprime_1d(0.0).eigenvalues.size == 0
    assert oracles.point_deltaprime_1d(-1.0).eigenvalues.size == 0


def test_borderline_degeneracy_1d():
    # beta = 4/alpha: the two 1d point models share the eigenvalue exactly
    alpha = 2.0
    d = oracles.point_delta_1d(alpha).eigenvalues[0]
    dp = oracles.point_deltaprime_1d(4.0 / alpha).eigenvalues[0]
    assert d == pytest.approx(-1.0, abs=1e-8)
    assert dp == pytest.approx(-1.0, abs=1e-8)
    assert d == pytest.approx(dp, abs=2e-8)


def test_resolution_convergence(monkeypatch):
    # halving the base grid moves the reported values by < 1e-7
    fns = (oracles.point_delta_1d, oracles.point_deltaprime_1d)
    base = [fn(2.0) for fn in fns]
    monkeypatch.setattr(oracles, "_KH_TARGET", 0.5 * oracles._KH_TARGET)
    for fn, b in zip(fns, base):
        finer = fn(2.0)
        assert finer.resolution["step"] == 0.5 * b.resolution["step"]
        assert abs(b.eigenvalues[0] - finer.eigenvalues[0]) < 1e-7


def test_circle_delta_modes():
    r = oracles.circle_delta_radial(1.0, 5.0, m_max=3)
    lens = [p.size for p in r.per_mode]
    assert lens[0] >= 1
    assert all(lens[i] >= lens[i + 1] for i in range(len(lens) - 1))
    # sanity band relative to the straight-line limit
    assert r.eigenvalues[0] > -0.25 * 25.0 - 0.5
    assert np.all(r.eigenvalues < 0)


def test_circle_delta_straight_line_limit():
    vals = [oracles.circle_delta_radial(R, 2.0, m_max=0).eigenvalues[0]
            for R in (10.0, 20.0, 40.0)]
    # monotone approach to -alpha^2/4 = -1 from below
    assert vals[0] < vals[1] < vals[2] < -1.0
    assert abs(vals[-1] + 1.0) < 5e-4


def test_circle_radial_resolution_convergence(monkeypatch):
    base = oracles.circle_delta_radial(1.0, 5.0, m_max=0)
    monkeypatch.setattr(oracles, "_KH_TARGET", 0.5 * oracles._KH_TARGET)
    finer = oracles.circle_delta_radial(1.0, 5.0, m_max=0)
    assert finer.resolution["step"] == 0.5 * base.resolution["step"]
    assert abs(base.eigenvalues[0] - finer.eigenvalues[0]) < 1e-7


def _delta_matching(R, alpha, m):
    """alpha R I_m(x) K_m(x) - 1 at x = kappa R: zero at lambda = -kappa^2.
    The scaled Bessel functions keep large x finite."""
    return lambda x: alpha * R * special.ive(m, x) * special.kve(m, x) - 1.0


def _deltaprime_matching(R, beta, m):
    """-beta kappa^2 R I'_m(x) K'_m(x) - 1 at x = kappa R."""
    def f(x):
        di = 0.5 * (special.ive(m - 1, x) + special.ive(m + 1, x))
        dk = -0.5 * (special.kve(m - 1, x) + special.kve(m + 1, x))
        return -beta / R * x * x * di * dk - 1.0
    return f


def _bessel_eigenvalue(f, R, kappa_max):
    """The eigenvalue -kappa^2 of one angular mode, or None when the
    matching function keeps its sign on (0, kappa_max R]: each mode holds
    at most one bound state."""
    lo, hi = 1e-6, kappa_max * R
    if f(lo) * f(hi) > 0:
        return None
    x = optimize.brentq(f, lo, hi, xtol=1e-15,
                        rtol=4 * np.finfo(float).eps)
    return -(x / R) ** 2


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 5.0])
def test_circle_oracles_match_the_bessel_conditions(R):
    # with lambda = -kappa^2 the radial mode m is bound where
    # alpha R I_m K_m = 1 (delta) or -beta kappa^2 R I'_m K'_m = 1
    # (delta-prime), the Bessel functions taken at kappa R
    for alpha in (1.0, 2.0, 5.0, 8.0):
        cases = [(oracles.circle_delta_radial, alpha, _delta_matching)]
        cases += [(oracles.circle_deltaprime_radial, beta,
                   _deltaprime_matching) for beta in (4.0 / alpha,
                                                      3.2 / alpha)]
        for oracle, strength, matching in cases:
            per_mode = oracle(R, strength, m_max=3).per_mode
            for m, got in enumerate(per_mode):
                where = (oracle.__name__, R, strength, m)
                exact = _bessel_eigenvalue(matching(R, strength, m), R,
                                           4.0 * (alpha + 2.5 / strength))
                if exact is None:
                    assert got.size == 0, where
                else:
                    assert got.shape == (1,), where
                    assert abs(got[0] - exact) <= 1e-9, (where,
                                                         got[0] - exact)


@pytest.mark.parametrize("alpha, root", [(2.05, -0.0211171007),
                                         (2.01, -0.0030469202)])
def test_circle_delta_near_threshold_mode(alpha, root):
    # the unit circle's m = 1 delta mode is bound only for alpha > 2; its
    # decay length (7 and 18 here) far exceeds mode 0's, so it needs an
    # outer radius of its own
    exact = _bessel_eigenvalue(_delta_matching(1.0, alpha, 1), 1.0,
                               4.0 * alpha)
    assert exact == pytest.approx(root, abs=1e-10)
    got = oracles.circle_delta_radial(1.0, alpha, m_max=1).per_mode[1]
    assert got.shape == (1,)
    assert abs(got[0] - exact) <= 1e-9, got[0] - exact


def test_results_report_the_grid_they_solved(monkeypatch):
    # the grids requested are 8, 1 and 1/2 times resolution["step"] (a
    # circle mode may repeat its coarse grid at a wider radius); a point
    # model is built at resolution["halfwidth"], and resolution["r_out"]
    # is the largest radius any circle mode was built at
    built = []
    for name in ("_delta_line", "_deltaprime_line"):
        def line(strength, R, h, real=getattr(oracles, name)):
            built.append((h, R))
            return real(strength, R, h)
        monkeypatch.setattr(oracles, name, line)
    real_radial = oracles._radial_pencil

    def radial(R, strength, mode, h, r_out, coupling):
        built.append((h, r_out))
        return real_radial(R, strength, mode, h, r_out, coupling)
    monkeypatch.setattr(oracles, "_radial_pencil", radial)
    for oracle in (oracles.point_delta_1d, oracles.point_deltaprime_1d):
        for strength in (0.5, 2.0, 8.0):
            built.clear()
            res = oracle(strength).resolution
            h0 = res["step"]
            assert built == [(8.0 * h0, res["halfwidth"]),
                             (h0, res["halfwidth"]),
                             (0.5 * h0, res["halfwidth"])]
    for oracle, strength in ((oracles.circle_delta_radial, 2.05),
                             (oracles.circle_deltaprime_radial, 0.64)):
        built.clear()
        res = oracle(1.0, strength, m_max=3).resolution
        h0 = res["step"]
        steps = [h for h, _ in built]
        starts = [i for i, h in enumerate(steps) if h == 8.0 * h0]
        assert len(starts) == 4
        for a, b in zip(starts, starts[1:] + [len(steps)]):
            mode = steps[a:b]
            assert len(mode) >= 3
            assert mode[1:-1] == [h0] * (len(mode) - 2)
            assert mode[-1] == 0.5 * h0
        radii = [r for _, r in built]
        assert len(set(radii)) > 1          # some mode widened its grid
        assert max(radii) == res["r_out"]


def test_circle_modes_past_the_last_bound_one_are_empty():
    # modes m >= 3 of these circles hold no bound state; from m = 19
    # (delta) and m = 16 (delta-prime) on, the mode term lifts the rough
    # grid's Gershgorin bound above 1, so the range (bound - 1, 0) that
    # dstebz would be given is empty
    for oracle, strength in ((oracles.circle_delta_radial, 5.0),
                             (oracles.circle_deltaprime_radial, 0.8)):
        few = oracle(1.0, strength, m_max=3)
        many = oracle(1.0, strength, m_max=24)
        assert len(many.per_mode) == 25
        for got, want in zip(many.per_mode, few.per_mode):
            np.testing.assert_array_equal(got, want)
        assert all(p.size == 0 for p in many.per_mode[4:])
        np.testing.assert_array_equal(many.eigenvalues, few.eigenvalues)
        assert many.resolution["r_out"] == few.resolution["r_out"]


def test_circle_delta_below_the_line_limit_at_small_radius():
    # curvature pulls lambda_1 of a small circle below -alpha^2/4 - 0.5,
    # but never below the proven bound -alpha^2
    for R, alpha in ((0.5, 5.0), (0.5, 8.0), (0.25, 8.0)):
        exact = _bessel_eigenvalue(_delta_matching(R, alpha, 0), R,
                                   4.0 * alpha)
        assert exact < -0.25 * alpha * alpha - 0.5
        got = oracles.circle_delta_radial(R, alpha).eigenvalues
        assert abs(got[0] - exact) <= 1e-9, (R, alpha, got[0] - exact)


def test_circle_deltaprime_pairing():
    alpha = 5.0
    rd = oracles.circle_delta_radial(1.0, alpha, m_max=2)
    rp = oracles.circle_deltaprime_radial(1.0, 4.0 / alpha, m_max=2)
    for pd, pp in zip(rd.per_mode, rp.per_mode):
        n = min(pd.size, pp.size)
        assert np.all(pp[:n] <= pd[:n] + 1e-6)
    with pytest.raises(DomainError):
        oracles.circle_deltaprime_radial(1.0, -1.0, m_max=1)


def test_circle_rejects_bad_parameters():
    with pytest.raises(DomainError):
        oracles.circle_delta_radial(-1.0, 5.0)
    with pytest.raises(DomainError):
        oracles.circle_delta_radial(1.0, 5.0, m_max=-2)


def _whole_line(coupling, strength, h, half):
    """The dense whole-line pencil (T, M) that a sector pencil of `half`
    nodes folds, and the basis of the sector left out: odd vectors
    through the delta node, even vectors across the delta-prime crack.
    The nodes x(s) = expm1(b s) / b, b = _GRADE kappa, are mirrored about
    the coupling: s = j h for the delta, s = (j + 1/2) h for the
    delta-prime, with a Dirichlet ghost past the last node on each side.
    Each bond weight is 1/dx (1/(dx - beta) across the crack) and each
    mass the cell between the images of the midpoints in s."""
    kappa = 0.5 * strength if coupling == "delta" else 2.0 / strength
    b = oracles._GRADE * kappa

    def x(s):
        return np.sign(s) * np.expm1(b * np.abs(s)) / b
    if coupling == "delta":
        s = np.arange(-half, half + 1) * h
    else:
        s = (np.arange(-half - 1, half + 1) + 0.5) * h
    c = 1.0 / np.diff(x(s))
    if coupling == "deltaprime":
        c[half] = 1.0 / (2.0 * x(0.5 * h) - strength)
    d = c[:-1] + c[1:]
    n = d.size
    if coupling == "delta":
        d[half - 1] -= strength
        P = np.zeros((n, half - 1))
        for i in range(1, half):
            P[half - 1 + i, i - 1], P[half - 1 - i, i - 1] = 1.0, -1.0
    else:
        P = np.zeros((n, half))
        for j in range(half):
            P[half + j, j], P[half - 1 - j, j] = 1.0, 1.0
    T = np.diag(d) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)
    M = np.diag(np.diff(x(0.5 * (s[:-1] + s[1:]))))
    return T, M, P


@pytest.mark.parametrize("coupling", ["delta", "deltaprime"])
def test_sector_pencils_keep_the_whole_line_bound_states(coupling):
    # only one symmetry sector can hold a bound state: the sector pencil
    # has the whole line's eigenvalues below zero, and the sector left
    # out has none
    sector = {"delta": oracles._delta_line,
              "deltaprime": oracles._deltaprime_line}[coupling]
    for alpha in (1.0, 2.0, 6.0):
        strength = alpha if coupling == "delta" else 4.0 / alpha
        # kappa h = 0.1 and 0.07, coarse enough for the dense solves
        for h in (0.2 / alpha, 0.14 / alpha):
            d, e, m, _ = sector(strength, 4.0, h)
            T, M, P = _whole_line(coupling, strength, h, d.size)
            whole = scipy.linalg.eigh(T, M, eigvals_only=True)
            s = 1.0 / np.sqrt(np.diag(M))
            norm = np.linalg.norm(s[:, None] * T * s, 2)
            half = scipy.linalg.eigh(np.diag(d) + np.diag(e, 1)
                                     + np.diag(e, -1), np.diag(m),
                                     eigvals_only=True)
            where = (alpha, h)
            below = whole[whole < 0]
            assert below.size >= 1, where
            assert half[half < 0].size == below.size, where
            np.testing.assert_allclose(half[:below.size], below, rtol=0,
                                       atol=1e-12 * norm, err_msg=where)
            rest = scipy.linalg.eigh(P.T @ T @ P, P.T @ M @ P,
                                     eigvals_only=True)
            assert rest[0] > 0, where


def _random_pencil(rng, n):
    d = rng.uniform(-2.0, 2.0, n)
    e = rng.uniform(-1.0, 1.0, n - 1)
    m = 10.0 ** rng.uniform(0.0, 3.0, n)   # a 1e3 spread in the mass
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return d, e, m, scipy.linalg.eigh(T, np.diag(m), eigvals_only=True)


def _spy_dstebz(monkeypatch):
    """Record each dstebz call as (n, kind, count): kind "count" for a
    tolerance wider than 1e-10, "full" for a bisection from the
    Gershgorin bound of the scaled matrix, "window" otherwise."""
    calls = []
    real = oracles.dstebz

    def spy(d, e, irange, vl, vu, il, iu, tol, order):
        out = real(d, e, irange, vl, vu, il, iu, tol, order)
        r = np.zeros_like(d)
        r[:-1] += np.abs(e)
        r[1:] += np.abs(e)
        if tol > oracles._BISECT_TOL:
            kind = "count"
        else:
            kind = "full" if vl <= np.min(d - r) - 1.0 else "window"
        calls.append((d.size, kind, out[0]))
        return out
    monkeypatch.setattr(oracles, "dstebz", spy)
    return calls


def test_eigs_below_matches_dense_pencil(monkeypatch):
    # with or without a window, right or wrong, the values are the dense
    # ones; a window that misses a counted value ends in the full range
    calls = _spy_dstebz(monkeypatch)
    rng = np.random.default_rng(20140611)
    for _ in range(30):
        n = int(rng.integers(2, 41))
        d, e, m, dense = _random_pencil(rng, n)
        k = int(rng.integers(0, n + 1))   # how many lie below `upper`
        if k == 0:
            upper = dense[0] - 0.5
        elif k == n:
            upper = dense[-1] + 0.5
        else:
            upper = 0.5 * (dense[k - 1] + dense[k])
        windows = {"none": None,
                   "too narrow": (0.5 * (dense[0] + dense[1]), upper),
                   "empty": (upper, upper),
                   "above": (dense[-1] + 1.0, dense[-1] + 2.0)}
        if k:
            windows["correct"] = (dense[0] - 1e-3, dense[k - 1] + 1e-3)
        for kind, window in windows.items():
            calls.clear()
            got = oracles._eigs_below(d.copy(), e.copy(), m.copy(), upper,
                                      window)
            assert got.size == k, kind
            np.testing.assert_allclose(got, dense[:k], rtol=0, atol=1e-10,
                                       err_msg=kind)
            full = [c for c in calls if c[1] == "full"]
            if kind == "correct" or (k == 0 and window is not None):
                assert not full, kind
            else:
                assert calls[-1][1] == "full", kind


def test_eigs_below_excludes_an_eigenvalue_at_upper():
    # M = diag(1, 4, 16) has exact square roots: the pencil eigenvalues
    # are exactly 2, 3 and 3
    d = np.array([2.0, 12.0, 48.0])
    m = np.array([1.0, 4.0, 16.0])
    got = oracles._eigs_below(d.copy(), np.zeros(2), m.copy(), 3.0)
    np.testing.assert_array_equal(got, [2.0])
    got = oracles._eigs_below(d.copy(), np.zeros(2), m.copy(), 2.0)
    assert got.size == 0


def test_eigs_below_nothing_below_upper():
    d, e, m, dense = _random_pencil(np.random.default_rng(7), 25)
    got = oracles._eigs_below(d, e, m, dense[0] - 1e-6)
    assert isinstance(got, np.ndarray) and got.size == 0


def _without_windows(monkeypatch):
    """Make every oracle grid take the full-range path."""
    real = oracles._eigs_below
    monkeypatch.setattr(oracles, "_eigs_below",
                        lambda d, e, m, upper, window=None:
                        real(d, e, m, upper))


def _oracle_set():
    """The oracles of the bench's oracle_set: values and resolutions."""
    results = [oracles.point_delta_1d(a) for a in (1.0, 2.0, 5.0)]
    results += [oracles.point_deltaprime_1d(b) for b in (4.0, 2.0, 0.8)]
    results.append(oracles.circle_delta_radial(1.0, 5.0, m_max=2))
    results.append(oracles.circle_deltaprime_radial(1.0, 0.8, m_max=2))
    return results


def _spy_sizes(monkeypatch):
    """Record the size of every grid solved, in solve order."""
    sizes = []
    real = oracles._eigs_below

    def below(d, *args):
        sizes.append(d.size)
        return real(d, *args)
    monkeypatch.setattr(oracles, "_eigs_below", below)
    return sizes


def test_oracle_set_bisects_only_the_rough_grids_over_the_full_range(
        monkeypatch):
    # 6 point models and 6 circle modes each bisect one rough grid from
    # the Gershgorin bound; every coarse and fine grid is certified by one
    # count and found whole in its window
    sizes = _spy_sizes(monkeypatch)
    calls = _spy_dstebz(monkeypatch)
    windowed = _oracle_set()
    full = [i for i, c in enumerate(calls) if c[1] == "full"]
    assert len(full) == 12
    for i in full:              # a rough grid, then its coarse grid
        n, kind, _ = calls[i + 1]
        assert kind == "count" and n > 4 * calls[i][0]
    counts = [i for i, c in enumerate(calls) if c[1] == "count"]
    assert len(calls) == len(full) + 2 * len(counts)
    for i in counts:
        n, _, count = calls[i]
        assert count >= 1
        assert calls[i + 1] == (n, "window", count)
    window_sizes = list(sizes)
    sizes.clear()
    _without_windows(monkeypatch)
    ref = _oracle_set()
    assert sizes == window_sizes
    for got, want in zip(windowed, ref):
        assert got.resolution.keys() == want.resolution.keys()
        assert got.resolution["step"] == want.resolution["step"]
        if "r_out" in want.resolution:
            assert got.resolution["r_out"] == pytest.approx(
                want.resolution["r_out"], rel=1e-9, abs=0)
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues,
                                   rtol=0, atol=2e-10)


def test_oracle_set_circles_solve_no_grid_twice(monkeypatch):
    # the outer radius widens only when it falls short by more than a
    # relative 1e-9, so a radius a rounding hair short of the decay
    # reach does not solve the same coarse grid again
    sizes = _spy_sizes(monkeypatch)
    oracles.circle_delta_radial(1.0, 5.0, m_max=2)
    oracles.circle_deltaprime_radial(1.0, 0.8, m_max=2)
    assert len(sizes) >= 18        # rough, coarse and fine for 6 modes
    assert all(a != b for a, b in zip(sizes, sizes[1:])), sizes


@pytest.mark.parametrize("coupling", ["delta", "deltaprime"])
@pytest.mark.parametrize("mode", [0, 2])
def test_wider_radial_pencil_holds_the_narrower_as_a_leading_block(
        coupling, mode):
    # the grid map does not depend on r_out, so a wider grid only adds
    # nodes: the widened coarse grid's window relies on it
    strength = 5.0 if coupling == "delta" else 0.8
    small = oracles._radial_pencil(1.0, strength, mode, 4e-3, 9.0, coupling)
    large = oracles._radial_pencil(1.0, strength, mode, 4e-3, 14.0,
                                   coupling)
    (d, e, m, h), (dl, el, ml, hl) = small, large
    assert h == hl and dl.size > d.size
    n = d.size
    np.testing.assert_array_equal(dl[:n - 1], d[:-1])
    np.testing.assert_array_equal(el[:n - 1], e)
    np.testing.assert_array_equal(ml[:n], m)


def test_oracle_grids_are_graded_away_from_the_coupling(monkeypatch):
    # each line grid keeps its step at the coupling to first order, each
    # circle grid is uniform inside the circle, and the graded fine grid
    # of the delta line needs far fewer nodes than a uniform one (8001)
    grids = []
    real = oracles._graded

    def graded(n, shift, a, bh, h):
        nodes, faces, bond, cell = real(n, shift, a, bh, h)
        grids.append((bond, nodes, h, a > 0))
        return nodes, faces, bond, cell
    monkeypatch.setattr(oracles, "_graded", graded)
    for alpha in (0.5, 2.0, 8.0):
        for oracle, strength in ((oracles.point_delta_1d, alpha),
                                 (oracles.point_deltaprime_1d, 4.0 / alpha)):
            grids.clear()
            oracle(strength)
            b = oracles._GRADE * 0.5 * alpha
            assert len(grids) == 3
            for bond, nodes, h, _ in grids:
                # the delta's node 0 sits on the coupling; the crack bond
                # of the delta-prime joins -x(h/2) and x(h/2)
                first = bond[0] if nodes[0] == 0.0 else 2.0 * nodes[0]
                assert h < first <= h * (1.0 + b * h), (alpha, h, first)
    for oracle, R, strength in ((oracles.circle_delta_radial, 1.0, 5.0),
                                (oracles.circle_delta_radial, 0.5, 8.0),
                                (oracles.circle_deltaprime_radial, 1.0, 0.8),
                                (oracles.circle_deltaprime_radial, 2.0, 4.0)):
        grids.clear()
        oracle(R, strength, m_max=1)
        assert grids and all(radial for *_, radial in grids)
        for bond, nodes, h, _ in grids:
            inside = bond[:np.sum(nodes <= R * (1.0 + 1e-12)) - 1]
            assert inside.size >= 4
            np.testing.assert_array_equal(inside, h)
            assert np.all(bond[inside.size:] > h)
    sizes = _spy_sizes(monkeypatch)
    oracles.point_delta_1d(2.0)
    assert len(sizes) == 3 and sizes[-1] < 2500, sizes


def _straddling_cases():
    """Circle strengths just below and just above the binding threshold
    of each mode m = 1, 2, 3: alpha R = 2m for the delta, beta = 2R/m
    for the delta-prime (mode 0 is always bound)."""
    for R in (0.5, 1.0, 2.0, 5.0):
        for m in (1, 2, 3):
            for factor in (0.99, 1.01):
                yield oracles.circle_delta_radial, R, 2.0 * m / R * factor
                yield oracles.circle_deltaprime_radial, R, 2.0 * R / m / factor


def test_windows_keep_every_value_below_zero(monkeypatch):
    # windows must not let a value at or above the threshold through, nor
    # move a value: the windowed and full-range paths agree within 2e-10.
    # A weakly bound mode's h^2 term is a larger share of its value, and
    # the coarse window, padded by 1% of kappa^2, still holds it: each of
    # the four modes bisects only its rough grid over the full range
    calls = _spy_dstebz(monkeypatch)
    windowed, cases = [], list(_straddling_cases())
    alphas = np.geomspace(0.05, 8.0, 9)
    for oracle, R, strength in cases:
        calls.clear()
        windowed.append(oracle(R, strength, m_max=3).per_mode)
        assert sum(c[1] == "full" for c in calls) == 4, (oracle, R,
                                                         strength)
    for alpha in alphas:
        windowed.append((oracles.point_delta_1d(alpha).eigenvalues,
                         oracles.point_deltaprime_1d(4.0 / alpha).eigenvalues))
    _without_windows(monkeypatch)
    full = [oracle(R, strength, m_max=3).per_mode
            for oracle, R, strength in cases]
    full += [(oracles.point_delta_1d(alpha).eigenvalues,
              oracles.point_deltaprime_1d(4.0 / alpha).eigenvalues)
             for alpha in alphas]
    for where, got, want in zip(cases + list(alphas), windowed, full):
        for g, w in zip(got, want):
            assert np.all(g < 0), where
            assert g.shape == w.shape, where
            np.testing.assert_allclose(g, w, rtol=0, atol=2e-10,
                                       err_msg=str(where))


def test_oracles_share_no_code_with_the_fe_pipeline():
    tree = ast.parse(inspect.getsource(oracles))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    parts = {p for name in names for p in name.split(".")}
    assert not parts & {"femforms", "eigensolver", "pipeline"}


def test_oracle_tables_demo_runs(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "oracle_tables.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert "closed form" in out and "R=40" in out
