"""Tau-midpoints: predicates, search, lens/strip geometry, compatibility.

A point y is a tau-midpoint of a chronological pair p << q when
``tau(p,y) = tau(y,q) = tau(p,q)/2``, and an eps-tau-midpoint when both
halves hold strictly within eps.  The eps-midpoint set ("lens") is the
intersection of two one-sided superlevel sets of tau; the "strip" for a
compatibility constant c collects the points whose time-function value
lies between the two convex combinations ``(1-c)T(p)+cT(q)`` and
``cT(p)+(1-c)T(q)``.  On R^{1,1} both come in closed form from the pair's
rest frame: the lens arcs, and the largest eps whose lens fits the strip.

Midpoint search is deterministic: on causal sets one scan of the causal
diamond in integer ticks, ties broken by id; on flat backends the affine
midpoint (p+q)/2 (:func:`affine_midpoint`), which is the unique exact
tau-midpoint there, rejected when it falls on a removed point; in the
approximate case, one closed-form candidate on the lens's level of T
nearest (T(p)+T(q))/2, in the p-q plane, with the affine midpoint as the
fallback.  One pair goes through :func:`_search_with_taus`, behind
:func:`find_midpoint` and the compatibility certificate, which drops the
strip filter and reads the best constant off the selected point.  A
sequence of pairs, such as a level of the dyadic build, goes through
:func:`_search_rows`: on flat backends one call of :func:`_flat_search`
over the rows of two arrays (a single pair is one row), on causal sets the
pairs in turn.  Given tau(p,q), the search evaluates each candidate's two
half-separations once and returns those of the point it selects; the
dyadic build passes them on as the parent tau of the next level's
searches, so no adjacent tau is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (Certificate, DEFAULT_SEED, PiecewiseCausalCurve, Space,
                   TimeFunctionBundle, certify, coordinate_time, make_rng, predicate,
                   resolve_tol)
from .errors import (CurveTooShort, DegenerateStrip, MidpointBoundsViolated,
                     NotARealizer, NotChronological, UnsupportedBackend)
from .spaces import PlaneFrame


@dataclass(frozen=True)
class MidpointQuery:
    """Search parameters for one midpoint request.

    ``epsilon`` is an absolute tolerance in time units (0 requests an exact
    midpoint); ``epsilon_hat`` is the dimensionless alternative, resolved as
    ``tau(p,q) * epsilon_hat``.  At most one of the two may be positive.
    """

    p: object
    q: object
    epsilon: float = 0.0
    c: float = 0.5
    epsilon_hat: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or self.epsilon_hat < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.epsilon > 0 and self.epsilon_hat > 0:
            raise ValueError("give either an absolute or a relative tolerance, not both")
        if not 0 < self.c <= 0.5:
            raise ValueError("compatibility constant must lie in (0, 1/2]")


def is_eps_tau_midpoint(space: Space, p, q, y, epsilon: float, tol=None) -> bool:
    """Both half-separation inequalities, strict for epsilon > 0.

    For epsilon = 0 the equalities are relaxed to the backend tolerance
    (exact on discrete backends).
    """
    tol = resolve_tol(space, tol)
    return _halves_within(space.tau(p, q) / 2, space.tau(p, y), space.tau(y, q),
                          epsilon, tol)


def affine_midpoint(p, q):
    """(p+q)/2 coordinatewise: the unique exact tau-midpoint on flat space."""
    return tuple((a + b) / 2 for a, b in zip(p, q))


def _halves_within(half, tau_py, tau_yq, epsilon, tol):
    """The midpoint inequalities for ``half = tau(p,q)/2`` and the two halves,
    on numbers or elementwise on arrays."""
    left, right = abs(tau_py - half), abs(tau_yq - half)
    if epsilon == 0:
        return (left <= tol) & (right <= tol)
    return (left < epsilon) & (right < epsilon)


class LensStrip:
    """Membership predicates (any backend) and boundary curves (R^{1,1}).

    The lens is the eps-tau-midpoint set of the pair; the strip is the
    horizontal band of admissible time-function values, of width
    ``(1-2c) * (T(q) - T(p))``.
    """

    def __init__(self, space, bundle, p, q, epsilon, c, tol=None):
        if not space.chronological(p, q):
            raise NotChronological(f"{p} and {q} are not chronologically related")
        if not 0 < c <= 0.5:
            raise ValueError("compatibility constant must lie in (0, 1/2]")
        self.space = space
        self.bundle = bundle
        self.p = p
        self.q = q
        self.epsilon = float(epsilon)
        self.c = c
        self.tol = resolve_tol(space, tol)
        self.tau_pq = space.tau(p, q)
        self.half = self.tau_pq / 2
        tp, tq = bundle.time(p), bundle.time(q)
        self.strip_levels = ((1 - c) * tp + c * tq, c * tp + (1 - c) * tq)

    def in_lens(self, y) -> bool:
        return _halves_within(self.half, self.space.tau(self.p, y), self.space.tau(y, self.q),
                              self.epsilon, self.tol)

    def in_strip(self, y) -> bool:
        return _strip_margin(self.bundle, self.p, self.q, y) >= self.c - self.tol

    def _require_plane(self):
        if self.space.is_discrete or len(self.p) != 2:
            raise UnsupportedBackend("lens and strip curves are only drawn on R^{1,1}")

    def strip_times(self):
        """Lab times a <= b of the two strip lines on R^{1,1}.

        A flat bundle's T = f(t) increases with t, so the strip is the band
        a <= t <= b, each end f^-1 of its strip level, held to [t_p, t_q].
        """
        self._require_plane()
        return tuple(min(max(self.bundle.f_inverse(level), self.p[0]), self.q[0])
                     for level in self.strip_levels)

    def boundary_polylines(self, samples: int = 200):
        """The two hyperbola arcs bounding the lens on R^{1,1}, sampled.

        ``lens_p`` is the arc of points at tau r from p, the earlier in lab
        time, and ``lens_q`` the arc at tau r to q.

        In the pair's rest frame they are t' = r cosh(theta) and
        t' = tau - r cosh(theta), r = tau/2 - epsilon, meeting where
        r sinh(theta) = +-sqrt(epsilon (tau - epsilon)); boosted by the pair's
        rapidity phi, both run over phi +- that theta.  For epsilon = 0 both
        collapse to the exact midpoint.
        """
        self._require_plane()
        if self.epsilon == 0:
            m = affine_midpoint(self.p, self.q)
            return [("lens_p", [m]), ("lens_q", [m])]
        radius = self.half - self.epsilon
        if radius <= 0:
            raise ValueError("epsilon >= tau/2 leaves no hyperbola boundary to draw")
        p, q = self.p, self.q
        phi = math.atanh((q[1] - p[1]) / (q[0] - p[0]))
        spread = math.asinh(math.sqrt(self.epsilon * (self.tau_pq - self.epsilon)) / radius)
        lo, hi = phi - spread, phi + spread
        # Rounding up to an odd count keeps the 201 points of the golden figure.
        if samples % 2 == 0:
            samples += 1
        thetas = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
        arc_p = [(p[0] + radius * math.cosh(th), p[1] + radius * math.sinh(th))
                 for th in thetas]
        arc_q = [(q[0] - radius * math.cosh(th), q[1] - radius * math.sinh(th))
                 for th in thetas]
        return [("lens_p", arc_p), ("lens_q", arc_q)]


# -- search -------------------------------------------------------------------


def _strip_margin(bundle, p, q, y):
    """min(u, 1-u) for the position u of T(y) in [T(p), T(q)] as a fraction
    of the gap: the largest c whose strip holds y (0 when T(q) <= T(p))."""
    tp, tq, ty = bundle.time(p), bundle.time(q), bundle.time(y)
    gap = tq - tp
    if gap <= 0:
        return 0
    u = (ty - tp) / gap
    return min(u, 1 - u)


def _search_with_taus(space, bundle, p, q, eps, c, tol, tau_pq):
    """Deterministic feasible-point search given ``tau_pq = tau(p, q)``;
    ``c=None`` drops the strip filter, and ``tol`` relaxes c as it relaxes
    the halves on every backend (:func:`resolve_tol` makes it 0 on discrete ones).

    Returns ``(y, tau(p, y), tau(y, q))`` for the selected point y, or None;
    a caller that refines the pair again needs no further tau.

    Selection rule: minimize |T(y) - (T(p)+T(q))/2|.  On discrete backends
    ties go to the smallest vertex id, T is the stored vertex times and the
    set's own integer scan decides
    (:meth:`~causalgeo.spaces.CausalSetSpace.midpoint_scan`); a bundle with
    other times raises UnsupportedBackend.  On flat ones the pair is a
    one-row call of :func:`_flat_search`.
    """
    if space.is_discrete:
        if bundle.time != space.time_of:
            raise UnsupportedBackend("a causal set's midpoints are those of its stored times")
        return space.midpoint_scan(p, q, eps, c, tol)
    ys, tau_py, tau_yq, found = _flat_search(space, bundle, np.array([p], float),
                                             np.array([q], float), np.array([tau_pq], float),
                                             eps, c, tol)
    if not found[0]:
        return None
    return tuple(ys[0].tolist()), float(tau_py[0]), float(tau_yq[0])


def _search_rows(space, bundle, xs, zs, tau_xz, eps, c, tol):
    """The midpoint search for each pair xs[k] -> zs[k] given their tau
    ``tau_xz``, with the other arguments of :func:`_search_with_taus`.

    Returns ``(ys, tau(xs, ys), tau(ys, zs), found)`` as :func:`_flat_search`
    does on flat backends.  On a causal set the pairs of ids are searched in
    turn, as :func:`_flat_search` treats collapsed and unrelated rows, up to
    the first pair without a midpoint: ``found`` is a prefix, and the three
    lists end where it does.
    """
    if not space.is_discrete:
        return _flat_search(space, bundle, xs, zs, np.asarray(tau_xz, float), eps, c, tol)
    ys, tau_xy, tau_yz = [], [], []
    for x, z, tau in zip(xs, zs, tau_xz):
        # A collapsed pair's halves collapse too: the level invariants skip
        # them and no search reads their tau.
        found = ((x, 0, 0) if x == z else space.chronological(x, z)
                 and _search_with_taus(space, bundle, x, z, eps, c, tol, tau))
        if not found:
            break
        for column, value in zip((ys, tau_xy, tau_yz), found):
            column.append(value)
    return ys, tau_xy, tau_yz, np.arange(len(xs)) < len(ys)


def _flat_search(space, bundle, xs, zs, tau_xz, eps, c, tol):
    """The flat midpoint search for every row pair xs[k] -> zs[k] of two
    (k, 1+n) float arrays at once, given their tau as the array ``tau_xz``;
    ``eps``, ``c`` and ``tol`` are those of :func:`_search_with_taus`.

    Returns ``(ys, tau(xs, ys), tau(ys, zs), found)``: per row the selected
    point and its two half-separations, and whether there is one.  A
    collapsed row (xs[k] == zs[k]) keeps its parent with zero halves and
    counts as found; a row whose parents are not chronological does not.

    A candidate is admissible when it is not within a rounding guard
    max(tol, 1e-12) of a removed point (so in the universe), both halves
    hold (within eps, or within tol at eps = 0) and its strip margin is at
    least c - tol.  At eps = 0 the one candidate is the affine midpoint
    (x+z)/2, the unique exact tau-midpoint on flat space.  At eps > 0 the
    bundle's T = f(t) increases with t, so the rule picks a level:
    t* = f^-1(T_center), clamped to the lens's lab times
    t_x + reach .. t_z - reach, moved inward by tol or, in a narrower window,
    a quarter of its width, with reach the vertex r = tau/2 - eps or the
    corner dt/2 - sinh|phi| sqrt(eps (tau - eps)) of the x-arc, as in
    :func:`lens_in_strip_epsilon`.  The lens is {tau(x,.) > r} & {tau(.,z) > r}
    (the upper bounds follow from the reverse triangle inequality); both are
    convex and the lens is symmetric under reflection in the x-z plane, so a
    level meets the lens iff it meets it in that plane, in the interval
    (max(-r_x, D - r_z), min(r_x, D + r_z)), r_x = sqrt((t - t_x)^2 - r^2),
    D = |x_z - x_x|.  The candidate is the level's point of segment x-z held
    to the middle half of the interval; one within the guard of a removed
    point halves its distance to the lower end.  At eps >= tau/2, r = 0 and
    the interval is the causal diamond's, inside the lens.  The affine
    midpoint comes first when T((x+z)/2) == T_center, as for coordinate
    time, and last otherwise, for a lens so thin that rounding leaves the
    slice point outside it.

    Each row gets the bits the same steps give one pair in Python floats:
    numpy's arithmetic, sqrt and comparisons are IEEE's, min and max are
    the builtins' (:func:`_min`, :func:`_max`), and the norms
    (:meth:`~causalgeo.spaces.MinkowskiSpace.delta_rows`), f, f^-1 and the
    squares (:func:`_each`) are the scalar functions mapped over the rows,
    as numpy's own hypot and power round differently.
    """
    f = bundle.f
    t_x, t_z = _each(f, xs[:, 0]), _each(f, zs[:, 0])
    half = tau_xz / 2
    guard = max(tol, 1e-12)
    exact = (xs + zs) / 2
    ys, tau_xy, tau_yz = xs.copy(), np.zeros(len(xs)), np.zeros(len(xs))
    found = (xs == zs).all(axis=1)
    dt, span = space.delta_rows(xs, zs)
    rows = np.flatnonzero(~found & (dt > span))

    def admit(at, candidates):
        """Keep the candidate of each row ``at`` lists where it is admissible."""
        # The guard is positive, so it also keeps out the removed points
        # themselves, which is all that `contains` rejects on flat space.
        keep = ~_near_removed(space, candidates, guard)
        at, candidates = at[keep], candidates[keep]
        left, right = space.tau_rows(xs[at], candidates), space.tau_rows(candidates, zs[at])
        ok = _halves_within(half[at], left, right, eps, tol)
        if c is not None:
            ok &= _strip_margins(t_x[at], t_z[at], _each(f, candidates[:, 0])) >= c - tol
        at = at[ok]
        ys[at], tau_xy[at], tau_yz[at], found[at] = candidates[ok], left[ok], right[ok], True

    if eps == 0:
        admit(rows, exact[rows])
        return ys, tau_xy, tau_yz, found
    t_center = (t_x + t_z) / 2
    exact_first = _each(f, exact[:, 0]) == t_center
    first = rows[exact_first[rows]]
    admit(first, exact[first])
    rows = rows[~found[rows]]

    x, z, d, h_tau = xs[rows], zs[rows], span[rows], half[rows]
    t_lo, t_hi = x[:, 0], z[:, 0]
    r = _max(h_tau - eps, 0.0)
    h, s = np.sqrt(h_tau * h_tau - r * r), d / tau_xz[rows]
    reach = np.where(s * r <= h, r, (t_hi - t_lo) / 2 - s * h)
    inset = _min(tol, (t_hi - t_lo - 2 * reach) / 4)
    t = _min(_max(_each(bundle.f_inverse, t_center[rows]), t_lo + reach + inset),
             t_hi - reach - inset)
    r_x = np.sqrt(_max(_each(_squared, t - t_lo) - r * r, 0.0))
    r_z = np.sqrt(_max(_each(_squared, t_hi - t) - r * r, 0.0))
    lo, hi = _max(-r_x, d - r_z), _min(r_x, d + r_z)
    along = _min(_max(d * (t - t_lo) / (t_hi - t_lo), lo + (hi - lo) / 4), hi - (hi - lo) / 4)
    candidates = PlaneFrame.embed_rows(x, z, d, t, along)
    near = _near_removed(space, candidates, guard)
    if near.any():
        candidates = PlaneFrame.embed_rows(x, z, d, t, np.where(near, (lo + along) / 2, along))
    admit(rows, candidates)
    # A lens narrower than rounding can leave the slice point outside it.
    late = rows[~found[rows] & ~exact_first[rows]]
    admit(late, exact[late])
    return ys, tau_xy, tau_yz, found


def _each(fn, column):
    """fn of each entry of a float array, through the scalar function itself
    (the identity, coordinate time, returns the array)."""
    if fn is coordinate_time:
        return column
    return np.fromiter(map(fn, column.tolist()), float, len(column))


def _squared(value):
    # Python's ** calls libm pow, which need not round as value * value does.
    return value ** 2


def _min(a, b):
    """The builtin min(a, b) elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _max(a, b):
    """The builtin max(a, b) elementwise: b where b > a, else a."""
    return np.where(b > a, b, a)


def _near_removed(space, ys, guard):
    """Which rows of ys lie within ``guard`` of a removed point in every coordinate."""
    near = np.zeros(len(ys), bool)
    for removed in space.removed:
        near |= np.abs(ys - removed).max(axis=1) <= guard
    return near


def _strip_margins(t_x, t_z, t_y):
    """:func:`_strip_margin` of each row, from the three time arrays."""
    gap = t_z - t_x
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (t_y - t_x) / gap
    return np.where(gap > 0, _min(u, 1 - u), 0.0)


def find_midpoint(space: Space, bundle: TimeFunctionBundle, query: MidpointQuery,
                  tol=None):
    """A lens point that also lies in the strip for ``query.c``, or None.

    None is a definitive answer on discrete backends and a search failure on
    flat ones.
    """
    p, q = query.p, query.q
    if not space.chronological(p, q):
        raise NotChronological(f"{p} and {q} are not chronologically related")
    tol = resolve_tol(space, tol)
    tau_pq = space.tau(p, q)
    eps = float(tau_pq) * query.epsilon_hat if query.epsilon_hat > 0 else query.epsilon
    found = _search_with_taus(space, bundle, p, q, eps, query.c, tol, tau_pq)
    return None if found is None else found[0]


def certify_compatibility(space: Space, bundle: TimeFunctionBundle, c: float,
                          epsilon_hat: float, sample_budget: int = 200,
                          seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """For sampled chronological pairs, certify some (tau*eps_hat)-midpoint
    lies in the strip for c; record the best achievable constant per pair.

    Pairs whose lens is empty witness a failure of the midpoint-existence
    hypothesis, not of compatibility; they are counted separately and do not
    flip the verdict.
    """
    if not 0 < c <= 0.5:
        raise ValueError("compatibility constant must lie in (0, 1/2]")
    tol = resolve_tol(space, tol)
    pairs = space.sample_chronological_pairs(make_rng(seed), sample_budget)
    draft = Certificate("compatibility", None, float(tol), len(pairs), seed,
                        data={"epsilon_hat": epsilon_hat, "c": c})
    cert, completed = certify(draft, space, bundle, [(a, b, None, None) for a, b in pairs],
                              count=False)
    best_values = [w[2] for w in completed if w[2] is not None]
    return replace(cert, data={
        **cert.data,
        "pairs_checked": len(best_values),
        "pairs_without_midpoint": len(pairs) - len(best_values),
        "best_c_min": min(best_values) if best_values else None,
        "best_c_values": best_values,
    })


@predicate("compatibility")
def _compatibility(space, bundle, cert, a, b, _best_c, _midpoint):
    """Minimizing |T(y) - center| maximizes min(u, 1-u) over lens points:
    the largest c whose strip still holds one."""
    tau_ab = space.tau(a, b)
    found = _search_with_taus(space, bundle, a, b, float(tau_ab) * cert.data["epsilon_hat"],
                              None, cert.tolerance, tau_ab)
    if found is None:
        # An empty lens fails midpoint existence, which compatibility assumes.
        return (a, b, None, None), False
    y = found[0]
    best_c = _strip_margin(bundle, a, b, y)
    return (a, b, best_c, y), best_c < cert.data["c"] - cert.tolerance


def lens_in_strip_epsilon(space: Space, bundle: TimeFunctionBundle, p, q, c: float) -> float:
    """The largest epsilon whose lens lies in the strip for c, in closed form.

    With s = sinh|phi| for the pair's rapidity phi and r = tau/2 - epsilon,
    the lens reaches down to lab time t_p + r at the vertex of its p-arc
    when s r <= sqrt(epsilon (tau - epsilon)), and to its corner at
    t_p + dt/2 - s sqrt(epsilon (tau - epsilon)) otherwise; its top mirrors
    this through the midpoint.  Setting these equal to the strip lines
    (:meth:`LensStrip.strip_times`) gives epsilon*.  Raises DegenerateStrip
    at c = 1/2 and when the strip misses the midpoint (p+q)/2, as the strip
    of t^3 can.
    """
    lens = LensStrip(space, bundle, p, q, 0.0, c)
    (a, b), tau = lens.strip_times(), float(lens.tau_pq)
    if c == 0.5:
        raise DegenerateStrip("c = 1/2 leaves a zero-width strip")
    dt, s = q[0] - p[0], abs(q[1] - p[1]) / tau

    def largest(d):
        """epsilon* for a strip line d of lab time past p (or before q)."""
        vertex = tau / 2 - d
        if vertex > 0 and s * d <= math.sqrt(vertex * (tau - vertex)):
            return vertex
        if d >= dt / 2:
            return 0.0
        # The smaller root of epsilon (tau - epsilon) = k^2, free of cancellation.
        k = (dt / 2 - d) / s
        return 2 * k * k / (tau + math.sqrt(max(tau * tau - 4 * k * k, 0.0)))

    epsilon = min(largest(a - p[0]), largest(q[0] - b))
    if epsilon <= 0:
        raise DegenerateStrip(f"the strip for c = {c} misses the midpoint of {p} and {q}")
    return epsilon


# -- midpoints from curves ------------------------------------------------------


def _half_point(space, curve):
    """The point where the running tau-length reaches half the total.

    Continuum backends: tau along a straight causal segment of flat space is
    proportional to the affine parameter, so the running length is linear on
    each segment, and the crossing is solved for in closed form on the first
    segment whose end reaches half (its start, when the segment has zero
    length; a curve of one point is its own half point).  Discrete backends:
    the joint whose cumulative weight is closest to half, earliest on ties.
    """
    cum = curve.cumulative_tau()
    half = cum[-1] / 2
    if space.is_discrete:
        best = min(range(len(cum)), key=lambda i: (abs(cum[i] - half), i))
        return curve.points[best]
    for i in range(curve.segment_count):
        if cum[i + 1] >= half:
            length = cum[i + 1] - cum[i]
            frac = (half - cum[i]) / length if length > 0 else 0.0
            return space.interpolate(curve.points[i], curve.points[i + 1], frac)
    return curve.points[0]


def midpoint_from_realizer(space: Space, curve: PiecewiseCausalCurve, tol=None):
    """The half point of a distance realizer's running tau-length."""
    tol = resolve_tol(space, tol)
    length = curve.tau_length()
    endpoints_tau = space.tau(curve.points[0], curve.points[-1])
    gap = abs(length - endpoints_tau)
    if gap > tol * (1 + abs(float(endpoints_tau))):
        raise NotARealizer(
            f"curve tau-length {float(length)} differs from tau {float(endpoints_tau)}")
    return _half_point(space, curve)


def approximate_midpoint_from_curve(space: Space, p, q, curve: PiecewiseCausalCurve,
                                    epsilon: float, tol=None):
    """Half point of a near-realizer; asserts both eps-midpoint inequalities."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if curve.points[0] != p or curve.points[-1] != q:
        raise ValueError("curve endpoints do not match the requested pair")
    tol = resolve_tol(space, tol)
    length = curve.tau_length()
    if length <= space.tau(p, q) - epsilon:
        raise CurveTooShort(
            f"tau-length {float(length)} <= tau - epsilon; no admissible half point")
    y = _half_point(space, curve)
    if not is_eps_tau_midpoint(space, p, q, y, epsilon, tol):
        raise MidpointBoundsViolated(
            f"half point {y} misses the eps-midpoint inequalities at eps={epsilon}")
    return y
