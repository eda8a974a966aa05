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
fallback.  There is one search,
:func:`_search_with_taus`, behind :func:`find_midpoint`, the dyadic build
and the compatibility certificate, which drops the strip filter and reads
the best constant off the selected point.  Given tau(p,q), the search
evaluates each candidate's two half-separations once and returns those of
the point it selects; the dyadic build passes them on as the parent tau of
the next level's searches, so no adjacent tau is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (Certificate, DEFAULT_SEED, PiecewiseCausalCurve, Space,
                   TimeFunctionBundle, certify, make_rng, predicate, resolve_tol)
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
    """The midpoint inequalities for ``half = tau(p,q)/2`` and the two halves."""
    left, right = abs(tau_py - half), abs(tau_yq - half)
    if epsilon == 0:
        return left <= tol and right <= tol
    return left < epsilon and right < epsilon


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
    each candidate's two half-separations are evaluated once and reused, so
    a caller that refines the pair again needs no further tau.

    Selection rule: minimize |T(y) - (T(p)+T(q))/2|, ties broken by smallest
    vertex id on discrete backends, where T is the stored vertex times and
    the set's own integer scan decides
    (:meth:`~causalgeo.spaces.CausalSetSpace.midpoint_scan`); a bundle with
    other times raises UnsupportedBackend.  On flat ones with eps > 0 the bundle's
    T = f(t) increases with t, so the rule picks a level: t* = f^-1(T_center),
    clamped to the lens's lab times
    t_p + reach .. t_q - reach, moved inward by tol or, in a narrower window,
    a quarter of its width, with reach the vertex r = tau/2 - eps or the
    corner dt/2 - sinh|phi| sqrt(eps (tau - eps)) of the p-arc, as in
    :func:`lens_in_strip_epsilon`.  The lens is {tau(p,.) > r} & {tau(.,q) > r}
    (the upper bounds follow from the reverse triangle inequality); both are
    convex and the lens is symmetric under reflection in the p-q plane, so a
    level meets the lens iff it meets it in that plane, in the interval
    (max(-r_p, D - r_q), min(r_p, D + r_q)), r_p = sqrt((t - t_p)^2 - r^2),
    D = |x_q - x_p|.  The candidate is the level's point of segment p-q held
    to the middle half of the interval; one within a rounding guard
    max(tol, 1e-12) of a removed point halves its distance to the lower end.
    At eps >= tau/2, r = 0 and the interval is the causal diamond's, inside
    the lens.  The affine midpoint comes first when T((p+q)/2) == T_center,
    as for coordinate time, and last otherwise, for a lens so thin that
    rounding leaves the slice point outside it.
    """
    if space.is_discrete:
        if bundle.time != space.time_of:
            raise UnsupportedBackend("a causal set's midpoints are those of its stored times")
        return space.midpoint_scan(p, q, eps, c, tol)
    t_center = (bundle.time(p) + bundle.time(q)) / 2
    half = tau_pq / 2

    def in_strip(y):
        return c is None or _strip_margin(bundle, p, q, y) >= c - tol

    def feasible(y):
        """``(y, tau(p, y), tau(y, q))`` when y is in the universe, the lens
        and the strip, else None."""
        if not space.contains(y):
            return None
        left, right = space.tau(p, y), space.tau(y, q)
        if not (_halves_within(half, left, right, eps, tol) and in_strip(y)):
            return None
        return y, left, right

    exact = affine_midpoint(p, q)
    guard = max(tol, 1e-12)

    def near_removed(y):
        """Whether y lies within a rounding guard of a removed point."""
        return any(max(abs(a - b) for a, b in zip(y, rp)) <= guard for rp in space.removed)

    def admissible(y):
        return None if near_removed(y) else feasible(y)

    if eps == 0:
        # The exact solution is unique on flat backends.
        return admissible(exact)
    exact_first = bundle.time(exact) == t_center
    found = admissible(exact) if exact_first else None
    if found is not None:
        return found

    frame = PlaneFrame(p, q)
    tp, tq, span = p[0], q[0], frame.span
    r = max(half - eps, 0.0)
    h, s = math.sqrt(half * half - r * r), span / tau_pq
    reach = r if s * r <= h else (tq - tp) / 2 - s * h
    inset = min(tol, (tq - tp - 2 * reach) / 4)
    t = min(max(bundle.f_inverse(t_center), tp + reach + inset), tq - reach - inset)
    r_p = math.sqrt(max((t - tp) ** 2 - r * r, 0.0))
    r_q = math.sqrt(max((tq - t) ** 2 - r * r, 0.0))
    lo, hi = max(-r_p, span - r_q), min(r_p, span + r_q)
    x = min(max(span * (t - tp) / (tq - tp), lo + (hi - lo) / 4), hi - (hi - lo) / 4)
    y = frame.embed(t, x)
    if near_removed(y):
        y = frame.embed(t, (lo + x) / 2)
    found = admissible(y)
    if found is None and not exact_first:
        # A lens narrower than rounding can leave the slice point outside it.
        found = admissible(exact)
    return found


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
