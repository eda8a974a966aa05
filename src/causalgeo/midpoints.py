"""Tau-midpoints: predicates, search, lens/strip geometry, compatibility.

A point y is a tau-midpoint of a chronological pair p << q when
``tau(p,y) = tau(y,q) = tau(p,q)/2``, and an eps-tau-midpoint when both
halves hold strictly within eps.  The eps-midpoint set ("lens") is the
intersection of two one-sided superlevel sets of tau; the "strip" for a
compatibility constant c collects the points whose time-function value
lies between the two convex combinations ``(1-c)T(p)+cT(q)`` and
``cT(p)+(1-c)T(q)``.

Midpoint search is deterministic: on finite backends an id-ordered
enumeration; on flat backends the affine midpoint (p+q)/2, which is the
unique exact tau-midpoint there, built in the p-q plane frame and rejected
when it falls on a removed point, followed in the approximate case by a
fixed offset ladder and a raster fallback.  Given tau(p,q), the search
evaluates each candidate's two half-separations once and returns those of
the point it selects; the dyadic build passes them on as the parent tau of
the next level's searches, so no adjacent tau is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

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

    def effective_epsilon(self, tau_pq):
        if self.epsilon_hat > 0:
            return float(tau_pq) * self.epsilon_hat
        return self.epsilon


def is_eps_tau_midpoint(space: Space, p, q, y, epsilon: float, tol=None) -> bool:
    """Both half-separation inequalities, strict for epsilon > 0.

    For epsilon = 0 the equalities are relaxed to the backend tolerance
    (exact on discrete backends).
    """
    tol = resolve_tol(space, tol)
    return _halves_within(space.tau(p, q) / 2, space.tau(p, y), space.tau(y, q),
                          epsilon, tol)


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
        self.strip_width = (1 - 2 * c) * (tq - tp)

    def in_lens(self, y) -> bool:
        if self.epsilon == 0:
            return is_eps_tau_midpoint(self.space, self.p, self.q, y, 0.0, self.tol)
        floor = self.half - self.epsilon
        return self.space.tau(self.p, y) > floor and self.space.tau(y, self.q) > floor

    def in_strip(self, y) -> bool:
        lo, hi = self.strip_levels
        t = self.bundle.time(y)
        return lo - self.tol <= t <= hi + self.tol

    def boundary_polylines(self, samples: int = 200):
        """Sampled boundary curves for plotting: two hyperbola arcs.

        Only available on R^{1,1}; for epsilon = 0 both arcs collapse to the
        exact midpoint.
        """
        if self.space.is_discrete or len(self.p) != 2:
            raise UnsupportedBackend("boundary curves are only drawn on R^{1,1}")
        if self.epsilon == 0:
            m = PlaneFrame(self.p, self.q).midpoint()
            return [("lens_upper", [m]), ("lens_lower", [m])]
        radius = self.half - self.epsilon
        if radius <= 0:
            raise ValueError("epsilon >= tau/2 leaves no hyperbola boundary to draw")
        upper = _hyperbola_arc(self.space, self.p, self.q, radius, samples, from_past=True)
        lower = _hyperbola_arc(self.space, self.p, self.q, radius, samples, from_past=False)
        return [("lens_upper", upper), ("lens_lower", lower)]


def _hyperbola_arc(space, p, q, radius, samples, from_past):
    """One branch of tau(center, .) = radius, clipped to the other condition.

    ``from_past=True`` draws the future branch centered at p (clipped to
    tau(., q) >= radius); otherwise the past branch centered at q.
    """
    if from_past:
        center, other = p, q
        def at(theta):
            return (center[0] + radius * math.cosh(theta),
                    center[1] + radius * math.sinh(theta))
        def slack(y):
            dt = other[0] - y[0]
            dx = abs(other[1] - y[1])
            return (dt * dt - dx * dx if dt >= 0 else -(dx * dx + dt * dt)) - radius * radius
    else:
        center, other = q, p
        def at(theta):
            return (center[0] - radius * math.cosh(theta),
                    center[1] - radius * math.sinh(theta))
        def slack(y):
            dt = y[0] - other[0]
            dx = abs(y[1] - other[1])
            return (dt * dt - dx * dx if dt >= 0 else -(dx * dx + dt * dt)) - radius * radius

    def crossing(direction):
        lo, hi = 0.0, 0.5
        while slack(at(direction * hi)) > 0:
            hi *= 2.0
            if hi > 64.0:
                raise RuntimeError("hyperbola arc limit not bracketed")
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if slack(at(direction * mid)) > 0:
                lo = mid
            else:
                hi = mid
        return direction * lo

    if slack(at(0.0)) < 0:
        return []
    # Odd sample count keeps theta = 0 in the polyline: that is the
    # time-extremal point of the arc, which containment tests must see.
    if samples % 2 == 0:
        samples += 1
    lo, hi = crossing(-1.0), crossing(+1.0)
    return [at(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]


# -- search -------------------------------------------------------------------


def _strip_fraction(bundle, p, q, y):
    """Position of T(y) inside [T(p), T(q)], as an exact fraction of the gap."""
    tp, tq, ty = bundle.time(p), bundle.time(q), bundle.time(y)
    gap = tq - tp
    if gap <= 0:
        return None
    return (ty - tp) / gap


def _midpoint_search(space, bundle, p, q, eps, c, tol):
    """Deterministic feasible-point search; ``c=None`` drops the strip filter.

    Selection rule: minimize |T(y) - (T(p)+T(q))/2|, ties broken by smallest
    vertex id (discrete) or lexicographically smallest coordinates (raster
    fallback on flat backends).
    """
    found = _search_with_taus(space, bundle, p, q, eps, c, tol, space.tau(p, q))
    return None if found is None else found[0]


def _search_with_taus(space, bundle, p, q, eps, c, tol, tau_pq):
    """:func:`_midpoint_search` given ``tau_pq = tau(p, q)``.

    Returns ``(y, tau(p, y), tau(y, q))`` for the selected point y, or None.
    Each candidate's two half-separations are evaluated once and reused, so
    a caller that refines the pair again needs no further tau.
    """
    t_center = (bundle.time(p) + bundle.time(q)) / 2
    half = tau_pq / 2

    def in_strip(y):
        if c is None:
            return True
        u = _strip_fraction(bundle, p, q, y)
        if u is None:
            return False
        slack = 0 if space.is_discrete else tol
        return c - slack <= u <= 1 - c + slack

    def feasible(y):
        """``(y, tau(p, y), tau(y, q))`` when y is in the universe, the lens
        and the strip, else None."""
        if not space.contains(y):
            return None
        left, right = space.tau(p, y), space.tau(y, q)
        if not (_halves_within(half, left, right, eps, tol) and in_strip(y)):
            return None
        return y, left, right

    def most_central(found):
        return min(found, key=lambda f: (abs(bundle.time(f[0]) - t_center), f[0]))

    if space.is_discrete:
        # Off the diamond J+(p) & J-(q) one half-separation is |0 - tau(p,q)/2|,
        # so when that misses the tolerance only diamond vertices can qualify.
        off_diamond_infeasible = half >= eps if eps > 0 else half > tol
        pool = space.causal_diamond(p, q) if off_diamond_infeasible else space.points()
        found = [f for f in map(feasible, pool) if f is not None]
        return most_central(found) if found else None

    frame = PlaneFrame(p, q)
    exact = frame.midpoint()
    if eps == 0:
        # The exact solution is unique on flat backends; reject it when it
        # collapses onto a removed point (up to a rounding guard).
        guard = max(tol, 1e-12)
        if any(max(abs(e - r) for e, r in zip(exact, rp)) <= guard
               for rp in space.removed):
            return None
        return feasible(exact)

    found = feasible(exact)
    if found is not None:
        return found

    def offset(dt, ds):
        return (exact[0] + dt, *(e + ds * u for e, u in zip(exact[1:], frame.unit)))

    sigma = min(eps, float(tau_pq) / 8)
    for k in range(-10, 4):
        r = sigma * (2.0 ** k)
        for cand in (offset(0.0, -r), offset(0.0, r), offset(-r, 0.0), offset(r, 0.0),
                     offset(-r, -r), offset(-r, r), offset(r, -r), offset(r, r)):
            found = feasible(cand)
            if found is not None:
                return found

    # Raster fallback over the lens bounding region, centered on the exact
    # solution, preferring time-centered then lexicographically small points.
    reach = float(tau_pq) / 2
    best = None
    for _ in range(2):
        grid = [feasible(offset(-reach / 2 + reach * i / 40, -reach + 2 * reach * j / 40))
                for i in range(41) for j in range(41)]
        grid = [f for f in grid if f is not None]
        if grid:
            cand = most_central(grid)
            best = cand if best is None else most_central((best, cand))
        reach /= 4
    return best


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
    found = _search_with_taus(space, bundle, p, q, query.effective_epsilon(tau_pq),
                              query.c, tol, tau_pq)
    return None if found is None else found[0]


def _best_midpoint(space, bundle, p, q, eps, tol):
    """Strip-unconstrained search plus the best admissible strip constant.

    The search minimizes |T(y) - center|, which maximizes min(u, 1-u) over
    feasible candidates, so the returned constant is the largest c whose
    strip still contains a lens point.
    """
    y = _midpoint_search(space, bundle, p, q, eps, None, tol)
    if y is None:
        return None
    u = _strip_fraction(bundle, p, q, y)
    if u is None:
        return y, 0
    best_c = min(u, 1 - u)
    cap = Fraction(1, 2) if isinstance(best_c, Fraction) else 0.5
    return y, min(best_c, cap)


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
    eps = float(space.tau(a, b)) * cert.data["epsilon_hat"]
    found = _best_midpoint(space, bundle, a, b, eps, cert.tolerance)
    if found is None:
        # An empty lens fails midpoint existence, which compatibility assumes.
        return (a, b, None, None), False
    y, best_c = found
    slack = 0 if space.is_discrete else cert.tolerance
    return (a, b, best_c, y), best_c < cert.data["c"] - slack


def lens_in_strip_epsilon(space: Space, bundle: TimeFunctionBundle, p, q, c: float,
                          boundary_samples: int = 400, rejection_samples: int = 10_000,
                          seed: int = DEFAULT_SEED) -> float:
    """An epsilon > 0 whose lens is contained in the strip for c.

    Found by bisection on epsilon with containment tested on a dense
    boundary sampling, then re-verified by rejection sampling of the lens
    interior.  Raises DegenerateStrip at c = 1/2 (containment then holds
    only in the exact-midpoint limit).
    """
    if space.is_discrete or len(p) != 2:
        raise UnsupportedBackend("lens containment search runs on R^{1,1}")
    if not space.chronological(p, q):
        raise NotChronological(f"{p} and {q} are not chronologically related")
    if c >= 0.5:
        raise DegenerateStrip("c = 1/2 leaves a zero-width strip")
    if c <= 0:
        raise ValueError("compatibility constant must be positive")

    half = float(space.tau(p, q)) / 2

    def contained(eps):
        lens = LensStrip(space, bundle, p, q, eps, c, tol=0.0)
        for _, pts in lens.boundary_polylines(boundary_samples):
            if not all(lens.in_strip(y) for y in pts):
                return False
        return True

    lo = half * 1e-6
    shrink = 0
    while not contained(lo):
        lo /= 4.0
        shrink += 1
        if shrink > 20:
            raise RuntimeError("no contained epsilon found near zero")
    hi = half * 0.98
    if contained(hi):
        eps_star = hi
    else:
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if contained(mid):
                lo = mid
            else:
                hi = mid
        eps_star = lo

    rng = make_rng(seed)
    for _ in range(25):
        if _rejection_verify(space, bundle, p, q, eps_star, c, rejection_samples, rng):
            return eps_star
        eps_star *= 0.97
    raise RuntimeError("rejection verification kept failing; lens not contained")


def _rejection_verify(space, bundle, p, q, eps, c, samples, rng):
    lens = LensStrip(space, bundle, p, q, eps, c, tol=0.0)
    polys = lens.boundary_polylines(160)
    pts = [y for _, poly in polys for y in poly]
    ts = [y[0] for y in pts] + [p[0], q[0]]
    xs = [y[1] for y in pts] + [p[1], q[1]]
    t_lo, t_hi = min(ts) - 0.05, max(ts) + 0.05
    x_lo, x_hi = min(xs) - 0.05, max(xs) + 0.05
    kept = 0
    attempts = 0
    while kept < samples and attempts < 400 * samples:
        attempts += 1
        y = (rng.uniform(t_lo, t_hi), rng.uniform(x_lo, x_hi))
        if not lens.in_lens(y):
            continue
        kept += 1
        if not lens.in_strip(y):
            return False
    return kept == samples


# -- midpoints from curves ------------------------------------------------------


def _half_point(space, curve):
    """The point where the running tau-length reaches half the total.

    Continuum backends: bisection on the curve parameter (the running
    length is monotone and piecewise linear).  Discrete backends: the joint
    whose cumulative weight is closest to half, earliest on ties.
    """
    cum = curve.cumulative_tau()
    total = cum[-1]
    half = total / 2
    if space.is_discrete:
        best = min(range(len(cum)), key=lambda i: (abs(cum[i] - half), i))
        return curve.points[best]

    bps = curve.breakpoints

    def running(tval):
        for i in range(curve.segment_count):
            if tval <= bps[i + 1] or i == curve.segment_count - 1:
                frac = (tval - bps[i]) / (bps[i + 1] - bps[i])
                frac = min(max(frac, 0.0), 1.0)
                return i, frac, cum[i] + frac * (cum[i + 1] - cum[i])
        raise AssertionError

    lo, hi = bps[0], bps[-1]
    for _ in range(100):
        mid = (lo + hi) / 2.0
        _, _, value = running(mid)
        if value < half:
            lo = mid
        else:
            hi = mid
    i, frac, _ = running((lo + hi) / 2.0)
    return space.interpolate(curve.points[i], curve.points[i + 1], frac)


def midpoint_from_realizer(space: Space, curve: PiecewiseCausalCurve, tol=None):
    """Bisect the running tau-length of a distance realizer to its half point."""
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
