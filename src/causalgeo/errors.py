"""Exception types shared across the toolkit."""


class CausalGeoError(Exception):
    """Base class for all toolkit errors."""


class WitnessMissing(CausalGeoError):
    """A sampled point has no anti-Lipschitz neighbourhood descriptor."""


class CycleDetected(CausalGeoError):
    """A causal-set edge list contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("directed cycle: " + " -> ".join(map(str, self.cycle)))


class EmptySprinkle(CausalGeoError):
    """A Poisson sprinkle produced no points at all."""


class SegmentNotCausal(CausalGeoError):
    """A curve segment fails the causal predicate for its orientation."""

    def __init__(self, index, src, dst, orientation):
        self.index = index
        self.src = src
        self.dst = dst
        self.orientation = orientation
        super().__init__(
            f"segment {index} ({src} -> {dst}) is not {orientation}-directed causal"
        )


class NotConnected(CausalGeoError):
    """No piecewise causal path joins the requested endpoints."""


class BudgetExceeded(CausalGeoError):
    """A request exceeds a resource budget, or a search ran out of budget;
    ``best`` then carries the best value found."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message if best is None else f"{message} (best value so far: {best})")


class NotChronological(CausalGeoError):
    """An operation requires a chronologically related pair."""


class UnsupportedBackend(CausalGeoError):
    """The requested operation is not available on this backend."""


class DegenerateStrip(CausalGeoError):
    """The strip has zero width, so lens containment only holds trivially."""


class NotARealizer(CausalGeoError):
    """The supplied curve does not realize the time separation of its endpoints."""


class CurveTooShort(CausalGeoError):
    """The supplied curve is too short for the requested approximation quality."""


class MidpointBoundsViolated(CausalGeoError):
    """A returned candidate fails the approximate-midpoint inequalities."""


class MidpointUnavailable(CausalGeoError):
    """The midpoint oracle returned no admissible point at some refinement level.

    This surfaces a failed hypothesis of the synthesis construction: either
    the backend lacks (approximate) tau-midpoints for the offending pair, or no
    midpoint is compatible with the requested strip constant.
    """

    def __init__(self, level, pair, detail=""):
        self.level = level
        self.pair = pair
        self.detail = detail
        msg = f"no admissible midpoint at level {level} between {pair[0]} and {pair[1]}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotComplete(CausalGeoError):
    """The backend has no limit operation (or the limit escapes the universe)."""


class CauchyBudget(CausalGeoError):
    """The stored refinement depth cannot certify convergence to the requested tolerance."""


class ConfigError(CausalGeoError):
    """A run configuration file or flag set is invalid."""
