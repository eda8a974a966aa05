"""Core contracts: causal spaces, time functions, curves, certificates.

Everything in the toolkit programs against the :class:`Space` interface: a
point universe with a causal relation ``<=``, a chronological relation
``<<``, and a time separation ``tau`` returning a nonnegative extended real
(``math.inf`` is the dedicated infinity value).  A :class:`TimeFunctionBundle`
attaches a generalized time function, T = f(t) with f and f^-1 as data for a
:class:`FlatTimeBundle`, to its anti-Lipschitz witness neighbourhoods, and
:class:`PiecewiseCausalCurve` models zigzags of future- and past-directed
causal segments by their joints alone.

Sampled checks are seeded-deterministic and report a :class:`Certificate`.
Each certificate name has one predicate, registered with :func:`predicate`:
given a case (a witness tuple whose measured entries may be None) it
returns the completed witness and whether the property fails there.  A
checker builds its cases and hands them to :func:`certify`, which runs the
predicate and sets the verdict and witness; :func:`replay` runs the same
predicate on a failing certificate's stored witness.  Predicates read their
tolerance and parameters from the certificate and compare exact values
against the tolerance without adding it, so rationals stay exact.

:func:`json_chunks` (joined by :func:`json_text`), :func:`csv_text` and
:func:`csv_rows` are the one home of the toolkit's JSON and CSV text, beside
:func:`atomic_write`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotComplete, SegmentNotCausal, WitnessMissing

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0

FUTURE = "future"
PAST = "past"


def make_rng(seed):
    return np.random.default_rng(seed)


class Space(ABC):
    """A point universe with causal structure and time separation.

    Implementations must keep all state immutable after construction; every
    query below is pure, so sampled checks may be evaluated in parallel and
    merged deterministically.
    """

    name = "space"
    # The one backend capability: finite and exact (causal sets) or flat and
    # floating-point (Minkowski space and its punctured variant).
    is_discrete = False

    @abstractmethod
    def causal_le(self, x, y) -> bool:
        """Causal relation: x can reach y along a causal curve (reflexive)."""

    @abstractmethod
    def chronological(self, x, y) -> bool:
        """Chronological relation: x reaches y along a timelike curve."""

    @abstractmethod
    def tau(self, x, y):
        """Time separation: nonnegative, 0 when not chronologically related."""

    def contains(self, x) -> bool:
        """Universe membership (backends with removed points override)."""
        return True

    def limit_point(self, points: Sequence):
        """Map a (certified) Cauchy sequence of points to its limit.

        Callers are responsible for certifying Cauchy-ness (e.g. through a
        Hölder tail bound) before invoking this partial operation.
        """
        raise NotComplete(f"{self.name} has no limit operation")

    def interpolate(self, x, y, s: float):
        """Point a fraction ``s`` of the way along the segment x -> y."""
        raise NotImplementedError(f"{self.name} has no interpolation")

    def points(self) -> Sequence:
        """Finite enumeration of the universe (discrete backends only)."""
        raise NotImplementedError(f"{self.name} is not finite")

    @abstractmethod
    def sample_points(self, rng, count: int) -> list:
        """Seeded-deterministic point sample."""

    @abstractmethod
    def sample_causal_pairs(self, rng, count: int) -> list:
        """Seeded pairs x <= y."""

    @abstractmethod
    def sample_chronological_pairs(self, rng, count: int) -> list:
        """Seeded pairs x << y."""

    @abstractmethod
    def sample_causal_chains(self, rng, count: int) -> list:
        """Seeded triples x <= y <= z."""


@dataclass(frozen=True)
class AntiLipschitzWitness:
    """A neighbourhood descriptor with its local comparison metric.

    The certified inequality on a witness is ``metric(x, y) <= T(y) - T(x)``
    for causal pairs x <= y inside the neighbourhood: the time function must
    grow at least as fast as the witness metric, which is what makes the
    null distance definite.
    """

    label: str
    contains: Callable
    metric: Callable


class TimeFunctionBundle:
    """A generalized time function ``time`` on a space plus anti-Lipschitz
    witnesses; on flat backends, a :class:`FlatTimeBundle`."""

    def __init__(self, time: Callable, witnesses: Iterable[AntiLipschitzWitness]):
        self.time = time
        self.witnesses = tuple(witnesses)

    def common_witness(self, x, y):
        for w in self.witnesses:
            if w.contains(x) and w.contains(y):
                return w
        return None


def coordinate_time(t):
    """The identity: f for coordinate time, and its own inverse."""
    return t


class FlatTimeBundle(TimeFunctionBundle):
    """T = f(t) on a flat backend, for f increasing: T(p) = f(p[0]).

    ``f_inverse`` inverts f on lab time.  ``slope_minima`` lists the local
    minima of f' as (t, f'(t)) pairs, the only levels besides the null
    corners where a null distance can be attained (none when f' is constant).
    """

    def __init__(self, f: Callable, f_inverse: Callable,
                 witnesses: Iterable[AntiLipschitzWitness], slope_minima=()):
        super().__init__(lambda p: f(p[0]), witnesses)
        self.f = f
        self.f_inverse = f_inverse
        self.slope_minima = tuple(slope_minima)


@dataclass(frozen=True)
class PiecewiseCausalCurve:
    """Finitely many causal segments with per-segment time orientation.

    ``points`` are the segment joints; segment ``i`` joins ``points[i]`` to
    ``points[i+1]`` and is future- or past-directed according to
    ``orientations[i]``.  Consecutive segments share endpoints by
    construction.  A curve carries no parametrization: what is read off it
    (tau-length, null length, half point) depends on the joints alone.
    """

    space: Space
    points: tuple
    orientations: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        ors = tuple(self.orientations)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "orientations", ors)
        if len(ors) != max(len(pts) - 1, 0):
            raise ValueError("need one orientation per segment")
        if any(o not in (FUTURE, PAST) for o in ors):
            raise ValueError("orientations must be 'future' or 'past'")

    @classmethod
    def future_chain(cls, space, points):
        pts = tuple(points)
        return cls(space, pts, (FUTURE,) * max(len(pts) - 1, 0))

    @property
    def segment_count(self):
        return len(self.orientations)

    @property
    def is_future_causal(self):
        return all(o == FUTURE for o in self.orientations)

    def validate(self):
        """Raise SegmentNotCausal on the first segment violating its orientation."""
        for i, o in enumerate(self.orientations):
            a, b = self.points[i], self.points[i + 1]
            ok = self.space.causal_le(a, b) if o == FUTURE else self.space.causal_le(b, a)
            if not ok:
                raise SegmentNotCausal(i, a, b, o)

    def tau_length(self):
        """Time-separation length: sum of tau over consecutive joints.

        Only defined for future-directed causal curves.
        """
        if not self.is_future_causal:
            raise ValueError("tau length is only defined for future-directed curves")
        self.validate()
        return self.cumulative_tau()[-1]

    def cumulative_tau(self):
        acc = [0]
        for a, b in zip(self.points, self.points[1:]):
            acc.append(acc[-1] + self.space.tau(a, b))
        return acc


PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable report for one hypothesis or conclusion.

    A failing certificate always carries a witness tuple that can be
    replayed deterministically through :func:`replay`.
    """

    name: str
    verdict: str
    tolerance: float
    samples_checked: int
    seed: int
    witness: tuple = None
    data: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == PASS

    def as_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "tolerance": float(self.tolerance),
            "samples_checked": int(self.samples_checked),
            "seed": self.seed,
            "witness": jsonable(self.witness),
            "data": jsonable(self.data),
        }


def jsonable(value):
    """Recursively convert report payloads to JSON-encodable values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def json_chunks(payload):
    """JSON with sorted keys, a two-space indent and a trailing newline, as
    the encoder's chunks: a writer can stream them without joining them."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    yield "\n"


def json_text(payload):
    """The text of :func:`json_chunks`."""
    return "".join(json_chunks(payload))


def csv_text(header, rows):
    """CSV text of ``header`` and then ``rows``, which may be a generator."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_rows(path, header):
    """Yield the nonblank rows of CSV file ``path`` after its header; raise
    ValueError unless that header is ``header`` and each row fills its columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f'{path}: header must be exactly "{",".join(header)}"')
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{len(header)} cells, got {len(row)}")
            yield row


def atomic_write(path, text):
    """Write ``text``, a string or an iterable of string chunks, to ``path``
    through a temp file and a rename, so a failed write (or a chunk iterator
    that raises) leaves any previous file intact and no temp file behind."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


PREDICATES = {}


def predicate(name):
    """Register the one predicate of certificate ``name``.

    ``check(space, bundle, cert, *case)`` returns ``(witness, failed)``: the
    case with its measured entries recomputed, and whether the property
    fails on it.  A case that checks several properties at once may return
    a list of such pairs.
    """
    def wrap(fn):
        PREDICATES[name] = fn
        return fn
    return wrap


def smallest(failures):
    """The failing witness that sorts first by its string entries."""
    return min(failures, key=lambda w: tuple(map(str, w)))


def first(failures):
    """The failing witness found first."""
    return failures[0]


def certify(draft: Certificate, space: Space, bundle, cases, pick=smallest,
            count=True):
    """Run the predicate of ``draft.name`` on every case.

    Returns ``draft`` with its verdict and ``pick`` of the failing witnesses
    (plus their number as ``data["violations"]`` when ``count``), and the
    completed witness of every case, for checkers that report measurements.
    """
    check = PREDICATES[draft.name]
    completed, failures = [], []
    for case in cases:
        found = check(space, bundle, draft, *case)
        for witness, failed in (found if isinstance(found, list) else [found]):
            completed.append(witness)
            if failed:
                failures.append(witness)
    data = {**draft.data, "violations": len(failures)} if count else draft.data
    cert = replace(draft, verdict=FAIL if failures else PASS,
                   witness=pick(failures) if failures else None, data=data)
    return cert, completed


def replay(certificate: Certificate, space: Space, bundle: TimeFunctionBundle = None) -> bool:
    """Re-run a failing certificate's predicate on its witness.

    Returns True when the recorded defect reproduces.
    """
    if certificate.passed:
        raise ValueError("replay is defined for failing certificates")
    try:
        check = PREDICATES[certificate.name]
    except KeyError:
        raise ValueError(f"no predicate registered for {certificate.name!r}")
    return bool(check(space, bundle, certificate, *certificate.witness)[1])


def resolve_tol(space: Space, tol):
    """Default tolerance policy: exact on discrete backends, 1e-9 otherwise."""
    if tol is not None:
        return tol
    return 0 if space.is_discrete else DEFAULT_TOL


def check_chronology(space: Space, sample_budget: int = 256, seed: int = DEFAULT_SEED,
                     tol=None) -> Certificate:
    """Certify tau(x, x) = 0 on every sampled point (all points when finite)."""
    tol = resolve_tol(space, tol)
    if space.is_discrete:
        pts = list(space.points())
    else:
        pts = space.sample_points(make_rng(seed), sample_budget)
    draft = Certificate("chronology", None, float(tol), len(pts), seed)
    return certify(draft, space, None, [(x, None) for x in pts])[0]


@predicate("chronology")
def _chronology(space, bundle, cert, x, _diag):
    diag = space.tau(x, x)
    return (x, diag), diag > cert.tolerance


def check_reverse_triangle(space: Space, sample_budget: int = 256, seed: int = DEFAULT_SEED,
                           tol=None) -> Certificate:
    """Certify tau(x,z) >= tau(x,y) + tau(y,z) on sampled chains x <= y <= z."""
    tol = resolve_tol(space, tol)
    chains = _causal_chains(space, sample_budget, seed)
    draft = Certificate("reverse_triangle", None, float(tol), len(chains), seed)
    return certify(draft, space, None, [(x, y, z, None) for x, y, z in chains])[0]


@predicate("reverse_triangle")
def _reverse_triangle(space, bundle, cert, x, y, z, _gap):
    whole = space.tau(x, z)
    if whole == math.inf:
        return (x, y, z, None), False
    gap = (space.tau(x, y) + space.tau(y, z)) - whole
    return (x, y, z, gap), gap > cert.tolerance


def _causal_chains(space, sample_budget, seed):
    if space.is_discrete and len(space.points()) ** 3 <= 8000:
        return list(space.causal_chains())
    return space.sample_causal_chains(make_rng(seed), sample_budget)


def check_anti_lipschitz(space: Space, bundle: TimeFunctionBundle, sample_budget: int = 256,
                         seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Certify d_U(x, y) <= T(y) - T(x) on sampled causal pairs inside witnesses.

    Raises WitnessMissing when a sampled point has no neighbourhood
    descriptor at all.  Pairs that do not fit inside a single witness are
    skipped (the property is local).
    """
    tol = resolve_tol(space, tol)
    cases = []
    for x, y in space.sample_causal_pairs(make_rng(seed), sample_budget):
        if bundle.common_witness(x, x) is None:
            raise WitnessMissing(f"no anti-Lipschitz witness covers {x}")
        if bundle.common_witness(x, y) is not None:
            cases.append((x, y, None))
    draft = Certificate("anti_lipschitz", None, float(tol), len(cases), seed)
    return certify(draft, space, bundle, cases)[0]


@predicate("anti_lipschitz")
def _anti_lipschitz(space, bundle, cert, x, y, _gap):
    w = bundle.common_witness(x, y)
    if w is None:
        return (x, y, None), False
    gap = w.metric(x, y) - (bundle.time(y) - bundle.time(x))
    return (x, y, gap), gap > cert.tolerance
