"""Local-frame geometry: projection, ship domain and arena shapes, domain
scale factors, and motion: every own and target position comes from
:func:`sail`, a distance run (:func:`travel_distance`) along an arc of
constant curvature or, at curvature 0, a straight leg.

Every scale factor in the package is computed one way: a :class:`_Frame`,
built from a heading, rotates displacements into the domain frame, and a
:class:`_Quadratic`, built from the domain's axes and center offsets,
solves for the scale factor there. Each is built once and serves many
displacements.

Conventions used throughout the package: positions are north/east meters in
a local tangent plane, headings are radians clockwise from true north in
[0, 2*pi), speeds are m/s, times are seconds since the scenario epoch.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
KNOTS_TO_MPS = 1852.0 / 3600.0
TWO_PI = 2.0 * math.pi


class VesselType(Enum):
    TANKER = "Tanker"
    CARGO = "Cargo"
    PILOT = "Pilot"
    PASSENGER = "Passenger"
    FISHING = "Fishing"
    OTHER = "Other"

    @classmethod
    def parse(cls, text: str) -> "VesselType":
        """Map free-text ship type to an enum member; unknown text -> OTHER."""
        cleaned = str(text).strip().lower()
        for member in cls:
            if member.value.lower() == cleaned:
                return member
        return cls.OTHER


def _wrap_heading(angle) -> np.ndarray:
    """Angles in radians, a float or an array, wrapped into [0, 2*pi) by
    ``%`` (``np.mod`` on an array, the same bits), NaN and a tiny negative,
    which ``%`` rounds up to 2*pi, read as 0. A float or an array all in
    range takes ``+ 0.0`` instead, the same values (-0.0 turned into 0.0) at
    a fraction of the cost."""
    if (isinstance(angle, float) and 0.0 <= angle < TWO_PI) or (
        isinstance(angle, np.ndarray) and angle.size and 0.0 <= angle.min() <= angle.max() < TWO_PI
    ):
        return angle + 0.0
    wrapped = angle % TWO_PI
    return np.where(wrapped < TWO_PI, wrapped, 0.0)


def normalize_heading(angle: float) -> float:
    """Wrap an angle in radians to [0, 2*pi); a non-finite angle is rejected."""
    if not math.isfinite(angle):
        raise ValueError(f"non-finite heading {angle}")
    return float(_wrap_heading(angle))


# the kind of a field annotated ``float | None``
_OPTIONAL_REAL = "float | None"


@functools.cache
def _field_kinds(cls) -> dict[str, object]:
    """The fields of a dataclass annotated ``float``, ``float | None``,
    ``int``, ``bool`` or ``str``, each mapped to its kind: the type, or
    ``_OPTIONAL_REAL``."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in fields(cls):
        hint = hints[f.name]
        if hint in (float, int, bool, str):
            kinds[f.name] = hint
        elif typing.get_origin(hint) in (typing.Union, types.UnionType) and set(
            typing.get_args(hint)
        ) == {float, type(None)}:
            kinds[f.name] = _OPTIONAL_REAL
    return kinds


def is_finite(value) -> bool:
    """``math.isfinite``, but False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_finite(params) -> None:
    """Reject a parameter dataclass holding a non-finite float in any field,
    anything but a finite real number in a ``float`` field, anything but an
    integer in an ``int`` field, or a value of another type in a ``bool``
    or ``str`` field.

    A field annotated ``float`` (or ``float | None``, which also takes None)
    must hold an int or a float, not a str or a bool, whose ``float()`` is
    finite. NaN passes every range check written as a comparison (and is
    truthy in a flag), a string or an int too large for a float fails only
    deep inside a kernel, and a flag given as the string "false" or as 0 or
    1, a count given as 2.5, or a name given as a number, would be used as
    it stands, so each parameter block calls this before its own checks.
    An ``int`` field takes any integer type but bool, which is an integer
    type in Python but no count.
    """
    kinds = _field_kinds(type(params))
    for f in fields(params):
        value = getattr(params, f.name)
        kind = kinds.get(f.name)
        if kind is _OPTIONAL_REAL and value is None:
            continue
        real = kind in (float, _OPTIONAL_REAL)
        if real and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
            raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if (real or isinstance(value, float)) and not is_finite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if kind is int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind in (bool, str) and not isinstance(value, kind):
            raise ValueError(f"{f.name} must be a {kind.__name__}, got {value!r}")


def interp_heading(h0: float, h1: float, frac: float) -> float:
    """Interpolate between two headings along the shorter arc.

    frac = 0 gives h0, frac = 1 gives h1; the path never takes the long way
    around (350 deg -> 10 deg passes through 0 deg).
    """
    delta = (h1 - h0 + math.pi) % TWO_PI - math.pi
    return normalize_heading(h0 + frac * delta)


@dataclass(frozen=True)
class LocalPoint:
    """A position in the local north/east tangent plane, meters."""

    north: float
    east: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.north) and math.isfinite(self.east)):
            raise ValueError(f"non-finite point ({self.north}, {self.east})")

    def distance_to(self, other: "LocalPoint") -> float:
        return math.hypot(self.north - other.north, self.east - other.east)


@dataclass(frozen=True)
class VesselState:
    """Kinematic state of one vessel at an instant.

    Attributes:
        time: seconds since the scenario epoch.
        north: north coordinate, meters.
        east: east coordinate, meters.
        speed: speed over ground, m/s, non-negative.
        heading: radians clockwise from north, normalized to [0, 2*pi).
        length: hull length, meters, positive.
        vessel_type: coarse vessel category.
    """

    time: float
    north: float
    east: float
    speed: float
    heading: float
    length: float
    vessel_type: VesselType = VesselType.OTHER

    def __post_init__(self) -> None:
        values = (self.time, self.north, self.east, self.speed, self.heading, self.length)
        if not all(map(math.isfinite, values)):
            names = ("time", "north", "east", "speed", "heading", "length")
            name, value = next(nv for nv in zip(names, values) if not math.isfinite(nv[1]))
            raise ValueError(f"non-finite {name} {value}")
        if self.speed < 0.0:
            raise ValueError(f"negative speed {self.speed}")
        if self.length <= 0.0:
            raise ValueError(f"non-positive length {self.length}")
        object.__setattr__(self, "heading", normalize_heading(self.heading))

    @property
    def position(self) -> LocalPoint:
        return LocalPoint(self.north, self.east)


class StateArrays(NamedTuple):
    """Kinematics of several vessels as parallel arrays, one entry per
    vessel: north, east, speed, heading and hull length. Field names match
    :class:`VesselState`, so code reading those fields accepts either."""

    north: np.ndarray
    east: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    length: np.ndarray

    @classmethod
    def of(cls, states: Sequence[VesselState]) -> "StateArrays":
        return cls(*(np.array([getattr(s, name) for s in states], dtype=float)
                     for name in cls._fields))

    def select(self, index) -> "StateArrays":
        """The vessels at ``index`` (a slice or an index array)."""
        return StateArrays(*(a[index] for a in self))

    def expand(self, axis: int, ndim: int) -> "StateArrays":
        """Each field reshaped to ``ndim`` dimensions, vessels along ``axis``."""
        shape = [1] * ndim
        shape[axis] = -1
        return StateArrays(*(a.reshape(shape) for a in self))


@dataclass(frozen=True)
class DomainParams:
    """Coefficients sizing the off-center elliptic ship domain.

    The domain is an ellipse fixed to the vessel, its major axis along the
    heading, its center displaced forward of the vessel position. In hull
    lengths, the semi-major axis is ``major_base`` plus ``major_per_knot``
    per knot of speed and the semi-minor axis is ``minor_factor`` (see
    :func:`domain_axes`); the center sits ``offset_fraction`` of the
    semi-major axis ahead.

    Defaults give a 100 m vessel at rest a 400 m by 160 m domain whose
    center sits 100 m ahead of the vessel.
    """

    major_base: float = 4.0
    major_per_knot: float = 0.5
    minor_factor: float = 1.6
    offset_fraction: float = 0.25

    def __post_init__(self) -> None:
        require_finite(self)
        if self.major_base <= 0.0 or self.minor_factor <= 0.0:
            raise ValueError("domain axis coefficients must be positive")
        if self.major_per_knot < 0.0:
            raise ValueError("major_per_knot must be non-negative")
        if not -1.0 < self.offset_fraction < 1.0:
            raise ValueError(f"offset_fraction {self.offset_fraction} outside (-1, 1)")


@dataclass(frozen=True)
class DomainSpec:
    """An off-center elliptic domain attached to a vessel.

    The ellipse axes are aligned with ``heading``; the center is displaced
    from the vessel position by ``center_offset_fwd`` along the heading and
    ``center_offset_stb`` to starboard. Offsets must keep the vessel
    strictly inside its own domain.
    """

    semi_major: float
    semi_minor: float
    center_offset_fwd: float
    center_offset_stb: float
    heading: float

    def __post_init__(self) -> None:
        if self.semi_major <= 0.0 or self.semi_minor <= 0.0:
            raise ValueError(
                f"domain axes must be positive, got {self.semi_major} x {self.semi_minor}"
            )
        if abs(self.center_offset_fwd) >= self.semi_major:
            raise ValueError("forward center offset exceeds semi-major axis")
        if abs(self.center_offset_stb) >= self.semi_minor:
            raise ValueError("starboard center offset exceeds semi-minor axis")
        object.__setattr__(self, "heading", normalize_heading(self.heading))


@dataclass(frozen=True)
class ArenaSpec:
    """Circular watch region centered on a vessel. Default radius is half
    a nautical mile (1 NM diameter)."""

    radius: float
    center: LocalPoint

    def __post_init__(self) -> None:
        if not self.radius > 0.0:  # NaN included
            raise ValueError(f"arena radius must be positive, got {self.radius}")


def project(lat: float, lon: float, origin: tuple[float, float]) -> LocalPoint:
    """Project geodetic coordinates to the local north/east plane.

    Equirectangular projection about ``origin`` (lat, lon in degrees):
    adequate for scenario extents of a few tens of kilometers.
    """
    north, east = project_arrays(lat, lon, origin)
    return LocalPoint(float(north), float(east))


def project_arrays(lat, lon, origin: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """``project`` for arrays of coordinates, which broadcast together:
    (north, east) arrays, each element bit-identical to ``project``'s.
    A non-finite result is rejected."""
    lat0, lon0 = origin
    north = np.radians(np.subtract(lat, lat0)) * EARTH_RADIUS_M
    east = np.radians(np.subtract(lon, lon0)) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    if not (np.isfinite(north).all() and np.isfinite(east).all()):
        raise ValueError("non-finite point in projected coordinates")
    return north, east


def unproject(point: LocalPoint, origin: tuple[float, float]) -> tuple[float, float]:
    """Inverse of :func:`project`: local north/east meters back to degrees."""
    lat0, lon0 = origin
    lat = lat0 + math.degrees(point.north / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(
        point.east / (EARTH_RADIUS_M * math.cos(math.radians(lat0)))
    )
    return lat, lon


def domain_axes(speed, length, params: DomainParams):
    """Semi-major and semi-minor domain axes, meters, at ``speed`` m/s.

    Semi-major grows linearly with speed; semi-minor depends on hull length
    only. Accepts scalars or arrays and does no validation, so it is cheap
    on per-pair and per-offset paths.
    """
    v_knots = speed / KNOTS_TO_MPS
    semi_major = (params.major_base + params.major_per_knot * v_knots) * length
    return semi_major, params.minor_factor * length


def make_domain(state: VesselState, params: DomainParams | None = None) -> DomainSpec:
    """Build the elliptic domain for a vessel state.

    Axes follow :func:`domain_axes`; the center sits ahead of the vessel by
    a fixed fraction of the semi-major axis.
    """
    params = params or DomainParams()
    semi_major, semi_minor = domain_axes(state.speed, state.length, params)
    return DomainSpec(
        semi_major=semi_major,
        semi_minor=semi_minor,
        center_offset_fwd=params.offset_fraction * semi_major,
        center_offset_stb=0.0,
        heading=state.heading,
    )


class _Frame(NamedTuple):
    """The coefficients that rotate world displacements (d_north, d_east)
    into a domain frame: x along the heading, y positive to starboard.
    Called on a displacement, it returns (x, y); all arguments broadcast."""

    xn: np.ndarray
    xe: np.ndarray
    yn: np.ndarray
    ye: np.ndarray

    @classmethod
    def of(cls, heading, reverse: bool = False) -> "_Frame":
        """The frame of a domain with ``heading``. With ``reverse`` the
        coefficients are negated, for a domain that sees the displacement
        reversed: negation is exact, so the rotated values are those of
        the reversed displacement."""
        c, s = np.cos(heading), np.sin(heading)
        return cls(-c, -s, s, -c) if reverse else cls(c, s, -s, c)

    def __call__(self, d_north, d_east):
        return self.xn * d_north + self.xe * d_east, self.yn * d_north + self.ye * d_east


class _Quadratic(NamedTuple):
    """The terms of the scale-factor quadratic that depend on the domain
    alone: the squared axes, the center offsets and A. Built once, they
    serve any number of target positions, which :meth:`solve` takes in the
    domain frame (:class:`_Frame`).

    The scale factor f >= 0 puts a target at (x, y) on the boundary of the
    domain scaled by f about the vessel position (axes f*a, f*b, center
    offsets f*off_f, f*off_s). The boundary condition is the quadratic
    A f^2 + B f + C = 0 with
        A = off_f^2 b^2 + off_s^2 a^2 - a^2 b^2   (< 0 when the vessel is
                                                   inside its own domain)
        B = -2 (x off_f b^2 + y off_s a^2)
        C = x^2 b^2 + y^2 a^2                     (>= 0)
    which then has exactly one non-negative root, evaluated in the
    cancellation-free form 2C / (sqrt(B^2 - 4AC) - B).
    """

    a2: np.ndarray
    b2: np.ndarray
    off_f: np.ndarray
    # None where the starboard offset is 0 throughout
    off_s: np.ndarray | None
    coef_a: np.ndarray

    @classmethod
    def of(cls, a, b, off_f, off_s) -> "_Quadratic":
        """The terms of the domain with axes (a, b) and center offsets
        (off_f, off_s); raises ValueError where A >= 0, which puts the
        vessel on or outside its own domain."""
        a2 = np.asarray(a, dtype=float) ** 2
        b2 = np.asarray(b, dtype=float) ** 2
        coef_a = off_f * off_f * b2 + off_s * off_s * a2 - a2 * b2
        if (coef_a >= 0.0).any():
            raise ValueError(
                "domain center offsets place the vessel on or outside its own domain"
            )
        return cls(a2, b2, off_f, off_s if np.any(off_s) else None, coef_a)

    def solve(self, x, y) -> np.ndarray:
        """Scale factors of targets at (x, y) in the domain frame, as an
        array of the shape that x, y and the terms broadcast to.

        Each step works in place on arrays of that shape that this call
        allocates, never on ``x`` or ``y``. The lateral term of B is
        skipped when ``off_s`` is 0: it could only turn a zero B into a
        zero of the other sign, and B enters the root as B^2 and as
        sqrt(B^2 - 4AC) - B, which reads the same for either zero. The
        discriminant needs no clamp at 0: A < 0 and C >= 0, so it is at
        least B^2, or NaN. The factors 2 and 4 stay where the formula has
        them: dropped, they would cancel, but B^2 would overflow at other
        coordinates (near 1e150 m) than (2B)^2 does.
        """
        shape = np.broadcast(x, y, self.coef_a).shape
        coef_c = np.multiply(x, x, out=np.empty(shape))
        coef_c *= self.b2
        # B's array holds y^2 a^2 until C is summed
        coef_b = np.multiply(y, y, out=np.empty(shape))
        coef_b *= self.a2
        coef_c += coef_b
        np.multiply(x, self.off_f, out=coef_b)
        coef_b *= self.b2
        if self.off_s is not None:
            coef_b += y * self.off_s * self.a2
        coef_b *= -2.0
        den = np.multiply(coef_b, coef_b, out=np.empty(shape))
        den -= np.multiply(4.0 * self.coef_a, coef_c, out=np.empty(shape))
        np.sqrt(den, out=den)
        den -= coef_b
        # den is 0 only at the vessel position; NaN geometry stays NaN
        zero = den == 0.0
        at_vessel = zero.any()
        if at_vessel:
            np.copyto(den, 1.0, where=zero)
        coef_c *= 2.0
        coef_c /= den
        if at_vessel:
            np.copyto(coef_c, 0.0, where=zero)
        return coef_c


def scale_factor(domain: DomainSpec, target: LocalPoint, own_position: LocalPoint) -> float:
    """Multiplier that puts ``target`` exactly on the scaled domain boundary.

    The domain is scaled about the vessel position (``own_position``), so
    center offsets scale together with the axes. f < 1 means the target is
    inside the unit domain; f = 0 means it coincides with the vessel
    position.
    """
    x, y = _Frame.of(domain.heading)(
        target.north - own_position.north, target.east - own_position.east
    )
    quad = _Quadratic.of(
        domain.semi_major, domain.semi_minor,
        domain.center_offset_fwd, domain.center_offset_stb,
    )
    return float(quad.solve(x, y))


def ddv(f):
    """Degree of domain violation: max(1 - f, 0). Accepts scalars or arrays."""
    return np.maximum(1.0 - np.asarray(f, dtype=float), 0.0)


def travel_distance(speed, dt, rate=0.0):
    """Distance covered in ``dt`` seconds under a constant speed-change rate.

    Speed is clamped at zero: a decelerating vessel stops and stays stopped.
    Arguments may be arrays and broadcast together. Where no rate is
    negative (rate 0, as the planner and every own horizon pass, -0.0 and
    NaN included), the time under way is ``dt`` throughout and no stopping
    time is computed.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0.0):
        raise ValueError("dt must be non-negative")
    rate = np.asarray(rate, dtype=float)
    tau = dt
    # a decelerating vessel moves until it stops (after any dt at a subnormal rate), others all dt
    if (rate < 0.0).any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tau = np.where(rate < 0.0, np.minimum(dt, speed / -rate), dt)
    return speed * tau + 0.5 * rate * tau * tau


def ramp_speed(speed, dt, rate=0.0):
    """Speed after ``dt`` seconds under a constant speed-change rate, clamped
    at zero as in :func:`travel_distance`. Arguments broadcast together."""
    return np.maximum(0.0, speed + rate * dt)


def sail(north, east, heading, run, curvature=0.0):
    """Position and heading after running ``run`` = s meters from
    (``north``, ``east``) on ``heading`` along an arc of constant
    ``curvature`` = k (1/m, positive to starboard): sin(k s)/k forward and
    (1 - cos k s)/k to starboard, the heading turned by k s and wrapped.
    Where k is 0 the run is a straight leg on a held heading; a scalar k of
    0 computes no arc term at all. Arguments broadcast together; returns
    (north, east, heading).
    """
    cos_h, sin_h = np.cos(heading), np.sin(heading)
    if np.ndim(curvature) == 0 and curvature == 0.0:
        return north + run * cos_h, east + run * sin_h, heading
    straight = curvature == 0.0
    curvature = np.where(straight, 1.0, curvature)
    turn = run * curvature
    fwd = np.where(straight, run, np.sin(turn) / curvature)
    stb = np.where(straight, 0.0, (1.0 - np.cos(turn)) / curvature)
    # body to world: forward along the heading, starboard 90 degrees clockwise
    return (north + fwd * cos_h - stb * sin_h, east + fwd * sin_h + stb * cos_h,
            np.where(straight, heading, _wrap_heading(heading + turn)))


def predict_state(state: VesselState, dt: float, speed_change_rate: float = 0.0) -> VesselState:
    """Predict a state ``dt`` seconds ahead on a constant course, speed
    changing at ``speed_change_rate`` (m/s^2) and clamped at zero: a scalar
    wrapper of :func:`sail` at curvature 0."""
    north, east, _ = sail(state.north, state.east, state.heading,
                          travel_distance(state.speed, dt, speed_change_rate))
    return replace(state, time=state.time + dt, north=float(north), east=float(east),
                   speed=float(ramp_speed(state.speed, dt, speed_change_rate)))


def predict_positions(state: VesselState | StateArrays, dts: np.ndarray, rate=0.0):
    """Constant-course prediction, :func:`sail` at curvature 0, over an
    array of lead times. ``state`` is one state or a :class:`StateArrays`
    shaped to broadcast against ``dts`` and ``rate``. Returns (north, east,
    speed) arrays of the broadcast shape."""
    dts = np.asarray(dts, dtype=float)
    north, east, _ = sail(state.north, state.east, state.heading,
                          travel_distance(state.speed, dts, rate))
    return north, east, ramp_speed(state.speed, dts, rate)


def _check_tracks(ids, bounds, times, north, east, speed, heading, lengths) -> np.ndarray:
    """Check tracks laid end to end and return their headings wrapped into
    [0, 2*pi).

    Track k is named ``ids[k]``, holds the samples ``bounds[k]:bounds[k + 1]``
    of each array (at least one) and has hull length ``lengths[k]``. These
    are :class:`VesselTrack`'s checks, in this order: finite times, north,
    east, speed and heading; a finite length; times strictly increasing;
    no negative speed; a positive length. Each takes one array pass over
    all tracks. The first track that fails any raises ValueError naming it
    and the first check it fails. The wrap is :func:`_wrap_heading`'s.
    """
    bounds = np.asarray(bounds)
    hulls = np.asarray(lengths, dtype=float)
    increasing = np.diff(times) > 0.0
    increasing[bounds[1:-1] - 1] = True  # a step from one track to the next
    checks = [
        *((np.isfinite(values), True, f"non-finite {name}") for name, values in (
            ("times", times), ("north", north), ("east", east),
            ("speed", speed), ("heading", heading),
        )),
        (np.isfinite(hulls), False, "non-finite length {}"),
        (increasing, True, "times not strictly increasing"),
        (speed >= 0.0, True, "negative speed"),
        (hulls > 0.0, False, "non-positive length {}"),
    ]
    fault = None
    for ok, per_sample, message in checks:
        if not ok.all():
            k = int(np.argmin(ok))
            if per_sample:
                k = int(np.searchsorted(bounds, k, side="right")) - 1
            if fault is None or k < fault[0]:
                fault = (k, message)
    if fault is not None:
        k, message = fault
        raise ValueError(f"track {ids[k]!r}: {message.format(lengths[k])}")
    return _wrap_heading(heading)


@dataclass
class VesselTrack:
    """A resampled vessel trajectory on a time grid.

    All arrays share one length of at least one sample; every value is
    finite, ``times`` strictly increases, no speed is negative and headings
    are wrapped into [0, 2*pi). ``length`` and ``vessel_type`` are
    per-vessel constants; ``length`` is finite and positive. Nothing checks
    that the times are evenly spaced: a scenario archive can store only
    tracks on its grid, which ``Scenario.to_archive`` checks.
    """

    track_id: str
    times: np.ndarray
    north: np.ndarray
    east: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    length: float
    vessel_type: VesselType = VesselType.OTHER

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.north = np.asarray(self.north, dtype=float)
        self.east = np.asarray(self.east, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)
        self.heading = np.asarray(self.heading, dtype=float)
        n = self.times.size
        if n < 1:
            raise ValueError(f"track {self.track_id!r} is empty")
        for name in ("north", "east", "speed", "heading"):
            if getattr(self, name).size != n:
                raise ValueError(f"track {self.track_id!r}: {name} length mismatch")
        self.heading = _check_tracks(
            [self.track_id], [0, n], self.times, self.north, self.east, self.speed,
            self.heading, [self.length],
        )

    @classmethod
    def _checked(cls, **values) -> "VesselTrack":
        """A track of fields that :func:`_check_tracks` has passed, with the
        headings it returned, built without checking them again."""
        track = cls.__new__(cls)
        vars(track).update(values)
        return track

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def covers(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end

    def state_at(self, t: float) -> VesselState:
        """Interpolated state at time ``t``; raises outside the track span.

        Position and speed interpolate linearly; heading follows the
        shorter arc between neighboring samples.
        """
        if not self.covers(t):
            raise ValueError(
                f"track {self.track_id!r}: time {t} outside "
                f"[{self.t_start}, {self.t_end}]"
            )
        return VesselState(t, *self._row_at(t), self.length, self.vessel_type)

    def _row_at(self, t: float) -> tuple[float, float, float, float]:
        """North, east, speed and heading at a time ``t`` inside the span:
        the sample on a grid time or at the end, else :meth:`state_at`'s
        interpolation."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), self.times.size - 1)
        if idx == self.times.size - 1 or self.times[idx] == t:
            return (float(self.north[idx]), float(self.east[idx]),
                    float(self.speed[idx]), float(self.heading[idx]))
        span = self.times[idx + 1] - self.times[idx]
        frac = (t - self.times[idx]) / span
        return (
            float(self.north[idx] + frac * (self.north[idx + 1] - self.north[idx])),
            float(self.east[idx] + frac * (self.east[idx + 1] - self.east[idx])),
            float(self.speed[idx] + frac * (self.speed[idx + 1] - self.speed[idx])),
            interp_heading(float(self.heading[idx]), float(self.heading[idx + 1]), frac),
        )


def _equal_time_cells(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair the samples of tracks, laid end to end in track order in
    ``times``, that fall at the same time (the times ``np.intersect1d``
    shares). Returns the stable sort ``order`` of ``times``, in which a run
    of equal times holds at most one sample per track, in track order, and
    ``first``: sorted sample p pairs with each later one of its run as cells
    ``first[p]`` to ``first[p + 1] - 1``, so cells count in time order."""
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    ends = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, times.size)
    later = np.repeat(ends, np.diff(ends, prepend=0))
    later -= np.arange(1, times.size + 1)
    return order, np.concatenate([[0], np.cumsum(later)])


def _cell_samples(first: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted samples (p, q), p < q, of cells ``start`` to ``stop - 1``
    numbered by :func:`_equal_time_cells`."""
    lo = int(np.searchsorted(first, start, side="right")) - 1
    hi = int(np.searchsorted(first, stop - 1, side="right"))
    p = np.repeat(np.arange(lo, hi), np.diff(np.clip(first[lo:hi + 1], start, stop)))
    return p, np.arange(start, stop) - first[p] + p + 1


def _in_domain(speed, length, frame: _Frame, d_north, d_east, params: DomainParams) -> np.ndarray:
    """Whether each target, displaced by (``d_north``, ``d_east``) from a
    vessel of ``speed``, ``length`` and heading ``frame``, lies inside that
    vessel's domain: a scale factor below 1. All arguments broadcast."""
    semi_major, semi_minor = domain_axes(speed, length, params)
    x, y = frame(d_north, d_east)
    quad = _Quadratic.of(semi_major, semi_minor, params.offset_fraction * semi_major, 0.0)
    return quad.solve(x, y) < 1.0


def find_tdv(
    track_j: VesselTrack,
    track_k: VesselTrack,
    params: DomainParams | None = None,
) -> float | None:
    """First common grid time at which vessel k violates vessel j's domain.

    The two-track case of the equal-time pairing that
    :func:`~seamanship.speedmodel.detect_encounters` sweeps: the earliest
    shared grid time at which k's position has a scale factor f < 1 in j's
    domain, or None when there is none (including disjoint time spans).
    """
    n_j = track_j.times.size
    order, first = _equal_time_cells(np.concatenate([track_j.times, track_k.times]))
    at_j, at_k = (order[cell] for cell in _cell_samples(first, 0, first[-1]))
    at_k -= n_j
    hits = np.flatnonzero(_in_domain(
        track_j.speed[at_j], track_j.length, _Frame.of(track_j.heading[at_j]),
        track_k.north[at_k] - track_j.north[at_j], track_k.east[at_k] - track_j.east[at_j],
        params or DomainParams(),
    ))
    return None if hits.size == 0 else float(track_j.times[at_j[hits[0]]])
