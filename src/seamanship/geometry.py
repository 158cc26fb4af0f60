"""Local-frame geometry: projection, ship domain and arena shapes, domain
scale factors, and constant-course motion prediction.

Conventions used throughout the package: positions are north/east meters in
a local tangent plane, headings are radians clockwise from true north in
[0, 2*pi), speeds are m/s, times are seconds since the scenario epoch.
"""

from __future__ import annotations

import math
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


def normalize_heading(angle: float) -> float:
    """Wrap an angle in radians to [0, 2*pi); a non-finite angle is rejected."""
    if not math.isfinite(angle):
        raise ValueError(f"non-finite heading {angle}")
    wrapped = float(angle) % TWO_PI
    # float modulo may round up to the modulus itself for tiny negatives
    return wrapped if wrapped < TWO_PI else 0.0


def require_finite(params) -> None:
    """Reject a parameter dataclass holding a non-finite float in any field.

    NaN passes every range check written as a comparison, so each parameter
    block calls this before its own checks.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        if self.radius <= 0.0:
            raise ValueError(f"arena radius must be positive, got {self.radius}")


def project(lat: float, lon: float, origin: tuple[float, float]) -> LocalPoint:
    """Project geodetic coordinates to the local north/east plane.

    Equirectangular projection about ``origin`` (lat, lon in degrees):
    adequate for scenario extents of a few tens of kilometers.
    """
    lat0, lon0 = origin
    north = math.radians(lat - lat0) * EARTH_RADIUS_M
    east = math.radians(lon - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    return LocalPoint(north, east)


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


def _domain_frame(heading, d_north, d_east):
    """Rotate world displacements into the domain frame.

    Returns (x, y): x along the heading, y positive to starboard. Accepts
    scalars or arrays.
    """
    c = np.cos(heading)
    s = np.sin(heading)
    x = c * d_north + s * d_east
    y = -s * d_north + c * d_east
    return x, y


def _scale_factor_xy(a, b, off_f, off_s, x, y):
    """Scale factor for targets given in the domain frame.

    Solves for f >= 0 such that (x, y) lies on the boundary of the domain
    scaled by f about the vessel position (axes f*a, f*b, center offsets
    f*off_f, f*off_s). All arguments broadcast.

    The boundary condition is the quadratic A f^2 + B f + C = 0 with
        A = off_f^2 b^2 + off_s^2 a^2 - a^2 b^2   (< 0 when the vessel is
                                                   inside its own domain)
        B = -2 (x off_f b^2 + y off_s a^2)
        C = x^2 b^2 + y^2 a^2                     (>= 0)
    which then has exactly one non-negative root, evaluated in the
    cancellation-free form 2C / (sqrt(B^2 - 4AC) - B).
    """
    a2 = np.asarray(a, dtype=float) ** 2
    b2 = np.asarray(b, dtype=float) ** 2
    coef_a = off_f * off_f * b2 + off_s * off_s * a2 - a2 * b2
    if np.any(coef_a >= 0.0):
        raise ValueError(
            "domain center offsets place the vessel on or outside its own domain"
        )
    coef_b = -2.0 * (x * off_f * b2 + y * off_s * a2)
    coef_c = x * x * b2 + y * y * a2
    disc = coef_b * coef_b - 4.0 * coef_a * coef_c
    root = np.sqrt(np.maximum(disc, 0.0))
    den = root - coef_b
    safe = np.where(den > 0.0, den, 1.0)
    return np.where(den > 0.0, 2.0 * coef_c / safe, 0.0)


def scale_factor(domain: DomainSpec, target: LocalPoint, own_position: LocalPoint) -> float:
    """Multiplier that puts ``target`` exactly on the scaled domain boundary.

    The domain is scaled about the vessel position (``own_position``), so
    center offsets scale together with the axes. f < 1 means the target is
    inside the unit domain; f = 0 means it coincides with the vessel
    position.
    """
    x, y = _domain_frame(
        domain.heading,
        target.north - own_position.north,
        target.east - own_position.east,
    )
    return float(
        _scale_factor_xy(
            domain.semi_major,
            domain.semi_minor,
            domain.center_offset_fwd,
            domain.center_offset_stb,
            x,
            y,
        )
    )


def ddv(f):
    """Degree of domain violation: max(1 - f, 0). Accepts scalars or arrays."""
    return np.maximum(1.0 - np.asarray(f, dtype=float), 0.0)


def travel_distance(speed, dt, rate=0.0):
    """Distance covered in ``dt`` seconds under a constant speed-change rate.

    Speed is clamped at zero: a decelerating vessel stops and stays stopped.
    Arguments may be arrays and broadcast together.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0.0):
        raise ValueError("dt must be non-negative")
    rate = np.asarray(rate, dtype=float)
    # a decelerating vessel moves only until it stops; others move all of dt
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(rate < 0.0, np.minimum(dt, speed / -rate), dt)
    return speed * tau + 0.5 * rate * tau * tau


def predict_state(state: VesselState, dt: float, speed_change_rate: float = 0.0) -> VesselState:
    """Predict a state ``dt`` seconds ahead on a constant course.

    Heading is held; speed evolves at ``speed_change_rate`` (m/s^2) and is
    clamped at zero. Position advances along the heading by the integral of
    the clamped speed.
    """
    dist = float(travel_distance(state.speed, dt, speed_change_rate))
    new_speed = max(0.0, state.speed + speed_change_rate * dt)
    return replace(
        state,
        time=state.time + dt,
        north=state.north + dist * math.cos(state.heading),
        east=state.east + dist * math.sin(state.heading),
        speed=new_speed,
    )


def predict_positions(state: VesselState | StateArrays, dts: np.ndarray, rate=0.0):
    """Vectorized constant-course prediction over an array of lead times.

    ``state`` is one state or a :class:`StateArrays` shaped to broadcast
    against ``dts`` and ``rate``. Returns (north, east, speed) arrays of
    the broadcast shape.
    """
    dts = np.asarray(dts, dtype=float)
    dist = travel_distance(state.speed, dts, rate)
    north = state.north + dist * np.cos(state.heading)
    east = state.east + dist * np.sin(state.heading)
    speed = np.maximum(0.0, state.speed + rate * dts)
    return north, east, speed


@dataclass
class VesselTrack:
    """A resampled vessel trajectory on a uniform time grid.

    All arrays share one length; ``times`` is strictly increasing with
    constant spacing. ``length`` and ``vessel_type`` are per-vessel
    constants.
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
        for name in ("times", "north", "east", "speed", "heading"):
            values = getattr(self, name)
            if values.size != n:
                raise ValueError(f"track {self.track_id!r}: {name} length mismatch")
            if not np.isfinite(values).all():
                raise ValueError(f"track {self.track_id!r}: non-finite {name}")
        if not math.isfinite(self.length):
            raise ValueError(f"track {self.track_id!r}: non-finite length {self.length}")
        self.heading = np.mod(self.heading, TWO_PI)
        if n > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError(f"track {self.track_id!r}: times not strictly increasing")
        if np.any(self.speed < 0.0):
            raise ValueError(f"track {self.track_id!r}: negative speed")
        if self.length <= 0.0:
            raise ValueError(f"track {self.track_id!r}: non-positive length {self.length}")

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
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), self.times.size - 1)
        if idx == self.times.size - 1 or self.times[idx] == t:
            return self._state_at_index(idx, t)
        span = self.times[idx + 1] - self.times[idx]
        frac = (t - self.times[idx]) / span
        return VesselState(
            time=t,
            north=float(self.north[idx] + frac * (self.north[idx + 1] - self.north[idx])),
            east=float(self.east[idx] + frac * (self.east[idx + 1] - self.east[idx])),
            speed=float(self.speed[idx] + frac * (self.speed[idx + 1] - self.speed[idx])),
            heading=interp_heading(float(self.heading[idx]), float(self.heading[idx + 1]), frac),
            length=self.length,
            vessel_type=self.vessel_type,
        )

    def state_at_clamped(self, t: float) -> tuple[VesselState, bool]:
        """State at ``t`` clamped into the track span.

        Returns (state, held): held is True when the query fell outside the
        span and the nearest endpoint state was substituted.
        """
        if t < self.t_start:
            return self._state_at_index(0, self.t_start), True
        if t > self.t_end:
            return self._state_at_index(self.times.size - 1, self.t_end), True
        return self.state_at(t), False

    def _state_at_index(self, idx: int, t: float) -> VesselState:
        return VesselState(
            time=t,
            north=float(self.north[idx]),
            east=float(self.east[idx]),
            speed=float(self.speed[idx]),
            heading=float(self.heading[idx]),
            length=self.length,
            vessel_type=self.vessel_type,
        )

    def common_times(self, other: "VesselTrack") -> np.ndarray:
        """Grid times present in both tracks."""
        return np.intersect1d(self.times, other.times)


def find_tdv(
    track_j: VesselTrack,
    track_k: VesselTrack,
    params: DomainParams | None = None,
) -> float | None:
    """First common grid time at which vessel k violates vessel j's domain.

    Evaluates the scale factor of k's position in j's domain at every grid
    time shared by the two tracks; returns the earliest with f < 1, or None
    when no violation occurs (including disjoint time spans).
    """
    params = params or DomainParams()
    times = track_j.common_times(track_k)
    if times.size == 0:
        return None
    ij = np.searchsorted(track_j.times, times)
    ik = np.searchsorted(track_k.times, times)
    semi_major, semi_minor = domain_axes(track_j.speed[ij], track_j.length, params)
    x, y = _domain_frame(
        track_j.heading[ij],
        track_k.north[ik] - track_j.north[ij],
        track_k.east[ik] - track_j.east[ij],
    )
    f = _scale_factor_xy(
        semi_major, semi_minor, params.offset_fraction * semi_major, 0.0, x, y
    )
    hits = np.nonzero(f < 1.0)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])
