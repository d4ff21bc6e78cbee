"""Spherical geodesy, polyline measure and the bicycle-model heading update.

Bearings are compass degrees: 0 = North, clockwise, always kept in
[0, 360). Steering angles are degrees with positive = left turn, so a
positive heading change is *subtracted* from the compass bearing.

Polyline measure has its one home here: the simulator's ground truth, the
road graph's edge offsets and the resampling before track alignment all
use cumulative_lengths (column_lengths on coordinate columns) and
point_along.

The great-circle distance has one home too: haversine, on points that
haversine_point has turned into (latitude in radians, its cosine,
longitude in degrees) once each. geodesic_inverse, geodesic_distance
and track alignment all take their distance from it, and column_lengths,
the one cumulative-length loop, inlines it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

# Mean Earth radius in meters. Per-step distances here are meters, so
# ellipsoidal corrections are far below GPS noise.
EARTH_RADIUS_M = 6371008.8
DEG_M = EARTH_RADIUS_M * math.pi / 180.0  # meters per degree of latitude

LatLon = tuple[float, float]


def wrap_bearing(degrees: float) -> float:
    """Wrap any angle into the compass range [0, 360)."""
    wrapped = degrees % 360.0
    # a negative angle within one ulp of zero wraps to exactly 360.0
    return 0.0 if wrapped == 360.0 else wrapped


@dataclass(frozen=True)
class VehiclePose:
    """Latitude/longitude in degrees plus compass bearing."""

    lat: float
    lon: float
    bearing: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range")
        for name, value in (("longitude", self.lon), ("bearing", self.bearing)):
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if not -180.0 <= self.lon < 180.0:
            object.__setattr__(self, "lon", (self.lon + 180.0) % 360.0 - 180.0)
        object.__setattr__(self, "bearing", wrap_bearing(self.bearing))

    @property
    def position(self) -> LatLon:
        return (self.lat, self.lon)


@dataclass(frozen=True)
class VehicleSpec:
    """Physical parameters the motion model needs."""

    wheelbase: float

    def __post_init__(self):
        if isinstance(self.wheelbase, bool) or not isinstance(self.wheelbase, (int, float)):
            raise ValueError(f"wheelbase must be a number, got {self.wheelbase!r}")
        if not (math.isfinite(self.wheelbase) and self.wheelbase > 0):
            raise ValueError(f"wheelbase must be finite and positive, got {self.wheelbase}")


def angular_speed(speed_ms: float, angle_deg: float, wheelbase_m: float) -> float:
    """Bicycle-model yaw rate in rad/s: speed * tan(angle) / wheelbase."""
    return speed_ms * math.tan(math.radians(angle_deg)) / wheelbase_m


def heading_delta(omega: float, t_window: float) -> float:
    """Heading change in degrees over t_window, wrapped to (-180, 180]."""
    x = omega * t_window
    return math.degrees(math.atan2(math.sin(x), math.cos(x)))


def geodesic_forward(a: LatLon, bearing: float, distance_m: float) -> LatLon:
    """Great-circle destination ``distance_m`` metres from a along the
    initial compass bearing (direct problem; the inverse of geodesic_inverse).
    The longitude is folded into [-180, 180]: a point a hair west of the
    antimeridian comes out as 180.0, which VehiclePose stores as -180.0."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    if distance_m == 0:
        return (a[0], a[1])
    sigma = distance_m / EARTH_RADIUS_M
    phi1 = math.radians(a[0])
    lam1 = math.radians(a[1])
    theta = math.radians(bearing)
    sin_phi2 = math.sin(phi1) * math.cos(sigma) + math.cos(phi1) * math.sin(sigma) * math.cos(theta)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(sigma) * math.cos(phi1),
        math.cos(sigma) - math.sin(phi1) * sin_phi2,
    )
    lon2 = (math.degrees(lam2) + 180.0) % 360.0 - 180.0
    return (math.degrees(phi2), lon2)


def haversine_point(point: LatLon) -> tuple[float, float, float]:
    """A point as haversine takes it: latitude in radians, its cosine, and
    longitude in degrees; worked out once per point, not once per pair."""
    phi = math.radians(point[0])
    return (phi, math.cos(phi), point[1])


def haversine(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Great-circle distance in meters between two haversine_point points;
    exactly 0.0 for coincident points."""
    phi1, cos1, lon1 = a
    phi2, cos2, lon2 = b
    h = math.sin((phi2 - phi1) / 2.0) ** 2 + cos1 * cos2 * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def geodesic_distance(a: LatLon, b: LatLon) -> float:
    """Great-circle distance in meters a -> b; geodesic_inverse's distance."""
    return haversine(haversine_point(a), haversine_point(b))


def geodesic_inverse(a: LatLon, b: LatLon) -> tuple[float, float]:
    """Great-circle distance in meters and initial bearing a -> b (inverse problem).

    Coincident points return (0, 0) by convention.
    """
    phi1, cos1, _ = ha = haversine_point(a)
    phi2, cos2, _ = hb = haversine_point(b)
    distance = haversine(ha, hb)
    if distance == 0.0:
        return (0.0, 0.0)
    dlam = math.radians(b[1] - a[1])
    bearing = math.atan2(
        math.sin(dlam) * cos2,
        cos1 * math.sin(phi2) - math.sin(phi1) * cos2 * math.cos(dlam),
    )
    return (distance, wrap_bearing(math.degrees(bearing)))


def cumulative_lengths(points: Sequence[LatLon]) -> list[float]:
    """Great-circle length from the first point to each; [0.0] for < 2 points."""
    return column_lengths([p[0] for p in points], [p[1] for p in points])


def column_lengths(lats: Sequence[float], lons: Sequence[float]) -> list[float]:
    """cumulative_lengths of the points ``zip(lats, lons)``, from two
    coordinate columns. This is the one cumulative-length loop: haversine
    and haversine_point inlined in their operation order, each point's
    radians and cosine worked out once, so every step is
    ``haversine(haversine_point(a), haversine_point(b))`` bit for bit."""
    cum = [0.0]
    if len(lats) < 2:
        return cum
    radians, cos, sin, asin, sqrt = math.radians, math.cos, math.sin, math.asin, math.sqrt
    diameter = 2.0 * EARTH_RADIUS_M
    append = cum.append
    total = 0.0
    phi1 = radians(lats[0])
    cos1 = cos(phi1)
    lon1 = lons[0]
    for lat, lon2 in zip(lats[1:], lons[1:]):
        phi2 = radians(lat)
        cos2 = cos(phi2)
        h = sin((phi2 - phi1) / 2.0) ** 2 + cos1 * cos2 * sin(radians(lon2 - lon1) / 2.0) ** 2
        root = sqrt(h)
        # min(1.0, root): 1.0 unless root < 1.0, so NaN gives 1.0 too
        total = total + diameter * asin(root if root < 1.0 else 1.0)
        append(total)
        phi1, cos1, lon1 = phi2, cos2, lon2
    return cum


def polyline_length(points: Sequence[LatLon]) -> float:
    """Sum of great-circle segment lengths; 0 for fewer than two points."""
    return cumulative_lengths(points)[-1]


def point_along(points: Sequence[LatLon], cum: Sequence[float], s: float) -> LatLon:
    """The point s meters along a polyline with ``cum`` its cumulative_lengths,
    s clamped to [0, length]: linear in lat/lon within the segment holding s,
    which on an interior vertex is the segment that starts there."""
    s = max(0.0, min(cum[-1], s))
    seg = min(bisect.bisect_right(cum, s), len(points) - 1) - 1
    span = cum[seg + 1] - cum[seg]
    t = 0.0 if span == 0 else (s - cum[seg]) / span
    (alat, alon), (blat, blon) = points[seg], points[seg + 1]
    return (alat + t * (blat - alat), alon + t * (blon - alon))
