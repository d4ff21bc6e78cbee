"""Spherical geodesy, polyline measure and the bicycle-model heading update.

Bearings are compass degrees: 0 = North, clockwise, always kept in
[0, 360). Steering angles are degrees with positive = left turn, so a
positive heading change is *subtracted* from the compass bearing.

Polyline measure has its one home here: the simulator's ground truth, the
road graph's edge offsets and the resampling before track alignment all
use cumulative_lengths and point_along.
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
        if self.wheelbase <= 0:
            raise ValueError("wheelbase must be positive")


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


def geodesic_inverse(a: LatLon, b: LatLon) -> tuple[float, float]:
    """Great-circle distance in meters and initial bearing a -> b (inverse problem).

    Coincident points return (0, 0) by convention.
    """
    if a == b:
        return (0.0, 0.0)
    phi1 = math.radians(a[0])
    phi2 = math.radians(b[0])
    dphi = phi2 - phi1
    dlam = math.radians(b[1] - a[1])
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    distance = 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
    if distance == 0.0:
        return (0.0, 0.0)
    bearing = math.atan2(
        math.sin(dlam) * math.cos(phi2),
        math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam),
    )
    return (distance, wrap_bearing(math.degrees(bearing)))


def cumulative_lengths(points: Sequence[LatLon]) -> list[float]:
    """Great-circle length from the first point to each; [0.0] for < 2 points."""
    cum = [0.0]
    for i in range(len(points) - 1):
        cum.append(cum[-1] + geodesic_inverse(points[i], points[i + 1])[0])
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
