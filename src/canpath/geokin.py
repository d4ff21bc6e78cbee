"""Spherical geodesy plus the kinematic bicycle-model heading update.

Bearings are compass degrees: 0 = North, clockwise, always kept in
[0, 360). Steering angles are degrees with positive = left turn, so a
positive heading change is *subtracted* from the compass bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# Mean Earth radius in meters. Per-step distances here are meters, so
# ellipsoidal corrections are far below GPS noise.
EARTH_RADIUS_M = 6371008.8

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


@dataclass(frozen=True)
class KinematicStep:
    """Yaw rate and the wrapped heading change it produces over one window."""

    omega: float
    heading_delta: float


def angular_speed(speed_ms: float, angle_deg: float, wheelbase_m: float) -> float:
    """Bicycle-model yaw rate in rad/s: speed * tan(angle) / wheelbase."""
    return speed_ms * math.tan(math.radians(angle_deg)) / wheelbase_m


def heading_delta(omega: float, t_window: float) -> float:
    """Heading change in degrees over t_window, wrapped to (-180, 180]."""
    x = omega * t_window
    return math.degrees(math.atan2(math.sin(x), math.cos(x)))


def kinematic_step(speed_ms: float, angle_deg: float, wheelbase_m: float, t_window: float) -> KinematicStep:
    omega = angular_speed(speed_ms, angle_deg, wheelbase_m)
    return KinematicStep(omega=omega, heading_delta=heading_delta(omega, t_window))


def apply_heading(pose: VehiclePose, delta_deg: float) -> VehiclePose:
    """Turn the pose: positive delta (left turn) decreases the compass bearing."""
    return replace(pose, bearing=wrap_bearing(pose.bearing - delta_deg))


def geodesic_forward(pose: VehiclePose, distance_m: float) -> LatLon:
    """Great-circle destination from the pose along its bearing (direct problem)."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    if distance_m == 0:
        return (pose.lat, pose.lon)
    sigma = distance_m / EARTH_RADIUS_M
    phi1 = math.radians(pose.lat)
    lam1 = math.radians(pose.lon)
    theta = math.radians(pose.bearing)
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


def polyline_length(points: list[LatLon] | tuple[LatLon, ...]) -> float:
    """Sum of great-circle segment lengths; 0 for fewer than two points."""
    return sum(geodesic_inverse(points[i], points[i + 1])[0] for i in range(len(points) - 1))
