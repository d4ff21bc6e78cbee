"""Closed-loop scenario simulator.

Drives a virtual car along a known route on a road graph and emits the
candump log an on-board logger would have captured (steering frames at a
high rate, OBD speed responses at a polled rate), plus the ground-truth
track. The steering signal is synthesized from the route's local
curvature: yaw rate omega = v * kappa, hence delta = atan(wheelbase * kappa).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .canlog import CanFrame
from .geokin import (
    DEG_M,
    LatLon,
    VehiclePose,
    VehicleSpec,
    cumulative_lengths,
    geodesic_inverse,
    point_along,
    wrap_bearing,
)
from .obd import encode_speed_response
from .reveng import AngleDecoder, encode_angle_frame
from .roadgraph import RoadGraph
from .trackeval import Track

# Curvature is measured over vertices about this far apart along the route;
# fixture polylines are sampled densely enough that three vertices around a
# probe point sit on the same arc or straight.
CURVATURE_SPAN_M = 4.0

# Most steering plus OBD steps one simulation may take; each step keeps a
# frame, so this bounds its memory. No shipped or benchmark drive bounds
# above 40,000.
MAX_SIM_STEPS = 2_000_000


class ScenarioError(ValueError):
    pass


@dataclass
class SimScenario:
    name: str
    graph: RoadGraph
    route: list[int]  # contiguous edge ids
    speed_profile: list[tuple[float, float]]  # (from_distance_m, km/h)
    decoder: AngleDecoder
    vehicle: VehicleSpec
    swa_rate: float = 100.0  # Hz, steering broadcast
    obd_rate: float = 10.0  # Hz, speed polling
    start_bearing_error: float = 0.0  # degrees added to the start pose

    def __post_init__(self):
        if not self.route:
            raise ScenarioError("route must list at least one edge")
        if not self.speed_profile or self.speed_profile[0][0] != 0.0:
            raise ScenarioError("speed profile must start at distance 0")
        for _dist, kmh in self.speed_profile:
            if not 0 < kmh <= 255:
                raise ScenarioError(f"profile speed {kmh} km/h outside (0, 255]")
        if self.swa_rate <= 0 or self.obd_rate <= 0:
            raise ScenarioError("sample rates must be positive")


@dataclass
class SimResult:
    frames: list[CanFrame]
    truth: Track
    start: VehiclePose
    route_length_m: float = 0.0


def route_polyline(graph: RoadGraph, route: list[int]) -> list[LatLon]:
    """Concatenated geometry of the route edges, oriented along travel.

    Raises ScenarioError when consecutive edges do not share a node or a
    one-way edge would have to be traversed backwards.
    """
    edges = []
    for edge_id in route:
        if edge_id not in graph.edges:
            raise ScenarioError(f"route references unknown edge {edge_id}")
        edges.append(graph.edges[edge_id])

    def oriented(edge, start_node):
        if edge.node_from == start_node:
            return list(edge.geometry), edge.node_to
        if edge.node_to == start_node:
            if not edge.bidirectional:
                raise ScenarioError(f"one-way edge {edge.id} traversed backwards")
            return list(reversed(edge.geometry)), edge.node_from
        raise ScenarioError(f"edge {edge.id} does not continue from node {start_node}")

    if len(edges) == 1:
        return list(edges[0].geometry)

    first, second = edges[0], edges[1]
    if first.node_to in (second.node_from, second.node_to):
        start_node = first.node_from
    elif first.node_from in (second.node_from, second.node_to):
        start_node = first.node_to
    else:
        raise ScenarioError(f"edges {first.id} and {second.id} do not connect")

    points: list[LatLon] = []
    node = start_node
    for edge in edges:
        geometry, node = oriented(edge, node)
        if points:
            geometry = geometry[1:]  # junction vertex already emitted
        points.extend(geometry)
    return points


def _signed_curvature(p1: LatLon, p2: LatLon, p3: LatLon) -> float:
    """Menger curvature of three route vertices; positive curves left."""
    ky = DEG_M
    kx = DEG_M * math.cos(math.radians(p2[0]))
    ax, ay = (p1[1] - p2[1]) * kx, (p1[0] - p2[0]) * ky
    cx, cy = (p3[1] - p2[1]) * kx, (p3[0] - p2[0]) * ky
    # p2 is the local origin; u = p2 - p1, v = p3 - p2
    cross = (-ax) * cy - (-ay) * cx
    lab = math.hypot(ax, ay)
    lbc = math.hypot(cx, cy)
    lac = math.hypot(cx - ax, cy - ay)
    if lab == 0 or lbc == 0 or lac == 0:
        return 0.0
    return 2.0 * cross / (lab * lbc * lac)


def _steering_at(points: list[LatLon], cum: list[float], s: float, wheelbase: float) -> float:
    """Steering angle in degrees reproducing the route curvature around s."""

    def nearest_vertex(target: float) -> int:
        idx = bisect.bisect_left(cum, target)
        if idx <= 0:
            return 0
        if idx >= len(cum):
            return len(cum) - 1
        return idx if cum[idx] - target < target - cum[idx - 1] else idx - 1

    i2 = nearest_vertex(s)
    i1 = nearest_vertex(s - CURVATURE_SPAN_M)
    i3 = nearest_vertex(s + CURVATURE_SPAN_M)
    if i1 == i2:
        i1 = i2 - 1
    if i3 == i2:
        i3 = i2 + 1
    if i1 < 0 or i3 >= len(points):
        return 0.0
    kappa = _signed_curvature(points[i1], points[i2], points[i3])
    return math.degrees(math.atan(wheelbase * kappa))


def simulate(scenario: SimScenario) -> SimResult:
    """Run the scenario and return the log, the 1 Hz ground truth, and the
    start pose (route origin bearing plus the configured error)."""
    points = route_polyline(scenario.graph, scenario.route)
    cum = cumulative_lengths(points)
    total = cum[-1]

    profile = sorted(scenario.speed_profile)
    breaks = [p[0] for p in profile]
    # the drive takes at most total / slowest seconds, the slowest speed
    # being that of the profile entries the route reaches
    slowest_kmh = min((kmh for dist, kmh in profile if dist < total), default=profile[0][1])
    drive_s = total / (slowest_kmh / 3.6)
    steps = drive_s * scenario.swa_rate + 1.0 + (drive_s + 1.0 / scenario.swa_rate) * scenario.obd_rate + 1.0
    if steps > MAX_SIM_STEPS:
        raise ScenarioError(
            f"scenario needs up to {steps:.3g} steering and OBD steps, more than {MAX_SIM_STEPS:,};"
            " lower swa_rate or obd_rate, or raise the slowest profile speed"
        )

    def speed_kmh_at(s: float) -> float:
        idx = bisect.bisect_right(breaks, s) - 1
        return profile[max(0, idx)][1]

    dt = 1.0 / scenario.swa_rate
    obd_period = 1.0 / scenario.obd_rate
    obd_phase = obd_period / 20.0  # offset so OBD frames never collide with SWA frames

    frames: list[CanFrame] = []
    trajectory_t = [0.0]
    trajectory_s = [0.0]

    t = 0.0
    s = 0.0
    k = 0
    while s < total:
        delta = _steering_at(points, cum, s, scenario.vehicle.wheelbase)
        frames.append(encode_angle_frame(scenario.decoder, t, delta))
        v = speed_kmh_at(s) / 3.6
        s += v * dt
        k += 1
        t = k * dt
        trajectory_t.append(t)
        trajectory_s.append(min(s, total))
    t_end = trajectory_t[-1]

    def s_at_time(query: float) -> float:
        idx = min(bisect.bisect_right(trajectory_t, query), len(trajectory_t) - 1) - 1
        span = trajectory_t[idx + 1] - trajectory_t[idx]
        frac = 0.0 if span == 0 else (query - trajectory_t[idx]) / span
        return trajectory_s[idx] + frac * (trajectory_s[idx + 1] - trajectory_s[idx])

    j = 0
    while True:
        t_obd = obd_phase + j * obd_period
        if t_obd > t_end:
            break
        byte = int(round(speed_kmh_at(s_at_time(t_obd))))
        frames.append(encode_speed_response(byte, timestamp=t_obd))
        j += 1

    frames.sort(key=lambda f: f.timestamp)
    # rate combinations whose sample times coincide get a one-microsecond
    # nudge; log timestamps must strictly increase and the candump format
    # resolves exactly to microseconds
    for i in range(1, len(frames)):
        if frames[i].timestamp <= frames[i - 1].timestamp:
            _t, interface, frame_id, data = frames[i]
            frames[i] = CanFrame(frames[i - 1].timestamp + 1e-6, interface, frame_id, data)

    truth_times = [float(i) for i in range(int(t_end) + 1)]
    if not truth_times or truth_times[-1] < t_end:
        truth_times.append(t_end)
    truth_points = tuple(point_along(points, cum, s_at_time(tt)) for tt in truth_times)
    truth = Track(points=truth_points, times=tuple(truth_times))

    start_bearing = geodesic_inverse(points[0], points[1])[1]
    start = VehiclePose(
        lat=points[0][0],
        lon=points[0][1],
        bearing=wrap_bearing(start_bearing + scenario.start_bearing_error),
    )
    return SimResult(frames=frames, truth=truth, start=start, route_length_m=total)
