"""Built-in road graphs and drive scenarios for closed-loop testing.

Geometry is laid out in a local east/north meter frame with a turtle-style
path builder, then converted to lat/lon around a fixed origin. Corners are
filleted with constant-radius arcs whose vertices sit exactly on the arc,
so the synthesized steering signal is steady through a turn the way a real
car's would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geokin import DEG_M, VehicleSpec
from .reveng import AngleDecoder
from .roadgraph import RoadGraph
from .synthgen import SimScenario

ORIGIN = (44.6500, 10.9200)

DEFAULT_DECODER = AngleDecoder(id=0x0C6)
DEFAULT_VEHICLE = VehicleSpec(wheelbase=2.6)

XY = tuple[float, float]


@dataclass
class PathBuilder:
    """Turtle in a local meter frame: x east, y north, compass heading."""

    pos: XY = (0.0, 0.0)
    heading: float = 0.0
    _points: list[XY] = field(default_factory=list)

    def __post_init__(self):
        if not self._points:
            self._points = [self.pos]

    def straight(self, length: float, spacing: float = 10.0) -> "PathBuilder":
        h = math.radians(self.heading)
        dx, dy = math.sin(h), math.cos(h)
        x0, y0 = self.pos
        steps = max(1, math.ceil(length / spacing))
        for i in range(1, steps + 1):
            d = length * i / steps
            self._points.append((x0 + dx * d, y0 + dy * d))
        self.pos = self._points[-1]
        return self

    def arc(self, radius: float, sweep_deg: float, spacing: float = 1.0) -> "PathBuilder":
        """Constant-radius turn; positive sweep turns left (compass decreases)."""
        if sweep_deg == 0:
            return self
        h = math.radians(self.heading)
        left = sweep_deg > 0
        # unit normal toward the turn center
        nx, ny = (-math.cos(h), math.sin(h)) if left else (math.cos(h), -math.sin(h))
        cx, cy = self.pos[0] + radius * nx, self.pos[1] + radius * ny
        phi0 = math.atan2(self.pos[1] - cy, self.pos[0] - cx)
        sweep_rad = math.radians(abs(sweep_deg))
        steps = max(2, math.ceil(sweep_rad * radius / spacing))
        sign = 1.0 if left else -1.0  # left turn is counterclockwise in the EN frame
        for i in range(1, steps + 1):
            phi = phi0 + sign * sweep_rad * i / steps
            self._points.append((cx + radius * math.cos(phi), cy + radius * math.sin(phi)))
        self.pos = self._points[-1]
        self.heading = (self.heading - sweep_deg) % 360.0
        return self

    def take(self) -> list[XY]:
        """Vertices accumulated since the last take; the next piece starts
        at the current position so consecutive edges share their junction."""
        points = self._points
        self._points = [self.pos]
        return points

    def branch(self, heading: float | None = None) -> "PathBuilder":
        """A new builder starting here, for decoy roads off a junction."""
        return PathBuilder(pos=self.pos, heading=self.heading if heading is None else heading)


def _to_latlon(xy: XY, origin=ORIGIN) -> tuple[float, float]:
    kx = DEG_M * math.cos(math.radians(origin[0]))
    return (origin[0] + xy[1] / DEG_M, origin[1] + xy[0] / kx)


def assemble_graph(edge_paths: dict[int, list[XY]], origin=ORIGIN, id_base: int = 0) -> RoadGraph:
    """Build a bidirectional RoadGraph from edge polylines in the local frame.

    Node ids are assigned to distinct endpoints in edge-id order, offset by
    id_base so graphs from several fixtures can be merged.
    """
    node_ids: dict[XY, int] = {}
    nodes: dict[int, tuple[float, float]] = {}

    def node_for(xy: XY) -> int:
        if xy not in node_ids:
            node_ids[xy] = id_base + len(node_ids) + 1
            nodes[node_ids[xy]] = _to_latlon(xy, origin)
        return node_ids[xy]

    edges = []
    for edge_id in sorted(edge_paths):
        path = edge_paths[edge_id]
        n_from = node_for(path[0])
        n_to = node_for(path[-1])
        mid = [_to_latlon(p, origin) for p in path[1:-1]]
        edges.append((edge_id, n_from, n_to, True, mid))
    return RoadGraph(nodes, edges)


def _scenario(
    name,
    edge_paths,
    route,
    speed_profile,
    start_bearing_error=0.0,
    origin=ORIGIN,
    id_base=0,
) -> SimScenario:
    shifted = {edge_id + id_base: path for edge_id, path in edge_paths.items()}
    return SimScenario(
        name=name,
        graph=assemble_graph(shifted, origin=origin, id_base=id_base),
        route=[edge_id + id_base for edge_id in route],
        speed_profile=speed_profile,
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
        start_bearing_error=start_bearing_error,
    )


def straight_1km() -> SimScenario:
    pb = PathBuilder(heading=90.0)  # due east
    return _scenario("straight_1km", {1: pb.straight(1000).take()}, [1], [(0.0, 36.0)])


def straight_2km_speed_change() -> SimScenario:
    pb = PathBuilder(heading=0.0)  # due north
    paths = {1: pb.straight(1200).take(), 2: pb.straight(800).take()}
    return _scenario("straight_2km_speed_change", paths, [1, 2], [(0.0, 36.0), (800.0, 54.0), (1500.0, 36.0)])


def turn_left_90(origin=ORIGIN, id_base=0) -> SimScenario:
    pb = PathBuilder(heading=0.0)
    approach = pb.straight(150).take()
    ahead_decoy = pb.branch().straight(140).take()
    cross_decoy = pb.branch(heading=270.0).straight(120).take()
    exit_path = pb.arc(12, 90).straight(150).take()
    paths = {1: approach, 2: exit_path, 3: ahead_decoy, 4: cross_decoy}
    return _scenario("turn_left_90", paths, [1, 2], [(0.0, 20.0)], origin=origin, id_base=id_base)


def turn_right_90() -> SimScenario:
    pb = PathBuilder(heading=0.0)
    approach = pb.straight(150).take()
    ahead_decoy = pb.branch().straight(140).take()
    cross_decoy = pb.branch(heading=90.0).straight(120).take()
    exit_path = pb.arc(12, -90).straight(150).take()
    paths = {1: approach, 2: exit_path, 3: ahead_decoy, 4: cross_decoy}
    return _scenario("turn_right_90", paths, [1, 2], [(0.0, 20.0)])


def s_curve() -> SimScenario:
    pb = PathBuilder(heading=45.0)
    path = pb.straight(80).arc(40, 60).straight(40).arc(40, -60).straight(80).take()
    return _scenario("s_curve", {1: path}, [1], [(0.0, 30.0)])


def city_block(origin=ORIGIN, id_base=0) -> SimScenario:
    pb = PathBuilder(heading=0.0)
    leg1 = pb.straight(100).take()
    side1 = pb.branch().straight(90).take()
    leg2 = pb.arc(10, -90).straight(80).take()
    side2 = pb.branch().straight(90).take()
    leg3 = pb.arc(10, 90).straight(100).take()
    paths = {1: leg1, 2: leg2, 3: leg3, 4: side1, 5: side2}
    return _scenario("city_block", paths, [1, 2, 3], [(0.0, 18.0)], origin=origin, id_base=id_base)


def arc_loop() -> SimScenario:
    """Roundabout-like: enter, 270 degrees around a 22 m arc, leave."""
    pb = PathBuilder(heading=0.0)
    path = pb.straight(60).arc(22, 270).straight(60).take()
    return _scenario("arc_loop", {1: path}, [1], [(0.0, 25.0)])


def highway_10km() -> SimScenario:
    pb = PathBuilder(heading=90.0)
    main1 = pb.straight(2500, spacing=10).arc(2000, -20, spacing=2).straight(2500, spacing=10).take()
    ramp = pb.branch().arc(300, -30, spacing=2).straight(150).take()
    main2 = pb.arc(1500, 15, spacing=2).straight(3500, spacing=10).take()
    paths = {1: main1, 2: main2, 3: ramp}
    return _scenario("highway_10km", paths, [1, 2], [(0.0, 108.0)])


def zigzag(origin=ORIGIN, id_base=0) -> SimScenario:
    pb = PathBuilder(heading=0.0)
    path = (
        pb.straight(70).arc(15, 45).straight(70).arc(15, -45).straight(70).arc(15, 45).straight(70).take()
    )
    return _scenario("zigzag", {1: path}, [1], [(0.0, 25.0)], origin=origin, id_base=id_base)


def l_route() -> SimScenario:
    pb = PathBuilder(heading=90.0)
    leg1 = pb.straight(200).take()
    ahead_decoy = pb.branch().straight(150).take()
    leg2 = pb.arc(15, 90).straight(200).take()
    paths = {1: leg1, 2: leg2, 3: ahead_decoy}
    return _scenario("l_route", paths, [1, 2], [(0.0, 40.0), (180.0, 25.0), (230.0, 40.0)])


def fork_turns(start_bearing_error: float = 0.0) -> SimScenario:
    """Turn-heavy route past an early shallow fork; an initial heading error
    pushes the dead reckoning toward the decoy branch."""
    pb = PathBuilder(heading=0.0)
    approach = pb.straight(40).take()
    decoy = pb.branch().arc(60, -28).straight(200).take()
    true_path = pb.arc(60, 28).straight(60).arc(12, -90).straight(60).arc(12, 90).straight(60).take()
    paths = {1: approach, 2: true_path, 3: decoy}
    return _scenario("fork_turns", paths, [1, 2], [(0.0, 25.0)], start_bearing_error=start_bearing_error)


def default_suite() -> list[SimScenario]:
    """The closed-loop scenario suite: straights, 90-degree turns, S-curves,
    an arc loop, a zigzag, and a 10 km highway."""
    return [
        straight_1km(),
        straight_2km_speed_change(),
        turn_left_90(),
        turn_right_90(),
        s_curve(),
        city_block(),
        arc_loop(),
        highway_10km(),
        zigzag(),
        l_route(),
    ]


def merge_graphs(graphs: list[RoadGraph]) -> RoadGraph:
    """Union of several graphs with disjoint id spaces into one region graph."""
    nodes: dict[int, tuple[float, float]] = {}
    edges = []
    for graph in graphs:
        overlap = nodes.keys() & graph.nodes.keys()
        if overlap:
            raise ValueError(f"node ids collide when merging: {sorted(overlap)[:5]}")
        nodes.update(graph.nodes)
        for edge in graph.edges.values():
            edges.append((edge.id, edge.node_from, edge.node_to, edge.bidirectional, edge.geometry[1:-1]))
    return RoadGraph(nodes, edges)


def tuning_suite() -> list[SimScenario]:
    """Three compact, turn-heavy tracks in disjoint areas and id ranges, so
    one region graph (merge_graphs of their graphs) serves all of them."""
    return [
        turn_left_90(origin=(44.6500, 10.9200), id_base=100),
        city_block(origin=(44.7000, 10.9200), id_base=200),
        zigzag(origin=(44.7500, 10.9200), id_base=300),
    ]
