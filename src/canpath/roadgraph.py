"""Road network model: nodes, edges with polyline geometry, nearest-edge
lookup, and shortest along-road distances between points on edges.

Graph files are plain text so test fixtures stay hand-writable:

    node <id> <lat> <lon>
    edge <id> <from> <to> <bidir 0|1> [<lat> <lon> ...]

The optional lat/lon pairs are intermediate polyline points; the node
positions are prepended/appended automatically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geokin import EARTH_RADIUS_M, LatLon, geodesic_inverse

_DEG_M = EARTH_RADIUS_M * math.pi / 180.0  # meters per degree of latitude
_CELL_DEG = 0.002  # spatial index cell size (~220 m of latitude)


class GraphFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: int
    node_from: int
    node_to: int
    bidirectional: bool
    geometry: tuple[LatLon, ...]  # includes both endpoints
    length_m: float
    cum_m: tuple[float, ...]  # cumulative length at each geometry vertex


@dataclass(frozen=True)
class EdgePoint:
    """A location constrained to an edge: the snapped coordinate plus its
    along-edge offset from the edge's from-node."""

    edge_id: int
    offset_m: float
    lat: float
    lon: float


@dataclass(frozen=True)
class Candidate:
    """A nearest-edge query hit."""

    point: EdgePoint
    perp_m: float

    @property
    def edge_id(self) -> int:
        return self.point.edge_id


class RoadGraph:
    def __init__(
        self,
        nodes: dict[int, LatLon],
        edges: Iterable[tuple[int, int, int, bool, Sequence[LatLon]]],
    ):
        """edges entries: (id, from, to, bidirectional, intermediate points)."""
        self.nodes = dict(nodes)
        self.edges: dict[int, Edge] = {}
        self._adjacency: dict[int, list[tuple[int, float, int]]] = {n: [] for n in self.nodes}
        self._cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._node_dist_cache: dict[int, dict[int, float]] = {}

        for edge_id, node_from, node_to, bidir, mid in edges:
            if node_from not in self.nodes or node_to not in self.nodes:
                raise GraphFormatError(f"edge {edge_id} references a missing node")
            geometry = (self.nodes[node_from], *tuple(mid), self.nodes[node_to])
            cum = [0.0]
            for i in range(len(geometry) - 1):
                cum.append(cum[-1] + geodesic_inverse(geometry[i], geometry[i + 1])[0])
            length = cum[-1]
            if length <= 0:
                raise GraphFormatError(f"edge {edge_id} has zero length")
            if edge_id in self.edges:
                raise GraphFormatError(f"duplicate edge id {edge_id}")
            edge = Edge(
                id=edge_id,
                node_from=node_from,
                node_to=node_to,
                bidirectional=bool(bidir),
                geometry=geometry,
                length_m=length,
                cum_m=tuple(cum),
            )
            self.edges[edge_id] = edge
            self._adjacency[node_from].append((node_to, length, edge_id))
            if edge.bidirectional:
                self._adjacency[node_to].append((node_from, length, edge_id))
            self._index_edge(edge)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "RoadGraph":
        nodes: dict[int, LatLon] = {}
        edges: list[tuple[int, int, int, bool, list[LatLon]]] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "node":
                    if len(parts) != 4:
                        raise ValueError("expected: node <id> <lat> <lon>")
                    nodes[int(parts[1])] = (float(parts[2]), float(parts[3]))
                elif parts[0] == "edge":
                    if len(parts) < 5 or (len(parts) - 5) % 2 != 0:
                        raise ValueError("expected: edge <id> <from> <to> <bidir> [<lat> <lon> ...]")
                    if parts[4] not in ("0", "1"):
                        raise ValueError("bidir flag must be 0 or 1")
                    mid = [
                        (float(parts[i]), float(parts[i + 1]))
                        for i in range(5, len(parts), 2)
                    ]
                    edges.append((int(parts[1]), int(parts[2]), int(parts[3]), parts[4] == "1", mid))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: {exc}") from None
        return cls(nodes, edges)

    @classmethod
    def load(cls, path: str) -> "RoadGraph":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_text(fp.read())

    def to_text(self) -> str:
        lines = []
        for node_id in sorted(self.nodes):
            lat, lon = self.nodes[node_id]
            lines.append(f"node {node_id} {lat:.7f} {lon:.7f}")
        for edge_id in sorted(self.edges):
            e = self.edges[edge_id]
            mid = " ".join(f"{lat:.7f} {lon:.7f}" for lat, lon in e.geometry[1:-1])
            row = f"edge {e.id} {e.node_from} {e.node_to} {1 if e.bidirectional else 0}"
            lines.append(row + (" " + mid if mid else ""))
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_text())

    # -- spatial lookup --------------------------------------------------------

    def _index_edge(self, edge: Edge) -> None:
        for seg in range(len(edge.geometry) - 1):
            (alat, alon), (blat, blon) = edge.geometry[seg], edge.geometry[seg + 1]
            i0, i1 = sorted((int(alat // _CELL_DEG), int(blat // _CELL_DEG)))
            j0, j1 = sorted((int(alon // _CELL_DEG), int(blon // _CELL_DEG)))
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    self._cells.setdefault((i, j), []).append((edge.id, seg))

    def project_to_edge(self, edge_id: int, lat: float, lon: float) -> Candidate:
        """Perpendicular projection of a point onto an edge's polyline."""
        edge = self.edges[edge_id]
        best: Candidate | None = None
        ky = _DEG_M
        kx = _DEG_M * math.cos(math.radians(lat))
        for seg in range(len(edge.geometry) - 1):
            (alat, alon), (blat, blon) = edge.geometry[seg], edge.geometry[seg + 1]
            ax, ay = (alon - lon) * kx, (alat - lat) * ky
            bx, by = (blon - lon) * kx, (blat - lat) * ky
            dx, dy = bx - ax, by - ay
            seg_len2 = dx * dx + dy * dy
            t = 0.0 if seg_len2 == 0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / seg_len2))
            qx, qy = ax + t * dx, ay + t * dy
            dist = math.hypot(qx, qy)
            if best is None or dist < best.perp_m:
                qlat = alat + t * (blat - alat)
                qlon = alon + t * (blon - alon)
                offset = edge.cum_m[seg] + t * (edge.cum_m[seg + 1] - edge.cum_m[seg])
                best = Candidate(EdgePoint(edge_id, offset, qlat, qlon), dist)
        assert best is not None
        return best

    def nearest_edges(self, lat: float, lon: float, radius_m: float, max_results: int) -> list[Candidate]:
        """Candidate edges within radius, nearest first (ties by edge id)."""
        dlat = radius_m / _DEG_M
        dlon = radius_m / (_DEG_M * max(0.01, math.cos(math.radians(lat))))
        i0, i1 = int((lat - dlat) // _CELL_DEG), int((lat + dlat) // _CELL_DEG)
        j0, j1 = int((lon - dlon) // _CELL_DEG), int((lon + dlon) // _CELL_DEG)
        edge_ids: set[int] = set()
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for edge_id, _seg in self._cells.get((i, j), ()):
                    edge_ids.add(edge_id)
        hits = [self.project_to_edge(edge_id, lat, lon) for edge_id in sorted(edge_ids)]
        hits = [h for h in hits if h.perp_m <= radius_m]
        hits.sort(key=lambda h: (h.perp_m, h.edge_id))
        return hits[:max_results]

    def point_at_offset(self, edge_id: int, offset_m: float) -> LatLon:
        edge = self.edges[edge_id]
        offset = max(0.0, min(edge.length_m, offset_m))
        cum = edge.cum_m
        for seg in range(len(cum) - 1):
            if offset <= cum[seg + 1] or seg == len(cum) - 2:
                span = cum[seg + 1] - cum[seg]
                t = 0.0 if span == 0 else (offset - cum[seg]) / span
                (alat, alon), (blat, blon) = edge.geometry[seg], edge.geometry[seg + 1]
                return (alat + t * (blat - alat), alon + t * (blon - alon))
        return edge.geometry[-1]

    # -- shortest paths --------------------------------------------------------

    def node_distances(self, source: int) -> dict[int, float]:
        """Single-source Dijkstra over edge lengths, memoized per source."""
        cached = self._node_dist_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, math.inf):
                continue
            for neighbor, length, _edge_id in self._adjacency[node]:
                nd = d + length
                if nd < dist.get(neighbor, math.inf):
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor))
        self._node_dist_cache[source] = dist
        return dist


def _exits(edge: Edge, offset: float) -> list[tuple[int, float]]:
    """Nodes reachable when leaving an edge from a given offset, with cost."""
    out = [(edge.node_to, edge.length_m - offset)]
    if edge.bidirectional:
        out.append((edge.node_from, offset))
    return out


def _entries(edge: Edge, offset: float) -> list[tuple[int, float]]:
    """Nodes from which an edge point can be entered, with cost."""
    out = [(edge.node_from, offset)]
    if edge.bidirectional:
        out.append((edge.node_to, edge.length_m - offset))
    return out


def route_distance(graph: RoadGraph, a: EdgePoint, b: EdgePoint) -> float:
    """Shortest along-road distance between two points on edges.

    Includes the partial first and last edges; returns inf when unreachable.
    One-way edges are traversed from-node to to-node only.
    """
    best = math.inf
    edge_a = graph.edges[a.edge_id]
    edge_b = graph.edges[b.edge_id]
    if a.edge_id == b.edge_id:
        if edge_a.bidirectional:
            best = abs(a.offset_m - b.offset_m)
        elif b.offset_m >= a.offset_m:
            best = b.offset_m - a.offset_m
    for exit_node, exit_cost in _exits(edge_a, a.offset_m):
        dist_from_exit = graph.node_distances(exit_node)
        for entry_node, entry_cost in _entries(edge_b, b.offset_m):
            via = dist_from_exit.get(entry_node, math.inf)
            total = exit_cost + via + entry_cost
            if total < best:
                best = total
    return best
