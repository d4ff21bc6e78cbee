"""Road network model: nodes, edges with polyline geometry, nearest-edge
lookup, and shortest along-road distances between points on edges.

Graph files are plain text so test fixtures stay hand-writable:

    node <id> <lat> <lon>
    edge <id> <from> <to> <bidir 0|1> [<lat> <lon> ...]

The optional lat/lon pairs are intermediate polyline points; the node
positions are prepended/appended automatically. Coordinates must be finite,
with |lat| <= 90 and |lon| <= 180. ``#`` starts a comment that runs to the
end of the line, and lines break only at ``\n``, ``\r\n`` and ``\r``, as in
a text-mode read.

Loading checks every line and defers the rest. A text whose lines hold no
error, with each node defined before an edge names it, is read in one
pass: an edge line costs one split, one float conversion per coordinate
and one min/max pass over each column of its polyline, and its edge is
placed as the line is read. Any other text is read again by the per-line
code that words each format error (a bad number, a missing node, a
duplicate id, a zero-length edge, an over-limit segment), which reports
the first as the eager build did. Either way an edge is measured and its
segments indexed only when a query first needs them, so a drive pays for
the part of the map it touches, not the whole map. Every answer is the one
the eager build gives, bit for bit.

Nearest-edge lookup goes through a grid of segment cells. A cell holds
runs of an edge's segments: one entry for each maximal run of consecutive
segments whose two ends lie in that cell, and one entry for each segment
that crosses a cell boundary in every cell of its bounding box, so the
index costs about one entry per cell a road crosses, not one per segment.
The cells are grouped into square tiles of ``_TILE`` cells on a side;
loading registers each edge in the tiles its cell bounding box meets, and
a query indexes the registered edges of the tiles its box meets before it
reads the cells. The segments a query box covers, grouped by edge, are
gathered on the box's first query and kept, so the many queries that fall
in one box share that work. Each query also keeps its hits, and the next
query projects an edge that was a hit only onto the segments in a smaller
box, as wide as the last hit's distance plus the hop between the two
points (with the metric's stretch): that edge's nearest point cannot lie
farther, so the answer is exact whatever was queried before.

Distances between nodes come from Dijkstra searches that are run on
demand, one paused search per source node, only as far as each query's
target, so a query's cost depends on how far apart its nodes are, not on
the size of the graph. Each node carries a weak-component label, so
a target in another component is answered inf without a search. The node
legs between two edges are looked up once per edge pair and kept in a
table, which ``route_distance`` reads.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .canlog import text_lines
from .geokin import DEG_M, LatLon, column_lengths

# Spatial index cell size: 0.0005 degrees is about 56 m of latitude, near the
# default 50 m candidate radius, so a query box spans only a few cells.
_CELL_DEG = 0.0005
# A segment whose ends lie in different cells is indexed in every cell of
# its bounding box; one whose box covers more cells than this (a box of
# about 56 by 39 km at latitude 45) is rejected, not indexed.
_MAX_SEGMENT_CELLS = 1_000_000
# Index tiles are _TILE x _TILE cells (about 220 m of latitude on a side):
# the unit in which segments are indexed on first use.
_TILE = 4
# An edge that spans at least this many degrees per segment in latitude or
# longitude, less _SPAN_MARGIN for rounding, has positive length (see
# RoadGraph._add_edge), so it is measured on first use, not at load.
_STEP_DEG = 1e-9
_SPAN_MARGIN = 1e-12
# Query boxes are widened by 0.1 mm so rounding in the projection arithmetic
# can never leave a segment within the radius outside the box.
_PAD_DEG = 1e-9
# (lat_lo, lat_hi, lon_lo, lon_hi) of a query box that clips no segment
_UNBOUNDED = (-math.inf, math.inf, -math.inf, math.inf)
# nearest-edge order: perpendicular distance, then edge id
_BY_DISTANCE = itemgetter(4, 0)
# an edge line's bidir flag
_BIDIR = {"0": False, "1": True}


class GraphFormatError(ValueError):
    pass


class Edge:
    """A directed or two-way road between two nodes. Its polyline, both
    endpoints included, is held as two float columns, ``lats`` and
    ``lons``; ``geometry`` zips them into ``(lat, lon)`` pairs on each
    read. ``cum_m`` (cumulative length at each vertex) and ``length_m``
    are measured on first read and kept."""

    def __init__(
        self, id: int, node_from: int, node_to: int, bidirectional: bool, lats: tuple[float, ...], lons: tuple[float, ...]
    ):
        self.id = id
        self.node_from = node_from
        self.node_to = node_to
        self.bidirectional = bidirectional
        self.lats = lats
        self.lons = lons

    @property
    def geometry(self) -> tuple[LatLon, ...]:
        return tuple(zip(self.lats, self.lons))

    @cached_property
    def cum_m(self) -> tuple[float, ...]:
        return tuple(column_lengths(self.lats, self.lons))

    @cached_property
    def length_m(self) -> float:
        return self.cum_m[-1]


class Candidate(NamedTuple):
    """A point snapped onto an edge: its along-edge offset from the edge's
    from-node, its coordinate, and its perpendicular distance from the
    query point. ``_project`` builds the tuple directly with
    ``tuple.__new__``. Candidates compare and hash as the tuple of their
    fields, so edge id orders them first."""

    edge_id: int
    offset_m: float
    lat: float
    lon: float
    perp_m: float


class RoadGraph:
    def __init__(
        self,
        nodes: dict[int, LatLon],
        edges: Iterable[tuple[int, int, int, bool, Sequence[LatLon]]],
    ):
        """edges entries: (id, from, to, bidirectional, intermediate points).
        Every coordinate must be finite, with |lat| <= 90 and |lon| <= 180;
        the first that is not is a GraphFormatError naming its node or edge."""
        self.nodes: dict[int, LatLon] = {}
        self.edges: dict[int, Edge] = {}
        # per node: the edges a search leaves it by, in insertion order
        self._incident: dict[int, list[Edge]] = {}
        # per cell: (edge id, first, end) entries for the segments range(first, end)
        self._cells: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        # per tile not yet indexed: the edges whose cell bounding box meets it
        self._tiles: dict[tuple[int, int], list[Edge]] = {}
        # ids of the edges in _cells
        self._indexed: set[int] = set()
        # per query box (i0, i1, j0, j1): each edge with its ascending segments
        self._boxes: dict[tuple[int, int, int, int], list[tuple[Edge, tuple[int, ...]]]] = {}
        # (lat, lon, kx, returned hits) of the last nearest_edges query
        self._last: tuple[float, float, float, list[Candidate]] | None = None
        # union-find forest of weak components; a root is its own parent
        self._parent: dict[int, int] = {}
        # per source: (settled, tentative, heap) of a paused Dijkstra search
        self._searches: dict[int, tuple[dict[int, float], dict[int, float], list[tuple[float, int]]]] = {}
        # per (edge_a.id, edge_b.id): (exit index, entry index, node distance)
        # legs, see route_distance
        self._legs: dict[tuple[int, int], list[tuple[int, int, float]]] = {}

        for node_id, point in dict(nodes).items():
            lat, lon = point
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                try:
                    _latlon(lat, lon)
                except ValueError as exc:
                    raise GraphFormatError(f"node {node_id}: {exc}") from None
            self._add_node(node_id, point)
        for edge_id, node_from, node_to, bidir, mid in edges:
            try:
                mid_lats, mid_lons = _columns([c for point in mid for c in point])
            except ValueError as exc:
                raise GraphFormatError(f"edge {edge_id}: {exc}") from None
            self._add_edge(edge_id, node_from, node_to, bidir, mid_lats, mid_lons)

    # -- construction helpers -------------------------------------------------

    def _add_node(self, node_id: int, point: LatLon) -> None:
        """Adds a node with no edges, the root of its own component."""
        self.nodes[node_id] = point
        self._incident[node_id] = []
        self._parent[node_id] = node_id

    def _add_edge(
        self, edge_id: int, node_from: int, node_to: int, bidir: bool, mid_lats: list[float], mid_lons: list[float]
    ) -> None:
        """Adds an edge with the given intermediate points, raising every
        error the eager build raises, in its order: a missing node, then
        ``_place``'s."""
        nodes = self.nodes
        if node_from not in nodes or node_to not in nodes:
            raise GraphFormatError(f"edge {edge_id} references a missing node")
        (alat, alon), (blat, blon) = nodes[node_from], nodes[node_to]
        lats = (alat, *mid_lats, blat)
        lons = (alon, *mid_lons, blon)
        edge = Edge(edge_id, node_from, node_to, bool(bidir), lats, lons)
        self._place(edge, min(lats), max(lats), min(lons), max(lons))

    def _place(self, edge: Edge, lat_lo: float, lat_hi: float, lon_lo: float, lon_hi: float) -> None:
        """Adds an edge between two nodes of the graph, given the bounds of
        its polyline, raising the eager build's errors in its order: zero
        length, a duplicate id, an over-limit segment. This is the one
        registration step: ``_add_edge`` (the constructor, and a text read
        line by line) and ``_read_plain`` both add an edge through it.

        Every coordinate is finite, with |lat| <= 90 and |lon| <= 180
        (the constructor and from_text check them). Zero length is ruled
        out without measuring an edge whose latitude or longitude span S
        over its n vertices has
        S - _SPAN_MARGIN >= _STEP_DEG * (n - 1) as computed. Proof: the
        computed S, the subtraction and the product each round by less
        than 1e-13 on coordinates this small, so the true span exceeds
        1e-9 * (n - 1). The polyline walks from its lowest vertex to its
        highest in at most n - 1 steps, so some step changes that
        coordinate by more than 1e-9 degrees. On that step, haversine's
        sin((phi2 - phi1) / 2) ** 2 (a latitude step: the radians of two
        latitudes 1e-9 apart differ by over 1.7e-11 after rounding) or
        sin(radians(dlon) / 2) ** 2 (a longitude step, with dlon in
        [1e-9, 360]) is at least 1e-32, and cos1 * cos2 is at least 3e-33,
        because |phi| <= radians(90) < pi / 2. The other term is never
        negative, so h > 0 with no underflow, and the step's length
        2 R asin(min(1, sqrt(h))) is positive. Every step is >= 0 and
        adding a non-negative float never decreases a sum, so the edge's
        length is positive. Any other edge is measured here, and one of
        length <= 0 is rejected with the eager build's message.

        A segment's cell box lies inside its edge's cell box, so only an
        edge whose box exceeds _MAX_SEGMENT_CELLS can hold an over-limit
        segment; such an edge is indexed here, which raises that error.
        Any other edge is registered in the tiles its box meets and indexed
        on first use.
        """
        edge_id = edge.id
        if max(lat_hi - lat_lo, lon_hi - lon_lo) - _SPAN_MARGIN < _STEP_DEG * (len(edge.lats) - 1):
            if edge.length_m <= 0:
                raise GraphFormatError(f"edge {edge_id} has zero length")
        if edge_id in self.edges:
            raise GraphFormatError(f"duplicate edge id {edge_id}")
        self.edges[edge_id] = edge
        self._incident[edge.node_from].append(edge)
        if edge.bidirectional:
            self._incident[edge.node_to].append(edge)
        self._parent[self._component(edge.node_from)] = self._component(edge.node_to)
        i0, i1 = int(lat_lo // _CELL_DEG), int(lat_hi // _CELL_DEG)
        j0, j1 = int(lon_lo // _CELL_DEG), int(lon_hi // _CELL_DEG)
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= _MAX_SEGMENT_CELLS:
            tiles = self._tiles
            for ti in range(i0 // _TILE, i1 // _TILE + 1):
                for tj in range(j0 // _TILE, j1 // _TILE + 1):
                    tiles.setdefault((ti, tj), []).append(edge)
            return
        self._indexed.add(edge_id)
        self._index_edge(edge)

    @classmethod
    def from_text(cls, text: str) -> "RoadGraph":
        """The graph a graph file's text describes (see the module
        docstring); GraphFormatError names the line of the first error.

        A text whose lines all read plainly loads in one pass
        (``_read_plain``). Any other text, an invalid one included, is read
        again by ``_read_each``, the only code that words a load error, so
        the graph and the message are the same either way."""
        lines = text_lines(text)
        graph = cls._read_plain(lines)
        return graph if graph is not None else cls._read_each(lines)

    @classmethod
    def _read_plain(cls, lines: list[str]) -> "RoadGraph | None":
        """The graph of lines that hold no error and define each node before
        an edge names it, or None for any other lines.

        Each edge line costs one ``split``, one ``float`` per coordinate and
        one min/max pass over each column of its polyline, whose bounds
        serve the range and finiteness check and ``_place``. Each edge is
        placed as its line is read, so nothing but the graph outlives a
        line. Since ``_read_each`` reads every line before it adds the first
        edge, and edges in line order, both build the same graph; on an
        error here ``_read_each`` finds the one it reports first."""
        graph = cls({}, [])
        nodes = graph.nodes
        isfinite = math.isfinite
        try:
            for line in lines:
                if "#" in line:
                    line = line.split("#", 1)[0]
                parts = line.split()
                if not parts:
                    continue
                kind = parts[0]
                if kind == "edge" and len(parts) % 2:
                    node_from, node_to = int(parts[2]), int(parts[3])
                    (alat, alon), (blat, blon) = nodes[node_from], nodes[node_to]
                    lats = (alat, *map(float, parts[5::2]), blat)
                    lons = (alon, *map(float, parts[6::2]), blon)
                    lat_lo, lat_hi, lon_lo, lon_hi = min(lats), max(lats), min(lons), max(lons)
                    # min and max pass over NaN; the sum does not
                    if not (
                        -90.0 <= lat_lo and lat_hi <= 90.0 and -180.0 <= lon_lo and lon_hi <= 180.0
                    ) or not isfinite(sum(lats) + sum(lons)):
                        return None
                    edge = Edge(int(parts[1]), node_from, node_to, _BIDIR[parts[4]], lats, lons)
                    graph._place(edge, lat_lo, lat_hi, lon_lo, lon_hi)
                elif kind == "node" and len(parts) == 4:
                    node_id = int(parts[1])
                    if node_id in nodes:
                        return None
                    graph._add_node(node_id, _latlon(parts[2], parts[3]))
                else:
                    return None
        except (ValueError, LookupError):  # GraphFormatError is a ValueError
            return None
        return graph

    @classmethod
    def _read_each(cls, lines: list[str]) -> "RoadGraph":
        """The graph of any lines: every line is read and checked, in order,
        with the per-item code that words each error, and then every edge
        is added, in line order. A read error (a malformed line, a bad or
        out-of-range number, a duplicate node id) is reported before any
        error of the graph (a missing node, zero length, a duplicate edge
        id, an over-limit segment)."""
        nodes: dict[int, LatLon] = {}
        # (line, record)
        edges: list[tuple[int, tuple[int, int, int, bool, list[float], list[float]]]] = []
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "node":
                    if len(parts) != 4:
                        raise ValueError("expected: node <id> <lat> <lon>")
                    node_id = int(parts[1])
                    if node_id in nodes:
                        raise ValueError(f"duplicate node id {node_id}")
                    nodes[node_id] = _latlon(parts[2], parts[3])
                elif parts[0] == "edge":
                    if len(parts) < 5 or (len(parts) - 5) % 2 != 0:
                        raise ValueError("expected: edge <id> <from> <to> <bidir> [<lat> <lon> ...]")
                    if parts[4] not in _BIDIR:
                        raise ValueError("bidir flag must be 0 or 1")
                    lats, lons = _columns(parts[5:])
                    edges.append((line_no, (int(parts[1]), int(parts[2]), int(parts[3]), _BIDIR[parts[4]], lats, lons)))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: {exc}") from None

        graph = cls(nodes, [])
        for line_no, record in edges:
            try:
                graph._add_edge(*record)
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {line_no}: {exc}") from None
        return graph

    @classmethod
    def load(cls, path: str) -> "RoadGraph":
        """A graph file, read with ``from_text``; a format error, or text
        that is not UTF-8, names the file."""
        try:
            with open(path, "r", encoding="utf-8") as fp:
                return cls.from_text(fp.read())
        except (GraphFormatError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"{path}: {exc}") from None

    def to_text(self) -> str:
        lines = []
        for node_id in sorted(self.nodes):
            lat, lon = self.nodes[node_id]
            lines.append(f"node {node_id} {lat:.7f} {lon:.7f}")
        for edge_id in sorted(self.edges):
            e = self.edges[edge_id]
            mid = " ".join(f"{lat:.7f} {lon:.7f}" for lat, lon in zip(e.lats[1:-1], e.lons[1:-1]))
            row = f"edge {e.id} {e.node_from} {e.node_to} {1 if e.bidirectional else 0}"
            lines.append(row + (" " + mid if mid else ""))
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_text())

    # -- spatial lookup --------------------------------------------------------

    def _index_edge(self, edge: Edge) -> None:
        """Adds ``(edge id, first, end)`` entries, each standing for the
        segments ``range(first, end)``: one per maximal run of consecutive
        segments whose two ends lie in one cell, in that cell, and one per
        other segment in every cell of its bounding box.

        Expanded, the edge's entries in each cell are the same (edge,
        segment) pairs in the same order as entering each of its segments
        in every cell of its box would give: a run's segments touch only
        its cell, and no other entry can come between them there."""
        index = self._cells
        edge_id = edge.id
        cells = [(int(lat // _CELL_DEG), int(lon // _CELL_DEG)) for lat, lon in zip(edge.lats, edge.lons)]
        first = 0
        for seg in range(len(cells) - 1):
            a = cells[seg]
            b = cells[seg + 1]
            if a == b:
                continue
            (i0, j0), (i1, j1) = a, b
            if i0 > i1:
                i0, i1 = i1, i0
            if j0 > j1:
                j0, j1 = j1, j0
            n_cells = (i1 - i0 + 1) * (j1 - j0 + 1)
            if n_cells > _MAX_SEGMENT_CELLS:
                raise GraphFormatError(
                    f"edge {edge_id} segment {seg} spans {n_cells} index cells "
                    f"(at most {_MAX_SEGMENT_CELLS}); add intermediate points"
                )
            if first < seg:
                index.setdefault(a, []).append((edge_id, first, seg))
            entry = (edge_id, seg, seg + 1)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    index.setdefault((i, j), []).append(entry)
            first = seg + 1
        end = len(cells) - 1
        if first < end:
            index.setdefault(cells[first], []).append((edge_id, first, end))

    def _project(
        self,
        edge: Edge,
        segs: Iterable[int],
        lat: float,
        lon: float,
        kx: float,
        radius_m: float = math.inf,
        bounds: tuple[float, float, float, float] = _UNBOUNDED,
    ) -> Candidate | None:
        """Nearest point of the given segments of an edge, in local meters,
        or None when it is farther than ``radius_m``; ``kx`` is
        ``DEG_M * math.cos(math.radians(lat))``, metres per degree of
        longitude at the query.

        ``bounds`` is the padded query box (lat_lo, lat_hi, lon_lo, lon_hi);
        a segment whose two ends both lie beyond the same side of it is
        skipped (see ``nearest_edges``). Segments are tried in the order
        given and a later one wins only when strictly nearer, so ascending
        order keeps the lowest segment on ties.

        This is the one projection kernel (``nearest_edges`` and
        ``project_to_edge`` both call it), written on locals over the
        edge's coordinate columns: a segment's longitudes are read only
        once its latitudes pass the box, the segment vector is
        ``(blon - lon) * kx - ax`` (the same float as the far end's local x
        minus ``ax``), and ``t`` is clamped to [0, 1] by the comparisons
        that ``max(0.0, min(1.0, t))`` makes, so -0.0 becomes 0.0 and NaN
        becomes 1.0. The hit is built with ``tuple.__new__``.
        """
        ky = DEG_M
        hypot = math.hypot
        lats = edge.lats
        lons = edge.lons
        lat_lo, lat_hi, lon_lo, lon_hi = bounds
        best_dist = math.inf
        best_seg = -1
        best_t = 0.0
        for seg in segs:
            alat = lats[seg]
            blat = lats[seg + 1]
            if alat > lat_hi:
                if blat > lat_hi:
                    continue
            if alat < lat_lo:
                if blat < lat_lo:
                    continue
            alon = lons[seg]
            blon = lons[seg + 1]
            if alon > lon_hi:
                if blon > lon_hi:
                    continue
            if alon < lon_lo:
                if blon < lon_lo:
                    continue
            ax = (alon - lon) * kx
            ay = (alat - lat) * ky
            dx = (blon - lon) * kx - ax
            dy = (blat - lat) * ky - ay
            seg_len2 = dx * dx + dy * dy
            if seg_len2 == 0:
                t = 0.0
            else:
                t = -(ax * dx + ay * dy) / seg_len2
                if not t < 1.0:
                    t = 1.0
                elif not t > 0.0:
                    t = 0.0
            dist = hypot(ax + t * dx, ay + t * dy)
            if dist < best_dist or best_seg < 0:
                best_dist = dist
                best_seg = seg
                best_t = t
        if best_seg < 0 or best_dist > radius_m:
            return None
        alat, blat = lats[best_seg], lats[best_seg + 1]
        alon, blon = lons[best_seg], lons[best_seg + 1]
        t, cum = best_t, edge.cum_m
        offset = cum[best_seg] + t * (cum[best_seg + 1] - cum[best_seg])
        return tuple.__new__(
            Candidate, (edge.id, offset, alat + t * (blat - alat), alon + t * (blon - alon), best_dist)
        )

    def project_to_edge(self, edge_id: int, lat: float, lon: float) -> Candidate:
        """Perpendicular projection of a point onto an edge's polyline."""
        edge = self.edges[edge_id]
        return self._project(edge, range(len(edge.lats) - 1), lat, lon, DEG_M * math.cos(math.radians(lat)))

    def nearest_edges(self, lat: float, lon: float, radius_m: float, max_results: int) -> list[Candidate]:
        """Candidate edges within radius, nearest first (ties by edge id).

        Exact: the same list as projecting onto every edge with
        ``project_to_edge``, keeping hits with ``perp_m <= radius_m``. Every
        segment is indexed in every cell of its bounding box (a run of
        segments inside one cell shares one entry there), and the nearest
        point of any segment within ``radius_m`` lies inside the query box
        (the local metric is the one ``_project`` uses, padded for rounding),
        so each edge's nearest segment within the radius is among the indexed
        segments projected here, and ascending segment order keeps the same
        tie rule. Before a box's first query, every edge registered in a
        tile that meets the box is indexed (``_index_tiles``); an edge
        with a segment indexed in a cell has that cell in its cell bounding
        box, so it is registered in the cell's tile, and every cell of the
        box is then complete. Near a pole, where the box holds more cells
        than the index, the index's own cells are filtered instead. Later
        indexing adds entries only outside built tiles, so a box's (edge,
        segments) groups are built on its first query and reused.

        Within a group, ``_project`` skips a segment whose two ends lie beyond
        the same side of the query box. Every point of such a segment lies
        beyond that side too, more than ``radius_m`` away in ``_project``'s
        metric by the ``_PAD_DEG`` pad, so it is never a hit, never an
        edge's nearest segment within the radius and never part of a tie.
        A ``Candidate`` is built only for a hit.

        An edge that was among the last query's returned hits gets a box of
        half-width B instead, with d that hit's ``perp_m``, hop the distance
        between the two query points in this query's metric, and
        B = (d * max(1, |kx| / |kx_prev|) + hop) * (1 + 1e-9) + 1e-6 m,
        when hop < ``radius_m`` and B < ``radius_m`` (else the radius box).
        The last hit's snapped point lies on the edge within d of the last
        point in that point's metric; only the longitude term changes
        between the two metrics, by |kx| / |kx_prev|, so it lies within
        d * max(1, |kx| / |kx_prev|) of the last point in this one, and
        within B of this point (the margins cover rounding). So the edge's
        nearest segment lies within B < ``radius_m``, among the box's
        segments and not wholly beyond a side of the B box, and a segment
        wholly beyond one side of that box is farther than B by the pad
        argument above: under the ascending, strictly-nearer rule it can
        neither win nor tie. The answer is the same whatever was queried
        before.
        """
        kx = DEG_M * math.cos(math.radians(lat))
        dlat = radius_m / DEG_M + _PAD_DEG
        dlon = radius_m / abs(kx) + _PAD_DEG
        bounds = (lat - dlat, lat + dlat, lon - dlon, lon + dlon)
        box = (
            int(bounds[0] // _CELL_DEG), int(bounds[1] // _CELL_DEG),
            int(bounds[2] // _CELL_DEG), int(bounds[3] // _CELL_DEG),
        )
        groups = self._boxes.get(box)
        if groups is None:
            if self._tiles:
                self._index_tiles(*box)
            groups = self._boxes[box] = self._box_groups(*box)
        near: dict[int, tuple[float, float, float, float]] = {}
        if self._last is not None:
            plat, plon, pkx, phits = self._last
            hop = math.hypot((lon - plon) * kx, (lat - plat) * DEG_M)
            if hop < radius_m and pkx != 0:
                stretch = max(1.0, abs(kx) / abs(pkx))
                for prev in phits:
                    bound = (prev.perp_m * stretch + hop) * (1 + 1e-9) + 1e-6
                    if bound < radius_m:
                        dlat = bound / DEG_M + _PAD_DEG
                        dlon = bound / abs(kx) + _PAD_DEG
                        near[prev.edge_id] = (lat - dlat, lat + dlat, lon - dlon, lon + dlon)
        hits = []
        for edge, segs in groups:
            hit = self._project(edge, segs, lat, lon, kx, radius_m, near.get(edge.id, bounds))
            if hit is not None:
                hits.append(hit)
        hits.sort(key=_BY_DISTANCE)
        hits = hits[:max_results]
        self._last = (lat, lon, kx, hits)
        return hits

    def _index_tiles(self, i0: int, i1: int, j0: int, j1: int) -> None:
        """Indexes every edge registered in a not yet indexed tile that
        meets the cell box."""
        indexed = self._indexed
        for key in _keys_in(self._tiles, i0 // _TILE, i1 // _TILE, j0 // _TILE, j1 // _TILE):
            for edge in self._tiles.pop(key):
                if edge.id not in indexed:
                    indexed.add(edge.id)
                    self._index_edge(edge)

    def _box_groups(self, i0: int, i1: int, j0: int, j1: int) -> list[tuple[Edge, tuple[int, ...]]]:
        """Each edge indexed in the cells of a box, with its segments there
        in ascending order."""
        segs_by_edge: dict[int, set[int]] = {}
        for cell in _keys_in(self._cells, i0, i1, j0, j1):
            for edge_id, first, end in self._cells[cell]:
                segs_by_edge.setdefault(edge_id, set()).update(range(first, end))
        return [(self.edges[edge_id], tuple(sorted(segs))) for edge_id, segs in segs_by_edge.items()]

    # -- shortest paths --------------------------------------------------------

    def _component(self, node: int) -> int:
        """The root of a node's weak component, halving the path it walks."""
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def node_distance(self, source: int, target: int) -> float:
        """Shortest along-road distance between two nodes; inf when unreachable.

        One Dijkstra search per source is kept paused between calls (its
        settled distances, tentative distances and heap) and resumed only
        until ``target`` is popped, so a query costs the nodes nearer to the
        source than the target, not the whole graph.

        Exact, bit for bit, against running each search to the end: the
        pops are the same sequence, only paused. Lengths are >= 0 and float
        addition is monotone, so no relaxation after a node's pop can make
        its distance strictly smaller; a settled value is the value the full
        search ends with. A target in another weak component is inf at once,
        with no search started or resumed; one that one-way edges keep out of
        reach inside the source's component still exhausts that component.
        A node is relaxed over its incident edges in the order they were
        added, each measured on first read, so the heap sees the pushes of
        an adjacency built at load.
        """
        if self._component(source) != self._component(target):
            return math.inf
        search = self._searches.get(source)
        if search is None:
            search = self._searches[source] = ({}, {source: 0.0}, [(0.0, source)])
        settled, dist, heap = search
        if target in settled:
            return settled[target]
        incident = self._incident
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            settled[node] = d
            for edge in incident[node]:
                neighbor = edge.node_to if edge.node_from == node else edge.node_from
                nd = d + edge.length_m
                if nd < dist.get(neighbor, math.inf):
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor))
            if node == target:
                return d
        return math.inf


def _keys_in(keyed: dict, i0: int, i1: int, j0: int, j1: int) -> list[tuple[int, int]]:
    """The keys of ``keyed`` in the box i0..i1 by j0..j1: the box's keys, or
    the dict's keys filtered where the box holds more (near a pole)."""
    if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(keyed):
        return [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1) if (i, j) in keyed]
    return [(i, j) for i, j in keyed if i0 <= i <= i1 and j0 <= j <= j1]


def _latlon(lat_text: str, lon_text: str) -> LatLon:
    """A graph file coordinate: finite, |lat| <= 90 and |lon| <= 180."""
    lat, lon = float(lat_text), float(lon_text)
    if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
        return lat, lon
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"coordinate {lat_text} {lon_text} is not finite")
    if abs(lat) > 90.0:
        raise ValueError(f"latitude {lat_text} is outside [-90, 90]")
    raise ValueError(f"longitude {lon_text} is outside [-180, 180]")


def _columns(tokens: list[str]) -> tuple[list[float], list[float]]:
    """The latitude and longitude columns of an edge's coordinate tokens,
    read pair by pair with ``_latlon``, which names the first bad pair."""
    pairs = [_latlon(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]
    return [lat for lat, _ in pairs], [lon for _, lon in pairs]


def route_distance(graph: RoadGraph, a: Candidate, b: Candidate) -> float:
    """Shortest along-road distance between two points on edges.

    Includes the partial first and last edges; returns inf when unreachable.
    One-way edges are traversed from-node to to-node only. A point leaves
    ``a``'s edge by its to-node (or, on a two-way edge, its from-node) and
    enters ``b``'s edge by its from-node (or, two-way, its to-node). The
    node-to-node legs between those exits and entries depend only on the
    edge pair, so they come from ``RoadGraph.node_distance`` on the pair's
    first call and from the graph's leg table after it; each call adds its
    own offsets to them as ``exit_cost + leg + entry_cost``, exits outer and
    entries inner, keeping a total only when strictly smaller. This is the
    one routing definition: the Viterbi matcher, ``sequence_logweight`` and
    the brute-force oracle all score transitions with it.
    """
    a_id, a_offset = a[0], a[1]  # edge_id, offset_m
    b_id, b_offset = b[0], b[1]
    best = math.inf
    edge_a = graph.edges[a_id]
    edge_b = graph.edges[b_id]
    if a_id == b_id:
        if edge_a.bidirectional:
            best = abs(a_offset - b_offset)
        elif b_offset >= a_offset:
            best = b_offset - a_offset
    legs = graph._legs.get((a_id, b_id))
    if legs is None:
        exits = (edge_a.node_to, edge_a.node_from) if edge_a.bidirectional else (edge_a.node_to,)
        entries = (edge_b.node_from, edge_b.node_to) if edge_b.bidirectional else (edge_b.node_from,)
        legs = graph._legs[a_id, b_id] = [
            (i, j, graph.node_distance(exit_node, entry_node))
            for i, exit_node in enumerate(exits)
            for j, entry_node in enumerate(entries)
        ]
    exit_costs = (edge_a.length_m - a_offset, a_offset)
    entry_costs = (b_offset, edge_b.length_m - b_offset)
    for i, j, leg in legs:
        total = exit_costs[i] + leg + entry_costs[j]
        if total < best:
            best = total
    return best
