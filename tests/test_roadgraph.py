import heapq
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from canpath.canlog import text_lines
from canpath.geokin import DEG_M, cumulative_lengths, geodesic_inverse
from canpath import mapmatch, roadgraph
from canpath.inference import InferenceParams, infer_path
from canpath.mapmatch import GraphMatcher
from canpath.roadgraph import _CELL_DEG, _PAD_DEG, Candidate, GraphFormatError, RoadGraph, route_distance
from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE, PathBuilder, assemble_graph, merge_graphs
from canpath.synthgen import SimScenario, simulate

from helpers import (
    all_simple_path_distances,
    brute_force_nearest,
    grid_text,
    offset_point,
    straight_graph,
    triangle_graph,
    y_junction,
)

GRAPH_TEXT = """\
# two nodes, one edge with an intermediate point
node 1 44.6500000 10.9200000
node 2 44.6500000 10.9230000
edge 1 1 2 1 44.6500000 10.9215000
"""


def test_parse_graph_text():
    graph = RoadGraph.from_text(GRAPH_TEXT)
    assert set(graph.nodes) == {1, 2}
    edge = graph.edges[1]
    assert len(edge.geometry) == 3
    assert edge.length_m == pytest.approx(237.0, abs=2.0)


def test_text_roundtrip():
    graph = RoadGraph.from_text(GRAPH_TEXT)
    again = RoadGraph.from_text(graph.to_text())
    assert again.nodes == graph.nodes
    for got, want in zip(again.edges[1].geometry, graph.edges[1].geometry):
        assert got == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize(
    "text,message",
    [
        ("node 1 44.65\n", "line 1"),
        ("edge 1 1 2 1\n", "missing node"),
        ("node 1 44.65 10.92\nnode 2 44.65 10.92\nedge 1 1 2 1\n", "zero length"),
        ("node 1 44.65 10.92\nroad 1\n", "unknown record"),
        ("node 1 44.65 10.92\nnode 2 44.66 10.92\nnode 1 45.0 10.92\nedge 1 1 2 1\n", "^line 3: duplicate node id 1$"),
        ("node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 1\nedge 1 2 1 1\n", "^line 4: duplicate edge id 1$"),
        ("node 1 44.65 10.92\n\nedge 1 1 2 1\n", "^line 3: edge 1 references a missing node$"),
        ("node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 2\n", "bidir"),
        ("node 1 nan 0\n", "line 1: coordinate nan 0 is not finite"),
        ("node 1 44.65 10.92\nnode 2 0 inf\n", "line 2: coordinate 0 inf is not finite"),
        ("node 1 -inf 0\n", "line 1: coordinate -inf 0 is not finite"),
        ("node 1 95 0\n", r"line 1: latitude 95 is outside \[-90, 90\]"),
        ("node 1 -90.5 0\n", r"line 1: latitude -90.5 is outside \[-90, 90\]"),
        ("node 1 0 180.01\n", r"line 1: longitude 180.01 is outside \[-180, 180\]"),
        ("node 1 0 -181\n", r"line 1: longitude -181 is outside \[-180, 180\]"),
        (
            "node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 1 44.655 10.92 nan 10.92\n",
            "line 3: coordinate nan 10.92 is not finite",
        ),
        (
            "node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 1 91 10.92\n",
            r"line 3: latitude 91 is outside \[-90, 90\]",
        ),
        (
            "node 1 0 0\nnode 2 -90 -180\nedge 1 1 2 1 -45 -180\n",
            r"line 3: edge 1 segment 0 spans 32400450001 index cells \(at most 1000000\)",
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        RoadGraph.from_text(text)


def index_all(graph):
    """The segment index with every tile built, through the path that a
    nearest_edges query takes for its box, here a box over every cell."""
    huge = 2**62
    graph._index_tiles(-huge, huge, -huge, huge)
    return graph._cells


_NODES_12 = "node 1 44.65 10.92\nnode 2 44.66 10.92\n"

# Every message is the one the graph gave when it measured and indexed each
# edge at load.
_LOAD_ERRORS = {
    "missing node": ("node 1 44.65 10.92\nedge 1 1 2 1\n", "line 2: edge 1 references a missing node"),
    "duplicate node": (_NODES_12 + "node 1 45.0 10.92\n", "line 3: duplicate node id 1"),
    "duplicate edge": (_NODES_12 + "edge 1 1 2 1\nedge 1 2 1 1\n", "line 4: duplicate edge id 1"),
    # zero length is found before the duplicate id
    "zero-length duplicate": (
        "node 1 44.65 10.92\nnode 2 44.65 10.92\nnode 3 44.66 10.92\nedge 1 1 3 1\nedge 1 1 2 1\n",
        "line 5: edge 1 has zero length",
    ),
    "zero length": ("node 1 44.65 10.92\nnode 2 44.65 10.92\nedge 1 1 2 1\n", "line 3: edge 1 has zero length"),
    "zero length through a point": (
        "node 1 44.65 10.92\nnode 2 44.65 10.92\nedge 1 1 2 0 44.65 10.92\n",
        "line 3: edge 1 has zero length",
    ),
    # every point within 1e-12 degrees of the others, so small that each
    # step's haversine underflows to 0
    "points within 1e-12 degrees": (
        "node 1 0 0\nnode 2 1e-170 0\nedge 1 1 2 1 5e-171 1e-171\n",
        "line 3: edge 1 has zero length",
    ),
    "over-limit segment after a run": (
        "node 1 0.0001 0.0001\nnode 2 0.6 0.6\nedge 1 1 2 1 0.0002 0.0003 0.0004 0.0002\n",
        "line 3: edge 1 segment 2 spans 1440000 index cells (at most 1000000); add intermediate points",
    ),
    "nan": (_NODES_12 + "edge 1 1 2 1 44.655 10.92 nan 10.92\n", "line 3: coordinate nan 10.92 is not finite"),
    "inf": (_NODES_12 + "edge 1 1 2 1 44.655 -inf\n", "line 3: coordinate 44.655 -inf is not finite"),
    "latitude out of range": (_NODES_12 + "edge 1 1 2 1 91 10.92\n", "line 3: latitude 91 is outside [-90, 90]"),
    "longitude out of range": (
        _NODES_12 + "edge 1 1 2 1 44.655 -180.5\n",
        "line 3: longitude -180.5 is outside [-180, 180]",
    ),
    "out of range before a bad token": (
        _NODES_12 + "edge 1 1 2 1 44.655 10.92 95 10.92 foo 10.92\n",
        "line 3: latitude 95 is outside [-90, 90]",
    ),
    "bad token before out of range": (
        _NODES_12 + "edge 1 1 2 1 44.655 10.92 foo 10.92 95 10.92\n",
        "line 3: could not convert string to float: 'foo'",
    ),
    "coordinate before a bad id": (_NODES_12 + "edge x 1 2 1 91 10.92\n", "line 3: latitude 91 is outside [-90, 90]"),
    # a read error on a later line wins over a graph error found first
    "bad number after zero length": (
        "node 1 44.65 10.92\nnode 2 44.65 10.92\nnode 3 44.66 10.92\nedge 1 1 2 1\nedge 2 1 3 1 foo 10.92\n",
        "line 5: could not convert string to float: 'foo'",
    ),
    "over limit before a duplicate node": (
        "node 1 0 0\nnode 2 -90 -180\nedge 1 1 2 1 -45 -180\nnode 1 0 0\n",
        "line 4: duplicate node id 1",
    ),
    # an edge held for a later node is placed in line order with the rest
    "duplicate edge after a held edge": (
        "node 1 44.65 10.92\nedge 1 1 2 1\nedge 1 2 1 1\nnode 2 44.66 10.92\n",
        "line 3: duplicate edge id 1",
    ),
    "missing node before zero length": (
        "node 1 44.65 10.92\nnode 2 44.65 10.92\nedge 1 1 9 1\nedge 2 1 2 1\n",
        "line 3: edge 1 references a missing node",
    ),
}


@pytest.mark.parametrize("case", sorted(_LOAD_ERRORS))
def test_load_errors_are_unchanged(case):
    text, message = _LOAD_ERRORS[case]
    with pytest.raises(GraphFormatError) as info:
        RoadGraph.from_text(text)
    assert str(info.value) == message


_A, _B = (44.65, 10.92), (44.66, 10.92)
_CONSTRUCTOR_ERRORS = {
    "missing node": ({1: _A}, [(1, 1, 2, True, [])], "edge 1 references a missing node"),
    "duplicate edge": ({1: _A, 2: _B}, [(1, 1, 2, True, []), (1, 2, 1, False, [])], "duplicate edge id 1"),
    "zero length": ({1: _A, 2: _A}, [(1, 1, 2, True, [_A])], "edge 1 has zero length"),
    "points within 1e-12 degrees": (
        {1: (0.0, 0.0), 2: (1e-170, 0.0)},
        [(1, 1, 2, True, [(5e-171, 1e-171)])],
        "edge 1 has zero length",
    ),
    "over-limit segment after a run": (
        {1: (0.0001, 0.0001), 2: (0.6, 0.6)},
        [(1, 1, 2, True, [(0.0002, 0.0003), (0.0004, 0.0002)])],
        "edge 1 segment 2 spans 1440000 index cells (at most 1000000); add intermediate points",
    ),
    # assemble_graph and merge_graphs build through the constructor, not
    # from_text, and get from_text's coordinate checks
    "nan node": ({1: (math.nan, 10.92), 2: _B}, [], "node 1: coordinate nan 10.92 is not finite"),
    "infinite intermediate point": (
        {1: _A, 2: _B},
        [(1, 1, 2, True, []), (2, 2, 1, True, [(44.655, 10.92), (44.655, math.inf)])],
        "edge 2: coordinate 44.655 inf is not finite",
    ),
    "node at latitude 95": ({1: _A, 2: (95.0, 10.92)}, [(1, 1, 2, True, [])], "node 2: latitude 95.0 is outside [-90, 90]"),
    "intermediate point past longitude 180": (
        {1: _A, 2: _B},
        [(1, 1, 2, True, [(44.655, -180.5)])],
        "edge 1: longitude -180.5 is outside [-180, 180]",
    ),
}


@pytest.mark.parametrize("case", sorted(_CONSTRUCTOR_ERRORS))
def test_constructor_errors_are_unchanged(case):
    nodes, edges, message = _CONSTRUCTOR_ERRORS[case]
    with pytest.raises(GraphFormatError) as info:
        RoadGraph(nodes, edges)
    assert str(info.value) == message


def test_edges_that_load_keep_their_eager_length():
    # points 1e-12 degrees apart near 44.65: too close for the span rule,
    # so measured at load, and positive; and a 1 x 1 degree edge of short
    # segments, whose cell box is over the limit, so indexed at load
    tiny = "node 1 44.65 10.92\nnode 2 44.650000000001 10.92\nedge 1 1 2 1 44.6500000000005 10.9200000000005\n"
    wide = "node 1 0 0\nnode 2 1 1\nedge 1 1 2 1 " + " ".join(f"{k / 100} {k / 100}" for k in range(1, 100)) + "\n"
    assert RoadGraph.from_text(tiny).edges[1].length_m.hex() == "0x1.24fb853fcfe23p-23"
    graph = RoadGraph.from_text(wide)
    assert graph.edges[1].length_m.hex() == "0x1.3320cca6bfecbp+17"
    assert 1 in graph._indexed and graph._tiles == {}


def test_zero_length_is_found_exactly_when_the_eager_length_is_not_positive():
    # polylines on lattices from 1e-13 to 1e-7 degrees, around the span
    # rule's 1e-9 degrees per step, near the equator, at 44.65 and at a
    # pole, each loaded or rejected as its measured length says
    rng = random.Random(20261021)
    outcomes = set()
    for _ in range(3000):
        base_lat, base_lon = rng.choice(((0.0, 0.0), (44.65, 10.92), (90.0, 179.9), (-89.99, -180.0)))
        unit = 10.0 ** rng.randint(-13, -7)
        points = [
            (
                max(-90.0, min(90.0, base_lat + rng.randint(-3, 3) * unit)),
                max(-180.0, min(180.0, base_lon + rng.randint(-3, 3) * unit)),
            )
            for _ in range(rng.randint(2, 6))
        ]
        nodes = {1: points[0], 2: points[-1]}
        length = cumulative_lengths(points)[-1]
        if length > 0:
            graph = RoadGraph(nodes, [(1, 1, 2, rng.random() < 0.5, points[1:-1])])
            assert graph.edges[1].length_m == length, points
            assert graph.edges[1].cum_m == tuple(cumulative_lengths(points)), points
        else:
            with pytest.raises(GraphFormatError, match="^edge 1 has zero length$"):
                RoadGraph(nodes, [(1, 1, 2, True, points[1:-1])])
        outcomes.add(length > 0)
    assert outcomes == {True, False}


# -- load against the two-pass loader it replaced ---------------------------------


def _reference_columns(tokens):
    """_columns as it was: a bulk check of the converted tokens, and on any
    failure a pair-by-pair re-read that names the first bad pair."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = None
    if values is not None:
        lats, lons = values[0::2], values[1::2]
        if not values or (
            math.isfinite(sum(values))
            and -90.0 <= min(lats)
            and max(lats) <= 90.0
            and -180.0 <= min(lons)
            and max(lons) <= 180.0
        ):
            return lats, lons
    pairs = [roadgraph._latlon(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]
    return [lat for lat, _ in pairs], [lon for _, lon in pairs]


def _reference_add_edge(graph, edge_id, node_from, node_to, bidir, mid_lats, mid_lons):
    """RoadGraph._add_edge as it was, registration included."""
    nodes = graph.nodes
    if node_from not in nodes or node_to not in nodes:
        raise GraphFormatError(f"edge {edge_id} references a missing node")
    (alat, alon), (blat, blon) = nodes[node_from], nodes[node_to]
    lats = (alat, *mid_lats, blat)
    lons = (alon, *mid_lons, blon)
    edge = roadgraph.Edge(edge_id, node_from, node_to, bool(bidir), lats, lons)
    lat_lo, lat_hi, lon_lo, lon_hi = min(lats), max(lats), min(lons), max(lons)
    if max(lat_hi - lat_lo, lon_hi - lon_lo) - roadgraph._SPAN_MARGIN < roadgraph._STEP_DEG * (len(lats) - 1):
        if edge.length_m <= 0:
            raise GraphFormatError(f"edge {edge_id} has zero length")
    if edge_id in graph.edges:
        raise GraphFormatError(f"duplicate edge id {edge_id}")
    graph.edges[edge_id] = edge
    graph._incident[node_from].append(edge)
    if edge.bidirectional:
        graph._incident[node_to].append(edge)
    graph._parent[graph._component(node_from)] = graph._component(node_to)
    i0, i1 = int(lat_lo // _CELL_DEG), int(lat_hi // _CELL_DEG)
    j0, j1 = int(lon_lo // _CELL_DEG), int(lon_hi // _CELL_DEG)
    if (i1 - i0 + 1) * (j1 - j0 + 1) <= roadgraph._MAX_SEGMENT_CELLS:
        for ti in range(i0 // roadgraph._TILE, i1 // roadgraph._TILE + 1):
            for tj in range(j0 // roadgraph._TILE, j1 // roadgraph._TILE + 1):
                graph._tiles.setdefault((ti, tj), []).append(edge)
        return
    graph._indexed.add(edge_id)
    graph._index_edge(edge)


def reference_from_text(text):
    """RoadGraph.from_text as it was, on lines broken as text_lines breaks
    them: every line read and checked, with each record kept until the last
    line is read, and then every edge added in line order."""
    nodes = {}
    edges = []
    for line_no, raw in enumerate(text_lines(text), start=1):
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
                nodes[node_id] = roadgraph._latlon(parts[2], parts[3])
            elif parts[0] == "edge":
                if len(parts) < 5 or (len(parts) - 5) % 2 != 0:
                    raise ValueError("expected: edge <id> <from> <to> <bidir> [<lat> <lon> ...]")
                if parts[4] not in ("0", "1"):
                    raise ValueError("bidir flag must be 0 or 1")
                lats, lons = _reference_columns(parts[5:])
                edges.append((line_no, (int(parts[1]), int(parts[2]), int(parts[3]), parts[4] == "1", lats, lons)))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as exc:
            raise GraphFormatError(f"line {line_no}: {exc}") from None
    graph = RoadGraph(nodes, [])
    for line_no, record in edges:
        try:
            _reference_add_edge(graph, *record)
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {line_no}: {exc}") from None
    return graph


def graph_fields(graph):
    """Everything load builds, field by field, with floats as their bits, so
    that -0.0 and 0.0 differ; edges appear by id wherever the one Edge
    object each id maps to is held."""
    edges = graph.edges

    def ids(held):
        assert all(edge is edges[edge.id] for edge in held)
        return [edge.id for edge in held]

    def bits(values):
        assert type(values) is tuple
        return [value.hex() for value in values]

    return {
        "nodes": [(node, bits(point)) for node, point in graph.nodes.items()],
        "edges": [
            (key, e.id, e.node_from, e.node_to, e.bidirectional, bits(e.lats), bits(e.lons), sorted(vars(e)))
            for key, e in edges.items()
        ],
        "incident": [(node, ids(held)) for node, held in graph._incident.items()],
        "parent": list(graph._parent.items()),
        "tiles": [(tile, ids(held)) for tile, held in graph._tiles.items()],
        "indexed": graph._indexed,
        "cells": list(graph._cells.items()),
    }


def _load_outcome(load, text):
    try:
        return "graph", graph_fields(load(text))
    except GraphFormatError as exc:
        return "error", str(exc)


# what str.split() reads as blanks; str.splitlines breaks lines at all but
# the space, tab, \x1f, \xa0 and \u3000
_BLANKS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\u3000")
_BAD_TOKENS = ("foo", "nan", "-inf", "inf", "1e400", "0x1", "1.5", "--1", "")
# out of range as a latitude, and as a longitude: small enough that the
# edge's cell box can stay under the limit
_OUT_OF_RANGE = (("90.5", "-90.5"), ("180.5", "-180.5"))
_BASES = ((44.65, 10.92), (0.0, 0.0), (-33.87, 151.21), (89.9995, 179.9993), (-89.9995, -179.9995))


def _clamped(lat, lon):
    return max(-90.0, min(90.0, lat)), max(-180.0, min(180.0, lon))


def _spelt_float(rng, value):
    return rng.choice((repr(value), f"{value:.7f}", f"{value:+.9e}", f"{value:.12g}"))


def _spelt_int(rng, value):
    text = str(value)
    return rng.choice((text, "+" + text, "0" + text, text[0] + "_" + text[1:] if len(text) > 1 else text))


def _graph_lines(rng):
    """The records of a grid or of random polylines: lists of exact tokens
    for node and edge lines, nodes first."""
    base_lat, base_lon = rng.choice(_BASES)
    node_id, edge_id = rng.randrange(0, 50), rng.randrange(0, 50)
    points = {}
    if rng.random() < 0.5:
        rows, cols, step = rng.randint(1, 3), rng.randint(2, 3), rng.choice((0.0007, 0.001, 0.0023))
        grid = {}
        for r in range(rows):
            for c in range(cols):
                grid[r, c] = node_id + r * cols + c
                points[grid[r, c]] = _clamped(base_lat + r * step, base_lon + c * step)
        pairs = [(grid[r, c], grid[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
        pairs += [(grid[r, c], grid[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    else:
        for k in range(rng.randint(2, 5)):
            points[node_id + k] = _clamped(base_lat + rng.uniform(-0.005, 0.005), base_lon + rng.uniform(-0.005, 0.005))
        pairs = [tuple(rng.sample(sorted(points), 2)) for _ in range(rng.randint(1, 5))]
    lines = [["node", node, lat, lon] for node, (lat, lon) in points.items()]
    for a, b in pairs:
        (alat, alon), (blat, blon) = points[a], points[b]
        n = rng.randint(0, 4)
        mids = []
        for k in range(1, n + 1):
            f = k / (n + 1)
            mids += _clamped(alat + f * (blat - alat) + rng.uniform(-2e-4, 2e-4), alon + f * (blon - alon))
        lines.append(["edge", edge_id, a, b, rng.choice("01"), *mids])
        edge_id += 1
    return lines, points


def _mutated(rng, lines, points):
    """The records with one of load's error cases, or one more valid record
    that takes a path of its own (an edge measured or indexed at load)."""
    kind = rng.choice(
        ("token", "out of range", "out of range", "field count", "duplicate edge", "duplicate node", "missing node",
         "zero length", "over limit", "wide", "tiny", "bidir", "unknown record")
    )
    records = [line for line in lines if len(line) > 2]
    edges = [line for line in lines if line[0] == "edge"]
    # an earlier "field count" mutation may have popped an edge's flag
    flagged = [line for line in edges if len(line) > 4]
    node_ids = sorted(points)
    new_id = max(node_ids) + 100
    lat, lon = points[node_ids[0]]
    added = []
    if kind == "token":
        line = rng.choice(records)
        line[rng.randrange(1, len(line))] = rng.choice(_BAD_TOKENS)
    elif kind == "out of range":
        line = rng.choice(edges if edges and rng.random() < 0.8 else records)
        first = 5 if line[0] == "edge" else 2
        if len(line) > first:
            k = rng.randrange(first, len(line))
            line[k] = rng.choice(_OUT_OF_RANGE[(k - first) % 2])
    elif kind == "field count":
        rng.choice(records).pop()
    elif kind == "duplicate edge" and edges:
        added.append(["edge", rng.choice(edges)[1], node_ids[-1], node_ids[0], "1"])
    elif kind == "duplicate node":
        added.append(["node", rng.choice(node_ids), *_clamped(lat + 0.001, lon)])
    elif kind == "missing node":
        added.append(["edge", 10**6, node_ids[0], 10**6 + 1, "0"])
    elif kind == "zero length":
        added += [["node", new_id, lat, lon], ["edge", 10**6, node_ids[0], new_id, "1", lat, lon]]
    elif kind in ("over limit", "wide"):
        # 1,200 cells on a side: the box is over the limit, and a wide edge's
        # stair of 0.06-degree segments is not
        dlat, dlon = (-0.6 if lat > 0 else 0.6), (-0.6 if lon > 0 else 0.6)
        mids = []
        if kind == "wide":
            for k in range(1, 10):
                mids += [lat + k * dlat / 10, lon + (k - 1) * dlon / 10, lat + k * dlat / 10, lon + k * dlon / 10]
        added += [["node", new_id, lat + dlat, lon + dlon], ["edge", 10**6, node_ids[0], new_id, "0", *mids]]
    elif kind == "tiny":
        added += [["node", new_id, lat + 1e-12, lon], ["edge", 10**6, node_ids[0], new_id, "1", lat + 5e-13, lon]]
    elif kind == "bidir" and flagged:
        rng.choice(flagged)[4] = rng.choice(("2", "yes", "-1", "01"))
    elif kind == "unknown record":
        added.append(["road", 1, 2])
    for line in added:
        lines.insert(rng.randint(0, len(lines)), line)


def random_graph_text(rng):
    """A graph file's text: a grid or random polylines, spelt with odd but
    valid numbers, comments, blank lines, any of the three line breaks and
    Unicode blanks, sometimes with a node line after an edge that names it,
    and with no, one or two errors or odd records."""
    lines, points = _graph_lines(rng)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        _mutated(rng, lines, points)
    if rng.random() < 0.3:
        lines.append(lines.pop(rng.randrange(len(lines))))
    texts = []
    for line in lines:
        tokens = [_spelt_float(rng, t) if isinstance(t, float) else _spelt_int(rng, t) if isinstance(t, int) else t
                  for t in line]
        text = rng.choice((" ", " ", rng.choice(_BLANKS))).join(tokens)
        if rng.random() < 0.2:
            text += f" # note{rng.choice(_BLANKS)}more"
        texts.append(rng.choice(("", "", rng.choice(_BLANKS))) + text)
        if rng.random() < 0.1:
            texts.append(rng.choice(("", "# a comment" + rng.choice(_BLANKS) + "line", rng.choice(_BLANKS))))
    breaks = rng.choice((("\n",), ("\r\n",), ("\n", "\r\n", "\r")))
    return "".join(text + rng.choice(breaks) for text in texts)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(seed=st.integers(0, 2**64 - 1))
def test_load_equals_the_two_pass_reference(seed):
    text = random_graph_text(random.Random(seed))
    assert _load_outcome(RoadGraph.from_text, text) == _load_outcome(reference_from_text, text)


def _holds_an_edge(text):
    """Whether an edge line names a node that only a later line defines."""
    defined = set()
    for line in text_lines(text):
        parts = line.split("#", 1)[0].split()
        if parts[:1] == ["node"]:
            defined.add(int(parts[1]))
        elif parts[:1] == ["edge"] and not {int(parts[2]), int(parts[3])} <= defined:
            return True
    return False


def test_random_graph_texts_take_every_load_path():
    # the texts of the property above reach every message, and valid texts
    # with and without an edge held for a later node
    seen = dict.fromkeys(
        ["valid", "valid with a held edge", "measured", "indexed at load", "could not convert",
         "not finite", "is outside", "invalid literal", "expected:", "duplicate node", "bidir", "unknown record",
         "missing node", "zero length", "duplicate edge", "index cells"],
        0,
    )
    rng = random.Random(30)
    for _ in range(600):
        text = random_graph_text(rng)
        try:
            graph = RoadGraph.from_text(text)
        except GraphFormatError as exc:
            seen.update({key: seen[key] + 1 for key in seen if key in str(exc)})
            continue
        seen["valid with a held edge" if _holds_an_edge(text) else "valid"] += 1
        seen["measured"] += any("length_m" in vars(edge) for edge in graph.edges.values())
        seen["indexed at load"] += bool(graph._indexed)
    assert all(seen.values()), seen


def test_fixed_texts_load_as_the_reference():
    # comments, blank lines, CRLF, Unicode blanks and odd number spellings;
    # and a text whose "field count" mutation pops the flag of an edge line
    # before its "bidir" mutation picks one
    odd = (
        "# a grid of one edge\r\n\r\nnode 1_0 +4.465e1 10.92 # west\x0cend\r\n"
        "node +2 44.65\u300010.9215\r\nedge 01 10 2 1 44.65\x85+1.09205E1\r\n"
    )
    for text in (grid_text(44.65, 10.92), GRAPH_TEXT, odd, random_graph_text(random.Random(55140028))):
        assert _load_outcome(RoadGraph.from_text, text) == _load_outcome(reference_from_text, text)


# the characters other than \n and \r at which str.splitlines breaks a line
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
def test_graph_lines_break_only_where_a_text_mode_read_breaks_them(char):
    # in a comment the character is comment text; between two coordinates
    # it is a blank
    text = GRAPH_TEXT.replace("node 2", f"# north end{char}of the bridge\nnode 2").replace(
        "44.6500000 10.9215000", f"44.6500000{char}10.9215000"
    )
    assert graph_fields(RoadGraph.from_text(text)) == graph_fields(RoadGraph.from_text(GRAPH_TEXT))
    # \r\n and \r each end one line, so the error is on line 4
    with pytest.raises(GraphFormatError) as info:
        RoadGraph.from_text(f"# a{char}b\r\nnode 1 44.65 10.92 # c{char}d\rnode 2 44.66 10.92\nnode 3 44.67\n")
    assert str(info.value) == "line 4: expected: node <id> <lat> <lon>"


def _edge_between(graph, a, b):
    (edge_id,) = [e.id for e in graph.edges.values() if {e.node_from, e.node_to} == {a, b}]
    return edge_id


def test_a_drive_does_not_touch_a_distant_map():
    # east two blocks, north two, east two on a 5 x 5 grid, then the same
    # drive matched on that grid merged with a 12 x 12 grid 50 km north
    near_text = grid_text(44.65, 10.92, n=5)
    near = RoadGraph.from_text(near_text)
    route = [_edge_between(near, a, b) for a, b in zip([0, 1, 2, 7, 12, 13], [1, 2, 7, 12, 13, 14])]
    scenario = SimScenario("grid drive", near, route, [(0.0, 30.0)], DEFAULT_DECODER, DEFAULT_VEHICLE)
    sim = simulate(scenario)
    far_text = grid_text(45.1, 10.92, n=12, id_base=1000)
    merged = merge_graphs([RoadGraph.from_text(near_text), RoadGraph.from_text(far_text)])
    far = {edge_id for edge_id in merged.edges if edge_id > 1000}
    assert len(far) > 2 * len(near.edges)

    def gpx(matcher):
        return infer_path(sim.frames, DEFAULT_DECODER, DEFAULT_VEHICLE, sim.start, InferenceParams(), matcher).gpx

    alone = gpx(GraphMatcher(RoadGraph.from_text(near_text)))
    assert gpx(GraphMatcher(merged)) == alone != gpx(None)
    measured = {e.id for e in merged.edges.values() if "cum_m" in vars(e) or "length_m" in vars(e)}
    in_cells = {edge_id for entries in merged._cells.values() for edge_id, _, _ in entries}
    settled = {node for found, _, _ in merged._searches.values() for node in found}
    assert measured and in_cells and settled
    assert not measured & far and not in_cells & far and not merged._indexed & far
    assert all(node < 1000 for node in settled)


def test_candidates_are_tuples_with_named_fields():
    import copy
    import pickle

    hit = Candidate(7, 12.5, 44.65, 10.92, 3.0)
    assert (hit.edge_id, hit.offset_m, hit.lat, hit.lon, hit.perp_m) == (7, 12.5, 44.65, 10.92, 3.0)
    assert hit == (7, 12.5, 44.65, 10.92, 3.0) and hash(hit) == hash(tuple(hit))
    assert sorted([Candidate(9, 0.0, 0.0, 0.0, 1.0), hit])[0] is hit
    assert Candidate(edge_id=7, offset_m=12.5, lat=44.65, lon=10.92, perp_m=3.0) == hit
    assert tuple.__new__(Candidate, tuple(hit)) == hit
    backs = [pickle.loads(pickle.dumps(hit, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in (*backs, copy.copy(hit), copy.deepcopy(hit)):
        assert type(back) is Candidate and back == hit and back.perp_m == 3.0
    assert repr(hit) == "Candidate(edge_id=7, offset_m=12.5, lat=44.65, lon=10.92, perp_m=3.0)"
    assert repr(Candidate(1, -0.0, 1e-7, -180.0, 0.1 + 0.2)) == (
        "Candidate(edge_id=1, offset_m=-0.0, lat=1e-07, lon=-180.0, perp_m=0.30000000000000004)"
    )
    assert not hasattr(hit, "__dict__")
    for field in ("edge_id", "offset_m", "lat", "lon", "perp_m"):
        with pytest.raises(AttributeError):
            setattr(hit, field, 1.0)
    with pytest.raises(TypeError):
        hit[4] = 1.0
    assert hit == (7, 12.5, 44.65, 10.92, 3.0)


def test_segment_cell_limit(monkeypatch):
    monkeypatch.setattr(roadgraph, "_MAX_SEGMENT_CELLS", 6)
    lat, lon = 10 * _CELL_DEG + _CELL_DEG / 2, 20 * _CELL_DEG + _CELL_DEG / 2
    # a box of 2 x 3 cells is indexed, one of 3 x 3 is not
    graph = RoadGraph({1: (lat, lon), 2: (lat + _CELL_DEG, lon + 2 * _CELL_DEG)}, [(1, 1, 2, True, [])])
    assert len(index_all(graph)) == 6
    with pytest.raises(GraphFormatError, match="edge 1 segment 0 spans 9 index cells"):
        RoadGraph({1: (lat, lon), 2: (lat + 2 * _CELL_DEG, lon + 2 * _CELL_DEG)}, [(1, 1, 2, True, [])])


def test_parse_accepts_coordinates_on_the_range_limits():
    graph = RoadGraph.from_text(
        "node 1 90 180\nnode 2 -90 -180\nnode 3 89.9999 179.9999\nnode 4 -89.9999 -179.9998\n"
        "edge 1 1 3 1\nedge 2 2 4 0 -89.99995 -180\n"
    )
    assert graph.nodes[1] == (90.0, 180.0) and graph.nodes[2] == (-90.0, -180.0)
    assert graph.edges[2].geometry[1] == (-89.99995, -180.0)


def test_nearest_edges_finds_projection():
    graph = straight_graph()
    edge = graph.edges[1]
    mid_lat = (edge.geometry[0][0] + edge.geometry[-1][0]) / 2
    mid_lon = (edge.geometry[0][1] + edge.geometry[-1][1]) / 2
    # nudge ~5 m north of the midpoint
    hits = graph.nearest_edges(mid_lat + 5 / 111194.9, mid_lon, radius_m=50, max_results=5)
    assert len(hits) == 1
    assert hits[0].perp_m == pytest.approx(5.0, abs=0.05)
    assert hits[0].offset_m == pytest.approx(100.0, abs=0.1)


def test_nearest_edges_radius_excludes():
    graph = straight_graph()
    edge = graph.edges[1]
    far_lat = edge.geometry[0][0] + 200 / 111194.9
    assert graph.nearest_edges(far_lat, edge.geometry[0][1], radius_m=50, max_results=5) == []


def _arc_graph():
    """A 600 m edge whose 300 m arc has a vertex every 2 m, plus a parallel
    straight 30 m to one side."""
    main = PathBuilder(heading=90.0).straight(150).arc(400.0, 43.0, spacing=2.0).straight(150).take()
    side = PathBuilder(pos=(0.0, 30.0), heading=90.0).straight(500).take()
    return assemble_graph({1: main, 2: side})


def _assert_same_as_brute_force(graph, points, radii=(3.0, 20.0, 50.0, 150.0), max_results=(1, 3, 50)):
    """nearest_edges equals the brute-force lookup, and its projections
    return a Candidate only for an edge within the radius, once each."""
    built = [0]
    real_project = graph._project

    def counting_project(*args):
        hit = real_project(*args)
        built[0] += hit is not None
        return hit

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_project", counting_project)
        for lat, lon in points:
            for radius in radii:
                within = brute_force_nearest(graph, lat, lon, radius, len(graph.edges))
                for k in max_results:
                    built[0] = 0
                    got = graph.nearest_edges(lat, lon, radius, k)
                    assert got == within[:k], (lat, lon, radius, k)
                    assert built[0] == len(within), (lat, lon, radius, k)


def _random_points(graph, rng, n, margin_deg=0.0015):
    lats = [p[0] for p in graph.nodes.values()]
    lons = [p[1] for p in graph.nodes.values()]
    return [
        (rng.uniform(min(lats) - margin_deg, max(lats) + margin_deg),
         rng.uniform(min(lons) - margin_deg, max(lons) + margin_deg))
        for _ in range(n)
    ]


def test_nearest_edges_equals_brute_force_on_a_grid():
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    _assert_same_as_brute_force(graph, _random_points(graph, random.Random(3), 150))


def test_nearest_edges_equals_brute_force_on_a_dense_arc():
    graph = _arc_graph()
    assert len(graph.edges[1].geometry) > 150
    _assert_same_as_brute_force(graph, _random_points(graph, random.Random(5), 150, margin_deg=0.0008))


def test_nearest_edges_equals_brute_force_at_latitude_70():
    graph = RoadGraph.from_text(grid_text(70.0, 25.0))
    _assert_same_as_brute_force(graph, _random_points(graph, random.Random(9), 100))


def test_nearest_edges_equals_brute_force_on_cell_boundaries():
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    i = round(44.6505 / _CELL_DEG)
    j = round(10.9205 / _CELL_DEG)
    points = []
    for lat in (i * _CELL_DEG, (i + 3) * _CELL_DEG):
        for lon in (j * _CELL_DEG, (j + 2) * _CELL_DEG):
            for dlat in (-math.inf, 0, math.inf):
                for dlon in (-math.inf, 0, math.inf):
                    points.append((
                        lat if dlat == 0 else math.nextafter(lat, dlat),
                        lon if dlon == 0 else math.nextafter(lon, dlon),
                    ))
    # node and vertex positions sit on a 1e-9 degree lattice, some on boundaries
    points += [graph.nodes[n] for n in graph.nodes]
    _assert_same_as_brute_force(graph, points)


def _on_box_side(target, half_width, sign):
    """A query coordinate q whose box side ``q + sign * half_width``, as
    nearest_edges computes it, is exactly ``target``; None if no float is."""
    step = sign * half_width
    q = target - step
    for _ in range(4):
        if q + step == target:
            return q
        q = math.nextafter(q, math.inf if q + step < target else -math.inf)
    return None


def test_nearest_edges_equals_brute_force_with_a_vertex_on_the_box_side():
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    rng = random.Random(37)
    vertices = rng.sample([v for edge in graph.edges.values() for v in edge.geometry], 40)
    for radius in (3.0, 20.0, 50.0):
        points = []
        for vlat, vlon in vertices:
            # the vertex on the box's north side, then on its west side
            points.append((_on_box_side(vlat, radius / DEG_M + _PAD_DEG, 1), vlon))
            lat = vlat + rng.uniform(-2e-4, 2e-4)
            points.append((lat, _on_box_side(vlon, radius / abs(DEG_M * math.cos(math.radians(lat))) + _PAD_DEG, -1)))
        points = [p for p in points if None not in p]
        assert len(points) > len(vertices) * 3 / 2
        _assert_same_as_brute_force(graph, points, radii=(radius,))


def test_nearest_edges_equals_brute_force_at_a_radius_equal_to_a_distance():
    # the radius is an edge's exact perpendicular distance, so <= decides
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    rng = random.Random(41)
    vertices = [v for edge in graph.edges.values() for v in edge.geometry]
    for lat, lon in _random_points(graph, rng, 20) + rng.sample(vertices, 10):
        distances = sorted({graph.project_to_edge(e, lat, lon).perp_m for e in graph.edges})
        for radius in distances[:4]:
            assert brute_force_nearest(graph, lat, lon, radius, 50)[-1].perp_m == radius
            _assert_same_as_brute_force(graph, [(lat, lon)], radii=(radius, math.nextafter(radius, 0)))


def test_nearest_edges_keeps_the_lowest_segment_on_a_tie():
    # a hairpin: east along lat0, a short connector north, back west 2**-11
    # degrees further north; the query sits exactly halfway between the two
    # long segments, where every coordinate difference is a power of two
    lat0, lon0 = 44.5, 10.0
    text = (
        f"node 1 {lat0} {lon0}\n"
        f"node 2 {lat0 + 2**-11} {lon0}\n"
        f"edge 7 1 2 1 {lat0} {lon0 + 2**-10} {lat0 + 2**-11} {lon0 + 2**-10}\n"
    )
    graph = RoadGraph.from_text(text)
    lat, lon = lat0 + 2**-12, lon0 + 2**-11
    edge = graph.edges[7]
    kx = DEG_M * math.cos(math.radians(lat))
    assert graph._project(edge, [0], lat, lon, kx).perp_m == graph._project(edge, [2], lat, lon, kx).perp_m
    got = graph.nearest_edges(lat, lon, radius_m=50.0, max_results=5)
    assert got == brute_force_nearest(graph, lat, lon, 50.0, 5)
    assert got[0].lat == lat0  # segment 0, not segment 2


def _near_pole_graph():
    """Four 111 m north-south edges 30 degrees of longitude apart (58 m at
    latitude 89.999), where a metre south widens a degree of longitude by
    0.9 %, so a hit's distance grows with the metric, not only the hop."""
    nodes, edges = {}, []
    for k in range(4):
        nodes[2 * k], nodes[2 * k + 1] = (89.9985, 30.0 * k), (89.9995, 30.0 * k)
        edges.append((k + 1, 2 * k, 2 * k + 1, True, []))
    return RoadGraph(nodes, edges)


_WALK_GRAPHS = {
    "grid": lambda: RoadGraph.from_text(grid_text(44.65, 10.92)),
    "dense-arc": _arc_graph,
    "latitude-70": lambda: RoadGraph.from_text(grid_text(70.0, 25.0)),
    "cell-boundaries": lambda: RoadGraph.from_text(grid_text(44.65, 10.92)),
    "near-pole": _near_pole_graph,
    # across latitude and longitude 0, where coordinates are spaced finer
    # than the box arithmetic rounds, so a box side can fall short of a
    # segment at exactly the bound unless the box is padded
    "zero-crossing": lambda: RoadGraph.from_text(grid_text(-0.0007, -0.0007)),
}


def _on_cell_boundary(x, side):
    """The cell boundary nearest x, or the float either side of it."""
    x = round(x / _CELL_DEG) * _CELL_DEG
    return x if side == 0 else math.nextafter(x, side * math.inf)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),  # the start, hop lengths and bearings
    steps=st.lists(
        st.tuples(
            st.sampled_from(["stop", "crawl", "drive", "jump"]),
            st.sampled_from([3.0, 20.0, 50.0, 150.0]),  # radius
            st.sampled_from([1, 3, 50]),  # max_results
            st.sampled_from([-1, 0, 1]),  # on, above or below a cell boundary
        ),
        min_size=1,
        max_size=15,
    ),
)
@pytest.mark.parametrize("kind", sorted(_WALK_GRAPHS))
def test_nearest_edges_does_not_depend_on_call_history(kind, seed, steps):
    # a walk of stops, 0.5-4 m crawls, 20-60 m drives and jumps beyond the
    # radius, with the radius and result count changing between calls;
    # each answer equals a fresh graph's and the brute-force lookup's
    graph = _WALK_GRAPHS[kind]()
    rng = random.Random(seed)
    lats = [p[0] for p in graph.nodes.values()]
    lons = [p[1] for p in graph.nodes.values()]
    lat_lo, lat_hi = min(lats) - 0.0005, min(max(lats) + 0.0005, 89.9999)
    lon_lo, lon_hi = min(lons) - 0.0005, max(lons) + 0.0005
    lat, lon = rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi)
    for hop_kind, radius, k, side in steps:
        u, bearing = rng.random(), rng.uniform(0.0, 360.0)
        hop = {"stop": 0.0, "crawl": 0.5 + 3.5 * u, "drive": 20.0 + 40.0 * u, "jump": radius * (1.0 + 2.0 * u)}[hop_kind]
        if kind in ("latitude-70", "near-pole"):
            bearing = 0.0 if bearing < 180.0 else 180.0  # north-south, so the metric changes
        elif kind == "cell-boundaries":
            bearing = 90.0 if bearing < 180.0 else 270.0  # along a boundary of latitude
        for direction in (bearing, bearing + 180.0):  # turn back at the walk's edge
            b = math.radians(direction)
            new_lat = lat + hop * math.cos(b) / DEG_M
            new_lon = lon + hop * math.sin(b) / (DEG_M * math.cos(math.radians(lat)))
            if lat_lo <= new_lat <= lat_hi and lon_lo <= new_lon <= lon_hi:
                break
        else:
            new_lat, new_lon = lat, lon
        lat, lon = new_lat, new_lon
        if kind == "cell-boundaries":
            lat = _on_cell_boundary(lat, side)
        got = graph.nearest_edges(lat, lon, radius, k)
        fresh = _WALK_GRAPHS[kind]().nearest_edges(lat, lon, radius, k)
        want = brute_force_nearest(graph, lat, lon, radius, k)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(got) == repr(fresh) == repr(want), (lat, lon, radius, k)


def _reference_project(edge, segs, lat, lon, kx, radius_m=math.inf, bounds=roadgraph._UNBOUNDED):
    """RoadGraph._project as it was before it was written on locals: tuple
    unpacking, one boolean box test, ``bx - ax`` and ``max``/``min`` clamping."""
    ky = DEG_M
    geometry = edge.geometry
    lat_lo, lat_hi, lon_lo, lon_hi = bounds
    best_dist = math.inf
    best_seg = -1
    best_t = 0.0
    for seg in segs:
        (alat, alon), (blat, blon) = geometry[seg], geometry[seg + 1]
        if (
            (alat > lat_hi and blat > lat_hi)
            or (alat < lat_lo and blat < lat_lo)
            or (alon > lon_hi and blon > lon_hi)
            or (alon < lon_lo and blon < lon_lo)
        ):
            continue
        ax, ay = (alon - lon) * kx, (alat - lat) * ky
        bx, by = (blon - lon) * kx, (blat - lat) * ky
        dx, dy = bx - ax, by - ay
        seg_len2 = dx * dx + dy * dy
        t = 0.0 if seg_len2 == 0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / seg_len2))
        dist = math.hypot(ax + t * dx, ay + t * dy)
        if dist < best_dist or best_seg < 0:
            best_dist, best_seg, best_t = dist, seg, t
    if best_seg < 0 or best_dist > radius_m:
        return None
    (alat, alon), (blat, blon) = geometry[best_seg], geometry[best_seg + 1]
    t, cum = best_t, edge.cum_m
    offset = cum[best_seg] + t * (cum[best_seg + 1] - cum[best_seg])
    return Candidate(edge.id, offset, alat + t * (blat - alat), alon + t * (blon - alon), best_dist)


def _repeated_vertex_graph():
    """One edge whose first and third segments have zero length."""
    return RoadGraph.from_text(
        "node 1 44.65 10.92\nnode 2 44.65 10.921\n"
        "edge 1 1 2 1 44.65 10.92 44.6503 10.9205 44.6503 10.9205\n"
    )


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: RoadGraph.from_text(grid_text(44.65, 10.92)),
        _arc_graph,
        lambda: RoadGraph.from_text(grid_text(70.0, 25.0)),
        _repeated_vertex_graph,
    ],
    ids=["grid", "dense-arc", "latitude-70", "repeated-vertex"],
)
def test_project_kernel_equals_the_reference(make_graph):
    graph = make_graph()
    rng = random.Random(20261019)
    vertices = [v for edge in graph.edges.values() for v in edge.geometry]
    points = _random_points(graph, rng, 100, margin_deg=0.0008)
    # on a vertex (t is -0.0 or 1.0 before clamping); level with one, so a
    # street along the other axis projects to t exactly 0 or 1
    points += rng.sample(vertices, min(40, len(vertices)))
    points += [(lat, rng.choice(vertices)[1]) for lat, _ in points[:40]]
    points += [(rng.choice(vertices)[0], lon) for _, lon in points[:40]]
    compared = 0
    for lat, lon in points:
        kx = DEG_M * math.cos(math.radians(lat))
        for edge in rng.sample(list(graph.edges.values()), min(6, len(graph.edges))):
            every = range(len(edge.geometry) - 1)
            for segs in (every, sorted(rng.sample(every, max(1, len(every) // 3)))):
                for radius in (0.0, 3.0, 20.0, 50.0, 150.0, math.inf):
                    dlat, dlon = radius / DEG_M + _PAD_DEG, radius / abs(kx) + _PAD_DEG
                    for bounds in ((lat - dlat, lat + dlat, lon - dlon, lon + dlon), roadgraph._UNBOUNDED):
                        got = graph._project(edge, segs, lat, lon, kx, radius, bounds)
                        want = _reference_project(edge, segs, lat, lon, kx, radius, bounds)
                        # repr tells -0.0 from 0.0, which == does not
                        assert got == want and repr(got) == repr(want), (lat, lon, edge.id, radius)
                        compared += want is not None
    assert compared > len(points)


def test_project_kernel_equals_the_reference_on_non_finite_queries():
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    for lat, lon in ((math.nan, 10.92), (44.6505, math.nan), (44.6505, math.inf), (44.6505, -math.inf)):
        kx = DEG_M * math.cos(math.radians(lat))
        for edge in graph.edges.values():
            every = range(len(edge.geometry) - 1)
            got, want = graph._project(edge, every, lat, lon, kx), _reference_project(edge, every, lat, lon, kx)
            assert repr(got) == repr(want), (lat, lon, edge.id)


def test_nearest_edges_equals_brute_force_on_repeated_boxes():
    # several points a few centimetres apart in each of three cells, taken in
    # turn, so a box's second query comes after other boxes' first ones
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    rng = random.Random(13)
    centres = [((i + 0.5) * _CELL_DEG, (j + 0.5) * _CELL_DEG) for i, j in ((89301, 21841), (89302, 21843), (89303, 21842))]
    points = [
        (lat + rng.uniform(-2e-7, 2e-7), lon + rng.uniform(-2e-7, 2e-7))
        for _ in range(4)
        for lat, lon in centres
    ]
    _assert_same_as_brute_force(graph, points)
    assert len(graph._boxes) == len(centres) * 4  # one box per cell and radius
    # near the pole a box holds more cells than the index: the same points
    # again, after others, are answered from that branch's groups
    polar = RoadGraph.from_text(grid_text(89.99, 10.0))
    points = _random_points(polar, random.Random(17), 6, margin_deg=0.0005)
    _assert_same_as_brute_force(polar, points + points[::-1])
    assert len(polar._boxes) == len(points) * 4
    assert any((i1 - i0 + 1) * (j1 - j0 + 1) > len(index_all(polar)) for i0, i1, j0, j1 in polar._boxes)


def per_segment_cells(graph):
    """Reference index: each segment's end cells found from its own two ends."""
    cells = {}
    for edge in graph.edges.values():
        for seg in range(len(edge.geometry) - 1):
            (alat, alon), (blat, blon) = edge.geometry[seg], edge.geometry[seg + 1]
            i0, i1 = sorted((int(alat // _CELL_DEG), int(blat // _CELL_DEG)))
            j0, j1 = sorted((int(alon // _CELL_DEG), int(blon // _CELL_DEG)))
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    cells.setdefault((i, j), []).append((edge.id, seg))
    return cells


def _boundary_graph():
    """Edges that cross cell boundaries in every direction, run along them
    and start or end exactly on them, around (-0.01, -0.01) degrees."""
    b = [k * _CELL_DEG for k in range(-24, -15)]
    nodes = {1: (b[0], b[0]), 2: (b[8], b[8]), 3: (b[4], b[0]), 4: (b[4], b[8]), 5: (b[2] + 1e-5, b[6] - 1e-5)}
    edges = [
        (1, 1, 2, True, [(b[1], b[3]), (b[1] + 2e-4, b[3] - 3e-4)]),  # north-east, one vertex steps back
        (2, 2, 1, False, [(b[8], b[0]), (b[7], b[0])]),  # west along a boundary, then south
        (3, 4, 3, True, [(b[4], b[6] + 1e-4), (b[4], b[2])]),  # west along one latitude boundary
        (4, 5, 3, False, [(b[5] - 1e-4, b[1]), (b[3] + 1e-4, b[1] + 1e-4)]),  # crossing corners
        (5, 5, 4, True, []),
    ]
    return RoadGraph(nodes, edges)


@pytest.mark.parametrize(
    "make_graph",
    [
        _boundary_graph,
        lambda: RoadGraph.from_text(grid_text(-33.45, -70.66)),
        _arc_graph,
    ],
    ids=["boundaries", "southwest-grid", "dense-arc"],
)
def test_index_equals_the_per_segment_rule(make_graph):
    graph = make_graph()
    expected = per_segment_cells(graph)
    assert len(expected) > 10
    _assert_index_is_the_per_segment_rule(graph)
    _assert_runs_are_maximal(graph)


def expanded_cells(graph):
    """The index, every tile built, with each (edge id, first, end) entry
    expanded, in order, to its (edge id, segment) pairs."""
    return {
        cell: [(edge_id, seg) for edge_id, first, end in entries for seg in range(first, end)]
        for cell, entries in index_all(graph).items()
    }


def _assert_index_is_the_per_segment_rule(graph):
    """Each cell holds the reference's (edge, segment) pairs. Tiles are
    indexed in the order queries reach them, so edges may come in another
    order, but each edge's pairs in a cell are one block, ascending."""
    got = expanded_cells(graph)
    assert {cell: sorted(pairs) for cell, pairs in got.items()} == {
        cell: sorted(pairs) for cell, pairs in per_segment_cells(graph).items()
    }
    for pairs in got.values():
        blocks = [edge for k, (edge, _) in enumerate(pairs) if k == 0 or pairs[k - 1][0] != edge]
        assert len(blocks) == len(set(blocks))
        assert pairs == sorted(pairs, key=lambda pair: (blocks.index(pair[0]), pair[1]))


def _assert_runs_are_maximal(graph):
    """Every entry is one segment whose ends lie in different cells, or a run
    of segments whose ends all lie in the entry's cell and that no such
    segment before or after extends."""
    for cell, entries in index_all(graph).items():
        for edge_id, first, end in entries:
            assert first < end, (cell, edge_id, first, end)
            ends = [_cell_of(p) for p in graph.edges[edge_id].geometry]
            if end - first == 1 and ends[first] != ends[end]:
                continue
            assert ends[first:end + 1] == [cell] * (end - first + 1), (cell, edge_id, first, end)
            assert first == 0 or ends[first - 1] != cell, (cell, edge_id, first, end)
            assert end == len(ends) - 1 or ends[end + 1] != cell, (cell, edge_id, first, end)


def _cell_of(point):
    return int(point[0] // _CELL_DEG), int(point[1] // _CELL_DEG)


def _polyline_graph(points):
    """One two-way edge along the given points, at least two of them."""
    return RoadGraph({1: points[0], 2: points[-1]}, [(1, 1, 2, True, points[1:-1])])


def _cell_point(i, j, fi=0.5, fj=0.5):
    """A point at fractions (fi, fj) of cell (i, j)."""
    return (i + fi) * _CELL_DEG, (j + fj) * _CELL_DEG


def test_index_of_a_polyline_that_leaves_a_cell_and_comes_back():
    a, b = (89300, 21840), (89300, 21841)
    points = [_cell_point(*a, 0.2, 0.2), _cell_point(*a, 0.4, 0.3), _cell_point(*b, 0.5, 0.5),
              _cell_point(*a, 0.6, 0.7), _cell_point(*a, 0.8, 0.6), _cell_point(*a, 0.3, 0.8)]
    graph = _polyline_graph(points)
    assert index_all(graph) == {a: [(1, 0, 1), (1, 1, 2), (1, 2, 3), (1, 3, 5)], b: [(1, 1, 2), (1, 2, 3)]}
    assert expanded_cells(graph) == per_segment_cells(graph)
    rng = random.Random(5)
    _assert_same_as_brute_force(graph, [_cell_point(*rng.choice((a, b)), rng.random(), rng.random()) for _ in range(20)])


def test_index_of_a_repeated_vertex_inside_a_run():
    cell = (89300, 21840)
    p, q, r = _cell_point(*cell, 0.2, 0.2), _cell_point(*cell, 0.5, 0.6), _cell_point(*cell, 0.8, 0.3)
    graph = _polyline_graph([p, q, q, r, _cell_point(cell[0] + 1, cell[1], 0.5, 0.3)])
    assert index_all(graph) == {cell: [(1, 0, 3), (1, 3, 4)], (cell[0] + 1, cell[1]): [(1, 3, 4)]}
    assert expanded_cells(graph) == per_segment_cells(graph)
    _assert_same_as_brute_force(graph, [q, _cell_point(*cell, 0.5, 0.9), _cell_point(*cell, 0.9, 0.1)])


def test_over_limit_segment_after_a_run_is_named(monkeypatch):
    monkeypatch.setattr(roadgraph, "_MAX_SEGMENT_CELLS", 6)
    i, j = 89300, 21840
    points = [_cell_point(i, j, 0.2, 0.2), _cell_point(i, j, 0.4, 0.7), _cell_point(i, j, 0.8, 0.4),
              _cell_point(i + 2, j + 2)]
    with pytest.raises(GraphFormatError, match=r"^edge 1 segment 2 spans 9 index cells \(at most 6\)"):
        _polyline_graph(points)
    # the same run before a segment of 2 x 3 cells is indexed
    graph = _polyline_graph(points[:-1] + [_cell_point(i + 1, j + 2)])
    assert index_all(graph)[i, j] == [(1, 0, 2), (1, 2, 3)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    base=st.sampled_from([(89300, 21840), (-66900, -141320), (0, -1)]),
    steps=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=25),
)
def test_index_of_random_polylines_expands_to_the_per_segment_rule(base, steps):
    # vertices on a quarter-cell lattice, so they repeat, share cells, sit
    # on cell boundaries and cross several cells at once
    i, j = base
    points = [_cell_point(i, j, 0.0, 0.0)]
    for di, dj in steps:
        lat, lon = points[-1]
        points.append((lat + di * _CELL_DEG / 4, lon + dj * _CELL_DEG / 4))
    assume(len(set(points)) > 1)
    graph = _polyline_graph(points)
    assert list(expanded_cells(graph).items()) == list(per_segment_cells(graph).items())
    _assert_runs_are_maximal(graph)


def test_route_distance_same_point():
    graph = straight_graph()
    p = graph.project_to_edge(1, *offset_point(graph, 1, 50.0))
    assert route_distance(graph, p, p) == pytest.approx(0.0, abs=1e-9)


def test_route_distance_along_one_edge():
    graph = straight_graph()
    a = graph.project_to_edge(1, *offset_point(graph, 1, 30.0))
    b = graph.project_to_edge(1, *offset_point(graph, 1, 170.0))
    assert route_distance(graph, a, b) == pytest.approx(140.0, abs=0.01)
    assert route_distance(graph, b, a) == pytest.approx(140.0, abs=0.01)


def test_route_distance_triangle_against_enumeration():
    graph = triangle_graph()
    # nodes: 1 at right angle, 2 east (300 m), 3 north (400 m)
    best_by_dfs = min(all_simple_path_distances(graph, 2, 3))
    a = graph.project_to_edge(1, *graph.nodes[2])  # end of edge 1 at node 2
    b = graph.project_to_edge(2, *graph.nodes[3])  # end of edge 2 at node 3
    via_edges = route_distance(graph, a, b)
    assert via_edges == pytest.approx(best_by_dfs, rel=1e-6)
    # and the direct hypotenuse edge is shorter than the two-leg path
    assert best_by_dfs == pytest.approx(500.0, rel=1e-3)


def test_route_distance_one_way():
    pb_text = """\
node 1 44.6500000 10.9200000
node 2 44.6500000 10.9030000
edge 1 2 1 0
"""
    graph = RoadGraph.from_text(pb_text)
    a = graph.project_to_edge(1, *offset_point(graph, 1, 100.0))
    b = graph.project_to_edge(1, *offset_point(graph, 1, 300.0))
    assert route_distance(graph, a, b) == pytest.approx(200.0, abs=0.01)
    assert math.isinf(route_distance(graph, b, a))  # cannot go back on a one-way


def test_route_distance_one_way_loop_goes_around():
    # a one-way triangle: going "backwards" must loop the long way around
    text = """\
node 1 44.6500000 10.9200000
node 2 44.6500000 10.9240000
node 3 44.6520000 10.9200000
edge 1 1 2 0
edge 2 2 3 0
edge 3 3 1 0
"""
    graph = RoadGraph.from_text(text)
    length1 = graph.edges[1].length_m
    a = graph.project_to_edge(1, *offset_point(graph, 1, length1 * 0.75))
    b = graph.project_to_edge(1, *offset_point(graph, 1, length1 * 0.25))
    expected = (
        (length1 * 0.25)  # finish edge 1
        + graph.edges[2].length_m
        + graph.edges[3].length_m
        + length1 * 0.25  # re-enter edge 1 up to b
    )
    assert route_distance(graph, a, b) == pytest.approx(expected, rel=1e-9)


def test_route_distance_symmetry_and_triangle_inequality():
    graph = y_junction()
    rng = random.Random(7)
    samples = []
    for _ in range(12):
        edge_id = rng.choice(list(graph.edges))
        offset = rng.uniform(0, graph.edges[edge_id].length_m)
        samples.append(graph.project_to_edge(edge_id, *offset_point(graph, edge_id, offset)))
    for a in samples:
        for b in samples:
            ab = route_distance(graph, a, b)
            assert ab == pytest.approx(route_distance(graph, b, a), abs=1e-6)
            for c in samples:
                assert ab <= route_distance(graph, a, c) + route_distance(graph, c, b) + 1e-6


def full_dijkstra(graph, source):
    """Reference: a whole-graph single-source Dijkstra, run to the end, over
    an adjacency rebuilt from the edges."""
    adjacency = {n: [] for n in graph.nodes}
    for edge in graph.edges.values():
        adjacency[edge.node_from].append((edge.node_to, edge.length_m))
        if edge.bidirectional:
            adjacency[edge.node_to].append((edge.node_from, edge.length_m))
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor, length in adjacency[node]:
            nd = d + length
            if nd < dist.get(neighbor, math.inf):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return dist


def _one_way_graph():
    """A one-way triangle loop, a two-way spur off it, a one-way shortcut
    back, and a bidirectional edge that bows far out, so its far end is
    first reached the long way round."""
    return RoadGraph.from_text(
        """\
node 1 44.6500000 10.9200000
node 2 44.6500000 10.9240000
node 3 44.6520000 10.9200000
node 4 44.6530000 10.9230000
node 5 44.6480000 10.9210000
edge 1 1 2 0
edge 2 2 3 0
edge 3 3 1 0
edge 4 3 4 1
edge 5 4 2 0
edge 6 1 5 1 44.6400000 10.9100000 44.6400000 10.9300000
edge 7 5 2 1
"""
    )


def _two_component_graph():
    """A triangle with a long detour edge, a separate one-way pair, a node
    that can leave its component but never be reached, and a lone node."""
    return RoadGraph.from_text(
        """\
node 1 44.6500000 10.9200000
node 2 44.6500000 10.9230000
node 3 44.6530000 10.9200000
node 4 44.6600000 10.9300000
node 5 44.6610000 10.9300000
node 6 44.6510000 10.9190000
node 7 44.6700000 10.9400000
edge 1 1 2 1
edge 2 1 3 1
edge 3 2 3 1 44.6560000 10.9260000
edge 4 4 5 0
edge 5 6 1 0
"""
    )


def _tied_graph():
    """Two routes of exactly equal length from node 1 to node 4, mirrored
    across the equator, and a third leg beyond."""
    return RoadGraph.from_text(
        """\
node 1 0.0 10.0
node 2 0.001 10.001
node 3 -0.001 10.001
node 4 0.0 10.002
node 5 0.0 10.004
edge 1 1 2 1
edge 2 1 3 1
edge 3 2 4 1
edge 4 3 4 1
edge 5 4 5 0
"""
    )


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: RoadGraph.from_text(grid_text(44.65, 10.92, n=5)),
        _one_way_graph,
        _two_component_graph,
        _tied_graph,
    ],
    ids=["grid", "one-way", "unreachable", "ties"],
)
def test_node_distance_equals_a_full_search(make_graph):
    base = make_graph()
    reference = {s: full_dijkstra(base, s) for s in base.nodes}
    expected = {(s, t): reference[s].get(t, math.inf) for s in reference for t in reference}
    by_distance = sorted(expected, key=lambda pair: (expected[pair], pair))
    orders = [by_distance, by_distance[::-1]]  # near-then-far and far-then-near
    rng = random.Random(11)
    for _ in range(4):
        orders.append(rng.sample(by_distance, len(by_distance)))  # sources interleaved
    for order in orders:
        graph = make_graph()
        for _repeat in range(2):
            for source, target in order:
                assert graph.node_distance(source, target) == expected[source, target], (source, target)


def test_node_distance_fixtures_hold_what_they_claim():
    edges = _tied_graph().edges
    assert edges[1].length_m + edges[3].length_m == edges[2].length_m + edges[4].length_m
    unreachable = _two_component_graph()
    assert all(math.isinf(unreachable.node_distance(s, 6)) for s in unreachable.nodes if s != 6)
    assert math.isinf(unreachable.node_distance(1, 4)) and math.isinf(unreachable.node_distance(7, 1))
    bowed = _one_way_graph()
    assert bowed.edges[6].length_m > bowed.node_distance(1, 2) + bowed.edges[7].length_m


def test_cross_component_queries_start_no_search():
    graph = _two_component_graph()
    components = ({1, 2, 3, 6}, {4, 5}, {7})
    for sources in components:
        for targets in components:
            if sources is not targets:
                for source in sources:
                    for target in targets:
                        assert math.isinf(graph.node_distance(source, target)), (source, target)
    assert graph._searches == {}
    # a target cut off by one-way edges inside the component is still searched for
    assert math.isinf(graph.node_distance(1, 6)) and 1 in graph._searches


def reference_route_distance(graph, a, b, node_distance):
    """Reference: routing as it was before the leg table, one
    ``node_distance`` call for each exit and entry node on every call."""
    edge_a, edge_b = graph.edges[a.edge_id], graph.edges[b.edge_id]
    best = math.inf
    if a.edge_id == b.edge_id:
        if edge_a.bidirectional:
            best = abs(a.offset_m - b.offset_m)
        elif b.offset_m >= a.offset_m:
            best = b.offset_m - a.offset_m
    exits = [(edge_a.node_to, edge_a.length_m - a.offset_m)]
    if edge_a.bidirectional:
        exits.append((edge_a.node_from, a.offset_m))
    entries = [(edge_b.node_from, b.offset_m)]
    if edge_b.bidirectional:
        entries.append((edge_b.node_to, edge_b.length_m - b.offset_m))
    for exit_node, exit_cost in exits:
        for entry_node, entry_cost in entries:
            total = exit_cost + node_distance(exit_node, entry_node) + entry_cost
            if total < best:
                best = total
    return best


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: RoadGraph.from_text(grid_text(44.65, 10.92)),
        _one_way_graph,
        _two_component_graph,
        _tied_graph,
    ],
    ids=["grid", "one-way", "unreachable", "ties"],
)
def test_route_distance_equals_the_reference(make_graph):
    base = make_graph()
    reference = {s: full_dijkstra(base, s) for s in base.nodes}
    points = [
        Candidate(edge.id, offset, 0.0, 0.0, 0.0)
        for edge in base.edges.values()
        for offset in (0.0, 0.37 * edge.length_m, edge.length_m)
    ]
    expected = {
        (a, b): reference_route_distance(base, a, b, lambda s, t: reference[s].get(t, math.inf))
        for a in points
        for b in points
    }
    by_pair = sorted(expected, key=lambda ab: (ab[0].edge_id, ab[1].edge_id, ab[0].offset_m, ab[1].offset_m))
    for order in (by_pair, by_pair[::-1], random.Random(19).sample(by_pair, len(by_pair))):
        graph = make_graph()
        for _repeat in range(2):  # cold, then from the leg table
            for a, b in order:
                assert route_distance(graph, a, b) == expected[a, b], (a, b)


def test_matching_looks_up_each_edge_pairs_legs_once(monkeypatch):
    graph = RoadGraph.from_text(grid_text(44.65, 10.92))
    # east along row 0, then north up column 3 (its edges are one-way north)
    points = [(44.65, 10.92 + k * 1e-4) for k in range(22)] + [(44.65 + k * 1e-4, 10.9221) for k in range(1, 22)]
    pairs, routes, legs = set(), [0], [0]
    real_route_distance, real_node_distance = mapmatch.route_distance, RoadGraph.node_distance

    def recording_route_distance(graph, a, b):
        pairs.add((a.edge_id, b.edge_id))
        routes[0] += 1
        return real_route_distance(graph, a, b)

    def counting_node_distance(self, source, target):
        legs[0] += 1
        return real_node_distance(self, source, target)

    monkeypatch.setattr(mapmatch, "route_distance", recording_route_distance)
    monkeypatch.setattr(RoadGraph, "node_distance", counting_node_distance)
    result = GraphMatcher(graph).match(points)
    edges = graph.edges
    assert len(result.matched_points) == len(points)
    assert legs[0] == sum((1 + edges[a].bidirectional) * (1 + edges[b].bidirectional) for a, b in pairs)
    assert routes[0] > 4 * len(pairs)


def _centred_grid(half, lat0=44.65, lon0=10.92, step_deg=0.0009):
    """A (2 half + 1)^2 grid of two-way ~100 m blocks centred on (lat0, lon0).
    Node and edge ids encode the offset from the centre, so grids of two sizes
    agree on every id, position and length they share."""

    def node(r, c):
        return (r + 1000) * 10000 + c + 1000

    span = range(-half, half + 1)
    nodes = {node(r, c): (lat0 + r * step_deg, lon0 + c * step_deg) for r in span for c in span}
    edges = []
    for r in span:
        for c in span:
            if c < half:
                edges.append((2 * node(r, c), node(r, c), node(r, c + 1), True, []))
            if r < half:
                edges.append((2 * node(r, c) + 1, node(r, c), node(r + 1, c), True, []))
    return RoadGraph(nodes, edges)


def test_routing_work_does_not_grow_with_the_graph(monkeypatch):
    pops = [0]
    real_heappop = heapq.heappop

    def counting_heappop(heap):
        pops[0] += 1
        return real_heappop(heap)

    monkeypatch.setattr(roadgraph.heapq, "heappop", counting_heappop)
    pop_counts, distances = [], []
    for half in (8, 24):
        graph = _centred_grid(half)
        rng = random.Random(4)
        # three points on each of the four blocks that meet at the centre
        centre_edges = sorted(hit.edge_id for hit in graph.nearest_edges(44.65, 10.92, 60.0, 10))
        points = [
            graph.project_to_edge(edge_id, *offset_point(graph, edge_id, rng.uniform(0, 100)))
            for edge_id in centre_edges
            for _ in range(3)
        ]
        pops[0] = 0
        distances.append([route_distance(graph, a, b) for a in points for b in points])
        pop_counts.append(pops[0])
    small, large = pop_counts
    assert len(points) == 12 and distances[0] == distances[1]
    assert small == large
    assert large < len(graph.nodes) / 4


def test_edge_lengths_sum_of_segments():
    graph = y_junction()
    for edge in graph.edges.values():
        total = sum(
            geodesic_inverse(edge.geometry[i], edge.geometry[i + 1])[0]
            for i in range(len(edge.geometry) - 1)
        )
        assert edge.length_m == pytest.approx(total, rel=1e-12)
        assert edge.length_m > 0


def test_save_load_roundtrip(tmp_path):
    graph = y_junction()
    path = str(tmp_path / "roads.txt")
    graph.save(path)
    back = RoadGraph.load(path)
    assert set(back.edges) == set(graph.edges)
    # the text format keeps 7 decimal places (~1 cm), so lengths agree to cm
    assert back.edges[1].length_m == pytest.approx(graph.edges[1].length_m, abs=0.05)
