import math
import random

import pytest

from canpath.geokin import geodesic_inverse
from canpath.roadgraph import GraphFormatError, RoadGraph, route_distance

from helpers import all_simple_path_distances, straight_graph, triangle_graph, y_junction

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
        ("node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 2\n", "bidir"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        RoadGraph.from_text(text)


def test_nearest_edges_finds_projection():
    graph = straight_graph()
    edge = graph.edges[1]
    mid_lat = (edge.geometry[0][0] + edge.geometry[-1][0]) / 2
    mid_lon = (edge.geometry[0][1] + edge.geometry[-1][1]) / 2
    # nudge ~5 m north of the midpoint
    hits = graph.nearest_edges(mid_lat + 5 / 111194.9, mid_lon, radius_m=50, max_results=5)
    assert len(hits) == 1
    assert hits[0].perp_m == pytest.approx(5.0, abs=0.05)
    assert hits[0].point.offset_m == pytest.approx(100.0, abs=0.1)


def test_nearest_edges_radius_excludes():
    graph = straight_graph()
    edge = graph.edges[1]
    far_lat = edge.geometry[0][0] + 200 / 111194.9
    assert graph.nearest_edges(far_lat, edge.geometry[0][1], radius_m=50, max_results=5) == []


def test_point_at_offset_endpoints():
    graph = straight_graph()
    edge = graph.edges[1]
    assert graph.point_at_offset(1, 0.0) == edge.geometry[0]
    end = graph.point_at_offset(1, edge.length_m)
    assert end == pytest.approx(edge.geometry[-1], abs=1e-12)


def test_route_distance_same_point():
    graph = straight_graph()
    p = graph.project_to_edge(1, *graph.point_at_offset(1, 50.0)).point
    assert route_distance(graph, p, p) == pytest.approx(0.0, abs=1e-9)


def test_route_distance_along_one_edge():
    graph = straight_graph()
    a = graph.project_to_edge(1, *graph.point_at_offset(1, 30.0)).point
    b = graph.project_to_edge(1, *graph.point_at_offset(1, 170.0)).point
    assert route_distance(graph, a, b) == pytest.approx(140.0, abs=0.01)
    assert route_distance(graph, b, a) == pytest.approx(140.0, abs=0.01)


def test_route_distance_triangle_against_enumeration():
    graph = triangle_graph()
    # nodes: 1 at right angle, 2 east (300 m), 3 north (400 m)
    best_by_dfs = min(all_simple_path_distances(graph, 2, 3))
    a = graph.project_to_edge(1, *graph.nodes[2]).point  # end of edge 1 at node 2
    b = graph.project_to_edge(2, *graph.nodes[3]).point  # end of edge 2 at node 3
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
    a = graph.project_to_edge(1, *graph.point_at_offset(1, 100.0)).point
    b = graph.project_to_edge(1, *graph.point_at_offset(1, 300.0)).point
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
    a = graph.project_to_edge(1, *graph.point_at_offset(1, length1 * 0.75)).point
    b = graph.project_to_edge(1, *graph.point_at_offset(1, length1 * 0.25)).point
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
        samples.append(graph.project_to_edge(edge_id, *graph.point_at_offset(edge_id, offset)).point)
    for a in samples:
        for b in samples:
            ab = route_distance(graph, a, b)
            assert ab == pytest.approx(route_distance(graph, b, a), abs=1e-6)
            for c in samples:
                assert ab <= route_distance(graph, a, c) + route_distance(graph, c, b) + 1e-6


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
