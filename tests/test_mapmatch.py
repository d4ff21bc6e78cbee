import json
import math
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from canpath import mapmatch
from canpath.geokin import geodesic_inverse
from canpath.mapmatch import (
    ExternalMatcher,
    MatcherConfig,
    MatchResult,
    MatchServiceError,
    UnmatchedGapError,
    build_external_request,
    candidates_for_point,
    emission_logweight,
    parse_external_response,
    sequence_logweight,
    transition_logweight,
    viterbi_match,
)
from canpath.roadgraph import RoadGraph, route_distance

from helpers import (
    arc_graph,
    brute_force_best_match_score,
    brute_force_candidates,
    grid3,
    grid_text,
    match_score_of_result,
    offset_point,
    straight_graph,
    triangle_graph,
    two_edge_straight,
    y_junction,
)

CONFIG = MatcherConfig()


def test_single_point_projects_perpendicular():
    graph = straight_graph()
    point = offset_point(graph, 1, 80.0, north_m=3.0)
    result = viterbi_match(graph, [point], CONFIG)
    assert result.edge_ids == (1,)
    matched = result.matched_points[0]
    expected = offset_point(graph, 1, 80.0)
    assert geodesic_inverse(matched, expected)[0] < 0.05


def test_points_on_edge_match_in_place():
    graph = straight_graph()
    points = [offset_point(graph, 1, d) for d in (10.0, 50.0, 120.0)]
    result = viterbi_match(graph, points, CONFIG)
    for got, want in zip(result.matched_points, points):
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_matched_points_lie_on_edge_geometry():
    graph = y_junction()
    points = [offset_point(graph, 1, d, east_m=4.0) for d in (20, 50, 80)]
    result = viterbi_match(graph, points, CONFIG)
    for (lat, lon), edge_id in zip(result.matched_points, result.edge_ids):
        again = graph.project_to_edge(edge_id, lat, lon)
        assert again.perp_m < 1e-7 * 111194.9  # within 1e-7 degrees of the polyline


def test_unmatched_gap_names_point_index():
    graph = straight_graph()
    good = offset_point(graph, 1, 50.0, north_m=2.0)
    lost = offset_point(graph, 1, 50.0, north_m=500.0)
    with pytest.raises(UnmatchedGapError) as err:
        viterbi_match(graph, [good, lost], CONFIG)
    assert err.value.point_index == 1


def test_straight_two_edge_transition_weight_zero():
    graph = two_edge_straight()
    points = [offset_point(graph, 1, 60.0), offset_point(graph, 2, 40.0)]
    gc = geodesic_inverse(points[0], points[1])[0]
    result = viterbi_match(graph, points, CONFIG)
    assert result.edge_ids == (1, 2)
    from canpath.roadgraph import route_distance

    a = graph.project_to_edge(1, *points[0])
    b = graph.project_to_edge(2, *points[1])
    assert route_distance(graph, a, b) == pytest.approx(gc, rel=1e-6)


def _noisy_branch_trace(graph, branch_edge, offsets, east_noise):
    points = [offset_point(graph, 1, o, east_m=n) for o, n in zip(offsets[:2], east_noise[:2])]
    points += [
        offset_point(graph, branch_edge, o, east_m=n)
        for o, n in zip(offsets[2:], east_noise[2:])
    ]
    return points


def test_y_junction_left_branch_beats_oracle():
    graph = y_junction()  # edge 2 = left branch, 3 = right branch
    points = _noisy_branch_trace(graph, 2, [40.0, 80.0, 20.0, 50.0, 80.0], [4.0, -4.0, 3.0, -3.0, 4.0])
    result = viterbi_match(graph, points, CONFIG)
    assert all(e in (1, 2) for e in result.edge_ids)
    assert 2 in result.edge_ids
    oracle_best = brute_force_best_match_score(graph, points, CONFIG)
    got = match_score_of_result(graph, points, result, CONFIG)
    assert got == pytest.approx(oracle_best, abs=1e-9)


@pytest.mark.parametrize("fixture", [straight_graph, y_junction, grid3, triangle_graph, arc_graph])
def test_viterbi_optimal_on_fixture_graphs(fixture):
    graph = fixture()
    first_edge = min(graph.edges)
    length = graph.edges[first_edge].length_m
    offsets = [length * f for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    noise = [3.0, -4.0, 2.0, -2.5, 3.5]
    points = [offset_point(graph, first_edge, o, east_m=n) for o, n in zip(offsets, noise)]
    result = viterbi_match(graph, points, CONFIG)
    oracle_best = brute_force_best_match_score(graph, points, CONFIG)
    got = match_score_of_result(graph, points, result, CONFIG)
    assert got == pytest.approx(oracle_best, abs=1e-9)


def test_grid_l_trace_follows_the_l():
    graph = grid3()
    # south edge of the grid runs west-east (edge 1: (0,0)->(100,0)); column
    # edge 9 runs north from (200,0). Trace an L with +-4 m of noise.
    l_points = [
        offset_point(graph, 1, 30.0, north_m=4.0),
        offset_point(graph, 1, 90.0, north_m=-4.0),
        offset_point(graph, 2, 60.0, north_m=4.0),
        offset_point(graph, 9, 40.0, east_m=-4.0),
        offset_point(graph, 9, 90.0, east_m=4.0),
    ]
    result = viterbi_match(graph, l_points, MatcherConfig(candidate_radius=30.0))
    oracle_best = brute_force_best_match_score(graph, l_points, MatcherConfig(candidate_radius=30.0))
    got = match_score_of_result(graph, l_points, result, MatcherConfig(candidate_radius=30.0))
    assert got == pytest.approx(oracle_best, abs=1e-9)
    assert result.edge_ids[0] in (1,)
    assert result.edge_ids[-1] == 9


def test_huge_sigma_degenerates_to_route_smoothness():
    graph = y_junction()
    config = MatcherConfig(emission_sigma=1e9)
    points = _noisy_branch_trace(graph, 2, [40.0, 80.0, 20.0, 50.0, 80.0], [4.0, -4.0, 3.0, -3.0, 4.0])
    result = viterbi_match(graph, points, config)
    oracle_best = brute_force_best_match_score(graph, points, config)
    got = match_score_of_result(graph, points, result, config)
    assert got == pytest.approx(oracle_best, abs=1e-9)


def test_tie_break_prefers_smaller_edge_id():
    graph = two_edge_straight()
    # the junction point lies on both edges at zero perpendicular distance
    junction = graph.nodes[graph.edges[1].node_to]
    result = viterbi_match(graph, [junction], CONFIG)
    assert result.edge_ids == (1,)


def reference_viterbi_match(graph, points, config):
    """Reference: the Viterbi loop as it was before score-ordered pruning,
    every previous candidate scored for every candidate, in index order,
    with candidates from the brute-force lookup."""
    candidates = []
    for i, (lat, lon) in enumerate(points):
        cands = brute_force_candidates(graph, lat, lon, config)
        if not cands:
            raise UnmatchedGapError(i)
        candidates.append(cands)

    scores = [emission_logweight(c.perp_m, config.emission_sigma) for c in candidates[0]]
    backrefs = []
    for t in range(1, len(points)):
        gc = geodesic_inverse(points[t - 1], points[t])[0]
        new_scores = []
        back = []
        for cand in candidates[t]:
            best = -math.inf
            best_prev = 0
            for prev_idx, prev in enumerate(candidates[t - 1]):
                route = route_distance(graph, prev, cand)
                w = scores[prev_idx] + transition_logweight(gc, route, config.transition_beta)
                if w > best:  # strict: earlier (smaller edge id) wins ties
                    best = w
                    best_prev = prev_idx
            new_scores.append(best + emission_logweight(cand.perp_m, config.emission_sigma))
            back.append(best_prev)
        if all(math.isinf(s) and s < 0 for s in new_scores):
            raise UnmatchedGapError(t, f"no feasible road continuation at point {t}")
        scores = new_scores
        backrefs.append(back)

    best_idx = 0
    best_score = -math.inf
    for idx, score in enumerate(scores):
        if score > best_score:
            best_score = score
            best_idx = idx

    chain = [best_idx]
    for back in reversed(backrefs):
        chain.append(back[chain[-1]])
    chain.reverse()

    chosen = [candidates[t][idx] for t, idx in enumerate(chain)]
    return MatchResult(
        matched_points=tuple((c.lat, c.lon) for c in chosen),
        edge_ids=tuple(c.edge_id for c in chosen),
    )


GRID = grid_text(44.65, 10.92)  # two-way rows, one-way (northbound) columns


def _grid_walk(graph, rng, steps, noise_m, hops=(5.0, 25.0)):
    """A random legal drive over the grid: each point ``hops`` metres (5-25
    by default) further along the road than the last, with up to
    ``noise_m`` of noise; it ends early at a node with no way out."""
    edge = graph.edges[rng.choice(sorted(graph.edges))]
    forward, along = True, rng.uniform(0, edge.length_m)
    points = []
    for _ in range(steps):
        along += rng.uniform(*hops)
        if along > edge.length_m:
            node = edge.node_to if forward else edge.node_from
            ways = [(e, True) for e in graph.edges.values() if e.node_from == node and e is not edge]
            ways += [(e, False) for e in graph.edges.values() if e.bidirectional and e.node_to == node and e is not edge]
            if not ways:
                break
            edge, forward = ways[rng.randrange(len(ways))]
            along = rng.uniform(0, 20.0)
        offset = along if forward else edge.length_m - along
        east, north = rng.uniform(-noise_m, noise_m), rng.uniform(-noise_m, noise_m)
        points.append(offset_point(graph, edge.id, offset, east_m=east, north_m=north))
    return points


def _assert_same_as_reference(points, config):
    """viterbi_match and the reference give equal results, or raise at the
    same point, each on its own freshly loaded graph."""
    try:
        want = reference_viterbi_match(RoadGraph.from_text(GRID), points, config)
    except UnmatchedGapError as exc:
        with pytest.raises(UnmatchedGapError) as err:
            viterbi_match(RoadGraph.from_text(GRID), points, config)
        assert err.value.point_index == exc.point_index
        return exc.point_index
    assert viterbi_match(RoadGraph.from_text(GRID), points, config) == want
    return None


@pytest.mark.parametrize(
    "config",
    [CONFIG, MatcherConfig(emission_sigma=1e9), MatcherConfig(candidate_radius=25.0, max_candidates=3)],
    ids=["default", "flat-scores", "few-candidates"],
)
def test_viterbi_equals_the_reference_on_random_grid_drives(config):
    graph = RoadGraph.from_text(GRID)
    rng = random.Random(23)
    gaps = [_assert_same_as_reference(_grid_walk(graph, rng, 25, 8.0), config) for _ in range(12)]
    assert gaps.count(None) >= 10  # most drives match end to end
    # dense drives, 0-4 m hops with one point in four repeated (a stopped
    # car), so most lookups run in the boxes the last query's hits bound
    gaps = []
    for _ in range(6):
        points = []
        for point in _grid_walk(graph, rng, 60, 1.0, hops=(0.0, 4.0)):
            points += [point] * (2 if rng.random() < 0.25 else 1)
        gaps.append(_assert_same_as_reference(points, config))
    # with 3 candidates a node may leave out the road driven on
    assert gaps.count(None) >= 2
    # unrelated points: transitions that one-way columns may make infeasible
    lats = [lat for lat, _lon in graph.nodes.values()]
    lons = [lon for _lat, lon in graph.nodes.values()]
    for _ in range(12):
        points = [(rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons))) for _ in range(8)]
        _assert_same_as_reference(points, config)


@pytest.mark.parametrize("config", [CONFIG, MatcherConfig(emission_sigma=1e9)], ids=["default", "flat-scores"])
def test_viterbi_equals_the_reference_on_nodes(config):
    # every edge meeting at a node is a candidate at distance 0, so scores tie
    graph = RoadGraph.from_text(GRID)
    rng = random.Random(29)
    nodes = sorted(graph.nodes)
    row = [graph.nodes[n] for n in nodes[:4]]
    _assert_same_as_reference(row + row[::-1], config)
    for _ in range(10):
        _assert_same_as_reference([graph.nodes[rng.choice(nodes)] for _ in range(6)], config)


def test_viterbi_equals_the_reference_with_no_feasible_continuation():
    # southward on a northbound column: no route leads back down it
    graph = RoadGraph.from_text(GRID)
    column = next(e.id for e in graph.edges.values() if not e.bidirectional)
    points = [offset_point(graph, column, offset) for offset in (40.0, 50.0, 30.0, 20.0)]
    config = MatcherConfig(candidate_radius=5.0)
    assert _assert_same_as_reference(points, config) == 2


def test_viterbi_scores_fewer_transitions_than_the_full_product(monkeypatch):
    graph = RoadGraph.from_text(GRID)
    points = _grid_walk(graph, random.Random(31), 40, 4.0)
    counts = [len(candidates_for_point(graph, lat, lon, CONFIG)) for lat, lon in points]
    calls = [0]
    real_route_distance = mapmatch.route_distance

    def counting_route_distance(graph, a, b):
        calls[0] += 1
        return real_route_distance(graph, a, b)

    monkeypatch.setattr(mapmatch, "route_distance", counting_route_distance)
    viterbi_match(graph, points, CONFIG)
    assert calls[0] < sum(a * b for a, b in zip(counts, counts[1:]))


# -- external backend -------------------------------------------------------------


def test_build_request_shape():
    doc = build_external_request([(44.65, 10.92), (44.66, 10.93)])
    assert doc == {
        "shape": [{"lat": 44.65, "lon": 10.92}, {"lat": 44.66, "lon": 10.93}],
        "costing": "auto",
        "shape_match": "map_snap",
    }


def test_build_request_empty_fails_before_network():
    with pytest.raises(ValueError):
        build_external_request([])


GOLDEN_REQUEST = {
    "shape": [
        {"lat": 44.65, "lon": 10.92},
        {"lat": 44.6501, "lon": 10.9201},
        {"lat": 44.6502, "lon": 10.9202},
        {"lat": 44.6503, "lon": 10.9203},
        {"lat": 44.6504, "lon": 10.9204},
    ],
    "costing": "auto",
    "shape_match": "map_snap",
}

GOLDEN_RESPONSE = {
    "matched_points": [
        {"lat": 44.650001, "lon": 10.920002, "type": "matched", "edge_index": 0},
        {"lat": 44.650101, "lon": 10.920102, "type": "matched", "edge_index": 0},
        {"lat": 44.650201, "lon": 10.920202, "type": "matched", "edge_index": 1},
        {"lat": 44.650301, "lon": 10.920302, "type": "matched", "edge_index": 1},
        {"lat": 44.650401, "lon": 10.920402, "type": "matched", "edge_index": 1},
        {"lat": 44.650451, "lon": 10.920452, "type": "interpolated", "edge_index": 1},
    ],
}


def test_golden_request_document():
    points = [(p["lat"], p["lon"]) for p in GOLDEN_REQUEST["shape"]]
    assert build_external_request(points) == GOLDEN_REQUEST


def test_golden_response_parses_with_service_count():
    result = parse_external_response(GOLDEN_RESPONSE)
    assert len(result.matched_points) == 6  # service densified 5 -> 6
    assert result.matched_points[0] == (44.650001, 10.920002)
    assert result.edge_ids is None


def test_response_zero_points_is_a_gap():
    with pytest.raises(UnmatchedGapError):
        parse_external_response({"matched_points": []})


def test_response_error_status():
    with pytest.raises(MatchServiceError, match="no segment"):
        parse_external_response({"status": "error", "status_message": "no segment matched"})
    with pytest.raises(MatchServiceError):
        parse_external_response({"error": "boom"})


def test_response_malformed():
    with pytest.raises(MatchServiceError):
        parse_external_response(["not", "an", "object"])
    with pytest.raises(MatchServiceError):
        parse_external_response({"matched_points": [{"lat": 1.0}]})


@pytest.mark.parametrize(
    "point",
    [
        {"lat": None, "lon": 10.92},
        {"lat": [44.65], "lon": 10.92},
        {"lat": True, "lon": 10.92},
        {"lat": "nan", "lon": 10.92},
        {"lat": "44.65", "lon": 10.92},
        {"lat": 44.65, "lon": math.inf},
        {"lat": math.nan, "lon": 10.92},
        {"lat": 95.0, "lon": 10.92},
        {"lat": 44.65, "lon": 181},
        {"lat": 10**400, "lon": 10.92},  # an integer too large for a float
        "44.65,10.92",
    ],
)
def test_response_point_that_is_not_a_coordinate_names_its_index(point):
    document = {"matched_points": [{"lat": 44.65, "lon": 10.92}, point]}
    with pytest.raises(MatchServiceError, match="^malformed matched point at index 1$"):
        parse_external_response(document)


@pytest.mark.parametrize("edge_index", ["x", True, False, None, -1, 1.0, [1], {"id": 1}, "0", 3, 2**40])
def test_response_edge_index_of_any_value_is_ignored(edge_index):
    # edge_index indexes the response's own edge list, not a RoadGraph edge
    point = {"lat": 44.65, "lon": 10.92}
    for document in (
        {"matched_points": [{**point, "edge_index": 3}, {**point, "edge_index": edge_index}]},
        {"matched_points": [{**point, "edge_index": edge_index}, point]},
    ):
        result = parse_external_response(document)
        assert result.matched_points == ((44.65, 10.92), (44.65, 10.92))
        assert result.edge_ids is None


def test_response_points_on_the_range_edges_parse():
    document = {"matched_points": [{"lat": -90, "lon": 180}, {"lat": 90.0, "lon": -180.0}]}
    assert parse_external_response(document).matched_points == ((-90.0, 180.0), (90.0, -180.0))


def _serve_once(status: int, body: bytes, received: list):
    """A loopback HTTP server that answers one POST, then stops; each
    request's path, content type and JSON document go to ``received``."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            document = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            received.append((self.path, self.headers["Content-Type"], document))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.timeout = 10  # handle_request gives up if no client arrives
    thread = threading.Thread(target=server.handle_request)
    thread.start()
    return server, thread


def _match_over_loopback(status: int, body: bytes, points):
    received = []
    server, thread = _serve_once(status, body, received)
    try:
        return ExternalMatcher(f"http://127.0.0.1:{server.server_port}/match").match(points), received
    finally:
        thread.join(timeout=15)
        server.server_close()
        assert not thread.is_alive()


def test_external_matcher_default_transport_over_loopback(monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("no_proxy", "*")
    points = [(p["lat"], p["lon"]) for p in GOLDEN_REQUEST["shape"]]

    result, received = _match_over_loopback(200, json.dumps(GOLDEN_RESPONSE).encode(), points)
    assert received == [("/match", "application/json", GOLDEN_REQUEST)]
    assert len(result.matched_points) == 6
    assert result.edge_ids is None

    with pytest.raises(MatchServiceError, match="^service returned HTTP 500$"):
        _match_over_loopback(500, b"", points)
    # urlopen returns a 2xx normally; only 200 is a reply to parse
    with pytest.raises(MatchServiceError, match="^service returned HTTP 204$"):
        _match_over_loopback(204, b"", points)
    with pytest.raises(MatchServiceError, match="^service returned a non-JSON body$"):
        _match_over_loopback(200, b"<html>not json</html>", points)

    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(MatchServiceError, match="^service unreachable: "):
        ExternalMatcher(f"http://127.0.0.1:{port}/match").match(points)

    # a peer that answers with something other than HTTP
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def answer_garbage():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage)
        thread.start()
        try:
            with pytest.raises(MatchServiceError, match="^service unreachable: "):
                ExternalMatcher(f"http://127.0.0.1:{listener.getsockname()[1]}/match").match(points)
        finally:
            thread.join(timeout=15)
        assert not thread.is_alive()


def test_config_validation():
    with pytest.raises(ValueError):
        MatcherConfig(emission_sigma=0.0)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("emission_sigma", math.nan, "emission_sigma must be finite, got nan"),
        ("transition_beta", -1.0, "transition_beta must be positive"),
        ("transition_beta", math.inf, "transition_beta must be finite, got inf"),
        ("candidate_radius", math.nan, "candidate_radius must be finite, got nan"),
        ("candidate_radius", math.inf, "candidate_radius must be finite, got inf"),
        ("candidate_radius", -math.inf, "candidate_radius must be finite, got -inf"),
        ("max_candidates", 0, "max_candidates must be positive"),
        ("max_candidates", 2.5, "max_candidates must be an integer, got 2.5"),
        ("max_candidates", 3.0, "max_candidates must be an integer, got 3.0"),
        ("max_candidates", True, "max_candidates must be an integer, got True"),
    ],
)
def test_config_rejects_what_matching_cannot_use(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MatcherConfig(**{field: value})
