import json
import math
import socket
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from canpath.geokin import geodesic_inverse
from canpath.mapmatch import (
    ExternalMatcher,
    MatcherConfig,
    MatchServiceError,
    UnmatchedGapError,
    build_external_request,
    candidates_for_point,
    parse_external_response,
    sequence_logweight,
    viterbi_match,
)

from helpers import (
    arc_graph,
    brute_force_best_match_score,
    grid3,
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
    expected = graph.point_at_offset(1, 80.0)
    assert geodesic_inverse(matched, expected)[0] < 0.05


def test_points_on_edge_match_in_place():
    graph = straight_graph()
    points = [graph.point_at_offset(1, d) for d in (10.0, 50.0, 120.0)]
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
    points = [graph.point_at_offset(1, 60.0), graph.point_at_offset(2, 40.0)]
    gc = geodesic_inverse(points[0], points[1])[0]
    result = viterbi_match(graph, points, CONFIG)
    assert result.edge_ids == (1, 2)
    from canpath.roadgraph import route_distance

    a = graph.project_to_edge(1, *points[0]).point
    b = graph.project_to_edge(2, *points[1]).point
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
    assert result.edge_ids == (0, 0, 1, 1, 1, 1)


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


class _StubResponse:
    def __init__(self, status_code=200, payload=None, body_is_json=True):
        self.status_code = status_code
        self._payload = payload
        self._body_is_json = body_is_json

    def json(self):
        if not self._body_is_json:
            raise ValueError("not json")
        return self._payload


class _StubSession:
    def __init__(self, response=None, exc=None):
        self.response = response
        self.exc = exc
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append((url, json))
        if self.exc is not None:
            raise self.exc
        return self.response


def test_external_matcher_happy_path():
    session = _StubSession(response=_StubResponse(payload=GOLDEN_RESPONSE))
    matcher = ExternalMatcher("http://matcher.local/trace_attributes", session=session)
    points = [(p["lat"], p["lon"]) for p in GOLDEN_REQUEST["shape"]]
    result = matcher.match(points)
    assert len(result.matched_points) == 6
    url, body = session.calls[0]
    assert url == "http://matcher.local/trace_attributes"
    assert body == GOLDEN_REQUEST
    assert json.dumps(body)  # request documents stay JSON-serializable


def test_external_matcher_transport_error():
    session = _StubSession(exc=urllib.error.URLError("refused"))
    matcher = ExternalMatcher("http://matcher.local", session=session)
    with pytest.raises(MatchServiceError, match="unreachable"):
        matcher.match([(44.65, 10.92)])


def test_external_matcher_http_error():
    session = _StubSession(response=_StubResponse(status_code=500))
    matcher = ExternalMatcher("http://matcher.local", session=session)
    with pytest.raises(MatchServiceError, match="500"):
        matcher.match([(44.65, 10.92)])


def test_external_matcher_bad_body():
    session = _StubSession(response=_StubResponse(body_is_json=False))
    matcher = ExternalMatcher("http://matcher.local", session=session)
    with pytest.raises(MatchServiceError, match="non-JSON"):
        matcher.match([(44.65, 10.92)])


def _serve_once(status: int, body: bytes, received: list):
    """A loopback HTTP server that answers one POST, then stops."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            received.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
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
    assert received == [GOLDEN_REQUEST]
    assert len(result.matched_points) == 6
    assert result.edge_ids == (0, 0, 1, 1, 1, 1)

    with pytest.raises(MatchServiceError, match="HTTP 500"):
        _match_over_loopback(500, b"", points)

    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(MatchServiceError, match="unreachable"):
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
            with pytest.raises(MatchServiceError, match="unreachable"):
                ExternalMatcher(f"http://127.0.0.1:{listener.getsockname()[1]}/match").match(points)
        finally:
            thread.join(timeout=15)
        assert not thread.is_alive()


def test_config_validation():
    with pytest.raises(ValueError):
        MatcherConfig(emission_sigma=0.0)
