"""Shared test fixtures and independent brute-force oracles.

The oracles search exhaustively (candidate-sequence products, alignment
enumeration, simple-path enumeration) so the dynamic programs they check
cannot share their search strategy.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

from canpath import synthgen
from canpath.geokin import DEG_M, geodesic_inverse, point_along
from canpath.mapmatch import MatcherConfig, sequence_logweight
from canpath.obd import encode_speed_request, encode_speed_response
from canpath.reveng import AngleDecoder, encode_angle_frame
from canpath.roadgraph import Candidate, RoadGraph
from canpath.scenarios import ORIGIN, PathBuilder, assemble_graph
from canpath.trackeval import GAP_SCORE, MATCH_SCORE, MISMATCH_SCORE, Track

# -- simulator --------------------------------------------------------------------


def no_sim_frames(monkeypatch) -> None:
    """Make the simulator's frame encoders fail, so a scenario the step
    bound lets through fails at once instead of running for hours."""
    def encode(*args, **kwargs):
        raise AssertionError("the simulation loop ran")

    monkeypatch.setattr(synthgen, "encode_angle_frame", encode)
    monkeypatch.setattr(synthgen, "encode_speed_response", encode)


# -- long captures ----------------------------------------------------------------


def long_capture(n_frames: int, decoder: AngleDecoder) -> list:
    """The first n_frames of an epoch-stamped capture in time order: a
    steering frame every 10 ms, sweeping between -10 and 10 degrees, and
    every 0.1 s an OBD speed request and its response (30-79 km/h). Eleven
    frames in twelve decode."""
    frames = []
    k = 0
    while len(frames) < n_frames:
        t = 1.7e9 + k * 0.01
        frames.append(encode_angle_frame(decoder, t, 10.0 * (k % 700 / 350 - 1)))
        if k % 10 == 0:
            frames.append(encode_speed_request(t + 0.002))
            frames.append(encode_speed_response(30 + k % 50, timestamp=t + 0.004))
        k += 1
    return frames[:n_frames]


def traced_peak(fn, *args):
    """fn(*args), and the most bytes it held at once of what it allocated
    (tracemalloc)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- tiny graphs ------------------------------------------------------------------


def straight_graph() -> RoadGraph:
    """One 200 m east-west edge."""
    pb = PathBuilder(heading=90.0)
    return assemble_graph({1: pb.straight(200).take()})


def two_edge_straight() -> RoadGraph:
    """A straight road split into two collinear edges of 100 m."""
    pb = PathBuilder(heading=90.0)
    return assemble_graph({1: pb.straight(100).take(), 2: pb.straight(100).take()})


def y_junction() -> RoadGraph:
    """100 m stem north, then left and right branches at 45 degrees."""
    pb = PathBuilder(heading=0.0)
    stem = pb.straight(100).take()
    left = pb.branch(heading=315.0).straight(100).take()
    right = pb.branch(heading=45.0).straight(100).take()
    return assemble_graph({1: stem, 2: left, 3: right})


def grid3() -> RoadGraph:
    """3x3 street grid, 100 m spacing; edge ids: horizontal 1-6, vertical 7-12."""
    paths = {}
    edge_id = 1
    for row in range(3):
        for col in range(2):
            a = (100.0 * col, 100.0 * row)
            b = (100.0 * (col + 1), 100.0 * row)
            paths[edge_id] = [a, b]
            edge_id += 1
    for col in range(3):
        for row in range(2):
            a = (100.0 * col, 100.0 * row)
            b = (100.0 * col, 100.0 * (row + 1))
            paths[edge_id] = [a, b]
            edge_id += 1
    return assemble_graph(paths)


def triangle_graph() -> RoadGraph:
    """3-4-5 triangle: sides 300, 400, 500 m."""
    a, b, c = (0.0, 0.0), (300.0, 0.0), (0.0, 400.0)
    return assemble_graph({1: [a, b], 2: [a, c], 3: [b, c]})


def arc_graph(radius: float = 30.0) -> RoadGraph:
    """Single edge: 40 m in, a 180-degree arc, 40 m out."""
    pb = PathBuilder(heading=0.0)
    return assemble_graph({1: pb.straight(40).arc(radius, 180).straight(40).take()})


def grid_text(lat0, lon0, n=4, step_deg=0.0007, vertex_deg=0.00009, id_base=0):
    """Graph text of an n x n street grid with ~78 m blocks and a vertex
    every ~10 m; rows are two-way, columns one-way north. Node and edge
    ids start at id_base and id_base + 1."""
    lines, edge_id = [], id_base + 1
    for r in range(n):
        for c in range(n):
            lines.append(f"node {id_base + r * n + c} {lat0 + r * step_deg:.9f} {lon0 + c * step_deg:.9f}")
    mids = [k * vertex_deg for k in range(1, int(step_deg / vertex_deg))]
    for r in range(n):
        for c in range(n):
            lat, lon = lat0 + r * step_deg, lon0 + c * step_deg
            if c + 1 < n:
                pts = " ".join(f"{lat:.9f} {lon + d:.9f}" for d in mids)
                lines.append(f"edge {edge_id} {id_base + r * n + c} {id_base + r * n + c + 1} 1 {pts}")
                edge_id += 1
            if r + 1 < n:
                pts = " ".join(f"{lat + d:.9f} {lon:.9f}" for d in mids)
                lines.append(f"edge {edge_id} {id_base + r * n + c} {id_base + (r + 1) * n + c} 0 {pts}")
                edge_id += 1
    return "\n".join(lines) + "\n"


def offset_point(graph: RoadGraph, edge_id: int, offset_m: float, east_m: float = 0.0, north_m: float = 0.0):
    """A lat/lon near an edge: the point at offset_m along it, nudged east/north."""
    edge = graph.edges[edge_id]
    lat, lon = point_along(edge.geometry, edge.cum_m, offset_m)
    dlat = north_m / DEG_M
    dlon = east_m / (DEG_M * math.cos(math.radians(lat)))
    return (lat + dlat, lon + dlon)


# -- brute-force oracles ------------------------------------------------------------


def brute_force_nearest(graph: RoadGraph, lat: float, lon: float, radius_m: float, max_results: int) -> list[Candidate]:
    """Reference lookup: project onto every edge, keep hits within radius."""
    hits = [graph.project_to_edge(edge_id, lat, lon) for edge_id in graph.edges]
    hits = [h for h in hits if h.perp_m <= radius_m]
    hits.sort(key=lambda h: (h.perp_m, h.edge_id))
    return hits[:max_results]


def brute_force_candidates(graph: RoadGraph, lat: float, lon: float, config: MatcherConfig) -> list[Candidate]:
    """A point's matcher candidates from the brute-force lookup, in edge-id
    order, so an oracle never reads the graph's nearest-edge search state."""
    hits = brute_force_nearest(graph, lat, lon, config.candidate_radius, config.max_candidates)
    return sorted(hits, key=lambda h: h.edge_id)


def brute_force_best_match_score(graph: RoadGraph, points, config: MatcherConfig) -> float:
    """Best HMM log-weight over ALL candidate assignments, by enumeration."""
    candidate_lists = [brute_force_candidates(graph, lat, lon, config) for lat, lon in points]
    assert all(candidate_lists), "oracle fixture must have candidates everywhere"
    best = -math.inf
    for chosen in itertools.product(*candidate_lists):
        best = max(best, sequence_logweight(graph, points, chosen, config))
    return best


def match_score_of_result(graph: RoadGraph, points, result, config: MatcherConfig) -> float:
    """Log-weight of a matcher's returned edge sequence, rebuilt from candidates."""
    chosen = []
    for (lat, lon), edge_id in zip(points, result.edge_ids):
        cands = [c for c in brute_force_candidates(graph, lat, lon, config) if c.edge_id == edge_id]
        assert len(cands) == 1
        chosen.append(cands[0])
    return sequence_logweight(graph, points, chosen, config)


def brute_force_nw_score(a: Track, b: Track, epsilon: float) -> int:
    """Best global alignment score, taken as the max over the full enumeration."""
    return max(enumerate_alignment_scores(a, b, epsilon))


def enumerate_alignment_scores(a: Track, b: Track, epsilon: float) -> list[int]:
    """Scores of every complete alignment (no memoization), for small tracks."""
    pa, pb = a.points, b.points
    scores: list[int] = []

    def walk(i: int, j: int, acc: int) -> None:
        if i == len(pa) and j == len(pb):
            scores.append(acc)
            return
        if i < len(pa) and j < len(pb):
            s = MATCH_SCORE if geodesic_inverse(pa[i], pb[j])[0] <= epsilon else MISMATCH_SCORE
            walk(i + 1, j + 1, acc + s)
        if i < len(pa):
            walk(i + 1, j, acc + GAP_SCORE)
        if j < len(pb):
            walk(i, j + 1, acc + GAP_SCORE)

    walk(0, 0, 0)
    return scores


def all_simple_path_distances(graph: RoadGraph, start_node: int, end_node: int) -> list[float]:
    """Lengths of every simple node path between two nodes (DFS enumeration)."""
    out: list[float] = []

    def dfs(node: int, seen: set[int], acc: float) -> None:
        if node == end_node:
            out.append(acc)
            return
        for edge in graph.edges.values():
            steps = [(edge.node_from, edge.node_to)]
            if edge.bidirectional:
                steps.append((edge.node_to, edge.node_from))
            for u, v in steps:
                if u == node and v not in seen:
                    dfs(v, seen | {v}, acc + edge.length_m)

    dfs(start_node, {start_node}, 0.0)
    return out
