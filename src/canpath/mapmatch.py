"""Snap a coordinate sequence onto the road network.

A matcher is any object with ``match(points) -> MatchResult``; inference
and track comparison take one and call nothing else. Two ship here:
GraphMatcher, a hidden-Markov matcher decoded with the Viterbi algorithm
over a local RoadGraph, and ExternalMatcher, which POSTs each batch
through the standard library's urllib to a Valhalla-style trace-matching
service. Emissions penalize perpendicular distance to a candidate edge;
transitions penalize disagreement between the great-circle hop and the
along-road distance.
"""

from __future__ import annotations

import math
import urllib.error
import urllib.request
from dataclasses import dataclass, fields
from http.client import HTTPException
from json import dumps, loads
from typing import Sequence

from .geokin import LatLon, geodesic_distance
from .roadgraph import Candidate, RoadGraph, route_distance


class UnmatchedGapError(Exception):
    """No candidate edge (or no feasible continuation) for some trace point."""

    def __init__(self, point_index: int, message: str | None = None):
        super().__init__(message or f"no road candidate for point {point_index}")
        self.point_index = point_index


class MatchServiceError(Exception):
    """External matching service failed: transport, status, or malformed body."""


@dataclass
class MatcherConfig:
    emission_sigma: float = 4.07  # meters; GPS-noise scale of the emission model
    transition_beta: float = 3.0  # meters; route-vs-straight-line tolerance
    candidate_radius: float = 50.0
    max_candidates: int = 10

    def __post_init__(self):
        candidates = self.max_candidates
        if isinstance(candidates, bool) or not isinstance(candidates, int):
            raise ValueError(f"max_candidates must be an integer, got {candidates!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{f.name} must be positive")


@dataclass(frozen=True)
class MatchResult:
    matched_points: tuple[LatLon, ...]
    edge_ids: tuple[int, ...] | None = None


def emission_logweight(perp_m: float, sigma: float) -> float:
    return -0.5 * (perp_m / sigma) ** 2


def transition_logweight(gc_m: float, route_m: float, beta: float) -> float:
    """Never positive; an unreachable candidate (``route_m`` inf) gives -inf."""
    return -abs(gc_m - route_m) / beta


def candidates_for_point(
    graph: RoadGraph, lat: float, lon: float, config: MatcherConfig
) -> list[Candidate]:
    """Nearest candidate edges, returned in ascending edge-id order so tied
    Viterbi scores resolve toward the smaller edge id. A Candidate is a
    tuple that starts with its edge id, and a query holds each edge once,
    so the plain tuple order is the edge-id order."""
    return sorted(graph.nearest_edges(lat, lon, config.candidate_radius, config.max_candidates))


def sequence_logweight(
    graph: RoadGraph,
    points: Sequence[LatLon],
    chosen: Sequence[Candidate],
    config: MatcherConfig,
) -> float:
    """Total HMM log-weight of one candidate-per-point assignment.

    Shared model definition for the matcher and for brute-force checks.
    """
    total = emission_logweight(chosen[0].perp_m, config.emission_sigma)
    for t in range(1, len(points)):
        gc = geodesic_distance(points[t - 1], points[t])
        route = route_distance(graph, chosen[t - 1], chosen[t])
        total += transition_logweight(gc, route, config.transition_beta)
        total += emission_logweight(chosen[t].perp_m, config.emission_sigma)
    return total


def viterbi_match(graph: RoadGraph, points: Sequence[LatLon], config: MatcherConfig) -> MatchResult:
    """Maximum-weight candidate sequence via dynamic programming.

    Each step visits the previous candidates in descending score order
    (a stable sort, so equal scores keep ascending index) and stops at the
    first whose score is below the best weight found so far. This is exact:
    ``transition_logweight`` is never positive and float addition rounds
    monotonically, so a previous candidate's weight ``w`` is at most its
    score; a skipped one can neither beat nor tie the best. Among equal
    weights the lowest index (smallest edge id) wins, as in a full scan in
    index order. Skipping a ``route_distance`` call changes only which
    paused searches run, and node distances are exact in any call order.

    Raises UnmatchedGapError naming the first point without a usable candidate.
    """
    if not points:
        raise ValueError("at least one point is required")
    candidates: list[list[Candidate]] = []
    for i, (lat, lon) in enumerate(points):
        cands = candidates_for_point(graph, lat, lon, config)
        if not cands:
            raise UnmatchedGapError(i)
        candidates.append(cands)

    scores = [emission_logweight(c.perp_m, config.emission_sigma) for c in candidates[0]]
    backrefs: list[list[int]] = []
    for t in range(1, len(points)):
        gc = geodesic_distance(points[t - 1], points[t])
        prev_cands = candidates[t - 1]
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        new_scores = []
        back = []
        for cand in candidates[t]:
            best = -math.inf
            best_prev = 0
            for prev_idx in order:
                score = scores[prev_idx]
                if score < best:
                    break
                route = route_distance(graph, prev_cands[prev_idx], cand)
                w = score + transition_logweight(gc, route, config.transition_beta)
                if w > best or (w == best and prev_idx < best_prev):
                    best = w
                    best_prev = prev_idx
            new_scores.append(best + emission_logweight(cand.perp_m, config.emission_sigma))
            back.append(best_prev)
        if all(math.isinf(s) and s < 0 for s in new_scores):
            raise UnmatchedGapError(t, f"no feasible road continuation at point {t}")
        scores = new_scores
        backrefs.append(back)

    # max keeps the first of equal scores, the smaller edge id
    chain = [max(range(len(scores)), key=scores.__getitem__)]
    for back in reversed(backrefs):
        chain.append(back[chain[-1]])
    chain.reverse()

    chosen = [candidates[t][idx] for t, idx in enumerate(chain)]
    return MatchResult(
        matched_points=tuple((c.lat, c.lon) for c in chosen),
        edge_ids=tuple(c.edge_id for c in chosen),
    )


# -- external service client ---------------------------------------------------


def build_external_request(points: Sequence[LatLon]) -> dict:
    """Request document for a Valhalla-compatible trace-matching endpoint."""
    if not points:
        raise ValueError("at least one point is required")
    return {
        "shape": [{"lat": lat, "lon": lon} for lat, lon in points],
        "costing": "auto",
        "shape_match": "map_snap",
    }


def _within(value, limit: float) -> bool:
    """A JSON number (not a bool, a string, null or a container) in
    [-limit, limit]; NaN and infinities compare outside."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -limit <= value <= limit


def parse_external_response(document) -> MatchResult:
    """Extract the matched point list from a service response document.

    The service may densify, so the point count is whatever it returned.
    A point whose lat or lon is not a finite number in range is a
    MatchServiceError naming its index. ``edge_index`` indexes the reply's
    own edge list, not RoadGraph edges, so it is not read: no edge_ids.
    """
    if not isinstance(document, dict):
        raise MatchServiceError(f"malformed response: expected an object, got {type(document).__name__}")
    if document.get("status") == "error" or "error" in document:
        detail = document.get("error") or document.get("status_message") or "unspecified error"
        raise MatchServiceError(f"service error: {detail}")
    matched = document.get("matched_points")
    if not isinstance(matched, list):
        raise MatchServiceError("malformed response: missing matched_points list")
    if not matched:
        raise UnmatchedGapError(0, "service matched no points")
    points = []
    for i, entry in enumerate(matched):
        lat = entry.get("lat") if isinstance(entry, dict) else None
        lon = entry.get("lon") if isinstance(entry, dict) else None
        if not (_within(lat, 90) and _within(lon, 180)):
            raise MatchServiceError(f"malformed matched point at index {i}")
        points.append((float(lat), float(lon)))
    return MatchResult(matched_points=tuple(points))


class ExternalMatcher:
    """HTTP client for a trace-matching service: each ``match`` POSTs one
    JSON request on its own connection, so concurrent calls are safe.

    Only a 200 reply with a JSON body is parsed; a transport failure, any
    other status, or a body that is not JSON is a MatchServiceError.
    """

    def __init__(self, service_url: str):
        self.service_url = service_url

    def match(self, points: Sequence[LatLon]) -> MatchResult:
        request = urllib.request.Request(
            self.service_url,
            data=dumps(build_external_request(points)).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                status, body = reply.status, reply.read()
        except urllib.error.HTTPError as exc:  # an OSError, so caught first
            exc.close()
            raise MatchServiceError(f"service returned HTTP {exc.code}") from exc
        except (OSError, HTTPException) as exc:
            raise MatchServiceError(f"service unreachable: {exc}") from exc
        if status != 200:
            raise MatchServiceError(f"service returned HTTP {status}")
        try:
            document = loads(body)
        except ValueError as exc:
            raise MatchServiceError("service returned a non-JSON body") from exc
        return parse_external_response(document)


class GraphMatcher:
    """Viterbi matcher bound to a loaded road graph."""

    def __init__(self, graph: RoadGraph, config: MatcherConfig | None = None):
        self.graph = graph
        self.config = config or MatcherConfig()

    def match(self, points: Sequence[LatLon]) -> MatchResult:
        return viterbi_match(self.graph, points, self.config)
