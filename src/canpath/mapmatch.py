"""Snap a coordinate sequence onto the road network.

A matcher is any object with ``match(points) -> MatchResult``; inference
and track comparison take one and call nothing else. Two ship here:
GraphMatcher, a hidden-Markov matcher decoded with the Viterbi algorithm
over a local RoadGraph, and ExternalMatcher, an HTTP client for a
Valhalla-style trace-matching service. Emissions penalize perpendicular
distance to a candidate edge; transitions penalize disagreement between
the great-circle hop and the along-road distance.
"""

from __future__ import annotations

import math
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.client import HTTPException
from json import dumps, loads
from typing import Sequence

from .geokin import LatLon, geodesic_inverse
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
        for name in ("emission_sigma", "transition_beta", "candidate_radius", "max_candidates"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MatchResult:
    matched_points: tuple[LatLon, ...]
    edge_ids: tuple[int, ...] | None = None


def emission_logweight(perp_m: float, sigma: float) -> float:
    return -0.5 * (perp_m / sigma) ** 2


def transition_logweight(gc_m: float, route_m: float, beta: float) -> float:
    if math.isinf(route_m):
        return -math.inf
    return -abs(gc_m - route_m) / beta


def candidates_for_point(
    graph: RoadGraph, lat: float, lon: float, config: MatcherConfig
) -> list[Candidate]:
    """Nearest candidate edges, returned in ascending edge-id order so tied
    Viterbi scores resolve toward the smaller edge id."""
    hits = graph.nearest_edges(lat, lon, config.candidate_radius, config.max_candidates)
    return sorted(hits, key=lambda h: h.edge_id)


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
        gc = geodesic_inverse(points[t - 1], points[t])[0]
        route = route_distance(graph, chosen[t - 1].point, chosen[t].point)
        total += transition_logweight(gc, route, config.transition_beta)
        total += emission_logweight(chosen[t].perp_m, config.emission_sigma)
    return total


def viterbi_match(graph: RoadGraph, points: Sequence[LatLon], config: MatcherConfig) -> MatchResult:
    """Maximum-weight candidate sequence via dynamic programming.

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
        gc = geodesic_inverse(points[t - 1], points[t])[0]
        new_scores = []
        back = []
        for cand in candidates[t]:
            best = -math.inf
            best_prev = 0
            for prev_idx, prev in enumerate(candidates[t - 1]):
                route = route_distance(graph, prev.point, cand.point)
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
        matched_points=tuple((c.point.lat, c.point.lon) for c in chosen),
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


def parse_external_response(document) -> MatchResult:
    """Extract the matched point list from a service response document.

    The service may densify, so the point count is whatever it returned.
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
    edge_ids = []
    for i, entry in enumerate(matched):
        if not isinstance(entry, dict) or "lat" not in entry or "lon" not in entry:
            raise MatchServiceError(f"malformed matched point at index {i}")
        points.append((float(entry["lat"]), float(entry["lon"])))
        edge_ids.append(entry.get("edge_index"))
    have_edges = all(e is not None for e in edge_ids)
    return MatchResult(
        matched_points=tuple(points),
        edge_ids=tuple(edge_ids) if have_edges else None,
    )


@dataclass(frozen=True)
class _Reply:
    status_code: int
    body: bytes

    def json(self):
        return loads(self.body)


class _UrllibSession:
    """Default transport: one standard-library POST, on its own connection,
    per call."""

    def post(self, url: str, json: dict, timeout: float) -> _Reply:
        request = urllib.request.Request(
            url, data=dumps(json).encode("utf-8"), headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                return _Reply(reply.status, reply.read())
        except urllib.error.HTTPError as exc:
            exc.close()
            return _Reply(exc.code, b"")


class ExternalMatcher:
    """HTTP client for a trace-matching service.

    ``session`` is anything with ``post(url, json=, timeout=)`` returning an
    object with ``status_code`` and ``json()``. The default opens one
    connection per request, so concurrent calls are safe.
    """

    def __init__(self, service_url: str, session=None):
        self.service_url = service_url
        self._session = session if session is not None else _UrllibSession()

    def match(self, points: Sequence[LatLon]) -> MatchResult:
        request = build_external_request(points)
        try:
            response = self._session.post(self.service_url, json=request, timeout=30)
        except (OSError, HTTPException) as exc:
            raise MatchServiceError(f"service unreachable: {exc}") from exc
        if response.status_code != 200:
            raise MatchServiceError(f"service returned HTTP {response.status_code}")
        try:
            document = response.json()
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
