"""Grid search over the inference parameters.

Every combination is scored by running the full pipeline on each track and
comparing against its ground truth; a failed run scores 0 for that cell
(extreme parameters legitimately break inference, and that is signal).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

from .canlog import CanFrame
from .geokin import VehiclePose, VehicleSpec
from .inference import InferenceParams, infer_path
from .mapmatch import GraphMatcher, MatcherConfig
from .reveng import AngleDecoder
from .roadgraph import RoadGraph
from .trackeval import Track, compare_tracks

DEFAULT_GRIDS: dict[str, tuple] = {
    "t_window": (0.05, 0.1, 0.5, 1.0),
    "speed_max": (40.0, 50.0, 60.0, 70.0, 80.0),
    "steer_max": (30.0, 35.0, 40.0, 45.0, 50.0),
    "max_interpolation_points": (10, 20, 30, 40, 50),
}

_PARAM_ORDER = tuple(f.name for f in fields(InferenceParams))


@dataclass(frozen=True)
class TuneTrack:
    name: str
    frames: tuple[CanFrame, ...]
    truth: Track
    start: VehiclePose
    decoder: AngleDecoder
    vehicle: VehicleSpec


@dataclass(frozen=True)
class GridRow:
    params: InferenceParams
    mean_accuracy: float
    per_track: tuple[float, ...]


def evaluate_track(
    track: TuneTrack,
    params: InferenceParams,
    graph: RoadGraph,
    config: MatcherConfig | None = None,
    match_epsilon: float = 10.0,
) -> float:
    """Accuracy of one track under one parameter set; 0.0 on any failure."""
    try:
        matcher = GraphMatcher(graph, config or MatcherConfig())
        result = infer_path(
            list(track.frames), track.decoder, track.vehicle, track.start, params, matcher
        )
        return compare_tracks(result.track, track.truth, match_epsilon=match_epsilon).accuracy
    except Exception:
        return 0.0


def _evaluate_combo(args) -> GridRow:
    params, tracks, graph, config, epsilon = args
    scores = tuple(evaluate_track(t, params, graph, config, epsilon) for t in tracks)
    mean = sum(scores) / len(scores)
    return GridRow(params=params, mean_accuracy=mean, per_track=scores)


def _param_tuple(params: InferenceParams) -> tuple:
    return tuple(getattr(params, name) for name in _PARAM_ORDER)


def grid_search(
    tracks: Sequence[TuneTrack],
    graph: RoadGraph,
    grids: dict[str, Sequence] | None = None,
    config: MatcherConfig | None = None,
    match_epsilon: float = 10.0,
    workers: int = 1,
) -> list[GridRow]:
    """Evaluate every grid combination on every track.

    Returns one row per combination sorted by descending mean accuracy
    (ties by parameter values); the result is independent of evaluation
    order, so parallel runs reproduce the serial table.
    """
    if not tracks:
        raise ValueError("at least one track is required")
    grids = dict(DEFAULT_GRIDS, **(grids or {}))
    combos = [
        InferenceParams(**dict(zip(_PARAM_ORDER, values)))
        for values in itertools.product(*(grids[k] for k in _PARAM_ORDER))
    ]
    jobs = [(params, tuple(tracks), graph, config, match_epsilon) for params in combos]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_combo, jobs, chunksize=max(1, len(jobs) // (workers * 4))))
    else:
        rows = [_evaluate_combo(job) for job in jobs]
    rows.sort(key=lambda r: (-r.mean_accuracy, _param_tuple(r.params)))
    return rows


def find_row(rows: Sequence[GridRow], **param_values) -> GridRow | None:
    for row in rows:
        if all(getattr(row.params, k) == v for k, v in param_values.items()):
            return row
    return None


def marginal_curves(
    rows: Sequence[GridRow], grids: dict[str, Sequence] | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Per-parameter accuracy curves, fixing the other three at the values of
    the best combination found."""
    grids = dict(DEFAULT_GRIDS, **(grids or {}))
    best = rows[0]
    curves: dict[str, list[tuple[float, float]]] = {}
    for name in _PARAM_ORDER:
        fixed = {k: getattr(best.params, k) for k in _PARAM_ORDER if k != name}
        curve = []
        for value in grids[name]:
            row = find_row(rows, **fixed, **{name: value})
            if row is not None:
                curve.append((value, row.mean_accuracy))
        curves[name] = curve
    return curves


def rows_to_csv(rows: Sequence[GridRow]) -> str:
    lines = [",".join(_PARAM_ORDER + ("mean_accuracy",))]
    for r in rows:
        values = ",".join(str(v) for v in _param_tuple(r.params))
        lines.append(f"{values},{r.mean_accuracy:.4f}")
    return "\n".join(lines) + "\n"
