"""Grid search over the inference parameters.

Every combination is scored by running the full pipeline on each track and
comparing against its ground truth; a failed run scores 0 for that cell
(extreme parameters legitimately break inference, and that is signal).

Most cells repeat another cell's run: where a clamp never binds, a
different ``speed_max`` or ``steer_max`` gives the same GPX bytes. Each
track is decoded once per search (inference.decode_log) and cut into
windows once per ``t_window``, and a cell is keyed by exactly what dead
reckoning consumes: ``(t_window, max_interpolation_points,
tuple(window_controls(windows, params)))``. The pipeline runs once per
distinct (track, key) and that score is shared by every cell with the
key, so the rows, and the CSV, are those of running every cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Sequence

from .canlog import CanFrame
from .geokin import VehiclePose, VehicleSpec
from .inference import InferenceParams, decode_log, infer_path, window_aggregates, window_controls
from .mapmatch import GraphMatcher
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


def evaluate_track(track: TuneTrack, params: InferenceParams, graph: RoadGraph) -> float:
    """Accuracy of one track under one parameter set; 0.0 on any failure."""
    try:
        result = infer_path(
            list(track.frames), track.decoder, track.vehicle, track.start, params, GraphMatcher(graph)
        )
        return compare_tracks(result.track, track.truth).accuracy
    except Exception:
        return 0.0


def _param_tuple(params: InferenceParams) -> tuple:
    return tuple(getattr(params, name) for name in _PARAM_ORDER)


def resolve_grids(grids: dict[str, Sequence] | None) -> dict[str, Sequence]:
    """The default grids with `grids` laid over them; an unknown parameter
    name, a value that is not a non-empty list of numbers, or a number
    that ``InferenceParams`` rejects for its parameter, is a ValueError."""
    grids = grids or {}
    for name, values in grids.items():
        if name not in DEFAULT_GRIDS:
            raise ValueError(f"unknown parameter {name!r}; expected one of {', '.join(_PARAM_ORDER)}")
        if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"{name!r} must be a list of numbers")
        if len(values) == 0:
            raise ValueError(f"parameter {name!r} has no values")
        for value in values:
            try:
                InferenceParams(**{name: value})
            except ValueError as exc:
                raise ValueError(f"{name!r}: {exc}") from None
    return dict(DEFAULT_GRIDS, **grids)


def _run_key(track: TuneTrack, t_windows: Sequence[float]):
    """The key of a run of `track`, as a function of its parameters.

    A run reads its parameters only as the window length, the batch size
    and the window controls; parameters equal in all three make the same
    run, to the byte. A track that ``decode_log`` rejects fails the same
    way in every run, before any parameter is read, so all its runs share
    one key. A key that cannot be computed (the computation raised) is a
    new object, equal to no other key. The track is cut into windows once
    per length in `t_windows`, and its samples are not kept: the search
    runs the pipeline holding only the windows.
    """
    try:
        samples, t0, t_end = decode_log(track.frames, track.decoder)
    except Exception:
        return lambda params: None
    windows_by_length: dict[float, list] = {}
    for t_window in set(t_windows):
        try:
            windows_by_length[t_window] = window_aggregates(samples, t0, t_end, t_window)
        except Exception:
            pass  # the KeyError below gives each of its cells a key of its own

    def key(params: InferenceParams):
        try:
            controls = tuple(window_controls(windows_by_length[params.t_window], params))
            return params.t_window, params.max_interpolation_points, controls
        except Exception:
            return object()

    return key


def grid_search(
    tracks: Sequence[TuneTrack],
    graph: RoadGraph,
    grids: dict[str, Sequence] | None = None,
    workers: int = 1,
) -> list[GridRow]:
    """Evaluate every grid combination on every track.

    Returns one row per combination sorted by descending mean accuracy
    (ties by parameter values). A cell that repeats a run shares its
    score (see the module docstring).
    """
    if not tracks:
        raise ValueError("at least one track is required")
    # perfbench/run.py still passes workers=1; the parameter goes when it stops
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    grids = resolve_grids(grids)
    run_keys = [_run_key(track, grids["t_window"]) for track in tracks]
    scores: dict[tuple, float] = {}  # by (track index, run key)
    rows = []
    for values in itertools.product(*(grids[k] for k in _PARAM_ORDER)):
        params = InferenceParams(**dict(zip(_PARAM_ORDER, values)))
        per_track = []
        for t, track in enumerate(tracks):
            run = t, run_keys[t](params)
            score = scores.get(run)
            if score is None:
                score = scores[run] = evaluate_track(track, params, graph)
            per_track.append(score)
        rows.append(GridRow(params=params, mean_accuracy=sum(per_track) / len(per_track), per_track=tuple(per_track)))
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
    grids = resolve_grids(grids)
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
