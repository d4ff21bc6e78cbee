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
``workers`` processes share the distinct runs, never more processes than
there are runs.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
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


def _first_same_run(track: TuneTrack, combos: Sequence[InferenceParams]) -> list[int]:
    """Per combination, the first combination whose run on `track` is the
    same run.

    A run reads its parameters only as the window length, the batch size
    and the window controls; combinations equal in all three make the same
    run, to the byte. A track that ``decode_log`` rejects fails the same
    way in every run, before any parameter is read, so every combination
    shares the first one's run. A combination whose key cannot be computed
    (the computation raised) is its own first.
    """
    try:
        samples, t0, t_end = decode_log(track.frames, track.decoder)
    except Exception:
        return [0] * len(combos)
    windows_by_length: dict[float, list] = {}
    first_by_key: dict[tuple, int] = {}
    firsts = []
    for c, params in enumerate(combos):
        try:
            windows = windows_by_length.get(params.t_window)
            if windows is None:
                windows = window_aggregates(samples, t0, t_end, params.t_window)
                windows_by_length[params.t_window] = windows
            controls = tuple(window_controls(windows, params))
            key = (params.t_window, params.max_interpolation_points, controls)
        except Exception:
            firsts.append(c)
            continue
        firsts.append(first_by_key.setdefault(key, c))
    return firsts


def grid_search(
    tracks: Sequence[TuneTrack],
    graph: RoadGraph,
    grids: dict[str, Sequence] | None = None,
    workers: int = 1,
) -> list[GridRow]:
    """Evaluate every grid combination on every track.

    Returns one row per combination sorted by descending mean accuracy
    (ties by parameter values); the result is independent of evaluation
    order, so parallel runs reproduce the serial table. Cells that repeat
    a run share its score (see the module docstring).
    """
    if not tracks:
        raise ValueError("at least one track is required")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    grids = resolve_grids(grids)
    combos = [
        InferenceParams(**dict(zip(_PARAM_ORDER, values)))
        for values in itertools.product(*(grids[k] for k in _PARAM_ORDER))
    ]
    firsts = [_first_same_run(track, combos) for track in tracks]
    # one job per distinct (track, run), indexed by (track, first combination)
    job_index: dict[tuple[int, int], int] = {}
    jobs: list[tuple[TuneTrack, InferenceParams]] = []
    for c, params in enumerate(combos):
        for t, track in enumerate(tracks):
            if firsts[t][c] == c:
                job_index[t, c] = len(jobs)
                jobs.append((track, params))

    n = min(workers, len(jobs))
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            scores = list(pool.map(
                evaluate_track, [t for t, _p in jobs], [p for _t, p in jobs], itertools.repeat(graph),
                chunksize=max(1, len(jobs) // (n * 4)),
            ))
    else:
        scores = [evaluate_track(t, p, graph) for t, p in jobs]

    rows = []
    for c, params in enumerate(combos):
        per_track = tuple(scores[job_index[t, firsts[t][c]]] for t in range(len(tracks)))
        rows.append(GridRow(params=params, mean_accuracy=sum(per_track) / len(per_track), per_track=per_track))
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
