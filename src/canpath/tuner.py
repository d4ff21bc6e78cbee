"""Grid search over the inference parameters.

Every combination is scored by running the full pipeline on each track and
comparing against its ground truth; a failed run scores 0 for that cell
(extreme parameters legitimately break inference, and that is signal).
Each row keeps, beside a failed run's 0, the type of the exception that
ended it, so a regression that raises is not read as a poor score.

Most cells repeat another cell's run: where a clamp never binds, a
different ``speed_max`` or ``steer_max`` gives the same GPX bytes. The
search goes one track at a time. Each track is decoded once per search
(inference.decode_log) and cut into windows (an inference.CutLog) once
per run of cells with the same ``t_window``. Among those cells, a cell is
keyed by the rest of what dead reckoning consumes:
``(max_interpolation_points, tuple(window_controls(windows, params)))``.
The pipeline runs once per distinct key, on those cut windows, and that
score is shared by every cell with the key, so the rows, and the CSV, are
those of running every cell.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, fields
from operator import attrgetter
from typing import Sequence

from .canlog import CanFrame
from .geokin import VehiclePose, VehicleSpec
from .inference import CutLog, InferenceParams, decode_log, infer_path, window_aggregates, window_controls
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
    frames: Sequence[CanFrame]
    truth: Track
    start: VehiclePose
    decoder: AngleDecoder
    vehicle: VehicleSpec


@dataclass(frozen=True)
class GridRow:
    params: InferenceParams
    mean_accuracy: float
    per_track: tuple[float, ...]
    # per track, the type of the exception behind a 0.0 score, or None for a run that finished
    errors: tuple[type[Exception] | None, ...]


# (accuracy, None) of a run that finished; (0.0, the exception's type) of one that raised
Score = tuple[float, type[Exception] | None]


def evaluate_track(track: TuneTrack, params: InferenceParams, graph: RoadGraph, log: CutLog | None = None) -> Score:
    """The Score of one track under one parameter set, run on `log` (the
    track's CutLog at ``params.t_window``) if given, else on its frames;
    any failure scores 0.0."""
    source = track.frames if log is None else log
    try:
        result = infer_path(source, track.decoder, track.vehicle, track.start, params, GraphMatcher(graph))
        return compare_tracks(result.track, track.truth).accuracy, None
    except Exception as exc:
        return 0.0, type(exc)


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


def _track_scores(track: TuneTrack, graph: RoadGraph, cells: Sequence[InferenceParams]) -> list[Score]:
    """The track's score in each of `cells`, running the pipeline once per
    distinct run (see the module docstring). A log that ``decode_log``
    rejects, or a cut that raises, fails every cell it covers the same way,
    before any other parameter is read: those cells share one run on the
    frames, which raises what ``infer_path`` raises.
    """
    try:
        signals = decode_log(track.frames, track.decoder)
    except Exception:
        return [evaluate_track(track, cells[0], graph)] * len(cells)
    scores = []
    for t_window, same_length in itertools.groupby(cells, key=attrgetter("t_window")):
        same_length = list(same_length)
        try:
            log = CutLog(t_window, window_aggregates(signals, t_window))
        except Exception:
            scores += [evaluate_track(track, same_length[0], graph)] * len(same_length)
            continue
        runs: dict[tuple, Score] = {}
        for params in same_length:
            key = params.max_interpolation_points, tuple(window_controls(log.windows, params))
            if key not in runs:
                runs[key] = evaluate_track(track, params, graph, log)
            scores.append(runs[key])
    return scores


def grid_search(
    tracks: Sequence[TuneTrack],
    graph: RoadGraph,
    grids: dict[str, Sequence] | None = None,
    workers: int = 1,
) -> list[GridRow]:
    """Evaluate every grid combination on every track.

    Returns one row per combination sorted by descending mean accuracy
    (ties by parameter values). A cell that repeats a run of its track
    shares its score, and the type of the exception behind a failed run
    (see the module docstring).
    """
    if not tracks:
        raise ValueError("at least one track is required")
    # perfbench/run.py still passes workers=1; the parameter goes when it stops
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    grids = resolve_grids(grids)
    cells = [InferenceParams(*values) for values in itertools.product(*(grids[k] for k in _PARAM_ORDER))]
    by_track = [_track_scores(track, graph, cells) for track in tracks]
    rows = []
    for params, results in zip(cells, zip(*by_track)):
        scores, errors = zip(*results)
        rows.append(GridRow(params, sum(scores) / len(scores), scores, errors))
    rows.sort(key=lambda r: (-r.mean_accuracy, astuple(r.params)))
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
        values = ",".join(str(v) for v in astuple(r.params))
        lines.append(f"{values},{r.mean_accuracy:.4f}")
    return "\n".join(lines) + "\n"
