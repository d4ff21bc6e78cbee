import hashlib
import itertools
from dataclasses import fields, replace

import pytest

from canpath import inference, tuner
from canpath.geokin import VehiclePose
from canpath.inference import (
    MAX_LOG_SPAN_S,
    CutLog,
    InferenceError,
    InferenceParams,
    decode_log,
    infer_path,
    window_aggregates,
)
from canpath.mapmatch import GraphMatcher
from canpath.reveng import encode_angle_frame
from canpath.scenarios import (
    DEFAULT_DECODER,
    DEFAULT_VEHICLE,
    PathBuilder,
    assemble_graph,
    merge_graphs,
    tuning_suite,
    turn_left_90,
)
from canpath.synthgen import SimScenario, simulate
from canpath.tuner import (
    DEFAULT_GRIDS,
    GridRow,
    TuneTrack,
    evaluate_track,
    find_row,
    grid_search,
    marginal_curves,
    rows_to_csv,
)


def _track_for(scenario):
    sim = simulate(scenario)
    return TuneTrack(
        name=scenario.name,
        frames=tuple(sim.frames),
        truth=sim.truth,
        start=sim.start,
        decoder=scenario.decoder,
        vehicle=scenario.vehicle,
    )


SMALL_GRIDS = {
    "t_window": (0.1, 1.0),
    "speed_max": (50.0,),
    "steer_max": (35.0,),
    "max_interpolation_points": (10, 30),
}


@pytest.fixture(scope="module")
def one_track():
    scenario = turn_left_90()
    return _track_for(scenario), scenario.graph


def test_single_combination_single_track(one_track):
    track, graph = one_track
    rows = grid_search(
        [track],
        graph,
        grids={
            "t_window": (0.1,),
            "speed_max": (50.0,),
            "steer_max": (35.0,),
            "max_interpolation_points": (30,),
        },
    )
    assert len(rows) == 1
    assert rows[0].params == InferenceParams()
    assert rows[0].mean_accuracy > 0.9


def test_row_count_equals_grid_product(one_track):
    track, graph = one_track
    rows = grid_search([track], graph, grids=SMALL_GRIDS)
    assert len(rows) == 2 * 1 * 1 * 2
    assert rows == sorted(rows, key=lambda r: -r.mean_accuracy) or all(
        rows[i].mean_accuracy >= rows[i + 1].mean_accuracy for i in range(len(rows) - 1)
    )


def test_default_grids_shape():
    sizes = [len(v) for v in DEFAULT_GRIDS.values()]
    assert sorted(sizes) == [4, 5, 5, 5]
    product = 1
    for s in sizes:
        product *= s
    assert product == 500


def test_failed_track_scores_zero(one_track):
    track, graph = one_track
    broken = TuneTrack(
        name="no-steering",
        frames=tuple(f for f in track.frames if f.id != track.decoder.id),
        truth=track.truth,
        start=track.start,
        decoder=track.decoder,
        vehicle=track.vehicle,
    )
    rows = grid_search(
        [track, broken],
        graph,
        grids={
            "t_window": (0.1,),
            "speed_max": (50.0,),
            "steer_max": (35.0,),
            "max_interpolation_points": (30,),
        },
    )
    assert rows[0].per_track[1] == 0.0
    assert rows[0].per_track[0] > 0.9
    assert rows[0].mean_accuracy == pytest.approx(rows[0].per_track[0] / 2)
    assert rows[0].errors == (None, InferenceError)


def test_track_with_a_stray_timestamp_scores_zero_once(one_track, monkeypatch):
    track, graph = one_track
    # one steering frame a day and a second after the drive; at 60 s
    # windows the log would still be only 1,441 windows long
    stray_frame = encode_angle_frame(track.decoder, track.frames[-1].timestamp + MAX_LOG_SPAN_S + 1.0, 0.0)
    stray = replace(track, name="stray", frames=track.frames + (stray_frame,))
    raised = []

    def recording_infer_path(*args, **kwargs):
        try:
            return infer_path(*args, **kwargs)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(tuner, "infer_path", recording_infer_path)
    grids = {"t_window": (60.0,), "speed_max": (40.0, 50.0), "steer_max": (35.0,), "max_interpolation_points": (30,)}
    rows = grid_search([track, stray], graph, grids=grids)
    assert raised == [InferenceError]
    assert [row.per_track[1] for row in rows] == [0.0, 0.0]
    assert [row.errors for row in rows] == [(None, InferenceError)] * 2


def test_find_row_and_marginals(one_track):
    track, graph = one_track
    rows = grid_search([track], graph, grids=SMALL_GRIDS)
    row = find_row(rows, t_window=1.0, max_interpolation_points=10)
    assert row is not None and row.params.t_window == 1.0
    curves = marginal_curves(rows, SMALL_GRIDS)
    assert [v for v, _ in curves["t_window"]] == [0.1, 1.0]
    assert len(curves["max_interpolation_points"]) == 2


def test_csv_shape(one_track):
    track, graph = one_track
    rows = grid_search([track], graph, grids=SMALL_GRIDS)
    lines = rows_to_csv(rows).strip().splitlines()
    assert lines[0] == "t_window,speed_max,steer_max,max_interpolation_points,mean_accuracy"
    assert len(lines) == 1 + len(rows)
    assert all(line.count(",") == 4 for line in lines[1:])


def test_grid_search_requires_tracks(one_track):
    _track, graph = one_track
    with pytest.raises(ValueError):
        grid_search([], graph)


# -- shared runs ----------------------------------------------------------------


def binding_scenario() -> SimScenario:
    """A track where both clamps bind: a 40 degree curve driven at 56 km/h,
    then a 4 m turn at 12 km/h, which needs atan(2.6 / 4) = 33 degrees of
    steering."""
    path = (
        PathBuilder(heading=0.0)
        .straight(150)
        .arc(150.0, 40.0)
        .straight(100)
        .arc(4.0, -120.0, spacing=0.5)
        .straight(60)
        .take()
    )
    graph = assemble_graph({401: path}, origin=(44.8000, 10.9200), id_base=400)
    return SimScenario(
        name="binding",
        graph=graph,
        route=[401],
        speed_profile=[(0.0, 56.0), (280.0, 12.0)],
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
    )


# speed_max and steer_max on both sides of the binding track's peaks, far
# enough below them that the low values change some of its scores; the
# compact tracks peak at 25 km/h and about 15 degrees, below both
CLAMP_GRIDS = {
    "t_window": (0.1, 0.5),
    "speed_max": (40.0, 70.0),
    "steer_max": (20.0, 40.0),
    "max_interpolation_points": (10, 30),
}


@pytest.fixture(scope="module")
def clamp_suite():
    suite = tuning_suite() + [binding_scenario()]
    graph = merge_graphs([sc.graph for sc in suite])
    return [_track_for(sc) for sc in suite], graph


def _evaluate_every_cell(tracks, graph, grids):
    """The oracle: the grid search run cell by cell, every cell running the
    pipeline on every track."""
    grids = dict(DEFAULT_GRIDS, **grids)
    names = [f.name for f in fields(InferenceParams)]
    rows = []
    for values in itertools.product(*(grids[name] for name in names)):
        params = InferenceParams(**dict(zip(names, values)))
        scores, errors = zip(*(evaluate_track(track, params, graph) for track in tracks))
        rows.append(GridRow(params=params, mean_accuracy=sum(scores) / len(scores), per_track=scores, errors=errors))
    rows.sort(key=lambda r: (-r.mean_accuracy, tuple(getattr(r.params, name) for name in names)))
    return rows


def test_shared_runs_equal_the_every_cell_oracle(clamp_suite):
    tracks, graph = clamp_suite
    # a track with frames but no steering frame, which decode_log rejects
    left = tracks[0]
    steerless = replace(left, name="steerless", frames=tuple(f for f in left.frames if f.id != left.decoder.id))
    tracks = tracks + [steerless]
    oracle = _evaluate_every_cell(tracks, graph, CLAMP_GRIDS)
    assert len(oracle) == 16
    assert grid_search(tracks, graph, grids=CLAMP_GRIDS) == oracle


def test_a_repeated_window_length_equals_the_every_cell_oracle(clamp_suite):
    tracks, graph = clamp_suite
    left = tracks[0]
    steerless = replace(left, name="steerless", frames=tuple(f for f in left.frames if f.id != left.decoder.id))
    tracks = tracks + [steerless]
    # each run of cells with one t_window is cut and keyed on its own;
    # coming back to 0.1 cuts and runs its cells again, to the same scores
    grids = dict(CLAMP_GRIDS, t_window=(0.1, 0.5, 0.1))
    oracle = _evaluate_every_cell(tracks, graph, grids)
    assert len(oracle) == 24
    assert grid_search(tracks, graph, grids=grids) == oracle


def test_a_refused_window_length_equals_the_every_cell_oracle(clamp_suite, monkeypatch):
    tracks, graph = clamp_suite
    # 1e-7 s windows of any of these logs are more than MAX_WINDOWS, so
    # each track's cut at that length raises
    grids = dict(CLAMP_GRIDS, t_window=(1e-7, 0.1))
    oracle = _evaluate_every_cell(tracks, graph, grids)
    refused = []

    def counting_infer_path(frames, decoder, vehicle, start, params, *args, **kwargs):
        if params.t_window == 1e-7:
            refused.append(start)
        return infer_path(frames, decoder, vehicle, start, params, *args, **kwargs)

    monkeypatch.setattr(tuner, "infer_path", counting_infer_path)
    rows = grid_search(tracks, graph, grids=grids)
    assert rows == oracle
    # every cell of the refused length shares one run per track, which fails
    assert refused == [track.start for track in tracks]
    assert all(row.per_track == (0.0,) * len(tracks) for row in rows if row.params.t_window == 1e-7)
    assert all(row.errors == (InferenceError,) * len(tracks) for row in rows if row.params.t_window == 1e-7)


def test_grid_search_decodes_each_track_once(clamp_suite, monkeypatch):
    tracks, graph = clamp_suite
    decoded = []
    decode_bodies = inference.decode_bodies

    def counting_decode_bodies(log, decoder):
        decoded.append(len(log))
        return decode_bodies(log, decoder)

    monkeypatch.setattr(inference, "decode_bodies", counting_decode_bodies)
    grid_search(tracks, graph, grids=CLAMP_GRIDS)
    assert sorted(decoded) == sorted(len(track.frames) for track in tracks)


def _cut(track, t_window):
    return CutLog(t_window, window_aggregates(decode_log(track.frames, track.decoder), t_window))


def test_a_cut_log_infers_the_same_bytes_as_its_frames(clamp_suite):
    tracks, graph = clamp_suite
    for track in tracks:
        for t_window in CLAMP_GRIDS["t_window"]:
            log = _cut(track, t_window)
            gpx = []
            # both clamps binding on the binding track, and neither
            for speed_max, steer_max in [(40.0, 20.0), (70.0, 40.0)]:
                params = InferenceParams(t_window=t_window, speed_max=speed_max, steer_max=steer_max)
                run = [
                    infer_path(source, track.decoder, track.vehicle, track.start, params, GraphMatcher(graph)).gpx
                    for source in (log, track.frames)
                ]
                assert run[0] == run[1], (track.name, params)
                gpx.append(run[0])
            if track is tracks[-1]:
                assert gpx[0] != gpx[1]


def test_a_cut_log_without_the_window_length_is_a_value_error(clamp_suite):
    tracks, graph = clamp_suite
    track = tracks[0]
    log = _cut(track, 0.1)
    with pytest.raises(ValueError, match=r"not cut into 0\.5 s windows"):
        infer_path(log, track.decoder, track.vehicle, track.start, InferenceParams(t_window=0.5), GraphMatcher(graph))


def test_low_clamps_change_the_binding_track(clamp_suite):
    tracks, graph = clamp_suite
    binding = tracks[-1]

    def gpx(**params):
        result = infer_path(
            list(binding.frames), binding.decoder, binding.vehicle, binding.start,
            InferenceParams(**params), GraphMatcher(graph),
        )
        return result.gpx

    high = gpx(speed_max=70.0, steer_max=40.0)
    assert gpx(speed_max=40.0, steer_max=40.0) != high
    assert gpx(speed_max=70.0, steer_max=20.0) != high
    assert gpx(speed_max=70.0, steer_max=30.0) != high
    # both clamps binding, pinned against changes to any stage
    low = gpx(speed_max=40.0, steer_max=30.0)
    assert hashlib.sha256(low.encode()).hexdigest() == (
        "9256e85bc1ce0859324ec47f230a51f62a76614dae9c0bc0e2d7150a8fc895fd"
    )


def test_one_run_per_distinct_key(clamp_suite, monkeypatch):
    tracks, graph = clamp_suite
    empty = TuneTrack("empty", (), tracks[0].truth, VehiclePose(0.0, 0.0, 0.0), DEFAULT_DECODER, DEFAULT_VEHICLE)
    calls = []

    def counting_infer_path(frames, decoder, vehicle, start, *args, **kwargs):
        calls.append(start)
        return infer_path(frames, decoder, vehicle, start, *args, **kwargs)

    monkeypatch.setattr(tuner, "infer_path", counting_infer_path)
    rows = grid_search(tracks + [empty], graph, grids=CLAMP_GRIDS, workers=1)
    cells = len(rows)
    runs = len(CLAMP_GRIDS["t_window"]) * len(CLAMP_GRIDS["max_interpolation_points"])
    compact = tracks[:-1]
    assert [calls.count(t.start) for t in compact] == [runs] * len(compact)
    # both clamps bind on the binding track, each window its own way, so
    # every cell is a run of its own
    assert calls.count(tracks[-1].start) == cells
    # a track that decode_log rejects (no frames) fails the same way in
    # every cell, so it runs once
    assert calls.count(empty.start) == 1
    assert all(row.per_track[-1] == 0.0 and row.errors[-1] is InferenceError for row in rows)


@pytest.mark.parametrize("workers", [0, 2, 8])
def test_workers_other_than_one_are_rejected(one_track, workers):
    track, graph = one_track
    with pytest.raises(ValueError, match="workers must be 1"):
        grid_search([track], graph, grids=SMALL_GRIDS, workers=workers)


@pytest.mark.parametrize(
    "grids,message",
    [
        ({"speed_mx": (50.0,)}, "unknown parameter 'speed_mx'"),
        ({"t_window": ()}, "'t_window' has no values"),
        ({"t_window": ["a"]}, "'t_window' must be a list of numbers"),
        ({"speed_max": [50.0, True]}, "'speed_max' must be a list of numbers"),
        ({"steer_max": 35.0}, "'steer_max' must be a list of numbers"),
    ],
)
def test_bad_grids_are_rejected(one_track, grids, message):
    track, graph = one_track
    with pytest.raises(ValueError, match=message):
        grid_search([track], graph, grids=grids)
