"""The two JSON inputs, a tune manifest and a scenario file, with one value
swapped for a value of the wrong JSON type, or one key added that no rule
knows: the command either runs or ends in one ``error:`` line, never a
traceback, and an added key is always that error, naming the key.

Only types are drawn, never magnitudes: ``simulate`` runs
``route_length * swa_rate / speed`` steps, so a huge rate or a tiny
profile speed would be a memory test, not a type test.
"""

import contextlib
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from canpath import tuner
from canpath.canlog import FrameLog, read_log
from canpath.cli import main
from canpath.jsondocs import load_manifest
from canpath.scenarios import turn_left_90

SHEET = "canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, 0.01, offset, 2.60\n"

# one value per JSON type; an empty object is left out because an empty
# "grids" is the valid default grid, 500 combinations
_BY_TYPE = {
    "null": None,
    "bool": True,
    "string": "x",
    "number": 5,
    "list": ["x"],
    "empty list": [],
    "object": {"x": 1},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scenario file and a one-combination tune manifest on its drive,
    both naming the car through a decoder file, as valid inputs."""
    base = tmp_path_factory.mktemp("json-inputs")
    sc = turn_left_90()
    sc.graph.save(str(base / "roads.txt"))
    (base / "car.txt").write_text(SHEET)
    scenario = {
        "name": "leftturn",
        "graph": "roads.txt",
        "route": sc.route,
        "speed_profile": [[0.0, 20.0]],
        "model": "my hatchback",
        "decoder_file": "car.txt",
        "wheelbase": 2.6,
        "swa_rate": 100.0,
        "obd_rate": 10.0,
        "start_bearing_error": 0.0,
    }
    (base / "scenario.json").write_text(json.dumps(scenario))
    assert _run(["synth", base / "scenario.json", "--out-dir", base / "sim"])[0] == 0
    sim = json.loads((base / "sim" / "leftturn_manifest.json").read_text())
    track = {
        "name": "leftturn",
        "log": "sim/leftturn.log",
        "truth": "sim/leftturn_truth.gpx",
        "start": sim["start"],
        "model": "my hatchback",
        "decoder_file": "car.txt",
        "wheelbase": 2.6,
    }
    grids = {"t_window": [0.5], "speed_max": [50.0], "steer_max": [35.0], "max_interpolation_points": [30]}
    manifest = {"graph": "roads.txt", "tracks": [track], "grids": grids}
    (base / "tune.json").write_text(json.dumps(manifest))
    assert _run(["tune", base / "tune.json", "--out", base / "grid.csv"])[0] == 0
    return base, scenario, manifest


def test_a_manifest_track_keeps_its_parsed_log(work):
    # the search decodes the FrameLog that read_log gave, with no tuple of
    # frames to put back in columns, and writes the CSV that tune wrote
    base, _scenario, _manifest = work
    graph, grids, (track,), _skipped = load_manifest(str(base / "tune.json"))
    assert type(track.frames) is FrameLog
    assert track.frames == read_log(str(base / "sim" / "leftturn.log"))[0]
    as_tuples = replace(track, frames=tuple(track.frames))
    csv = tuner.rows_to_csv(tuner.grid_search([track], graph, grids=grids))
    assert csv == tuner.rows_to_csv(tuner.grid_search([as_tuples], graph, grids=grids))
    assert csv == (base / "grid.csv").read_text()


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


def _paths(doc, prefix=()):
    """Every key and list index in `doc`, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _wrong_values(original) -> list:
    """A value of each other JSON type; a fraction where an integer is."""
    kind = _json_type(original)
    wrong = [v for t, v in _BY_TYPE.items() if t != kind and not (kind == "list" and t == "empty list")]
    if isinstance(original, int) and not isinstance(original, bool):
        wrong.append(0.5)
    return wrong


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _check_one_input(base, command, doc, data, extra_args):
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(_wrong_values(_get(doc, path))), label="value")
    target = base / f"fuzzed_{command}.json"
    target.write_text(json.dumps(_replaced(doc, path, value)))
    code, err = _run([command, target, *extra_args])
    lines = err.splitlines()
    assert code == 0 or (len(lines) == 1 and lines[0].startswith("error: ")), (code, err)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_tune_manifest_with_a_wrongly_typed_value_runs_or_is_one_error_line(work, data):
    base, _scenario, manifest = work
    _check_one_input(base, "tune", manifest, data, ["--out", base / "fuzzed_grid.csv"])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_scenario_file_with_a_wrongly_typed_value_runs_or_is_one_error_line(work, data):
    base, scenario, _manifest = work
    _check_one_input(base, "synth", scenario, data, ["--out-dir", base / "fuzzed_sim"])


# where an added key goes: the scenario file's top level, the manifest's top
# level, or the manifest's one track
_KEY_PLACES = {"scenario": ("synth", ()), "manifest": ("tune", ()), "manifest track": ("tune", ("tracks", 0))}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_an_unknown_key_is_one_error_line_naming_it(work, data):
    base, scenario, manifest = work
    place = data.draw(st.sampled_from(sorted(_KEY_PLACES)), label="place")
    command, path = _KEY_PLACES[place]
    doc = json.loads(json.dumps(scenario if command == "synth" else manifest))
    target = _get(doc, path)
    key = data.draw(st.text(max_size=12).filter(lambda k: k not in target), label="key")
    target[key] = data.draw(st.sampled_from(list(_BY_TYPE.values())), label="value")
    (base / f"unknown_{command}.json").write_text(json.dumps(doc))
    out = ["--out", base / "unknown_grid.csv"] if command == "tune" else ["--out-dir", base / "unknown_sim"]
    code, err = _run([command, base / f"unknown_{command}.json", *out])
    lines = err.splitlines()
    assert code != 0 and len(lines) == 1 and lines[0].startswith("error: "), (code, err)
    assert f"unknown key {key!r}" in lines[0], err


def _write(base, name, doc):
    (base / name).write_text(json.dumps(doc))
    return base / name


@pytest.mark.parametrize(
    "where,key,message",
    [
        ((), "grid", "error: usage: manifest: unknown key 'grid'"),
        (("tracks", 0), "wheelbas", "error: usage: manifest track 0: unknown key 'wheelbas'"),
        (("tracks", 0), "decoder-file", "error: usage: manifest track 0: unknown key 'decoder-file'"),
    ],
    ids=["grid", "wheelbas", "decoder-file"],
)
def test_a_misspelt_manifest_key_stops_tune_before_any_run(work, monkeypatch, tmp_path, where, key, message):
    # a misspelt "grids" once ran the default 500-cell search, and a
    # misspelt track key was dropped without a word; both exited 0
    base, _scenario, manifest = work
    doc = json.loads(json.dumps(manifest))
    _get(doc, where)[key] = 9.9 if key == "wheelbas" else ({"t_window": [0.5]} if key == "grid" else "car.txt")
    calls = []
    real_infer_path = tuner.infer_path

    def counting_infer_path(*args, **kwargs):
        calls.append(1)
        return real_infer_path(*args, **kwargs)

    monkeypatch.setattr(tuner, "infer_path", counting_infer_path)
    code, err = _run(["tune", _write(base, "misspelt.json", doc), "--out", tmp_path / "grid.csv"])
    assert (code, err.splitlines()) == (2, [message])
    assert not (tmp_path / "grid.csv").exists() and calls == []


@pytest.mark.parametrize(
    "command,where,code,prefix",
    [("synth", (), 1, "error: scenario file"), ("tune", ("tracks", 0), 2, "error: usage: manifest track 'leftturn'")],
    ids=["scenario", "manifest"],
)
def test_a_wrongly_typed_wheelbase_reads_the_same_in_both_documents(work, command, where, code, prefix):
    # a manifest's "2.6" was once an exit-1 error with no document prefix
    base, scenario, manifest = work
    doc = json.loads(json.dumps(scenario if command == "synth" else manifest))
    _get(doc, where)["wheelbase"] = "2.6"
    result = _run([command, _write(base, "wheelbase.json", doc)])
    assert result == (code, f"{prefix}: 'wheelbase' must be a finite number, got '2.6'\n")


# the vehicle blocks that no sheet row, or no wheelbase, fits; each message
# must name the document's keys, not the command-line flags
_SHEETS = {
    "two.txt": SHEET + "my van, 2F5, 0, 1, 7FFF, 0.01, offset, 3.10\n",
    "bare.txt": "canpath-decoders v1\nmy van, 2F5, 0, 1, 7FFF, 0.01, offset\n",
}
_UNRESOLVED = [
    ({}, "one of 'model' or 'decoder_file' is required"),
    ({"model": "DeLorean DMC-12"}, "unknown model 'DeLorean DMC-12': supply 'decoder_file' and 'wheelbase'"),
    ({"decoder_file": "two.txt"}, "'decoder_file' has several models; pick one with 'model'"),
    ({"decoder_file": "bare.txt"}, "no wheelbase on record for 'my van': supply 'wheelbase'"),
    ({"model": "renault captur", "decoder_file": "bare.txt"}, "model 'renault captur' not in decoder file"),
]


def _unresolved(base, doc, where, vehicle):
    for name, text in _SHEETS.items():
        (base / name).write_text(text)
    doc = json.loads(json.dumps(doc))
    target = _get(doc, where)
    for key in ("model", "decoder_file", "wheelbase"):
        target.pop(key)
    target.update(vehicle)
    return _write(base, "vehicle.json", doc)


_UNRESOLVED_IDS = ["no-vehicle", "unknown-model", "several-models", "no-wheelbase", "not-in-sheet"]


@pytest.mark.parametrize("vehicle,message", _UNRESOLVED, ids=_UNRESOLVED_IDS)
def test_scenario_vehicle_messages_name_keys_not_flags(work, vehicle, message):
    base, scenario, _manifest = work
    code, err = _run(["synth", _unresolved(base, scenario, (), vehicle)])
    assert (code, err) == (1, f"error: scenario file: {message}\n")
    assert "--" not in err


@pytest.mark.parametrize("vehicle,message", _UNRESOLVED, ids=_UNRESOLVED_IDS)
def test_manifest_vehicle_messages_name_keys_not_flags(work, vehicle, message):
    base, _scenario, manifest = work
    code, err = _run(["tune", _unresolved(base, manifest, ("tracks", 0), vehicle)])
    assert (code, err) == (2, f"error: usage: manifest track 'leftturn': {message}\n")
    assert "--" not in err


@pytest.mark.parametrize("command,where", [("synth", ()), ("tune", ("tracks", 0))], ids=["scenario", "manifest"])
def test_a_bad_sheet_row_names_the_sheet_in_both_documents(work, command, where):
    base, scenario, manifest = work
    (base / "bad.txt").write_text("canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, 0, offset, 2.60\n")
    doc = json.loads(json.dumps(scenario if command == "synth" else manifest))
    _get(doc, where)["decoder_file"] = "bad.txt"
    result = _run([command, _write(base, "bad-sheet.json", doc)])
    assert result == (1, f"error: {base / 'bad.txt'}: line 2: scale must be finite and positive, got 0.0\n")
