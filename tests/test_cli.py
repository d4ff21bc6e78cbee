import hashlib
import io
import json
import os

import pytest

from canpath.canlog import CanFrame, write_log
from canpath.cli import main
from canpath.scenarios import straight_1km, turn_left_90
from canpath.synthgen import simulate
from canpath.trackeval import Track, load_gpx, save_gpx

from helpers import no_sim_frames


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A scenario file + graph + simulated log laid out like a working dir:
    ``synth`` has written leftturn.log, leftturn_truth.gpx and
    leftturn_manifest.json beside the scenario file."""
    base = tmp_path_factory.mktemp("work")
    sc = turn_left_90()
    sc.graph.save(str(base / "roads.txt"))
    doc = {
        "name": "leftturn",
        "graph": "roads.txt",
        "route": sc.route,
        "speed_profile": [[0.0, 20.0]],
        "model": "renault captur",
        "wheelbase": 2.6,
    }
    (base / "scenario.json").write_text(json.dumps(doc))
    assert main(["synth", str(base / "scenario.json")]) == 0
    return base


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_log_truth_manifest(scenario_dir, capsys, tmp_path):
    code, out, err = run(capsys, "synth", scenario_dir / "scenario.json", "--out-dir", tmp_path)
    assert code == 0
    assert (tmp_path / "leftturn.log").exists()
    assert (tmp_path / "leftturn_truth.gpx").exists()
    manifest = json.loads((tmp_path / "leftturn_manifest.json").read_text())
    assert manifest["swa_id"] == "0x0C6"
    # the start pose in the form a tune manifest track takes
    lat, lon, bearing = manifest["start"]
    assert (lat, lon) == (44.65, 10.92) and isinstance(bearing, float)


def test_synth_manifest_bytes_are_pinned(scenario_dir, capsys, tmp_path):
    code, out, err = run(capsys, "synth", scenario_dir / "scenario.json", "--out-dir", tmp_path)
    assert code == 0, err
    log, truth = json.dumps(str(tmp_path / "leftturn.log")), json.dumps(str(tmp_path / "leftturn_truth.gpx"))
    assert (tmp_path / "leftturn_manifest.json").read_bytes() == (
        '{\n  "scenario": "leftturn",\n  "log": %s,\n  "truth": %s,\n'
        '  "start": [\n    44.65,\n    10.92,\n    0.0\n  ],\n  "route_length_m": 318.84,\n'
        '  "swa_id": "0x0C6",\n  "wheelbase": 2.6,\n  "frames": 6314\n}\n' % (log, truth)
    ).encode()


@pytest.mark.parametrize("rate", ["swa_rate", "obd_rate"])
def test_synth_beyond_the_step_bound_is_one_error_line(scenario_dir, capsys, monkeypatch, tmp_path, rate):
    no_sim_frames(monkeypatch)
    doc = json.loads((scenario_dir / "scenario.json").read_text())
    doc.update({"graph": str(scenario_dir / "roads.txt"), rate: 1e9})
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "synth", tmp_path / "scenario.json", "--out-dir", tmp_path)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: scenario needs up to "), err
    assert not (tmp_path / "leftturn.log").exists()


@pytest.mark.parametrize("name", ["../escaped", "..", ".", "", "a/b", os.sep + "escaped"])
def test_synth_name_that_is_not_a_plain_file_name_is_one_error_line(scenario_dir, capsys, tmp_path, name):
    # the name names the three output files, which must stay in --out-dir
    doc = json.loads((scenario_dir / "scenario.json").read_text())
    doc.update({"graph": str(scenario_dir / "roads.txt"), "name": name})
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "sub" / "out"
    code, out, err = run(capsys, "synth", tmp_path / "scenario.json", "--out-dir", out_dir)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: scenario file: 'name' must be a plain file name, got {name!r}"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]


@pytest.mark.parametrize(
    "value,message",
    [
        ({"wheelbase": 0}, "'wheelbase' must be a positive number, got 0"),
        ({"wheelbase": -2.6}, "'wheelbase' must be a positive number, got -2.6"),
        ({"swa_rate": 0}, "'swa_rate' must be a positive number, got 0"),
        ({"obd_rate": -10.0}, "'obd_rate' must be a positive number, got -10.0"),
        ({"route": []}, "route must list at least one edge"),
        ({"speed_profile": [[5.0, 20.0]]}, "speed profile must start at distance 0"),
    ],
    ids=["wheelbase-zero", "wheelbase-negative", "swa_rate-zero", "obd_rate-negative", "route-empty", "profile-start"],
)
def test_synth_out_of_range_value_names_the_scenario_file(scenario_dir, capsys, tmp_path, value, message):
    doc = json.loads((scenario_dir / "scenario.json").read_text())
    doc.update({"graph": str(scenario_dir / "roads.txt"), **value})
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "synth", tmp_path / "scenario.json", "--out-dir", tmp_path / "out")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: scenario file: {message}"]
    assert not (tmp_path / "out").exists()


def test_full_pipeline_synth_infer_compare(scenario_dir, capsys):
    manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        ",".join(str(v) for v in manifest["start"]),
        "--model",
        "renault captur",
        "--matcher",
        f"internal:{scenario_dir / 'roads.txt'}",
        "--out",
        scenario_dir / "inferred.gpx",
        "--report",
        scenario_dir / "diag.txt",
    )
    assert code == 0, err
    assert "windows processed" in (scenario_dir / "diag.txt").read_text()

    code, out, err = run(
        capsys,
        "compare",
        scenario_dir / "inferred.gpx",
        scenario_dir / "leftturn_truth.gpx",
    )
    assert code == 0
    name, length_km, accuracy = out.strip().split(",")
    assert name == "inferred"
    assert float(accuracy) >= 0.95


def test_infer_report_file_holds_the_bytes_infer_prints(scenario_dir, capsys, tmp_path):
    argv = ["infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0", "--model", "renault captur"]
    argv += ["--matcher", f"internal:{scenario_dir / 'roads.txt'}", "--out", tmp_path / "out.gpx"]
    code, printed, err = run(capsys, *argv)
    assert code == 0, err
    wrote, report = printed.split("\n", 1)
    assert wrote.startswith("wrote ") and report.startswith("windows processed: ")
    code, out, err = run(capsys, *argv, "--report", tmp_path / "diag.txt")
    assert code == 0, err
    assert out == wrote + "\n" and (tmp_path / "diag.txt").read_bytes() == report.encode()


def test_compare_identity(scenario_dir, capsys):
    truth = scenario_dir / "leftturn_truth.gpx"
    code, out, err = run(capsys, "compare", truth, truth)
    assert code == 0
    assert out.strip().endswith(",1.0000")


def test_infer_without_start_is_usage_error(scenario_dir, capsys):
    code, out, err = run(capsys, "infer", scenario_dir / "leftturn.log", "--model", "renault captur")
    assert code == 2
    assert err.startswith("error: usage:")
    assert "--start" in err


def test_infer_bad_params_is_usage_error(scenario_dir, capsys):
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        "44.65,10.92,0",
        "--model",
        "renault captur",
        "--params",
        "t_window=-1",
    )
    assert code == 2
    assert err.startswith("error: usage:")


@pytest.mark.parametrize("params", ["speed_max=nan", "t_window=inf"])
def test_infer_non_finite_params_are_usage_errors(scenario_dir, capsys, params):
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0", "--model", "renault captur",
        "--matcher", "none", "--params", params,
    )
    key, value = params.split("=")
    assert code == 2
    assert err.splitlines() == [f"error: usage: --params: {key} must be finite, got {value}"]


def test_infer_non_finite_start_is_usage_error(scenario_dir, capsys):
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,inf", "--model", "renault captur"
    )
    assert code == 2
    assert err.splitlines() == ["error: usage: --start has a non-finite component in ['44.65', '10.92', 'inf']"]


def test_infer_unknown_model_needs_wheelbase(scenario_dir, capsys):
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        "44.65,10.92,0",
        "--model",
        "DeLorean DMC-12",
    )
    assert code == 2
    assert "decoder-file" in err


def test_infer_missing_log_is_runtime_error(scenario_dir, capsys):
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "nope.log",
        "--start",
        "44.65,10.92,0",
        "--model",
        "renault captur",
    )
    assert code == 1
    assert err.startswith("error:")


def test_infer_log_spanning_more_than_a_day_is_one_error_line(capsys, tmp_path):
    log = tmp_path / "stray.log"
    for text, span in [
        # a second past the limit, at 60 s windows: cheap to build even without the check
        ("(0.000000) can0 0C6#7FFF\n(86401.000000) can0 0C6#7FFF\n", "0.0 s to 86401.0 s"),
        # an epoch log with one frame stamped 0 in its middle
        (
            "(1700000000.000000) can0 0C6#7FFF\n(0.000000) can0 0C6#7FFF\n(1700000060.000000) can0 0C6#7FFF\n",
            "0.0 s to 1700000060.0 s",
        ),
    ]:
        log.write_text(text)
        code, out, err = run(
            capsys, "infer", log, "--start", "44.65,10.92,0", "--model", "renault captur",
            "--matcher", "none", "--params", "t_window=60",
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: log spans {span}"), err


def test_infer_more_windows_than_the_limit_is_one_error_line(scenario_dir, capsys, tmp_path):
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0", "--model", "renault captur",
        "--matcher", "none", "--params", "t_window=1e-7", "--out", tmp_path / "out.gpx",
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 1e-07 s windows cut this "), err
    assert not (tmp_path / "out.gpx").exists()


def test_rewheel_ranks_swa_id(scenario_dir, capsys):
    code, out, err = run(capsys, "rewheel", scenario_dir / "leftturn.log")
    assert code == 0
    assert "0x0C6" in out
    code, out, err = run(capsys, "rewheel", scenario_dir / "leftturn.log", "--csv")
    assert out.splitlines()[0].startswith("id,frame_count,avg_hamming")


def test_decode_emits_time_series(scenario_dir, capsys):
    code, out, err = run(capsys, "decode", scenario_dir / "leftturn.log", "--model", "renault captur")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "timestamp,signal,value"
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"angle_deg", "speed_kmh"}


def test_logfilter_applies_mask_semantics(scenario_dir, capsys, tmp_path):
    from canpath.canlog import CanFrame

    noisy = tmp_path / "noisy.log"
    frames = [
        CanFrame(0.0, "can0", 0x0C6, b"\x7f\xff"),
        CanFrame(0.1, "can0", 0x123, b"\x00"),
        CanFrame(0.2, "can0", 0x7E8, b"\x03\x41\x0d\x21"),
    ]
    write_log(frames, str(noisy))
    code, out, err = run(capsys, "logfilter", noisy, "--swa-id", "0C6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "0C6#" in lines[0] and "7E8#" in lines[1]


def test_logfilter_keeps_every_obd_responder(capsys, tmp_path):
    # speed answered by the third responder, 0x7EA, and two speed-shaped
    # frames just outside the responder range, which no stage reads
    frames = [f if f.id == 0x0C6 else CanFrame(f.timestamp, f.interface, 0x7EA, f.data) for f in simulate(straight_1km()).frames]
    outside = [CanFrame(0.001, "can0", fid, b"\x03\x41\x0d\x21") for fid in (0x7E7, 0x7F0)]
    raw, kept = tmp_path / "raw.log", tmp_path / "kept.log"
    write_log(outside + frames, str(raw))
    code, out, err = run(capsys, "logfilter", raw, "--swa-id", "0C6", "--out", kept)
    assert code == 0, err
    text = kept.read_text()
    assert text.count(" can0 7EA#") == 1000
    assert "7E7#" not in text and "7F0#" not in text
    _code, from_raw, _err = run(capsys, "decode", raw, "--model", "renault captur")
    _code, from_kept, _err = run(capsys, "decode", kept, "--model", "renault captur")
    assert from_raw.count(",speed_kmh,") == 1000
    assert from_kept == from_raw


def test_infer_from_stdin_needs_out(capsys, monkeypatch, tmp_path):
    log = io.StringIO()
    write_log(simulate(straight_1km()).frames, log)
    argv = ["infer", "-", "--start", "44.65,10.92,90", "--model", "renault captur", "--matcher", "none"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(log.getvalue()))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: usage:") and "--out" in err and len(err.splitlines()) == 1, err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr("sys.stdin", io.StringIO(log.getvalue()))
    code, out, err = run(capsys, *argv, "--out", "trip.gpx")
    assert code == 0, err
    assert len(load_gpx(str(tmp_path / "trip.gpx"))) == 1000


@pytest.mark.parametrize("wheelbase", ["inf", "nan"])
def test_infer_non_finite_wheelbase_is_one_error_line(scenario_dir, capsys, tmp_path, wheelbase):
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0",
        "--model", "renault captur", "--wheelbase", wheelbase, "--matcher", "none",
        "--out", tmp_path / "out.gpx",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: wheelbase must be finite and positive, got {wheelbase}"]
    assert not (tmp_path / "out.gpx").exists()


def test_decoder_sheet_with_infinite_scale_is_one_error_line(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_text("canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, inf, offset, 2.60\n")
    for command in (["decode"], ["infer", "--start", "44.65,10.92,0", "--matcher", "none", "--out", tmp_path / "out.gpx"]):
        code, out, err = run(capsys, command[0], scenario_dir / "leftturn.log", *command[1:], "--decoder-file", sheet)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {sheet}: line 2: scale must be finite and positive, got inf"]
    assert not (tmp_path / "out.gpx").exists()


def test_decoder_sheet_with_zero_wheelbase_is_one_error_line(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_text("canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, 0.01, offset, 0\n")
    code, out, err = run(capsys, "decode", scenario_dir / "leftturn.log", "--decoder-file", sheet)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {sheet}: line 2: wheelbase must be finite and positive, got 0.0"]


def test_decoder_sheet_that_is_not_utf8_is_one_error_line(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_bytes(b"canpath-decoders v1\nmy hatchback\xe9, 0C6, 0, 1, 7FFF, 0.01, offset, 2.60\n")
    code, out, err = run(capsys, "decode", scenario_dir / "leftturn.log", "--decoder-file", sheet)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sheet}: 'utf-8' codec can't decode byte 0xe9"), err


def test_rewheel_ceiling(scenario_dir, capsys):
    log = scenario_dir / "leftturn.log"
    code, default, err = run(capsys, "rewheel", log, "--csv")
    assert code == 0, err
    assert run(capsys, "rewheel", log, "--csv", "--ceiling", "300")[1] == default
    assert "0x0C6," in default
    code, below, err = run(capsys, "rewheel", log, "--csv", "--ceiling", "C6")
    assert code == 0, err
    assert below.splitlines() == default.splitlines()[:1] + [
        line for line in default.splitlines()[1:] if not line.startswith("0x0C6,")
    ]
    assert "0x0C6," in run(capsys, "rewheel", log, "--csv", "--ceiling", "C7")[1]


def test_tune_small_grid(scenario_dir, capsys, tmp_path):
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    manifest = {
        "graph": str(scenario_dir / "roads.txt"),
        "tracks": [
            {
                "name": "leftturn",
                "log": str(scenario_dir / "leftturn.log"),
                "truth": str(scenario_dir / "leftturn_truth.gpx"),
                "start": sim_manifest["start"],
                "model": "renault captur",
            }
        ],
        "grids": {
            "t_window": [0.1],
            "speed_max": [50],
            "steer_max": [35],
            "max_interpolation_points": [10, 30],
        },
    }
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    out_csv, marginals = tmp_path / "grid.csv", tmp_path / "marginals.csv"
    code, out, err = run(capsys, "tune", manifest_file, "--out", out_csv, "--marginals", marginals)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 combinations
    assert "best:" in err
    # one row per grid value, parameters in grid order
    header, *rows = marginals.read_text().splitlines()
    assert header == "parameter,value,mean_accuracy"
    assert [row.rsplit(",", 1)[0] for row in rows] == [
        f"{name},{value}" for name, values in manifest["grids"].items() for value in values
    ]


def test_decode_output_bytes_are_pinned(capsys, tmp_path):
    # a malformed angle frame and an unrelated ID spliced into a simulated
    # drive; the digest pins the CSV bytes against changes to decoding
    frames = list(simulate(turn_left_90()).frames)
    frames.insert(500, CanFrame(frames[499].timestamp + 1e-6, "can0", 0x0C6, b"\x7f"))
    frames.insert(1500, CanFrame(frames[1499].timestamp + 1e-6, "can0", 0x123, b"\x03\x41\x0d\x21"))
    log = tmp_path / "spliced.log"
    write_log(frames, str(log))
    code, out, err = run(capsys, "decode", log, "--model", "renault captur")
    assert code == 0, err
    assert len(out.splitlines()) == len(frames) - 1  # header in, both spliced frames out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "633eba133b6857e90ef6184898784d5a7b41a2cb7e2834e9f5e3f1f9eeaf3931"
    )


def test_infer_steer_max_flag_is_usage_error(scenario_dir, capsys):
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        "44.65,10.92,0",
        "--model",
        "renault captur",
        "--steer-max",
        "1",
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: usage:")


def test_decode_with_decoder_file(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_text(
        "canpath-decoders v1\n"
        "my hatchback, 0C6, 0, 1, 7FFF, 0.01, offset, 2.60\n"
    )
    code, out, err = run(
        capsys, "decode", scenario_dir / "leftturn.log", "--decoder-file", sheet
    )
    assert code == 0
    assert "angle_deg" in out


def test_infer_with_decoder_file_and_wheelbase_override(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_text(
        "canpath-decoders v1\n"
        "my hatchback, 0C6, 0, 1, 7FFF, 0.01, offset\n"  # no wheelbase column
    )
    manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    args = [
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        ",".join(str(v) for v in manifest["start"]),
        "--decoder-file",
        sheet,
        "--out",
        tmp_path / "out.gpx",
    ]
    code, out, err = run(capsys, *args)
    assert code == 2 and "wheelbase" in err  # sheet has none on record
    code, out, err = run(capsys, *args, "--wheelbase", "2.6")
    assert code == 0
    assert (tmp_path / "out.gpx").exists()


SHEET_NO_WHEELBASE = "canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, 0.01, offset\n"
SHEET_TWO_MODELS = (
    "canpath-decoders v1\n"
    "my hatchback, 0C6, 0, 1, 7FFF, 0.01, offset, 2.60\n"
    "my van, 2F5, 0, 1, 7FFF, 0.01, offset, 3.10\n"
)


def test_decode_needs_no_wheelbase(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "mycar.txt"
    sheet.write_text(SHEET_NO_WHEELBASE)
    code, out, err = run(capsys, "decode", scenario_dir / "leftturn.log", "--decoder-file", sheet)
    assert code == 0, err
    assert "angle_deg" in out


def _tune_with_track(scenario_dir, capsys, tmp_path, **track_keys):
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    track = {
        "name": "leftturn",
        "log": str(scenario_dir / "leftturn.log"),
        "truth": str(scenario_dir / "leftturn_truth.gpx"),
        "start": sim_manifest["start"],
        **track_keys,
    }
    manifest = {
        "graph": str(scenario_dir / "roads.txt"),
        "tracks": [track],
        "grids": {
            "t_window": [0.1],
            "speed_max": [50],
            "steer_max": [35],
            "max_interpolation_points": [30],
        },
    }
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    return run(capsys, "tune", manifest_file, "--out", tmp_path / "grid.csv")


def _one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage: manifest track 'leftturn':"), err
    return lines[0]


def test_tune_warns_once_per_track_of_skipped_lines(scenario_dir, capsys, tmp_path):
    clean = _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur")
    csv_bytes = (tmp_path / "grid.csv").read_bytes()
    lines = (scenario_dir / "leftturn.log").read_text().splitlines(keepends=True)
    garbled = tmp_path / "garbled.log"
    garbled.write_text("".join(lines[:1] + ["not a frame\n"] + lines[1:]))
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur", log=str(garbled))
    assert code == 0, err
    warning = "warning: manifest track 'leftturn': skipped 1 unparseable lines: 2"
    assert err.splitlines() == [warning] + clean[2].splitlines()
    assert (tmp_path / "grid.csv").read_bytes() == csv_bytes
    # infer builds the same line, without a track to name
    code, out, err = run(
        capsys, "infer", garbled, "--start", "44.65,10.92,0", "--model", "renault captur", "--out", tmp_path / "out.gpx"
    )
    assert code == 0 and err.splitlines() == ["warning: skipped 1 unparseable lines: 2"]


def test_tune_names_the_exception_behind_each_zero(scenario_dir, capsys, tmp_path, monkeypatch):
    from canpath import tuner

    infer_path = tuner.infer_path

    def failing_at_half_a_second(frames, decoder, vehicle, start, params, matcher):
        if params.t_window == 0.5:
            raise ZeroDivisionError("scripted")
        return infer_path(frames, decoder, vehicle, start, params, matcher)

    monkeypatch.setattr(tuner, "infer_path", failing_at_half_a_second)
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    manifest = {
        "graph": str(scenario_dir / "roads.txt"),
        "tracks": [
            {
                "log": str(scenario_dir / "leftturn.log"),
                "truth": str(scenario_dir / "leftturn_truth.gpx"),
                "start": sim_manifest["start"],
                "model": "renault captur",
            }
        ],
        # 1e-7 s windows are more than a log may be cut into: an InferenceError
        "grids": {"t_window": [1e-7, 0.1, 0.5, 1.0], "speed_max": [50], "steer_max": [35, 40]},
    }
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file, "--out", tmp_path / "grid.csv")
    assert code == 0, err
    *warnings, best = err.splitlines()
    assert warnings == [
        "warning: 10 of 40 cells (combination x track) scored 0 on InferenceError",
        "warning: 10 of 40 cells (combination x track) scored 0 on ZeroDivisionError",
    ]
    assert best.startswith("best: t_window=")
    rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    assert sum(row.startswith(("1e-07,", "0.5,")) and row.endswith(",0.0000") for row in rows) == 20


def test_tune_decoder_file_without_wheelbase_is_usage_error(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "sheet.txt"
    sheet.write_text(SHEET_NO_WHEELBASE)
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, decoder_file=str(sheet))
    assert code == 2
    assert "wheelbase" in _one_error_line(err)
    code, out, err = _tune_with_track(
        scenario_dir, capsys, tmp_path, decoder_file=str(sheet), wheelbase=2.6
    )
    assert code == 0, err


def test_tune_multi_model_sheet_needs_a_model(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "sheet.txt"
    sheet.write_text(SHEET_TWO_MODELS)
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, decoder_file=str(sheet))
    assert code == 2
    assert "several models" in _one_error_line(err)
    code, out, err = _tune_with_track(
        scenario_dir, capsys, tmp_path, decoder_file=str(sheet), model="my hatchback"
    )
    assert code == 0, err


def test_tune_model_is_looked_up_in_the_decoder_file(scenario_dir, capsys, tmp_path):
    sheet = tmp_path / "sheet.txt"
    sheet.write_text(SHEET_TWO_MODELS)
    code, out, err = _tune_with_track(
        scenario_dir, capsys, tmp_path, decoder_file=str(sheet), model="renault captur"
    )
    assert code == 2
    assert "not in decoder file" in _one_error_line(err)


@pytest.mark.parametrize(
    "start,message",
    [
        ([44.65, 10.92, "x"], "'start' must be a finite number, got 'x'"),
        ({"lat": 44.65, "lon": 10.92, "bearing": 90.0}, "'start' must be a list of 3 items, got {'lat'"),
        ([44.65, 10.92], "'start' must be a list of 3 items, got [44.65, 10.92]"),
        ([44.65, 10.92, float("inf")], "'start' must be a finite number, got inf"),
        (["44.65", "10.92", "90"], "'start' must be a finite number, got '44.65'"),
        ([91.0, 10.92, 90.0], "'start': latitude 91.0 out of range"),
    ],
    ids=["non-numeric", "synth-object", "two-values", "infinite", "strings", "latitude"],
)
def test_tune_manifest_bad_start_is_one_error_line(scenario_dir, capsys, tmp_path, start, message):
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, start=start)
    assert code == 2
    assert _one_error_line(err).startswith(f"error: usage: manifest track 'leftturn': {message}")


@pytest.mark.parametrize(
    "track,code,message",
    [
        (
            {"model": "renault captur", "wheelbase": "2.6"}, 2,
            "error: usage: manifest track 'leftturn': 'wheelbase' must be a finite number, got '2.6'",
        ),
        (
            {"model": "renault captur", "wheelbase": True}, 2,
            "error: usage: manifest track 'leftturn': 'wheelbase' must be a finite number, got True",
        ),
        ({"model": 5}, 2, "error: usage: manifest track 'leftturn': 'model' must be a string, got 5"),
        ({"model": "renault captur", "log": 5}, 2, "error: usage: manifest track 0: 'log' must be a string, got 5"),
        ({"model": "renault captur", "name": 5}, 2, "error: usage: manifest track 0: 'name' must be a string, got 5"),
        (
            {"model": "renault captur", "decoder_file": 5}, 2,
            "error: usage: manifest track 'leftturn': 'decoder_file' must be a string, got 5",
        ),
        (
            {"model": "renault captur", "truth": ["a"]}, 2,
            "error: usage: manifest track 'leftturn': 'truth' must be a string, got ['a']",
        ),
    ],
    ids=["wheelbase-string", "wheelbase-true", "model-number", "log-number", "name-number", "decoder_file-number",
         "truth-list"],
)
def test_tune_manifest_wrongly_typed_track_value_is_one_error_line(scenario_dir, capsys, tmp_path, track, code, message):
    assert _tune_with_track(scenario_dir, capsys, tmp_path, **track)[::2] == (code, message + "\n")


@pytest.mark.parametrize("wheelbase", [0, -2.6])
def test_tune_manifest_out_of_range_wheelbase_is_one_error_line(scenario_dir, capsys, tmp_path, wheelbase):
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur", wheelbase=wheelbase)
    assert code == 2
    assert err.splitlines() == [
        f"error: usage: manifest track 'leftturn': 'wheelbase' must be a positive number, got {wheelbase}"
    ]


def test_tune_manifest_graph_number_is_one_error_line(capsys, tmp_path):
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps({"graph": 5, "tracks": []}))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    assert err.splitlines() == ["error: usage: manifest: 'graph' must be a string, got 5"]


def test_tune_manifest_tracks_object_is_one_error_line(scenario_dir, capsys, tmp_path):
    track = {"log": str(scenario_dir / "leftturn.log"), "truth": str(scenario_dir / "leftturn_truth.gpx")}
    manifest = {"graph": str(scenario_dir / "roads.txt"), "tracks": {"leftturn": track}}
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage: manifest: 'tracks' must be a list, got {"), err


@pytest.mark.parametrize("missing", ["graph", "tracks"])
def test_tune_manifest_missing_key_is_one_error_line(scenario_dir, capsys, tmp_path, missing):
    manifest = {"graph": str(scenario_dir / "roads.txt"), "tracks": []}
    del manifest[missing]
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    assert err.splitlines() == [f"error: usage: manifest: missing key '{missing}'"]


def test_infer_graph_with_bad_coordinates_is_one_error_line(scenario_dir, capsys, tmp_path):
    roads = tmp_path / "roads.txt"
    roads.write_text("node 1 44.65 10.92\nnode 2 nan 10.92\nedge 1 1 2 1\n")
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        "44.65,10.92,0",
        "--model",
        "renault captur",
        "--matcher",
        f"internal:{roads}",
    )
    assert code == 1
    assert err.splitlines() == [f"error: {roads}: line 2: coordinate nan 10.92 is not finite"]


def test_infer_graph_with_a_malformed_number_names_the_file(scenario_dir, capsys, tmp_path):
    roads = tmp_path / "bad.graph"
    roads.write_text("node 1 44.65 10.92\nnode 2 44.66 10.92\nedge 1 1 2 1 foo 10.92\n")
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0", "--model", "renault captur",
        "--matcher", f"internal:{roads}", "--out", tmp_path / "out.gpx",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {roads}: line 3: could not convert string to float: 'foo'"]
    assert not (tmp_path / "out.gpx").exists()


def test_infer_graph_that_is_not_utf8_names_the_file(scenario_dir, capsys, tmp_path):
    roads = tmp_path / "latin1.graph"
    roads.write_bytes(b"node 1 44.65 10.92\nnode 2 44.66 10.92 # Stra\xdfe\n")
    code, out, err = run(
        capsys, "infer", scenario_dir / "leftturn.log", "--start", "44.65,10.92,0", "--model", "renault captur",
        "--matcher", f"internal:{roads}",
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {roads}: 'utf-8' codec can't decode byte 0xdf"), err


def test_strict_decode_of_a_bad_log_names_the_file_but_not_stdin(capsys, monkeypatch, tmp_path):
    log = tmp_path / "bad.log"
    log.write_text("(1.0) can0 0C6#7DC8\n(x) can0 0C6#00\n")
    code, out, err = run(capsys, "decode", log, "--strict", "--model", "renault captur")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {log}: line 2: malformed timestamp 'x'"]
    monkeypatch.setattr("sys.stdin", io.StringIO(log.read_text()))
    code, out, err = run(capsys, "decode", "-", "--strict", "--model", "renault captur")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: line 2: malformed timestamp 'x'"]


def test_log_that_is_not_utf8_names_the_file(scenario_dir, capsys, tmp_path):
    # only --strict stops at the line; without it the line is skipped
    log = tmp_path / "latin1.log"
    log.write_bytes(b"(1.0) can0 0C6#7DC8\n(2.0) can0 0C6#7D\xff\n")
    error = f"error: {log}: line 2: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"
    for command in (["decode"], ["infer", "--start", "44.65,10.92,0", "--matcher", "none", "--out", tmp_path / "o.gpx"]):
        code, out, err = run(capsys, command[0], log, *command[1:], "--model", "renault captur", "--strict")
        assert code == 1 and out == ""
        assert err.splitlines() == [error]
    assert not (tmp_path / "o.gpx").exists()
    code, out, err = run(capsys, "decode", log, "--model", "renault captur")
    assert code == 0 and out == "timestamp,signal,value\n1.000000,angle_deg,-5.6700\n"
    assert err.splitlines() == ["warning: skipped 1 unparseable lines: 2"]


def test_tune_manifest_track_log_line_that_is_not_utf8_is_skipped(scenario_dir, capsys, tmp_path):
    log = tmp_path / "latin1.log"
    lines = (scenario_dir / "leftturn.log").read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines) + b"(99.0) can0 0C6#7D\xff\n")
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur", log=str(log))
    assert code == 0 and out == ""
    warning, best = err.splitlines()
    assert warning == f"warning: manifest track 'leftturn': skipped 1 unparseable lines: {len(lines) + 1}"
    assert best.startswith("best: t_window=0.1 ")
    assert (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("data", [b'{"graph": ', b'{"graph": "roads.txt", \xff}'])
def test_json_document_that_does_not_parse_names_the_file(scenario_dir, capsys, tmp_path, data):
    manifest, scenario = tmp_path / "tune.json", tmp_path / "scenario.json"
    manifest.write_bytes(data)
    scenario.write_bytes(data)
    message = "Expecting value: line 1 column 11 (char 10)" if data.endswith(b" ") else "'utf-8' codec can't decode"
    for argv in (["tune", manifest, "--out", tmp_path / "grid.csv"], ["synth", scenario, "--out-dir", tmp_path / "out"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {argv[1]}: {message}"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "tune.json"]


def test_compare_directory_is_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "compare", tmp_path, tmp_path)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "directory" in lines[0], err


# GPX bytes, and the message that must follow the file name
BAD_GPX = {
    "non-numeric": (b'<gpx><trk><trkseg><trkpt lat="north" lon="10.92"/></trkseg></trk></gpx>',
                    "trkpt 0: non-numeric coordinate"),
    "out-of-range": (b'<gpx><trk><trkseg><trkpt lat="95" lon="10.92"/></trkseg></trk></gpx>',
                     "coordinate (95.0, 10.92) out of range"),
    "not-utf8": (b'<gpx creator="Stra\xdfe"><trk><trkseg/></trk></gpx>', "'utf-8' codec can't decode byte 0xdf"),
}


@pytest.mark.parametrize("kind", sorted(BAD_GPX))
def test_compare_bad_gpx_names_the_file(scenario_dir, capsys, tmp_path, kind):
    data, message = BAD_GPX[kind]
    bad = tmp_path / "bad.gpx"
    bad.write_bytes(data)
    code, out, err = run(capsys, "compare", scenario_dir / "leftturn_truth.gpx", bad)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: {message}"), err


def test_tune_bad_truth_gpx_names_the_file(scenario_dir, capsys, tmp_path):
    data, message = BAD_GPX["non-numeric"]
    bad = tmp_path / "bad_truth.gpx"
    bad.write_bytes(data)
    code, out, err = _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur", truth=str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {bad}: {message}"]
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["logfilter", "--swa-id", "zz"],
        ["logfilter", "--swa-id", "900"],
        ["logfilter", "--swa-id", "-1"],
        ["rewheel", "--ceiling", "zz"],
        ["rewheel", "--ceiling", "800"],
    ],
)
def test_hex_id_flag_is_a_usage_error_before_the_log_is_read(capsys, tmp_path, argv):
    command, flag, value = argv
    # the log does not exist, so reading it first would be a different error
    code, out, err = run(capsys, command, tmp_path / "missing.log", flag, value)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: usage: argument {flag}: expected a hex CAN identifier 0-7FF, got {value!r}"]


def test_decode_wheelbase_flag_is_usage_error(scenario_dir, capsys):
    code, out, err = run(
        capsys, "decode", scenario_dir / "leftturn.log", "--model", "renault captur", "--wheelbase", "2.6"
    )
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage:") and "--wheelbase" in lines[0], err


def test_matcher_flag_and_env_resolution(scenario_dir, monkeypatch):
    from canpath.cli import UsageError, _make_matcher
    from canpath.mapmatch import ExternalMatcher, GraphMatcher

    assert _make_matcher(None) is None
    assert _make_matcher("none") is None
    assert isinstance(_make_matcher(f"internal:{scenario_dir / 'roads.txt'}"), GraphMatcher)
    assert isinstance(_make_matcher("external:http://svc.local/match"), ExternalMatcher)
    with pytest.raises(UsageError):
        _make_matcher("external")
    with pytest.raises(UsageError):
        _make_matcher("sideways:xyz")
    # --matcher is the one way to choose a matcher: the environment variable
    # that once named a match service neither applies by default nor fills
    # in a bare "external"
    monkeypatch.setenv("CANPATH_MATCHER_URL", "http://svc.local/match")
    assert _make_matcher(None) is None
    with pytest.raises(UsageError):
        _make_matcher("external")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("workers", ["0", "-3", "two", "2"])
def test_tune_workers_below_one_is_usage_error(scenario_dir, capsys, tmp_path, workers):
    # tune runs in one process: it takes no process count, below one or not
    assert _tune_with_track(scenario_dir, capsys, tmp_path, model="renault captur")[0] == 0
    code, out, err = run(capsys, "tune", tmp_path / "tune.json", "--workers", workers)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage: "), err
    assert lines[0].endswith("--workers " + workers), err


@pytest.mark.parametrize(
    "grids,message",
    [
        ({"speed_mx": [50]}, "manifest grids: unknown parameter 'speed_mx'"),
        ({"t_window": []}, "manifest grids: parameter 't_window' has no values"),
        ({"t_window": 0.1}, "manifest grids: 't_window' must be a list of numbers"),
        ([0.1], "manifest: 'grids' must be a JSON object, got [0.1]"),
    ],
)
def test_tune_manifest_bad_grids_are_one_error_line(scenario_dir, capsys, tmp_path, grids, message):
    manifest = {"graph": str(scenario_dir / "roads.txt"), "tracks": [], "grids": grids}
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: usage: {message}"), err


def test_tune_manifest_nan_grid_value_is_one_error_line(scenario_dir, capsys, tmp_path):
    # the grids are checked before any log is read: this one does not exist
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    track = {
        "log": str(tmp_path / "no-such.log"),
        "truth": str(scenario_dir / "leftturn_truth.gpx"),
        "start": sim_manifest["start"],
        "model": "renault captur",
    }
    manifest = {"graph": str(scenario_dir / "roads.txt"), "tracks": [track], "grids": {"t_window": [float("nan")]}}
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    assert err.splitlines() == ["error: usage: manifest grids: 't_window': t_window must be finite, got nan"]


@pytest.mark.parametrize("batch", [2.5, 30.0])
def test_tune_manifest_fractional_batch_size_is_one_error_line(scenario_dir, capsys, tmp_path, batch):
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    track = {
        "log": str(scenario_dir / "leftturn.log"),
        "truth": str(scenario_dir / "leftturn_truth.gpx"),
        "start": sim_manifest["start"],
        "model": "renault captur",
    }
    grids = {"max_interpolation_points": [batch]}
    manifest = {"graph": str(scenario_dir / "roads.txt"), "tracks": [track], "grids": grids}
    manifest_file = tmp_path / "tune.json"
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "tune", manifest_file)
    assert code == 2
    assert err.splitlines() == [
        "error: usage: manifest grids: 'max_interpolation_points': "
        f"max_interpolation_points must be an integer, got {batch}"
    ]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--epsilon", "nan"], "spacing must be a finite distance above 0 m, got nan"),
        (["--spacing", "nan"], "spacing must be a finite distance above 0 m, got nan"),
        (["--spacing", "inf"], "spacing must be a finite distance above 0 m, got inf"),
        (["--epsilon", "inf", "--spacing", "10"], "match epsilon must be a finite distance of at least 0 m, got inf"),
        (["--epsilon", "-1", "--spacing", "10"], "match epsilon must be a finite distance of at least 0 m, got -1.0"),
    ],
)
def test_compare_non_finite_epsilon_or_spacing_is_one_error_line(capsys, tmp_path, flags, message):
    track = tmp_path / "t.gpx"
    save_gpx(Track(points=tuple((44.65 + k * 1e-4, 10.92) for k in range(30))), str(track))
    code, out, err = run(capsys, "compare", track, track, *flags)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_infer_graph_with_a_long_segment_is_one_error_line(scenario_dir, capsys, tmp_path):
    roads = tmp_path / "roads.txt"
    roads.write_text("node 1 0 0\nnode 2 -90 -180\nedge 1 1 2 1 -45 -180\n")
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        "0,0,0",
        "--model",
        "renault captur",
        "--matcher",
        f"internal:{roads}",
    )
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {roads}: line 3: edge 1 segment 0 spans"), err
