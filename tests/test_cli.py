import hashlib
import json
import os

import pytest

from canpath.canlog import CanFrame, write_log
from canpath.cli import main
from canpath.scenarios import turn_left_90
from canpath.synthgen import simulate
from canpath.trackeval import load_gpx, save_gpx


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A scenario file + graph + simulated log laid out like a working dir."""
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
    return base


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_log_truth_manifest(scenario_dir, capsys):
    code, out, err = run(capsys, "synth", scenario_dir / "scenario.json")
    assert code == 0
    assert (scenario_dir / "leftturn.log").exists()
    assert (scenario_dir / "leftturn_truth.gpx").exists()
    manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    assert manifest["swa_id"] == "0x0C6"
    assert set(manifest["start"]) == {"lat", "lon", "bearing"}


def test_full_pipeline_synth_infer_compare(scenario_dir, capsys):
    manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    start = manifest["start"]
    code, out, err = run(
        capsys,
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        f"{start['lat']},{start['lon']},{start['bearing']}",
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


def test_tune_small_grid(scenario_dir, capsys, tmp_path):
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    start = [sim_manifest["start"][k] for k in ("lat", "lon", "bearing")]
    manifest = {
        "graph": str(scenario_dir / "roads.txt"),
        "tracks": [
            {
                "name": "leftturn",
                "log": str(scenario_dir / "leftturn.log"),
                "truth": str(scenario_dir / "leftturn_truth.gpx"),
                "start": start,
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
    out_csv = tmp_path / "grid.csv"
    code, out, err = run(capsys, "tune", manifest_file, "--out", out_csv)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 combinations
    assert "best:" in err


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
    start = manifest["start"]
    args = [
        "infer",
        scenario_dir / "leftturn.log",
        "--start",
        f"{start['lat']},{start['lon']},{start['bearing']}",
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


def _tune_with_track(scenario_dir, capsys, tmp_path, **vehicle):
    sim_manifest = json.loads((scenario_dir / "leftturn_manifest.json").read_text())
    track = {
        "name": "leftturn",
        "log": str(scenario_dir / "leftturn.log"),
        "truth": str(scenario_dir / "leftturn_truth.gpx"),
        "start": [sim_manifest["start"][k] for k in ("lat", "lon", "bearing")],
        **vehicle,
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


def test_matcher_flag_and_env_resolution(scenario_dir, monkeypatch):
    from canpath.cli import MATCHER_URL_ENV, UsageError, _make_matcher
    from canpath.mapmatch import ExternalMatcher, GraphMatcher

    monkeypatch.delenv(MATCHER_URL_ENV, raising=False)
    assert _make_matcher(None) is None
    assert _make_matcher("none") is None
    assert isinstance(_make_matcher(f"internal:{scenario_dir / 'roads.txt'}"), GraphMatcher)
    assert isinstance(_make_matcher("external:http://svc.local/match"), ExternalMatcher)
    with pytest.raises(UsageError):
        _make_matcher("external")
    monkeypatch.setenv(MATCHER_URL_ENV, "http://svc.local/match")
    assert isinstance(_make_matcher("external"), ExternalMatcher)
    assert isinstance(_make_matcher(None), ExternalMatcher)  # env applies by default
    with pytest.raises(UsageError):
        _make_matcher("sideways:xyz")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
