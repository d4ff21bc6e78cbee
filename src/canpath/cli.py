"""Command-line front end.

Subcommands: rewheel (candidate-ID report), decode (angle/speed CSV),
logfilter (keep only OBD + steering frames), infer (log -> GPX), compare
(two GPX files -> accuracy row), synth (scenario file -> log + truth), and
tune (grid search). Every subcommand is non-interactive and deterministic;
failures print a one-line ``error: ...`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import fields

from . import __version__
from .canlog import MAX_STD_ID, IdFilter, filter_frames, read_log, write_log
from .geokin import VehiclePose
from .inference import ANGLE, InferenceParams, decode_signals, infer_path
from .jsondocs import ManifestError, load_manifest, load_scenario, manifest_for
from .mapmatch import ExternalMatcher, GraphMatcher, MatchServiceError
from .obd import OBD_RESPONSE_ID_FIRST
from .reveng import (
    DEFAULT_ID_CEILING,
    VehicleError,
    candidate_report_csv,
    compute_change_stats,
    format_candidate_report,
    rank_swa_candidates,
    resolve_entry,
    resolve_spec,
)
from .roadgraph import RoadGraph
from .synthgen import simulate
from .trackeval import MATCH_EPSILON_M, comparison_csv_row, compare_tracks, load_gpx, save_gpx
from .tuner import grid_search, marginal_curves, rows_to_csv

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-readable
        raise UsageError(message)


def _warn_skipped(skipped: list[tuple[int, str]], where: str = "") -> None:
    """One warning line naming the log lines that ``read_log`` skipped, if any."""
    if skipped:
        shown = ", ".join(str(line_no) for line_no, _ in skipped[:5])
        more = "" if len(skipped) <= 5 else f" (+{len(skipped) - 5} more)"
        print(f"warning: {where}skipped {len(skipped)} unparseable lines: {shown}{more}", file=sys.stderr)


def _read_frames(path: str, strict: bool = False):
    source = sys.stdin if path == "-" else path
    frames, skipped = read_log(source, strict=strict)
    _warn_skipped(skipped)
    return frames


def _parse_start(text: str) -> VehiclePose:
    """The start pose from ``infer --start``: lat,lon,bearing, three finite numbers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--start expects lat,lon,bearing")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"--start has a non-numeric component in {parts!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"--start has a non-finite component in {parts!r}")
    try:
        return VehiclePose(*values)
    except ValueError as exc:
        raise UsageError(f"--start: {exc}") from None


def _parse_params(text: str | None) -> InferenceParams:
    if not text:
        return InferenceParams()
    # each parameter parses as the type of its default (int or float)
    kinds = {f.name: type(f.default) for f in fields(InferenceParams)}
    values = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"--params entries look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise UsageError(f"unknown parameter {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError:
            raise UsageError(f"--params {key} has a non-numeric value {value!r}") from None
    try:
        return InferenceParams(**values)
    except ValueError as exc:
        raise UsageError(f"--params: {exc}") from None


def _hex_id(text: str) -> int:
    """An 11-bit CAN identifier given in hex, for ``--swa-id`` and ``--ceiling``."""
    try:
        value = int(text, 16)
        if 0 <= value <= MAX_STD_ID:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a hex CAN identifier 0-{MAX_STD_ID:X}, got {text!r}")


def _make_matcher(spec: str | None):
    if spec is None or spec == "none":
        return None
    if spec.startswith("internal:"):
        return GraphMatcher(RoadGraph.load(spec[len("internal:"):]))
    if spec.startswith("external:"):
        return ExternalMatcher(spec[len("external:"):])
    raise UsageError(f"--matcher must be internal:<graph>, external:<url> or none, got {spec!r}")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers --------------------------------------------------------


def _cmd_rewheel(args) -> int:
    frames = _read_frames(args.log, strict=args.strict)
    stats = compute_change_stats(frames)
    ranked = rank_swa_candidates(stats, id_ceiling=args.ceiling)
    if args.csv:
        _write_or_print(candidate_report_csv(ranked), args.out)
    else:
        _write_or_print(format_candidate_report(ranked), args.out)
    return 0


def _cmd_decode(args) -> int:
    decoder = resolve_entry(args.model, args.decoder_file).decoder
    frames = _read_frames(args.log, strict=args.strict)
    lines = ["timestamp,signal,value"]
    for t, signal, value in decode_signals(frames, decoder):
        shown = f"{value:.4f}" if signal == ANGLE else value
        lines.append(f"{t:.6f},{signal},{shown}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_logfilter(args) -> int:
    # the mask keeps all eight OBD responders, 0x7E8-0x7EF
    id_filter = IdFilter(((OBD_RESPONSE_ID_FIRST, 0x7F8), (args.swa_id, 0x7FF)))
    frames = _read_frames(args.log, strict=args.strict)
    write_log(filter_frames(frames, id_filter), args.out or sys.stdout)
    return 0


def _cmd_infer(args) -> int:
    # flag-only validation first, file I/O after
    if args.log == "-" and not args.out:
        raise UsageError("infer reads the log from stdin: pass --out for the GPX")
    start = _parse_start(args.start)
    params = _parse_params(args.params)
    entry = resolve_entry(args.model, args.decoder_file)
    vehicle = resolve_spec(entry, args.wheelbase)
    matcher = _make_matcher(args.matcher)
    frames = _read_frames(args.log, strict=args.strict)
    result = infer_path(frames, entry.decoder, vehicle, start, params, matcher)
    out = args.out or os.path.splitext(args.log)[0] + "_inferred.gpx"
    save_gpx(result.track, out)
    print(f"wrote {out} ({len(result.track)} points)")
    _write_or_print(result.diagnostics.report(), args.report)
    return 0


def _cmd_compare(args) -> int:
    track_a = load_gpx(args.gpx_a)
    track_b = load_gpx(args.gpx_b)
    result = compare_tracks(
        track_a, track_b, match_epsilon=args.epsilon, spacing_m=args.spacing
    )
    name = os.path.splitext(os.path.basename(args.gpx_a))[0]
    print(comparison_csv_row(name, track_a, result))
    return 0


def _cmd_synth(args) -> int:
    scenario = load_scenario(args.scenario)
    result = simulate(scenario)
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.scenario))
    os.makedirs(out_dir, exist_ok=True)
    log_file = os.path.join(out_dir, f"{scenario.name}.log")
    truth_file = os.path.join(out_dir, f"{scenario.name}_truth.gpx")
    manifest_file = os.path.join(out_dir, f"{scenario.name}_manifest.json")
    write_log(result.frames, log_file)
    save_gpx(result.truth, truth_file)
    manifest = manifest_for(scenario, result, log_file, truth_file)
    _write_or_print(json.dumps(manifest, indent=2) + "\n", manifest_file)
    print(f"wrote {log_file}")
    print(f"wrote {truth_file}")
    print(f"wrote {manifest_file}")
    return 0


def _cmd_tune(args) -> int:
    graph, grids, tracks, skipped = load_manifest(args.manifest)
    for track, lines in zip(tracks, skipped):
        _warn_skipped(lines, f"manifest track {track.name!r}: ")
    rows = grid_search(tracks, graph, grids=grids)
    csv_text = rows_to_csv(rows)
    _write_or_print(csv_text, args.out)
    failed = Counter(error.__name__ for row in rows for error in row.errors if error is not None)
    cells = len(rows) * len(tracks)
    for name, count in sorted(failed.items()):
        print(f"warning: {count} of {cells} cells (combination x track) scored 0 on {name}", file=sys.stderr)
    best = rows[0]
    chosen = " ".join(f"{f.name}={getattr(best.params, f.name)}" for f in fields(InferenceParams))
    print(f"best: {chosen} mean_accuracy={best.mean_accuracy:.4f}", file=sys.stderr)
    if args.marginals:
        curves = marginal_curves(rows, grids)
        lines = [f"{name},{value},{acc:.4f}\n" for name, curve in curves.items() for value, acc in curve]
        _write_or_print("parameter,value,mean_accuracy\n" + "".join(lines), args.marginals)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="canpath", description=__doc__)
    parser.add_argument("--version", action="version", version=f"canpath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewheel", help="rank likely steering-angle IDs in a wiggle log")
    p.add_argument("log")
    p.add_argument(
        "--ceiling", type=_hex_id, default=f"{DEFAULT_ID_CEILING:X}", help="hex ID ceiling (default %(default)s)"
    )
    p.add_argument("--strict", action="store_true", help="abort on unparseable lines")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=_cmd_rewheel)

    p = sub.add_parser("decode", help="decode a log into an angle/speed time-series CSV")
    p.add_argument("log")
    p.add_argument("--strict", action="store_true", help="abort on unparseable lines")
    p.add_argument("--model", help="known vehicle model")
    p.add_argument("--decoder-file", help="decoder sheet file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("logfilter", help="keep only OBD responses and one steering ID")
    p.add_argument("log")
    p.add_argument("--strict", action="store_true", help="abort on unparseable lines")
    p.add_argument("--swa-id", type=_hex_id, required=True, help="steering-angle CAN ID in hex")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_logfilter)

    p = sub.add_parser("infer", help="reconstruct the driven path from a log")
    p.add_argument("log")
    p.add_argument("--strict", action="store_true", help="abort on unparseable lines")
    p.add_argument("--start", required=True, help="lat,lon,bearing at departure")
    p.add_argument("--model")
    p.add_argument("--decoder-file")
    p.add_argument("--wheelbase", type=float)
    p.add_argument("--params", help="t_window=0.1,speed_max=50,... overrides")
    p.add_argument("--matcher", help="internal:<graph file> | external:<url> | none")
    p.add_argument("--out", help="output GPX (default: <log>_inferred.gpx; required for stdin)")
    p.add_argument("--report", help="write the diagnostics report to a file")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("compare", help="similarity of two GPX tracks")
    p.add_argument("gpx_a")
    p.add_argument("gpx_b")
    p.add_argument("--epsilon", type=float, default=MATCH_EPSILON_M, help="match distance in meters")
    p.add_argument("--spacing", type=float, default=None, help="resample spacing in meters")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="simulate a scenario file into a log + truth GPX")
    p.add_argument("scenario")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("tune", help="grid-search inference parameters over logged tracks")
    p.add_argument("manifest")
    p.add_argument("--out", help="write the grid CSV to a file")
    p.add_argument("--marginals", help="write per-parameter curves to a file")
    p.set_defaults(func=_cmd_tune)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, VehicleError, ManifestError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (MatchServiceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
