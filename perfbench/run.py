"""canpath benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload highway --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: the next operation starts only when
the previous one has returned. An operation is what one ``canpath infer``
plus ``canpath compare`` invocation does for a drive (``highway``,
``grid_city``), or what one ``canpath tune`` invocation does (``tuning``).
Each operation first loads its road graph and builds its matcher; that
set-up is timed apart as ``setup_s`` and kept out of every other figure.

Around the operations the benchmark times a fixed piece of reference work
(``perfbench/reference.py``) and rescales each timed interval by the marks
around it: the end-to-end times are seconds at the machine's reference
speed, so that a slow spell of the shared host does not read as a slower
program. The table above the JSON line also gives the wall-clock figures.

Inputs come from ``perfbench/gen.py`` in a child process and reach the
program as text only. Each operation's output is checked: it must not
raise, its GPX point count must equal ``diagnostics.windows``, a repeated
operation must reproduce its bytes, and for seeds listed in
``perfbench/digests.json`` the GPX (or grid CSV) sha256 must match the
recorded one. A tuning cell scoring 0.0 counts as failed, because the tuner
turns exceptions into that score.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs a fixed set of operations, each once untraced and once traced, and
prints the per-layer metrics of the traced ones; the spans go to
``.perfbench_out/`` in the checkout.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("highway", "grid_city", "tuning")
GEN_TIMEOUT_S = 150

# Operations a traced run makes, each once untraced and once traced.
TRACE_OPS = {"highway": 2, "grid_city": 2, "tuning": 1}

# Least time between two reference marks inside an inference or a grid
# search.
MARK_EVERY_S = 1.0


# perf_counter() readings at the start and the end of a piece of timed work
Interval = tuple[float, float]


class Segments:
    """The intervals of one piece of timed work, split wherever a mark is
    made inside it, so that the marks' own time is left out."""

    def __init__(self, mark):
        self.mark = mark
        self.intervals: list[Interval] = []
        self.start = time.perf_counter()

    def mark_if_due(self) -> None:
        now = time.perf_counter()
        if now - self.start >= MARK_EVERY_S:
            self.intervals.append((self.start, now))
            self.mark()
            self.start = time.perf_counter()

    def end(self) -> list[Interval]:
        self.intervals.append((self.start, time.perf_counter()))
        return self.intervals


class MarkingMatcher:
    """A matcher for `infer_path` that passes each batch to `matcher` and
    then lets `segments` mark, so that an inference of seconds is marked
    inside too."""

    def __init__(self, matcher, segments: Segments):
        self.matcher = matcher
        self.segments = segments

    def match(self, points):
        result = self.matcher.match(points)
        self.segments.mark_if_due()
        return result


@dataclass
class Stats:
    """What the operations of one pass measured, kept as clock intervals so
    that each can be rescaled by the reference measured around it. `infer`
    holds infer calls by input index, each as its intervals and the route km
    it covered; `compare` compare calls by input index; `evals` the
    evaluations each operation made, with the intervals that made them."""

    setup: list[Interval] = field(default_factory=list)
    infer: dict[int, list[tuple[list[Interval], float]]] = field(default_factory=dict)
    compare: dict[int, list[Interval]] = field(default_factory=dict)
    evals: list[tuple[int, list[Interval]]] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict[int, str] = field(default_factory=dict)

    def add(self, op: Stats) -> None:
        self.setup += op.setup
        for index, calls in op.infer.items():
            self.infer.setdefault(index, []).extend(calls)
        for index, calls in op.compare.items():
            self.compare.setdefault(index, []).extend(calls)
        self.evals += op.evals
        self.accuracy += op.accuracy
        self.attempted += op.attempted
        self.failed += op.failed


def digest_ok(stats: Stats, expected: list[str] | None, index: int, digest: str) -> bool:
    """Operation `index` must repeat its first digest of the run, and match
    the digest recorded for this seed, if any."""
    first = stats.digests.setdefault(index, digest)
    if first != digest:
        print(f"check: operation {index} output changed between repeats", file=sys.stderr)
        return False
    if expected is not None and expected[index] != digest:
        print(f"check: operation {index} digest {digest} != recorded {expected[index]}", file=sys.stderr)
        return False
    return True


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DriveWorkload:
    """highway and grid_city: infer each drive from its log, then compare it
    with the simulator's truth."""

    def __init__(self, doc: dict):
        from canpath.geokin import VehiclePose, VehicleSpec
        from canpath.reveng import AngleDecoder
        from canpath.trackeval import read_gpx

        self.decoder = AngleDecoder(id=doc["decoder_id"])
        self.vehicle = VehicleSpec(wheelbase=doc["wheelbase"])
        self.drives = doc["drives"]
        self.shared_graph = doc.get("graph")
        self.truths = [read_gpx(d["truth"]) for d in self.drives]
        self.starts = [VehiclePose(*d["start"]) for d in self.drives]
        self.size = len(self.drives)

    def setup(self, index: int):
        from canpath.mapmatch import GraphMatcher
        from canpath.roadgraph import RoadGraph

        text = self.drives[index].get("graph", self.shared_graph)
        return GraphMatcher(RoadGraph.from_text(text))

    def run(self, index: int, matcher, stats: Stats, expected: list[str] | None, mark) -> None:
        from canpath import canlog, inference, trackeval

        drive = self.drives[index]
        stats.attempted += 1
        segments = Segments(mark)
        frames, _skipped = canlog.parse_log(io.StringIO(drive["log"]), strict=False)
        result = inference.infer_path(
            frames, self.decoder, self.vehicle, self.starts[index], inference.InferenceParams(),
            MarkingMatcher(matcher, segments),
        )
        gpx = result.gpx
        infer = segments.end()
        mark()
        t0 = time.perf_counter()
        alignment = trackeval.compare_tracks(result.track, self.truths[index])
        t1 = time.perf_counter()
        stats.infer.setdefault(index, []).append((infer, drive["km"]))
        stats.compare.setdefault(index, []).append((t0, t1))
        stats.evals.append((1, infer + [(t0, t1)]))
        stats.accuracy.append(alignment.accuracy)
        ok = digest_ok(stats, expected, index, _sha(gpx))
        if gpx.count("<trkpt") != result.diagnostics.windows:
            print(f"check: operation {index} GPX points != {result.diagnostics.windows} windows", file=sys.stderr)
            ok = False
        if not 0.0 <= alignment.accuracy <= 1.0:
            print(f"check: operation {index} accuracy {alignment.accuracy} outside [0, 1]", file=sys.stderr)
            ok = False
        if not ok:
            stats.failed += 1


class TuningWorkload:
    """tuning: one grid search over the compact tracks and the binding track
    on their merged graph."""

    def __init__(self, doc: dict):
        from canpath.geokin import VehiclePose, VehicleSpec
        from canpath.reveng import AngleDecoder

        self.decoder = AngleDecoder(id=doc["decoder_id"])
        self.vehicle = VehicleSpec(wheelbase=doc["wheelbase"])
        self.graph_text = doc["graph"]
        self.drives = doc["drives"]
        self.grids = {k: tuple(v) for k, v in doc["grids"].items()}
        self.starts = [VehiclePose(*d["start"]) for d in self.drives]
        self.km_by_start = {(s.lat, s.lon, s.bearing): d["km"] for s, d in zip(self.starts, self.drives)}
        self.size = 1

    def setup(self, index: int):
        from canpath import canlog
        from canpath.roadgraph import RoadGraph
        from canpath.trackeval import read_gpx
        from canpath.tuner import TuneTrack

        graph = RoadGraph.from_text(self.graph_text)
        tracks = [
            TuneTrack(
                name=d["name"],
                frames=tuple(canlog.parse_log(io.StringIO(d["log"]), strict=False)[0]),
                truth=read_gpx(d["truth"]),
                start=start,
                decoder=self.decoder,
                vehicle=self.vehicle,
            )
            for d, start in zip(self.drives, self.starts)
        ]
        return graph, tracks

    def run(self, index: int, ctx, stats: Stats, expected: list[str] | None, mark) -> None:
        from canpath import tuner

        graph, tracks = ctx
        infer_path, compare_tracks = tuner.infer_path, tuner.compare_tracks
        infer_calls = stats.infer.setdefault(index, [])
        compare_calls = stats.compare.setdefault(index, [])

        # Times single evaluations inside the grid search: two clock reads
        # per call, against tens of milliseconds of work per call. The
        # search takes seconds, so it is marked between evaluations too.
        def timed_infer(frames, decoder, vehicle, start, *args, **kwargs):
            t0 = time.perf_counter()
            result = infer_path(frames, decoder, vehicle, start, *args, **kwargs)
            km = self.km_by_start[(start.lat, start.lon, start.bearing)]
            infer_calls.append(([(t0, time.perf_counter())], km))
            return result

        def timed_compare(*args, **kwargs):
            t0 = time.perf_counter()
            result = compare_tracks(*args, **kwargs)
            compare_calls.append((t0, time.perf_counter()))
            segments.mark_if_due()
            return result

        tuner.infer_path, tuner.compare_tracks = timed_infer, timed_compare
        try:
            segments = Segments(mark)
            rows = tuner.grid_search(tracks, graph, grids=self.grids, workers=1)
            csv_text = tuner.rows_to_csv(rows)
            search = segments.end()
        finally:
            tuner.infer_path, tuner.compare_tracks = infer_path, compare_tracks
        evals = len(rows) * len(tracks)
        stats.evals.append((evals, search))
        stats.attempted += evals
        stats.accuracy.extend(r.mean_accuracy for r in rows)
        zero = sum(score == 0.0 for r in rows for score in r.per_track)
        if zero:
            print(f"check: {zero} tuning evaluations scored 0.0", file=sys.stderr)
        stats.failed += zero if digest_ok(stats, expected, index, _sha(csv_text)) else evals


def run_pass(workload, indices, stats: Stats, expected: list[str] | None, tracer=None, mark=None) -> None:
    """Runs the operations `indices` name into `stats`, calling `mark`, if
    given, before the first, after each, between an operation's infer and
    compare, and every MARK_EVERY_S or so inside an inference or a grid
    search. An operation that raises counts as one failed attempt, and none
    of its intervals are kept."""
    mark = mark or (lambda: None)
    mark()
    for index in indices:
        if tracer is not None:
            tracer.begin_op()
        op = Stats(digests=stats.digests)
        try:
            t0 = time.perf_counter()
            ctx = workload.setup(index)
            op.setup.append((t0, time.perf_counter()))
            workload.run(index, ctx, op, expected, mark)
        except Exception:
            op = Stats(attempted=1, failed=1)
            traceback.print_exc()
        finally:
            ctx = None  # release this operation's graph before the next loads
            if tracer is not None:
                tracer.end_op()
        mark()
        stats.add(op)


def timed_indices(size: int, seconds: float):
    """Operation indices, cycling through the inputs. The next operation
    starts only if one more of the length of the last fits in the time left,
    so a run ends within about `seconds` of its first operation."""
    start = last = time.perf_counter()
    i = 0
    while True:
        yield i % size
        i += 1
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return
        last = now


def median_of_medians(samples: dict[int, list[float]]) -> float:
    """The median over inputs of each input's median time, so that an input
    run once more than the others in a timed run does not shift it."""
    return statistics.median(statistics.median(times) for times in samples.values())


def wall_s(interval: Interval) -> float:
    return interval[1] - interval[0]


def infer_s(stats: Stats, seconds=wall_s) -> dict[int, list[float]]:
    return {index: [sum(map(seconds, ivs)) for ivs, _km in calls] for index, calls in stats.infer.items()}


def highest_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, by
    the nearest-rank rule, or None below twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(samples)[math.ceil(pct * n / 100) - 1]


def end_to_end(stats: Stats, seconds=wall_s) -> dict[str, tuple[float, str]]:
    """The metrics of BENCHMARK.json, with `seconds` giving the time of each
    interval."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    compare = {index: [seconds(iv) for iv in calls] for index, calls in stats.compare.items()}
    calls = [call for calls in stats.infer.values() for call in calls]
    km_per_s = sum(km for _ivs, km in calls) / sum(sum(map(seconds, ivs)) for ivs, _km in calls)
    evals_per_s = [n / sum(map(seconds, ivs)) for n, ivs in stats.evals]
    return {
        "infer_s": (median_of_medians(infer_s(stats, seconds)), "s"),
        "infer_km_per_s": (km_per_s, "km/s"),
        "compare_s": (median_of_medians(compare), "s"),
        "tune_evals_per_s": (statistics.median(evals_per_s), "1/s"),
        "accuracy_mean": (statistics.fmean(stats.accuracy), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(seconds(iv) for iv in stats.setup), "s"),
    }


def per_layer(tracer, traced: Stats, untraced: Stats, gen_s: float) -> dict[str, tuple[float, str]]:
    spans = tracer.durations()
    counts = tracer.counts
    ops = tracer.ops

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    parse = span("canlog.parse_log")
    nearest = span("roadgraph.RoadGraph.nearest_edges")
    project = span("roadgraph.RoadGraph.project_to_edge")
    route = span("roadgraph.route_distance")
    match = span("mapmatch.GraphMatcher.match")
    return {
        "gen_s": (gen_s, "s"),
        "trace.overhead_s": (median_of_medians(infer_s(traced)) - median_of_medians(infer_s(untraced)), "s"),
        "canlog.parse_s": (parse[1] / ops, "s"),
        "canlog.lines_per_s": (ratio(counts["canlog.lines"], parse[1]), "1/s"),
        "canlog.lines_skipped": (counts["canlog.lines_skipped"] / ops, "count"),
        "reveng.decode_angle_calls": (counts["reveng.decode_angle"] / ops, "count"),
        "obd.decode_speed_calls": (counts["obd.decode_speed_response"] / ops, "count"),
        "inference.windows": (counts["inference.windows"] / ops, "count"),
        "inference.batches": (counts["inference.batches"] / ops, "count"),
        "inference.fallback_spans": (counts["inference.fallback_spans"] / ops, "count"),
        "inference.self_s": (span("inference.infer_path")[2] / ops, "s"),
        "geokin.inverse_calls": (counts["geokin.geodesic_inverse"] / ops, "count"),
        "geokin.forward_calls": (counts["geokin.geodesic_forward"] / ops, "count"),
        "roadgraph.nearest_edges_us": (1e6 * ratio(nearest[1], nearest[0]), "us"),
        "roadgraph.segments_projected": (counts["roadgraph.segments_projected"] / ops, "count"),
        "roadgraph.candidate_yield": (ratio(counts["roadgraph.candidates"], project[0]), "ratio"),
        "roadgraph.route_distance_us": (1e6 * ratio(route[1], route[0]), "us"),
        "roadgraph.node_distances_s": (span("roadgraph.RoadGraph.node_distances")[1] / ops, "s"),
        "roadgraph.distinct_sources": (counts["roadgraph.distinct_sources"] / ops, "count"),
        "mapmatch.match_calls": (match[0] / ops, "count"),
        "mapmatch.match_self_s": (match[2] / ops, "s"),
        "mapmatch.candidates_per_point": (ratio(counts["roadgraph.candidates"], nearest[0]), "count"),
        "mapmatch.transitions": (counts["mapmatch.transitions"] / ops, "count"),
        "mapmatch.unmatched": (counts["mapmatch.GraphMatcher.match.raised.UnmatchedGapError"] / ops, "count"),
        "trackeval.nw_align_s": (span("trackeval.nw_align")[1] / ops, "s"),
        "trackeval.nw_cells": (counts["trackeval.nw_cells"] / ops, "count"),
        "trackeval.resample_s": (span("trackeval.resample_track")[1] / ops, "s"),
        "trackeval.write_gpx_s": (span("trackeval.write_gpx")[1] / ops, "s"),
        "tuner.infer_calls": (span("inference.infer_path")[0] / ops, "count"),
        "tuner.useful_ratio": (ratio(tracer.distinct_outputs, span("inference.infer_path")[0]), "ratio"),
    }


def load_digests() -> dict:
    try:
        with open(DIGESTS, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def generate(workload: str, seed: int, tiny: bool) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=GEN_TIMEOUT_S)
    gen_s = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"input generator exited with code {proc.returncode}")
    return json.loads(proc.stdout), gen_s


def print_table(metrics: dict[str, tuple[float, str]], stats: Stats) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    infer = sum(len(calls) for calls in stats.infer.values())
    print(f"{'samples':32s} {infer:14d} infer calls, {len(stats.evals)} operations")
    print(f"{'error_rate':32s} {stats.failed / max(1, stats.attempted):14.6f} ratio "
          f"({stats.failed} of {stats.attempted} failed)")
    for index in sorted(stats.digests):
        print(f"digest {index} {stats.digests[index]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="run every input once and record its digest for this seed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "canpath")):
        print(f"error: no canpath sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    doc, gen_s = generate(args.workload, args.seed, args.tiny)
    workload = (TuningWorkload if args.workload == "tuning" else DriveWorkload)(doc)
    recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    expected = None if args.tiny or args.record else recorded

    if args.record:
        stats = Stats()
        run_pass(workload, range(workload.size), stats, expected)
        if stats.failed:
            print("error: not recording, some operations failed", file=sys.stderr)
            return 1
        digests = load_digests()
        digests.setdefault(args.workload, {})[str(args.seed)] = [stats.digests[i] for i in range(workload.size)]
        with open(DIGESTS, "w", encoding="utf-8") as fp:
            json.dump(digests, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"recorded {workload.size} digests for {args.workload} seed {args.seed}")
        return 0

    if args.trace:
        from tracer import Tracer

        # untraced and traced operations alternate, so a slow spell of the
        # machine falls on both sides of the overhead figure
        untraced, traced = Stats(), Stats()
        tracer = Tracer()
        for i in range(TRACE_OPS[args.workload]):
            index = i % workload.size
            run_pass(workload, [index], untraced, expected)
            tracer.install()
            try:
                run_pass(workload, [index], traced, expected, tracer)
            finally:
                tracer.uninstall()
        for name in sorted(set(tracer.missing)):
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)
        if traced.digests != untraced.digests:
            print("check: traced outputs differ from untraced ones", file=sys.stderr)
            traced.failed += traced.attempted
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}_{args.seed}.tsv"))
        stats = traced
        stats.attempted += untraced.attempted
        stats.failed += untraced.failed
        if not traced.evals or not untraced.evals:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics = per_layer(tracer, traced, untraced, gen_s)
    else:
        stats = Stats()
        ref = reference.Reference()
        run_pass(workload, timed_indices(workload.size, args.seconds), stats, expected, mark=ref.mark)
        if not stats.evals:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(stats, ref.seconds)
        print(f"{'gen_s':32s} {gen_s:14.6f} s (not compared)")
        print(f"{'reference_s (wall)':32s} {statistics.median(ref.samples):14.6f} s, "
              f"median of {len(ref.samples)}, {reference.REFERENCE_S} s at reference speed")
        for name, (value, unit) in end_to_end(stats).items():
            if unit in ("s", "km/s", "1/s"):
                print(f"{name + ' (wall)':32s} {value:14.6f} {unit}")
        infer = [t for times in infer_s(stats).values() for t in times]
        top = highest_percentile(infer)
        if top is not None:
            print(f"{f'infer_s.p{top[0]} (wall)':32s} {top[1]:14.6f} s of {len(infer)} calls")

    print_table(metrics, stats)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
