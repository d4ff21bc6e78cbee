"""GPX track reading/writing and alignment-based track similarity.

Two tracks are compared by global sequence alignment (Needleman-Wunsch)
where a pair of points "matches" when their great-circle distance is
within an epsilon. The similarity score is matched pairs over the longer
track's length.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone

from .geokin import EARTH_RADIUS_M, LatLon, cumulative_lengths, geodesic_inverse, point_along, polyline_length

MATCH_SCORE = 1
MISMATCH_SCORE = -1
GAP_SCORE = -1

# Cell widths of the alignment's point hash are widened by 0.1 % (plus 1e-9
# degrees) so rounding in the distance never puts a pair within epsilon two
# cells apart.
_CELL_PAD = 1.001

GPX_NS = "http://www.topografix.com/GPX/1/1"


class GpxError(ValueError):
    pass


@dataclass(frozen=True)
class Track:
    points: tuple[LatLon, ...]
    times: tuple[float, ...] | None = None

    def __post_init__(self):
        for lat, lon in self.points:
            if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                raise ValueError(f"coordinate ({lat}, {lon}) out of range")
        if self.times is not None and len(self.times) != len(self.points):
            raise ValueError("times must align with points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def length_m(self) -> float:
        return polyline_length(self.points)


@dataclass(frozen=True)
class AlignmentResult:
    matched_pairs: int
    aligned_length: int
    accuracy: float
    flags_a: tuple[bool, ...]
    flags_b: tuple[bool, ...]
    score: int = 0  # optimal alignment score from the dynamic program


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_gpx(text: str) -> Track:
    """Parse GPX 1.1 text; multiple segments/tracks concatenate in order."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GpxError(f"malformed GPX document: {exc}") from None
    points: list[LatLon] = []
    times: list[float | None] = []
    index = 0
    for trkpt in root.iter():
        if _localname(trkpt.tag) != "trkpt":
            continue
        lat_text = trkpt.get("lat")
        lon_text = trkpt.get("lon")
        if lat_text is None or lon_text is None:
            missing = "lat" if lat_text is None else "lon"
            raise GpxError(f"trkpt {index}: missing {missing} attribute")
        try:
            lat, lon = float(lat_text), float(lon_text)
        except ValueError:
            raise GpxError(f"trkpt {index}: non-numeric coordinate") from None
        points.append((lat, lon))
        time_el = next((c for c in trkpt if _localname(c.tag) == "time"), None)
        if time_el is not None and time_el.text:
            try:
                stamp = datetime.fromisoformat(time_el.text.replace("Z", "+00:00"))
                times.append(stamp.timestamp())
            except ValueError:
                raise GpxError(f"trkpt {index}: bad time {time_el.text!r}") from None
        else:
            times.append(None)
        index += 1
    have_times = points and all(t is not None for t in times)
    return Track(
        points=tuple(points),
        times=tuple(times) if have_times else None,  # type: ignore[arg-type]
    )


def load_gpx(path: str) -> Track:
    with open(path, "r", encoding="utf-8") as fp:
        return read_gpx(fp.read())


def _format_time(epoch: float) -> str:
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def write_gpx(track: Track) -> str:
    """Serialize a single-track, single-segment GPX 1.1 document.

    Formatting is fixed (7 decimal places) so identical tracks serialize to
    identical bytes.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gpx version="1.1" creator="canpath" xmlns="{GPX_NS}">',
        "  <trk>",
        "    <trkseg>",
    ]
    for i, (lat, lon) in enumerate(track.points):
        if track.times is not None:
            lines.append(
                f'      <trkpt lat="{lat:.7f}" lon="{lon:.7f}">'
                f"<time>{_format_time(track.times[i])}</time></trkpt>"
            )
        else:
            lines.append(f'      <trkpt lat="{lat:.7f}" lon="{lon:.7f}"/>')
    lines += ["    </trkseg>", "  </trk>", "</gpx>", ""]
    return "\n".join(lines)


def save_gpx(track: Track, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(write_gpx(track))


def _within_sets(pa, pb, match_epsilon: float) -> list[set[int]]:
    """For each point of pa, the indices j of pb with
    ``geodesic_inverse(pa[i], pb[j])[0] <= match_epsilon``.

    The points of pb are hashed into cells one epsilon of latitude high and
    one bound of longitude wide, and each point of pa tests only the pb
    points in its own and the eight neighbouring cells. The haversine
    distance d of two points bounds |dlat| <= d/R and, with phi the tracks'
    largest |lat|, |sin(dlon/2)| <= sin(d/2R)/cos(phi); so any pair within
    epsilon sits in neighbouring cells (both widths are padded for
    rounding). Where no such longitude bound exists, near a pole, or where
    the haversine's longitude wrap can join points across +/-180 degrees,
    every pair is tested.
    """
    half = match_epsilon / (2.0 * EARTH_RADIUS_M)
    max_lat = max((abs(p[0]) for p in (*pa, *pb)), default=0.0)
    s = math.sin(half) / math.cos(math.radians(max_lat)) if 0.0 < half < 1.0 else math.inf
    lon_cell = math.degrees(2.0 * math.asin(s)) * _CELL_PAD + 1e-9 if s <= 0.5 else math.inf
    if lon_cell == math.inf or any(abs(p[1]) >= 180.0 - lon_cell for p in (*pa, *pb)):
        return [{j for j, q in enumerate(pb) if geodesic_inverse(p, q)[0] <= match_epsilon} for p in pa]
    lat_cell = math.degrees(2.0 * half) * _CELL_PAD + 1e-9
    cells: dict[tuple[int, int], list[int]] = {}
    for j, (lat, lon) in enumerate(pb):
        cells.setdefault((int(lat // lat_cell), int(lon // lon_cell)), []).append(j)
    rows = []
    for p in pa:
        ci, cj = int(p[0] // lat_cell), int(p[1] // lon_cell)
        rows.append({
            j
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for j in cells.get((ci + di, cj + dj), ())
            if geodesic_inverse(p, pb[j])[0] <= match_epsilon
        })
    return rows


def nw_align(a: Track, b: Track, match_epsilon: float = 10.0) -> AlignmentResult:
    """Global alignment: +1 for pairs within match_epsilon meters, -1 for
    non-matching pairs, -1 per gap. Accuracy = matched / max(len_a, len_b);
    two empty tracks count as identical.

    Traceback ties prefer pairing, then a gap in b, then a gap in a.

    Which pairs are within epsilon is found by a cell hash over b
    (``_within_sets``), which evaluates the same distance predicate on
    every pair that can pass it, so the result equals that of testing all
    la*lb pairs.
    """
    pa, pb = a.points, b.points
    la, lb = len(pa), len(pb)
    if la == 0 and lb == 0:
        return AlignmentResult(0, 0, 1.0, (), (), score=0)

    within = _within_sets(pa, pb, match_epsilon)
    score = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        score[i][0] = i * GAP_SCORE
    for j in range(1, lb + 1):
        score[0][j] = j * GAP_SCORE
    for i in range(1, la + 1):
        row = score[i]
        prev = score[i - 1]
        hit = [False] * lb
        for j in within[i - 1]:
            hit[j] = True
        for j in range(1, lb + 1):
            pair = prev[j - 1] + (MATCH_SCORE if hit[j - 1] else MISMATCH_SCORE)
            row[j] = max(pair, prev[j] + GAP_SCORE, row[j - 1] + GAP_SCORE)

    flags_a = [False] * la
    flags_b = [False] * lb
    matched = 0
    aligned = 0
    i, j = la, lb
    while i > 0 or j > 0:
        aligned += 1
        if i > 0 and j > 0:
            hit = (j - 1) in within[i - 1]
            pair = score[i - 1][j - 1] + (MATCH_SCORE if hit else MISMATCH_SCORE)
            if score[i][j] == pair:
                if hit:
                    matched += 1
                    flags_a[i - 1] = True
                    flags_b[j - 1] = True
                i -= 1
                j -= 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + GAP_SCORE:
            i -= 1
            continue
        j -= 1

    return AlignmentResult(
        matched_pairs=matched,
        aligned_length=aligned,
        accuracy=matched / max(la, lb),
        flags_a=tuple(flags_a),
        flags_b=tuple(flags_b),
        score=score[la][lb],
    )


def resample_track(track: Track, spacing_m: float) -> Track:
    """Points every spacing_m meters along the track polyline (endpoints kept).

    Makes similarity scores comparable between tracks recorded at different
    sampling rates.
    """
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    pts = track.points
    if len(pts) < 2:
        return Track(points=pts)
    cum = cumulative_lengths(pts)
    total = cum[-1]
    if total == 0:
        return Track(points=(pts[0],))
    out: list[LatLon] = []
    target = 0.0
    # stop short of the end so the appended endpoint never duplicates a sample
    limit = total - max(1e-9, 1e-6 * spacing_m)
    while target < limit:
        out.append(point_along(pts, cum, target))
        target += spacing_m
    out.append(pts[-1])
    return Track(points=tuple(out))


def compare_tracks(
    a: Track,
    b: Track,
    match_epsilon: float = 10.0,
    spacing_m: float | None = None,
) -> AlignmentResult:
    """Sampling-rate-independent similarity of two tracks.

    Both tracks are resampled to a common spacing (default: match_epsilon)
    before alignment, so a densely logged track and a sparse ground truth
    score on geometry rather than on point counts.
    """
    spacing = match_epsilon if spacing_m is None else spacing_m
    return nw_align(resample_track(a, spacing), resample_track(b, spacing), match_epsilon)


def comparison_csv_row(track_id: str, track: Track, result: AlignmentResult) -> str:
    """One experiment-sheet row: track id, length in km, accuracy."""
    return f"{track_id},{track.length_m / 1000.0:.3f},{result.accuracy:.4f}"
