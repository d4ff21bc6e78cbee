import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from canpath.geokin import geodesic_inverse
from canpath import trackeval
from canpath.trackeval import (
    GAP_SCORE,
    MATCH_SCORE,
    MISMATCH_SCORE,
    AlignmentResult,
    GpxError,
    Track,
    compare_tracks,
    comparison_csv_row,
    nw_align,
    read_gpx,
    resample_track,
    write_gpx,
)

from helpers import DEG_M, brute_force_nw_score

BASE = (44.65, 10.92)
M_LAT = 1.0 / DEG_M  # degrees per meter of northing


def track_from_meters(*offsets_m):
    """Track whose points sit offsets_m meters east of a base point."""
    lat0, lon0 = BASE
    m_lon = 1.0 / (DEG_M * math.cos(math.radians(lat0)))
    return Track(points=tuple((lat0, lon0 + d * m_lon) for d in offsets_m))


# -- GPX I/O ---------------------------------------------------------------------


def test_gpx_roundtrip_three_points():
    track = Track(points=((44.65, 10.92), (44.6501, 10.9201), (44.6502, 10.9202)))
    back = read_gpx(write_gpx(track))
    for got, want in zip(back.points, track.points):
        assert got == pytest.approx(want, abs=1e-7)


def test_gpx_write_is_idempotent():
    track = Track(points=((44.65, 10.92), (44.6501, 10.9201)))
    once = write_gpx(read_gpx(write_gpx(track)))
    twice = write_gpx(read_gpx(once))
    assert once == twice


def test_gpx_multi_segment_concatenates():
    text = """<?xml version="1.0"?>
<gpx version="1.1" creator="x" xmlns="http://www.topografix.com/GPX/1/1">
 <trk><trkseg>
  <trkpt lat="44.65" lon="10.92"/><trkpt lat="44.651" lon="10.921"/>
 </trkseg><trkseg>
  <trkpt lat="44.652" lon="10.922"/><trkpt lat="44.653" lon="10.923"/><trkpt lat="44.654" lon="10.924"/>
 </trkseg></trk>
</gpx>"""
    assert len(read_gpx(text)) == 5


def test_gpx_missing_lon_is_an_error():
    text = """<gpx version="1.1"><trk><trkseg>
      <trkpt lat="44.65"/>
    </trkseg></trk></gpx>"""
    with pytest.raises(GpxError, match="trkpt 0: missing lon"):
        read_gpx(text)


def test_gpx_malformed_markup():
    with pytest.raises(GpxError, match="malformed"):
        read_gpx("<gpx><trk>")


def test_gpx_times_roundtrip():
    track = Track(points=((44.65, 10.92), (44.651, 10.921)), times=(0.0, 1.0))
    back = read_gpx(write_gpx(track))
    assert back.times == (0.0, 1.0)


# -- alignment -------------------------------------------------------------------


def test_identical_tracks_align_fully():
    track = track_from_meters(0, 20, 40)
    result = nw_align(track, track)
    assert result.matched_pairs == 3
    assert result.accuracy == 1.0
    assert result.score == 3
    assert result.flags_a == (True, True, True)


def test_middle_point_off_by_50m():
    a = track_from_meters(0, 20, 40)
    b = Track(points=(a.points[0], (a.points[1][0] + 50 * M_LAT, a.points[1][1]), a.points[2]))
    result = nw_align(a, b)
    # hand enumeration over length-3 alignments: pairing all three scores
    # +1-1+1=1 and beats any gapped alternative; two pairs match
    assert result.matched_pairs == 2
    assert result.accuracy == pytest.approx(2 / 3)
    assert result.score == 1


def test_empty_vs_track():
    empty = Track(points=())
    full = track_from_meters(0, 20, 40)
    result = nw_align(empty, full)
    assert result.matched_pairs == 0
    assert result.accuracy == 0.0
    assert result.score == -3


def test_both_empty_tracks_are_identical():
    result = nw_align(Track(points=()), Track(points=()))
    assert result.accuracy == 1.0


def test_alignment_result_consistency():
    a = track_from_meters(0, 15, 30, 45)
    b = track_from_meters(0, 30, 45)
    result = nw_align(a, b)
    # score of the traceback equals the DP optimum: matched - mismatched - gaps
    assert result.score == 2 * result.matched_pairs - result.aligned_length
    assert result.matched_pairs <= min(len(a), len(b))


def _random_track(rng, n):
    lat0, lon0 = BASE
    pts = []
    for _ in range(n):
        pts.append((lat0 + rng.uniform(-30, 30) * M_LAT, lon0 + rng.uniform(-30, 30) * M_LAT))
    return Track(points=tuple(pts))


def test_dp_score_equals_enumeration_on_random_pairs():
    rng = random.Random(42)
    for _ in range(40):
        a = _random_track(rng, rng.randint(0, 6))
        b = _random_track(rng, rng.randint(0, 6))
        if len(a) == 0 and len(b) == 0:
            continue
        got = nw_align(a, b).score
        want = brute_force_nw_score(a, b, 10.0)
        assert got == want


def test_accuracy_symmetry():
    rng = random.Random(99)
    for _ in range(20):
        a = _random_track(rng, rng.randint(1, 6))
        b = _random_track(rng, rng.randint(1, 6))
        assert nw_align(a, b).accuracy == pytest.approx(nw_align(b, a).accuracy)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(875)
def test_score_monotone_in_epsilon(seed):
    # A larger epsilon only turns -1 pairs into +1, so the optimal score
    # cannot fall. Accuracy can: at seed 875 the alignments at epsilon 20
    # and 10 tie at -4, and the traceback's tie order picks fewer matches
    # at 20.
    rng = random.Random(seed)
    a = _random_track(rng, rng.randint(1, 6))
    b = _random_track(rng, rng.randint(1, 6))
    scores = [nw_align(a, b, match_epsilon=eps).score for eps in (40.0, 20.0, 10.0, 5.0)]
    assert all(x >= y for x, y in zip(scores, scores[1:]))


def test_self_accuracy_one_for_any_nonempty():
    rng = random.Random(7)
    for n in range(1, 7):
        track = _random_track(rng, n)
        assert nw_align(track, track).accuracy == 1.0


def full_matrix_nw_align(a, b, match_epsilon=10.0):
    """Reference alignment: tests every pair, as nw_align did before its
    cell hash; the DP and traceback are the same."""
    pa, pb = a.points, b.points
    la, lb = len(pa), len(pb)
    if la == 0 and lb == 0:
        return AlignmentResult(0, 0, 1.0, (), (), score=0)
    within = [[geodesic_inverse(p, q)[0] <= match_epsilon for q in pb] for p in pa]
    score = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        score[i][0] = i * GAP_SCORE
    for j in range(1, lb + 1):
        score[0][j] = j * GAP_SCORE
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            pair = score[i - 1][j - 1] + (MATCH_SCORE if within[i - 1][j - 1] else MISMATCH_SCORE)
            score[i][j] = max(pair, score[i - 1][j] + GAP_SCORE, score[i][j - 1] + GAP_SCORE)
    flags_a, flags_b = [False] * la, [False] * lb
    matched = aligned = 0
    i, j = la, lb
    while i > 0 or j > 0:
        aligned += 1
        if i > 0 and j > 0:
            pair = score[i - 1][j - 1] + (MATCH_SCORE if within[i - 1][j - 1] else MISMATCH_SCORE)
            if score[i][j] == pair:
                if within[i - 1][j - 1]:
                    matched += 1
                    flags_a[i - 1] = flags_b[j - 1] = True
                i, j = i - 1, j - 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + GAP_SCORE:
            i -= 1
            continue
        j -= 1
    return AlignmentResult(
        matched, aligned, matched / max(la, lb), tuple(flags_a), tuple(flags_b), score=score[la][lb]
    )


def _walk(rng, n, start, step_m=8.0):
    """A random walk of n points with ~step_m meter steps."""
    lat, lon = start
    m_lon = M_LAT / math.cos(math.radians(lat))
    pts = []
    for _ in range(n):
        pts.append((lat, lon))
        lat += rng.uniform(-step_m, step_m) * M_LAT
        lon += rng.uniform(-step_m, step_m) * m_lon
    return Track(points=tuple(pts))


def test_nw_align_equals_full_matrix_on_random_pairs():
    rng = random.Random(11)
    for _ in range(60):
        a = _walk(rng, rng.randint(0, 40), BASE)
        b = _walk(rng, rng.randint(0, 40), BASE)
        for eps in (3.0, 10.0, 25.0):
            assert nw_align(a, b, eps) == full_matrix_nw_align(a, b, eps)


def test_nw_align_equals_full_matrix_at_exactly_epsilon():
    rng = random.Random(13)
    for _ in range(40):
        a = _walk(rng, 12, BASE)
        b = _walk(rng, 12, BASE)
        eps = geodesic_inverse(a.points[rng.randrange(12)], b.points[rng.randrange(12)])[0]
        for e in (eps, eps - 1e-6, eps + 1e-6):
            assert nw_align(a, b, e) == full_matrix_nw_align(a, b, e)


def test_nw_align_equals_full_matrix_near_latitude_80():
    rng = random.Random(17)
    for lat in (80.0, -80.0, 89.99):
        for _ in range(15):
            a = _walk(rng, rng.randint(1, 30), (lat, 10.92))
            b = _walk(rng, rng.randint(1, 30), (lat, 10.92))
            assert nw_align(a, b, 10.0) == full_matrix_nw_align(a, b, 10.0)
    # at the pole itself no longitude bound exists: every pair is tested
    a = Track(points=((90.0, 0.0), (89.99999, 45.0), (89.99995, 170.0)))
    b = Track(points=((90.0, -120.0), (89.99998, -45.0)))
    result = nw_align(a, b, 10.0)
    assert result.matched_pairs == 2
    assert result == full_matrix_nw_align(a, b, 10.0)


def test_nw_align_equals_full_matrix_across_the_antimeridian():
    east = Track(points=tuple((44.65 + k * 5 * M_LAT, 179.9999) for k in range(10)))
    west = Track(points=tuple((44.65 + k * 5 * M_LAT, -179.9999) for k in range(10)))
    result = nw_align(east, west, 20.0)
    assert result.matched_pairs == 10  # the haversine wraps: ~16 m apart
    assert result == full_matrix_nw_align(east, west, 20.0)
    assert nw_align(west, east, 20.0) == full_matrix_nw_align(west, east, 20.0)


def test_nw_align_distance_calls_grow_linearly(monkeypatch):
    # counts the haversine evaluations _within_sets makes, through the
    # name trackeval calls them by
    calls = []
    haversine = trackeval.haversine

    def counting_haversine(p, q):
        calls.append(1)
        return haversine(p, q)

    monkeypatch.setattr(trackeval, "haversine", counting_haversine)
    # two parallel 1 km tracks, 10 m spacing, 5 m apart
    a = track_from_meters(*range(0, 1001, 10))
    b = Track(points=tuple((lat + 5 * M_LAT, lon) for lat, lon in a.points))
    result = nw_align(a, b)
    assert result.matched_pairs == len(a)
    assert 0 < len(calls) <= 5 * (len(a) + len(b)) < len(a) * len(b) // 10


def _near_duplicate(rng, track, noise_m=3.0, p_delete=0.0, p_insert=0.0):
    """A copy of track with each point moved up to noise_m meters, some
    points dropped and some junk points 40 m off inserted."""
    out = []
    for lat, lon in track.points:
        if rng.random() < p_insert:
            out.append((lat + 40 * M_LAT, lon))
        if rng.random() >= p_delete:
            out.append((lat + rng.uniform(-noise_m, noise_m) * M_LAT, lon + rng.uniform(-noise_m, noise_m) * M_LAT))
    return Track(points=tuple(out))


def _far_walk(rng, n):
    """A walk about 1 km north of BASE, within epsilon of no BASE walk."""
    return _walk(rng, n, (BASE[0] + 1000 * M_LAT, BASE[1]), step_m=10.0)


def _oracle_case(kind):
    rng = random.Random(kind)
    if kind == "near-duplicate":
        a = _walk(rng, 500, BASE, step_m=10.0)
        return a, _near_duplicate(rng, a, p_delete=0.03, p_insert=0.03)
    if kind == "offset":  # b starts 20 points into a and runs 30 points past it
        a = _walk(rng, 330, BASE, step_m=10.0)
        b = _near_duplicate(rng, Track(points=a.points[20:]))
        return a, Track(points=b.points + _far_walk(rng, 30).points)
    if kind == "unequal-lengths":
        a = _walk(rng, 600, BASE, step_m=10.0)
        return a, _near_duplicate(rng, a, p_delete=0.25)
    if kind == "half-matching":
        a = _walk(rng, 400, BASE, step_m=10.0)
        return a, Track(points=_near_duplicate(rng, a).points[:200] + _far_walk(rng, 220).points)
    if kind == "unrelated":
        return _walk(rng, 300, BASE, step_m=10.0), _far_walk(rng, 350)
    return Track(points=()), _walk(rng, 400, BASE, step_m=10.0)  # one empty track


def _counting_fills(monkeypatch):
    """Record the half-width of every band nw_align fills."""
    widths = []
    fill = trackeval._banded_fill

    def counting_fill(within, la, lb, w):
        widths.append(w)
        return fill(within, la, lb, w)

    monkeypatch.setattr(trackeval, "_banded_fill", counting_fill)
    return widths


@pytest.mark.parametrize(
    "kind", ["near-duplicate", "offset", "unequal-lengths", "half-matching", "unrelated", "one-empty"]
)
def test_banded_nw_align_equals_full_matrix_on_long_tracks(monkeypatch, kind):
    a, b = _oracle_case(kind)
    widths = _counting_fills(monkeypatch)
    assert nw_align(a, b) == full_matrix_nw_align(a, b)
    assert nw_align(b, a) == full_matrix_nw_align(b, a)
    if kind == "unrelated":
        # no pair matches, so the optimum is -max(la, lb) and the second
        # fill is the widest one can be: floor(2 min(la, lb) / 3)
        assert widths == [8, 200, 8, 200]


def test_banded_nw_align_equals_full_matrix_after_a_forced_second_fill(monkeypatch):
    monkeypatch.setattr(trackeval, "_BAND_START", 1)
    widths = _counting_fills(monkeypatch)
    rng = random.Random(23)
    calls = 0
    for _ in range(150):
        a = _walk(rng, rng.randint(0, 50), BASE)
        if rng.random() < 0.5:
            b = _near_duplicate(rng, a, p_delete=0.2, p_insert=0.2)
        else:
            b = _walk(rng, rng.randint(0, 50), BASE)
        if len(a) or len(b):
            calls += 1
        assert nw_align(a, b, 10.0) == full_matrix_nw_align(a, b, 10.0)
    assert len(widths) - calls > calls // 2  # most pairs needed a second fill


def _collinear(cells):
    """A track whose points sit 12 m apart per cell index north of BASE."""
    return Track(points=tuple((BASE[0] + c * 12 * M_LAT, BASE[1]) for c in cells))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 4), max_size=24),
    st.lists(st.integers(0, 4), max_size=24),
    st.sampled_from([5.0, 15.0]),
    st.integers(0, 3),
)
@example([3, 0, 1, 2, 3], [0, 3, 1, 3], 5.0, 0)
def test_banded_nw_align_equals_full_matrix_property(xs, ys, eps, start):
    # Few distinct positions, so many pairs match and many alignments tie.
    # In the example the first band's optimum equals its bound and an
    # optimal path leaves the band: accepting it gives another traceback.
    a, b = _collinear(xs), _collinear(ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackeval, "_BAND_START", start)
        assert nw_align(a, b, eps) == full_matrix_nw_align(a, b, eps)


@pytest.mark.parametrize(
    "junk,indel,widths",
    [
        (13, False, [8]),  # optimum 1 above the bound: certified
        (12, True, [8, 9]),  # optimum equal to the bound: not certified
        (14, False, [8, 9]),
    ],
)
def test_first_band_certifies_only_strictly_above_the_bound(monkeypatch, junk, indel, widths):
    # a: n points 20 m apart, each within 10 m of its copy only. b replaces
    # the first `junk` points with far ones, and with `indel` also inserts
    # one far point and drops a later one. So the optimum is
    # n - 2 junk - 3 indel, and with w = 8 and delta = 0 the bound is
    # (2n - 3 * 18) / 2 = n - 27.
    n = 120
    a = track_from_meters(*range(0, 20 * n, 20))
    far = (BASE[0] + 500 * M_LAT, BASE[1])
    points = [far] * junk + list(a.points[junk:])
    if indel:
        points.insert(60, far)
        del points[91]
    b = Track(points=tuple(points))
    counted = _counting_fills(monkeypatch)
    result = nw_align(a, b)
    assert result.score == n - 2 * junk - 3 * indel
    assert counted == widths
    assert result == full_matrix_nw_align(a, b)


def test_banded_nw_align_memory_is_linear():
    # a 20 km track at 10 m spacing against a noisy copy with a few points
    # dropped and inserted: the full 2,000 x 2,000 matrix of Python ints
    # would take about 110 MB
    rng = random.Random(5)
    a = track_from_meters(*range(0, 20_000, 10))
    b = _near_duplicate(rng, a, p_delete=0.002, p_insert=0.002)
    tracemalloc.start()
    try:
        result = nw_align(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.matched_pairs > 1900
    assert peak < 8_000_000


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_nw_align_rejects_a_bad_epsilon(eps):
    track = track_from_meters(0, 20, 40)
    with pytest.raises(ValueError, match="match epsilon"):
        nw_align(track, track, eps)


# -- resampling & comparison ---------------------------------------------------------


def test_resample_spacing_and_endpoints():
    track = track_from_meters(0, 100)
    resampled = resample_track(track, 10.0)
    assert len(resampled) == 11
    assert resampled.points[0] == track.points[0]
    assert resampled.points[-1] == pytest.approx(track.points[-1], abs=1e-12)
    for p, q in zip(resampled.points, resampled.points[1:]):
        assert geodesic_inverse(p, q)[0] == pytest.approx(10.0, abs=0.01)


@pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -5.0])
def test_resample_rejects_a_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        resample_track(track_from_meters(0, 100), spacing)


def test_resample_short_track_unchanged():
    track = track_from_meters(5)
    assert resample_track(track, 10.0).points == track.points


def walking_pointer_resample(track, spacing_m):
    """Reference resampling: resample_track as it was before it called
    geokin.point_along, walking a segment pointer forward per sample."""
    pts = track.points
    if len(pts) < 2:
        return Track(points=pts)
    cum = [0.0]
    for i in range(len(pts) - 1):
        cum.append(cum[-1] + geodesic_inverse(pts[i], pts[i + 1])[0])
    total = cum[-1]
    if total == 0:
        return Track(points=(pts[0],))
    out = []
    seg = 0
    target = 0.0
    limit = total - max(1e-9, 1e-6 * spacing_m)
    while target < limit:
        while cum[seg + 1] < target and seg < len(pts) - 2:
            seg += 1
        span = cum[seg + 1] - cum[seg]
        t = 0.0 if span == 0 else (target - cum[seg]) / span
        (alat, alon), (blat, blon) = pts[seg], pts[seg + 1]
        out.append((alat + t * (blat - alat), alon + t * (blon - alon)))
        target += spacing_m
    out.append(pts[-1])
    return Track(points=tuple(out))


def test_resample_equals_the_walking_pointer_oracle():
    rng = random.Random(11)
    for _ in range(400):
        points = list(_walk(rng, rng.randint(1, 40), BASE, step_m=rng.choice((2.0, 8.0, 40.0))).points)
        for _ in range(rng.randint(0, 3)):  # repeated points make zero-length segments
            i = rng.randrange(len(points))
            points[i:i] = [points[i]] * rng.randint(1, 2)
        track = Track(points=tuple(points))
        spacing = rng.choice((1.0, 5.0, 10.0, rng.uniform(0.5, 30.0)))
        once = resample_track(track, spacing)
        assert once.points == walking_pointer_resample(track, spacing).points
        again = rng.choice((spacing, rng.uniform(0.5, 30.0)))
        assert resample_track(once, again).points == walking_pointer_resample(once, again).points


def test_compare_tracks_rate_invariant():
    dense = track_from_meters(*range(0, 501, 1))  # one point per meter
    sparse = track_from_meters(*range(0, 501, 25))  # one per 25 m
    raw = nw_align(dense, sparse)
    assert raw.accuracy < 0.1  # raw alignment is dominated by the count ratio
    result = compare_tracks(dense, sparse)
    assert result.accuracy == 1.0


def test_compare_tracks_separates_real_divergence():
    a = track_from_meters(*range(0, 501, 10))
    lat0, lon0 = BASE
    m_lon = 1.0 / (DEG_M * math.cos(math.radians(lat0)))
    # same start, veers 100 m north over the second half
    points = []
    for d in range(0, 501, 10):
        north = max(0, d - 250) * 0.4
        points.append((lat0 + north * M_LAT, lon0 + d * m_lon))
    b = Track(points=tuple(points))
    result = compare_tracks(a, b)
    assert result.accuracy < 0.8


def test_comparison_csv_row():
    track = track_from_meters(0, 1000)
    row = comparison_csv_row("demo", track, nw_align(track, track))
    assert row == "demo,1.000,1.0000"
