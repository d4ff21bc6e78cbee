import copy
import gc
import io
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from canpath.canlog import (
    MEMO_ENTRIES,
    CanFrame,
    IdFilter,
    LogParseError,
    filter_frames,
    format_line,
    parse_line,
    parse_log,
    read_log,
    write_log,
)
from canpath.reveng import AngleDecoder
from helpers import long_capture, traced_peak


def test_parse_angle_frame_line():
    frame = parse_line("(1684149582.123456) can0 0C6#7DC80000AAAAAAAA")
    assert frame.timestamp == 1684149582.123456
    assert frame.interface == "can0"
    assert frame.id == 0x0C6
    assert frame.data == bytes([0x7D, 0xC8, 0x00, 0x00, 0xAA, 0xAA, 0xAA, 0xAA])


def test_parse_speed_request_line():
    frame = parse_line("(0.000000) can0 7DF#02010DAAAAAAAAAA")
    assert frame.id == 0x7DF
    assert frame.data == bytes([0x02, 0x01, 0x0D, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA])


def test_parse_rejects_out_of_range_identifier():
    with pytest.raises(LogParseError, match="identifier"):
        parse_line("(1.0) can0 800#00")


def test_parse_hex_case_insensitive():
    lower = parse_line("(1.0) can0 0c6#7dc8")
    upper = parse_line("(1.0) can0 0C6#7DC8")
    assert lower == upper


@pytest.mark.parametrize(
    "line,field",
    [
        ("(abc) can0 0C6#7DC8", "timestamp"),
        ("(1.0) can0 0C6#7DC", "odd-length data"),
        ("(1.0) can0 0C6#" + "AA" * 9, "exceeds 8 bytes"),
        ("(1.0) can0 0C6#7DZ8", "data"),
        ("(1.0) can0 XYZ#7DC8", "identifier"),
        ("1.0 can0 0C6#7DC8", "timestamp"),
    ],
)
def test_parse_errors_name_the_field(line, field):
    with pytest.raises(LogParseError, match=field):
        parse_line(line)


def test_format_line_canonical():
    frame = CanFrame(1.5, "can0", 0x0C6, bytes([0x7F, 0xFF]))
    assert format_line(frame) == "(1.500000) can0 0C6#7FFF"


def test_format_empty_payload():
    frame = CanFrame(2.0, "can1", 0x123, b"")
    assert format_line(frame) == "(2.000000) can1 123#"
    assert parse_line(format_line(frame)) == frame


@pytest.mark.parametrize(
    "line",
    [
        "(1684149582.123456) can0 0C6#7DC80000AAAAAAAA",
        "(0.000000) can0 7DF#02010DAAAAAAAAAA",
        "(3.125000) vcan0 2f5#0000",
    ],
)
def test_parse_format_parse_idempotent(line):
    frame = parse_line(line)
    canonical = format_line(frame)
    assert parse_line(canonical) == frame
    assert format_line(parse_line(canonical)) == canonical


@given(
    ts=st.floats(min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False),
    frame_id=st.integers(min_value=0, max_value=0x7FF),
    data=st.binary(min_size=0, max_size=8),
)
def test_roundtrip_any_frame(ts, frame_id, data):
    ts = round(ts, 6)  # canonical form keeps 6 fractional digits
    frame = CanFrame(ts, "can0", frame_id, data)
    assert parse_line(format_line(frame)) == frame


def test_filter_keeps_obd_and_swa():
    frames = [
        CanFrame(0.0, "can0", 0x0C6, b"\x00"),
        CanFrame(0.1, "can0", 0x123, b"\x00"),
        CanFrame(0.2, "can0", 0x7E8, b"\x00"),
    ]
    kept = filter_frames(frames, IdFilter(((0x7E8, 0x7FF), (0x0C6, 0x7FF))))
    assert [f.id for f in kept] == [0x0C6, 0x7E8]


def test_filter_empty_matches_nothing():
    frames = [CanFrame(0.0, "can0", 0x0C6, b"\x00")]
    assert filter_frames(frames, IdFilter(())) == []


def test_filter_zero_mask_matches_everything():
    frames = [CanFrame(0.0, "can0", i, b"") for i in (0x001, 0x3FF, 0x7E8)]
    assert filter_frames(frames, IdFilter(((0x000, 0x000),))) == frames


@given(
    ids=st.lists(st.integers(min_value=0, max_value=0x7FF), max_size=30),
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0x7FF),
            st.integers(min_value=0, max_value=0x7FF),
        ),
        max_size=4,
    ),
)
def test_filter_is_subsequence_and_mask_literal(ids, entries):
    frames = [CanFrame(float(i), "can0", fid, b"") for i, fid in enumerate(ids)]
    id_filter = IdFilter(tuple(entries))
    kept = filter_frames(frames, id_filter)
    it = iter(frames)
    assert all(f in it for f in kept)  # subsequence of input
    for f in kept:
        assert any((f.id & mask) == (fid & mask) for fid, mask in entries)


def test_parse_log_permissive_reports_line_numbers():
    text = "(1.0) can0 0C6#7DC8\nnot a line\n(2.0) can0 0C6#7DC9\n"
    frames, skipped = parse_log(text.splitlines(), strict=False)
    assert [f.timestamp for f in frames] == [1.0, 2.0]
    assert len(skipped) == 1 and skipped[0][0] == 2


def test_parse_log_strict_aborts():
    with pytest.raises(LogParseError, match="line 2"):
        parse_log(["(1.0) can0 0C6#7DC8", "garbage"], strict=True)


def test_write_read_roundtrip(tmp_path):
    frames = [
        CanFrame(0.0, "can0", 0x7DF, bytes([0x02, 0x01, 0x0D] + [0xAA] * 5)),
        CanFrame(0.5, "can0", 0x0C6, bytes([0x7F, 0xFF])),
    ]
    path = str(tmp_path / "capture.log")
    write_log(frames, path)
    back, skipped = read_log(path)
    assert back == frames and not skipped


def test_read_log_from_stream():
    stream = io.StringIO("(1.0) can0 0C6#7DC8\n")
    frames, _ = read_log(stream)
    assert frames[0].id == 0x0C6


def test_read_log_errors_name_the_file_but_not_a_stream(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("(1.0) can0 0C6#7DC8\n(x) can0 0C6#00\n")
    with pytest.raises(LogParseError) as named:
        read_log(str(path))
    assert str(named.value) == f"{path}: line 2: malformed timestamp 'x'" and named.value.line_no == 2
    with pytest.raises(LogParseError) as unnamed:
        read_log(io.StringIO(path.read_text()))
    assert str(unnamed.value) == "line 2: malformed timestamp 'x'" and unnamed.value.line_no == 2
    # a byte that is not UTF-8 is a parse error of its line alone
    path.write_bytes(b"(1.0) can0 0C6#7DC8\n(2.0) can0 0C6#7D\xff\n(3.0) can\xe90 0C6#7DC8\n(4.0) can0 0C6#7DC8\n")
    undecodable = "'utf-8' codec can't decode byte 0x{:x} in position {}: invalid {} byte"
    with pytest.raises(LogParseError) as named:
        read_log(str(path))
    assert str(named.value) == f"{path}: line 2: " + undecodable.format(0xFF, 17, "start") and named.value.line_no == 2
    frames, skipped = read_log(str(path), strict=False)
    assert frames == [CanFrame(1.0, "can0", 0x0C6, b"\x7d\xc8"), CanFrame(4.0, "can0", 0x0C6, b"\x7d\xc8")]
    assert skipped == [
        (2, "line 2: " + undecodable.format(0xFF, 17, "start")),
        (3, "line 3: " + undecodable.format(0xE9, 9, "continuation")),
    ]


# -- CanFrame contract -----------------------------------------------------------


def test_frames_compare_and_hash_by_field():
    a = CanFrame(1.5, "can0", 0x0C6, b"\x7f\xff")
    b = CanFrame(timestamp=1.5, interface="can0", id=0x0C6, data=b"\x7f\xff")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.timestamp, a.interface, a.id, a.data) == (1.5, "can0", 0x0C6, b"\x7f\xff")
    for other in (
        CanFrame(1.6, "can0", 0x0C6, b"\x7f\xff"),
        CanFrame(1.5, "can1", 0x0C6, b"\x7f\xff"),
        CanFrame(1.5, "can0", 0x0C7, b"\x7f\xff"),
        CanFrame(1.5, "can0", 0x0C6, b"\x7f"),
    ):
        assert a != other
    assert repr(a) == "CanFrame(timestamp=1.5, interface='can0', id=198, data=b'\\x7f\\xff')"


@pytest.mark.parametrize("name", ["timestamp", "interface", "id", "data", "extra"])
def test_frame_fields_cannot_be_assigned(name):
    frame = CanFrame(1.0, "can0", 0x0C6, b"")
    with pytest.raises(AttributeError):
        setattr(frame, name, 2)
    assert frame == CanFrame(1.0, "can0", 0x0C6, b"")


@pytest.mark.parametrize(
    "fields,message",
    [
        ((1.0, "can0", 0x800, b""), "identifier 0x800 out of 11-bit range"),
        ((1.0, "can0", -1, b""), "identifier 0x-1 out of 11-bit range"),
        ((1.0, "can0", 0x0C6, bytes(9)), "data length 9 exceeds 8 bytes"),
        ((-0.5, "can0", 0x0C6, b""), "timestamp -0.5 not finite and non-negative"),
        ((math.nan, "can0", 0x0C6, b""), "timestamp nan not finite and non-negative"),
        ((math.inf, "can0", 0x0C6, b""), "timestamp inf not finite and non-negative"),
    ],
)
def test_frame_construction_checks(fields, message):
    with pytest.raises(ValueError) as positional:
        CanFrame(*fields)
    assert str(positional.value) == message
    with pytest.raises(ValueError) as keyword:
        CanFrame(**dict(zip(("timestamp", "interface", "id", "data"), fields)))
    assert str(keyword.value) == message


def test_frames_survive_pickle_and_copy():
    # the tuner sends frames to worker processes
    frame = CanFrame(2.25, "vcan0", 0x7E8, bytes([3, 0x41, 0x0D, 50]))
    for back in (pickle.loads(pickle.dumps(frame)), copy.copy(frame), copy.deepcopy(frame)):
        assert back == frame and type(back) is CanFrame


def test_parse_log_skips_a_signed_identifier():
    # int(_, 16) accepts a sign; the frame check must not abort a permissive parse
    lines = ["(1.0) can0 -1#00", "(2.0) can0 0C6#7DC8"]
    frames, skipped = parse_log(lines, strict=False)
    assert frames == [CanFrame(2.0, "can0", 0x0C6, b"\x7d\xc8")]
    assert skipped == [(1, "line 1: identifier 0x-1 out of 11-bit range")]


def test_parse_log_words_a_line_cut_short_in_its_stamp():
    # "(0" reads as a valid stamp up to the end of the line, but it has no
    # ")", so the error is the stamp's, not the body's
    frames, skipped = parse_log(["(0", "(1.0) can0 0C6#7DC8", "(2.5"], strict=False)
    assert frames == [CanFrame(1.0, "can0", 0x0C6, b"\x7d\xc8")]
    assert skipped == [
        (1, "line 1: missing timestamp parentheses in '(0'"),
        (3, "line 3: missing timestamp parentheses in '(2.5'"),
    ]


# -- parse_log against a per-line reference ----------------------------------------


def _reference_parse_line(line, line_no):
    """The line parser as first written: strips, then checks each field in turn.
    A signed identifier is the one change: it fails the range check here."""
    text = line.strip()
    close = text.find(")")
    if not text.startswith("(") or close < 0:
        raise LogParseError(f"missing timestamp parentheses in {text!r}", line_no)
    ts_text = text[1:close]
    try:
        timestamp = float(ts_text)
    except ValueError:
        raise LogParseError(f"malformed timestamp {ts_text!r}", line_no) from None
    if not (math.isfinite(timestamp) and timestamp >= 0):
        raise LogParseError(f"malformed timestamp {ts_text!r}", line_no)
    rest = text[close + 1 :].split()
    if len(rest) != 2:
        raise LogParseError(f"expected '<iface> <ID>#<DATA>' after timestamp in {text!r}", line_no)
    interface, frame_text = rest
    if "#" not in frame_text:
        raise LogParseError(f"missing '#' separator in {frame_text!r}", line_no)
    id_text, data_text = frame_text.split("#", 1)
    try:
        frame_id = int(id_text, 16)
    except ValueError:
        raise LogParseError(f"identifier {id_text!r} is not hex", line_no) from None
    if frame_id > 0x7FF or frame_id < 0:
        raise LogParseError(f"identifier 0x{id_text} out of 11-bit range", line_no)
    if len(data_text) % 2 != 0:
        raise LogParseError(f"odd-length data {data_text!r}", line_no)
    if len(data_text) > 16:
        raise LogParseError(f"data {data_text!r} exceeds 8 bytes", line_no)
    try:
        data = bytes.fromhex(data_text)
    except ValueError:
        raise LogParseError(f"data {data_text!r} is not hex", line_no) from None
    return CanFrame(timestamp=timestamp, interface=interface, id=frame_id, data=data)


def _reference_parse_log(lines):
    frames, skipped = [], []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            frames.append(_reference_parse_line(line, line_no))
        except LogParseError as exc:
            skipped.append((line_no, str(exc)))
    return frames, skipped


@st.composite
def _well_formed(draw):
    frame = CanFrame(
        round(draw(st.floats(min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False)), 6),
        draw(st.sampled_from(["can0", "vcan1", "slcan0"])),
        # a few common bodies, so a log repeats some and parse_log's memo hits
        draw(st.one_of(st.sampled_from([0x0C6, 0x7E8]), st.integers(min_value=0, max_value=0x7FF))),
        draw(st.one_of(st.sampled_from([b"", b"\x7d\xc8"]), st.binary(max_size=8))),
    )
    line = format_line(frame)
    if draw(st.booleans()):
        line = line.lower()
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "\n", " \r\n", "\t"]))


# \x0b, \x1c, \u00a0 and \u3000 are whitespace to str.split and str.strip,
# \ufeff is not; "0x" is a prefix that int(_, 16) accepts
_MUTATIONS = [*"()#.-+_ \tx0123456789abcdefABCDEFnNiIzZ", "\x0b", "\x1c", "\u00a0", "\u3000", "\r", "\ufeff", "0x"]


@st.composite
def _log_line(draw):
    line = draw(_well_formed())
    kind = draw(st.sampled_from(["well-formed", "truncated", "mutated", "blank"]))
    if kind == "truncated":
        line = line[: draw(st.integers(min_value=0, max_value=len(line)))]
    elif kind == "mutated":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            at = draw(st.integers(min_value=0, max_value=len(line)))
            char = draw(st.sampled_from(_MUTATIONS))
            cut = draw(st.integers(min_value=0, max_value=1))
            line = line[:at] + char + line[at + cut :]
    elif kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t\n", "\n"]))
    return line


# lines that take each exit of parse_log's three-token path, and spellings
# that only the per-line parser reads
_EDGE_LINES = [
    "(1.0) can0 0C6#" + "AA" * 9,
    "(1.0) can0 0C6#" + "A" * 15,
    "(1.0) can0 -1#00",
    "(1.0) can0 +7FF#00",
    "(1.0) can0 0x7E8#00",
    "(1.0) can0 800#00",
    "(1.0) can0 7E8#0G",
    "(1.0) can0 7E8",
    "(nan) can0 0C6#00",
    "(inf) can0 0C6#00",
    "(-1.0) can0 0C6#00",
    "(-0.0) can0 0C6#00",
    "(1e400) can0 0C6#00",
    "(1_0.5) can0 0C6#00",
    "((1.0)) can0 7E8#00",
    "1.0) can0 7E8#00",
    "(1.0 can0 7E8#00",
    "(1.0)can0 7E8#00",
    "( 1.0) can0 7E8#00",
    "(1.0 ) can0 7E8#00",
    "(1.0) can0 7E8#00 extra",
    "\ufeff(1.0) can0 7E8#00",
    "(1.0)\u3000can0\x0b7E8#00\u00a0",
    "\x1c \r",
]


# a body that parses, then repeated behind stamps that do not
_MEMO_HIT_LINES = [
    "(1.0) can0 0C6#7DC8",
    "(nan) can0 0C6#7DC8",
    "(-1.0) can0 0C6#7DC8",
    "(1.0 can0 0C6#7DC8",
    "1.0 can0 0C6#7DC8",
    "(2.0) vcan1 0C6#7DC8",
]
# more distinct bodies than the memo holds, then repeats of early and late
# ones, good and bad stamps among them
_PAST_THE_MEMO = [f"({k}.5) can0 {k % 0x800:03X}#{k:08X}" for k in range(MEMO_ENTRIES + 300)] + [
    f"({stamp}) can0 {k % 0x800:03X}#{k:08X}"
    for k in (0, 1, MEMO_ENTRIES - 1, MEMO_ENTRIES, MEMO_ENTRIES + 299, 7)
    for stamp in ("3.25", "nan", "-1.0")
]


# the memo's key is a line's text after its stamp: separators, line ends
# and a leading blank change it, a body first read behind a bad stamp must
# not be kept for that line, and one repeated past the memo's cap is read
# again
_MEMO_KEY_LINES = [
    "(1.0)\tcan0\t0C6#7DC8\n",
    "(1.0)  can0  0C6#7DC8\n",
    "(2.0) can0 0C6#7DC8\r\n",
    " (3.0) can0 0C6#7DC8\n",
    "\t(3.0) can0 0C6#7DC8",
    "(x) can0 7E8#03410D21\n",
    "(4.0) can0 7E8#03410D21\n",
    "(-4.0)\tcan0\t7E8#03410D22\n",
    " (-4.0) can0 7E8#03410D22\n",
    "(4.5)\tcan0\t7E8#03410D22\n",
    "(5.0) can0 0C6#7DC8\n",
    "(5.0) can0 0C6#7DC8",
]
_MEMO_KEY_PAST_THE_MEMO = _PAST_THE_MEMO[:MEMO_ENTRIES + 300] + _MEMO_KEY_LINES + [
    f"({stamp}){sep}can0{sep}{k % 0x800:03X}#{k:08X}{end}"
    for k in (0, MEMO_ENTRIES + 299)
    for stamp in ("6.0", "inf")
    for sep in (" ", "\t")
    for end in ("", "\n", "\r\n")
]


@example(_EDGE_LINES)
@example(_MEMO_HIT_LINES)
@example(_PAST_THE_MEMO)
@example(_MEMO_KEY_LINES)
@example(_MEMO_KEY_PAST_THE_MEMO)
@given(st.lists(_log_line(), max_size=20))
def test_parse_log_equals_the_per_line_reference(lines):
    frames, skipped = parse_log(lines, strict=False)
    want_frames, want_skipped = _reference_parse_log(lines)
    assert frames == want_frames and skipped == want_skipped
    assert all(type(f) is CanFrame for f in frames)
    if want_skipped:
        with pytest.raises(LogParseError) as first_error:
            parse_log(lines, strict=True)
        assert str(first_error.value) == want_skipped[0][1]
    else:
        assert parse_log(lines, strict=True) == (want_frames, [])
    for line in lines:
        if line.strip():
            assert _outcome(parse_line, line) == _outcome(_reference_parse_line, line)


def _outcome(parse, line):
    try:
        return parse(line, None)
    except LogParseError as exc:
        return str(exc)


def test_parse_log_memo_stops_at_its_cap():
    # a repeated body shares the payload of its first frame only while the
    # memo had room for it when first read; 4-byte payloads are never cached
    # by the interpreter itself
    lines = [f"(1.0) can0 0C6#{k:08X}" for k in range(MEMO_ENTRIES + 10)]
    frames, _ = parse_log(lines + lines)
    first, again = frames[: len(lines)], frames[len(lines) :]
    assert again == first
    assert [a[3] is f[3] for f, a in zip(first, again)] == [True] * MEMO_ENTRIES + [False] * 10


def _long_capture_text():
    return "".join(format_line(f) + "\n" for f in long_capture(100_000, AngleDecoder(id=0x0C6)))


def test_parse_log_holds_about_14_bytes_a_frame():
    # a frame is its stamp in one array and its body's row in another;
    # every frame of one body shares the body's interface, id and payload
    # objects (a frame tuple and its float stamp took 113 bytes, 158 with a
    # payload and an OBD id of its own, 211 with an interface copy too)
    (frames, skipped), peak = traced_peak(parse_log, io.StringIO(_long_capture_text()))
    assert (len(frames), skipped) == (100_000, [])
    assert len(frames.ids) == 706
    assert len({id(frame.interface) for frame in frames}) == 1
    assert len({(id(frame.id), id(frame.data)) for frame in frames}) == len({frame[2:] for frame in frames}) == 706
    assert peak / len(frames) < 16


def test_parse_log_adds_no_object_a_frame_for_the_collector_to_walk():
    # a tuple subclass such as CanFrame is never untracked by the cyclic
    # garbage collector, so a list of frames added one tracked object a frame
    text = _long_capture_text()
    gc.collect()
    before = len(gc.get_objects())
    frames, _ = parse_log(io.StringIO(text))
    gc.collect()
    assert len(frames) == 100_000 and len(gc.get_objects()) - before < 1000
