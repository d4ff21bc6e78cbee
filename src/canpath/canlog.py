"""candump-style CAN log parsing, formatting and ID/mask filtering.

A log line looks like ``(1684149582.123456) can0 0C6#7DC80000AAAAAAAA``:
timestamp in seconds since the epoch, interface name, 11-bit identifier in
hex, and up to 8 data bytes in hex after the ``#``.

``parse_log`` holds a capture as columns, not as one object per frame: a
``FrameLog`` is an ``array('d')`` of stamps, an ``array('I')`` naming each
frame's body, and the table of distinct ``(interface, id, payload)``
bodies. A filtered capture repeats a few dozen bodies, so a parsed frame
holds about 14 bytes, and the cyclic garbage collector has no per-frame
object to walk. ``CanFrame``s are built only when the log is indexed or
iterated.

Parsing costs little more than the bytes it reads. ``parse_log`` splits a
line once at its first ``)``; a line that starts with its ``(stamp)`` has
the stamp read and checked, and the text after it looked up in a memo
local to the call, so a repeated body costs one dict lookup. A text not
yet seen goes to ``_read_body``, the one reader of a frame body, which
``_parse`` also calls after the stamp: it splits the text into an
interface and ``ID#DATA`` and checks each field in turn, raising the
worded error of the first bad one. The memo stops growing at
``MEMO_ENTRIES`` texts, and a body past that is read again on each line.
Any other line (blank, badly stamped, not ASCII after its stamp, or a
rare valid spelling such as one with a leading blank) goes whole to the
private ``_parse`` that ``parse_line`` uses. ``read_log`` reads a file's
bytes that are not UTF-8 as lone surrogates, which only ``_parse``
accepts, to word the error: one such line is skipped like any other
unparseable line. The body reader interns the interface name.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, TextIO

MAX_STD_ID = 0x7FF

# Most bodies that the memo of parse_log or FrameLog.of holds: a filtered
# capture repeats a few dozen distinct frame bodies, and a log in which
# every body differs stops adding to the memo at this size.
MEMO_ENTRIES = 4096


class LogParseError(ValueError):
    """A log line that does not parse; names the offending field."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CanFrame(tuple):
    """One timestamped CAN message: the immutable 4-tuple
    ``(timestamp, interface, id, data)`` with those fields by name.

    Every construction checks the identifier, payload length and timestamp;
    the log parser makes those three checks itself, so it and a FrameLog
    build their frames directly with ``tuple.__new__``. Frames compare
    and hash as the tuple of their fields (so a frame equals a plain tuple
    of the same fields); assigning to a field raises AttributeError.
    """

    __slots__ = ()

    def __new__(cls, timestamp: float, interface: str, id: int, data: bytes):
        if not 0 <= id <= MAX_STD_ID:
            raise ValueError(f"identifier 0x{id:X} out of 11-bit range")
        if len(data) > 8:
            raise ValueError(f"data length {len(data)} exceeds 8 bytes")
        if not (math.isfinite(timestamp) and timestamp >= 0):
            raise ValueError(f"timestamp {timestamp!r} not finite and non-negative")
        return tuple.__new__(cls, (timestamp, interface, id, data))

    timestamp = property(itemgetter(0), doc="seconds since the epoch")
    interface = property(itemgetter(1), doc="capture interface name, such as can0")
    id = property(itemgetter(2), doc="11-bit identifier")
    data = property(itemgetter(3), doc="payload, at most 8 bytes")

    def __getnewargs__(self):
        # pickling and copying rebuild the frame through __new__
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"CanFrame(timestamp={self[0]!r}, interface={self[1]!r}, id={self[2]!r}, data={self[3]!r})"
        )


class FrameLog(Sequence):
    """A read-only sequence of frames held as columns (see the module
    docstring): ``stamps[k]`` is frame k's timestamp, and ``index[k]`` the
    row of its body in ``interfaces``, ``ids`` and ``payloads``. Frames of
    one body share its three objects. A frame is built when the log is
    indexed or iterated; a log equals a list of the same frames.
    """

    __slots__ = ("stamps", "index", "interfaces", "ids", "payloads")

    def __init__(self):
        self.stamps = array("d")
        self.index = array("I")
        self.interfaces: list[str] = []
        self.ids: list[int] = []
        self.payloads: list[bytes] = []

    @classmethod
    def of(cls, frames: Iterable[CanFrame]) -> FrameLog:
        """``frames`` if it is a FrameLog, else its frames in columns, one
        body row per distinct ``(interface, id, payload)`` among the first
        MEMO_ENTRIES and one per frame after them."""
        if isinstance(frames, FrameLog):
            return frames
        log = cls()
        memo: dict[tuple, int] = {}
        for frame in frames:
            body = frame[1:]
            index = memo.get(body)
            if index is None:
                index = log._add_body(*body)
                if index < MEMO_ENTRIES:
                    memo[body] = index
            log.stamps.append(frame[0])
            log.index.append(index)
        return log

    def _add_body(self, interface: str, frame_id: int, data: bytes) -> int:
        self.interfaces.append(interface)
        self.ids.append(frame_id)
        self.payloads.append(data)
        return len(self.ids) - 1

    def __len__(self) -> int:
        return len(self.stamps)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        row = self.index[k]
        return tuple.__new__(CanFrame, (self.stamps[k], self.interfaces[row], self.ids[row], self.payloads[row]))

    def __iter__(self):
        # C-level iterators all the way: tuple(log) builds no Python frame per item
        index = self.index
        fields = zip(
            self.stamps,
            map(self.interfaces.__getitem__, index),
            map(self.ids.__getitem__, index),
            map(self.payloads.__getitem__, index),
        )
        return map(tuple.__new__, repeat(CanFrame), fields)

    def __eq__(self, other):
        if isinstance(other, (FrameLog, list)):
            return list(self) == list(other)
        return NotImplemented


@dataclass(frozen=True)
class IdFilter:
    """List of (id, mask) pairs with candump semantics.

    A frame passes iff for some entry ``(frame.id & mask) == (id & mask)``.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for fid, mask in self.entries:
            if not (0 <= fid <= MAX_STD_ID and 0 <= mask <= MAX_STD_ID):
                raise ValueError(f"filter entry {fid:X}:{mask:X} out of 11-bit range")

    def matches(self, frame_id: int) -> bool:
        return any((frame_id & mask) == (fid & mask) for fid, mask in self.entries)


def parse_line(line: str, line_no: int | None = None) -> CanFrame:
    """Parse one candump log line into a frame.

    Raises LogParseError naming the bad field (timestamp, identifier, data).
    """
    return _parse(line.strip(), line_no)


def _parse(text: str, line_no: int | None) -> CanFrame:
    """parse_line's body, for a line already stripped of surrounding whitespace."""
    if not text.isascii():
        try:  # bytes that read_log could not decode come back as themselves
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            raise LogParseError(str(exc), line_no) from None
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

    interface, frame_id, data = _read_body(text[close + 1 :], text, line_no)
    return tuple.__new__(CanFrame, (timestamp, interface, frame_id, data))


def _read_body(rest: str, line: str, line_no: int | None) -> tuple[str, int, bytes]:
    """The interned interface, the id and the payload that ``rest``, the
    text after the valid stamp of ``line``, names; LogParseError naming the
    first bad field otherwise. The one reader of a frame body."""
    tokens = rest.split()
    if len(tokens) != 2:
        raise LogParseError(f"expected '<iface> <ID>#<DATA>' after timestamp in {line.strip()!r}", line_no)
    interface, frame_text = tokens
    id_text, sep, data_text = frame_text.partition("#")
    if not sep:
        raise LogParseError(f"missing '#' separator in {frame_text!r}", line_no)

    try:
        frame_id = int(id_text, 16)
    except ValueError:
        raise LogParseError(f"identifier {id_text!r} is not hex", line_no) from None
    if not 0 <= frame_id <= MAX_STD_ID:
        raise LogParseError(f"identifier 0x{id_text} out of 11-bit range", line_no)

    if len(data_text) % 2 != 0:
        raise LogParseError(f"odd-length data {data_text!r}", line_no)
    if len(data_text) > 16:
        raise LogParseError(f"data {data_text!r} exceeds 8 bytes", line_no)
    try:
        data = bytes.fromhex(data_text)
    except ValueError:
        raise LogParseError(f"data {data_text!r} is not hex", line_no) from None
    return sys.intern(interface), frame_id, data


def format_line(frame: CanFrame) -> str:
    """Canonical candump form: uppercase hex, 6-digit fractional seconds."""
    return f"({frame.timestamp:.6f}) {frame.interface} {frame.id:03X}#{frame.data.hex().upper()}"


def filter_frames(frames: Iterable[CanFrame], id_filter: IdFilter) -> list[CanFrame]:
    """Keep exactly the frames matching any filter entry, preserving order."""
    return [f for f in frames if id_filter.matches(f.id)]


def parse_log(lines: Iterable[str], strict: bool = True) -> tuple[FrameLog, list[tuple[int, str]]]:
    """Parse a multi-line log into a FrameLog.

    Blank lines are ignored. In strict mode the first bad line aborts with
    LogParseError; otherwise bad lines are skipped and reported as
    (line_no, message) pairs, since real captures contain noise.
    """
    log = FrameLog()
    skipped: list[tuple[int, str]] = []
    # a line's text after its stamp -> the row of its body in the log
    memo: dict[str, int] = {}
    add_stamp, add_index, isfinite = log.stamps.append, log.index.append, math.isfinite
    interfaces, ids, payloads = log.interfaces, log.ids, log.payloads
    for line_no, line in enumerate(lines, start=1):
        try:
            # the happy path: a line that starts with its stamp
            stamp, close, rest = line.partition(")")
            if stamp[:1] == "(":
                try:
                    timestamp = float(stamp[1:])
                except ValueError:
                    pass
                else:
                    if isfinite(timestamp) and timestamp >= 0:
                        index = memo.get(rest)
                        if index is None and close and rest.isascii():
                            # a new body; _parse reads a line that lacks
                            # its ")" or holds text that is not ASCII
                            interface, frame_id, data = _read_body(rest, line, line_no)
                            # _add_body inlined: a call per new body slows a
                            # log whose bodies never repeat by a tenth
                            index = len(ids)
                            interfaces.append(interface)
                            ids.append(frame_id)
                            payloads.append(data)
                            if index < MEMO_ENTRIES:
                                memo[rest] = index
                        if index is not None:
                            add_stamp(timestamp)
                            add_index(index)
                            continue
            text = line.strip()
            if not text:
                continue
            frame = _parse(text, line_no)
        except LogParseError as exc:
            if strict:
                raise
            skipped.append((line_no, str(exc)))
            continue
        # a line that only _parse reads, such as one with a leading blank
        index = memo.get(rest)
        if index is None:
            index = log._add_body(*frame[1:])
            if index < MEMO_ENTRIES:
                memo[rest] = index
        add_stamp(frame[0])
        add_index(index)
    return log, skipped


def read_log(source: str | TextIO, strict: bool = True) -> tuple[FrameLog, list[tuple[int, str]]]:
    """Read a log from a file path, named in its parse errors, or an open
    text stream. A file's line that is not UTF-8 is a parse error of that
    line."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8", errors="surrogateescape") as fp:
                return parse_log(fp, strict=strict)
        except LogParseError as exc:
            named = LogParseError(f"{source}: {exc}")
            named.line_no = exc.line_no
            raise named from None
    return parse_log(source, strict=strict)


def write_log(frames: Iterable[CanFrame], dest: str | TextIO) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fp:
            write_log(frames, fp)
        return
    for frame in frames:
        dest.write(format_line(frame) + "\n")


def text_lines(text: str) -> list[str]:
    """The lines of a text, broken where a text-mode read breaks them: at
    ``\\n``, ``\\r\\n`` and ``\\r`` only. ``str.splitlines`` also breaks at a
    form feed, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``,
    which a comment may hold. The graph and decoder-sheet readers share
    this rule."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")
