"""candump-style CAN log parsing, formatting and ID/mask filtering.

A log line looks like ``(1684149582.123456) can0 0C6#7DC80000AAAAAAAA``:
timestamp in seconds since the epoch, interface name, 11-bit identifier in
hex, and up to 8 data bytes in hex after the ``#``.

Parsing costs little more than the bytes it reads. ``parse_log`` splits
each line once; a line of exactly three tokens, a ``(stamp)``, an interface
and ``ID#DATA`` with even-length data of at most 16 hex digits, is read
with the same ``float``, ``int(_, 16)`` and ``bytes.fromhex`` calls and the
same finite and range checks as ``_parse``. Those checks are the three that
``CanFrame.__new__`` makes, so the parser builds the 4-tuple directly. Any
other line (blank, malformed, or a rare valid spelling such as
``(1.0)can0 7E8#00``) goes to the private ``_parse`` that ``parse_line``
uses, the only code that words a parse error. Both parsers intern the
interface name, so the frames of one capture share one ``can0`` string
instead of holding a copy each (about 53 bytes a frame).

A filtered capture repeats a few dozen ``ID#DATA`` bodies, so
``parse_log`` reads each distinct body once: a memo local to the call
maps the token to its ``(id, payload)``, and every frame of that body
shares the two objects. The stamp is read and checked on every
line. The memo stops growing at ``MEMO_ENTRIES`` bodies; a body past that
is read again on each line. A parsed frame of a repeated body holds about
113 bytes: its tuple and its stamp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, TextIO

MAX_STD_ID = 0x7FF

# Most entries a memo of parse_log or inference.decode_signals holds: a
# filtered capture repeats a few dozen distinct frame bodies, and a log in
# which every body differs stops adding to the memo at this size.
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
    ``parse_log`` makes those three checks itself on the lines it reads and
    then builds the tuple directly with ``tuple.__new__``. Frames compare
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

    return CanFrame(timestamp, sys.intern(interface), frame_id, data)


def format_line(frame: CanFrame) -> str:
    """Canonical candump form: uppercase hex, 6-digit fractional seconds."""
    return f"({frame.timestamp:.6f}) {frame.interface} {frame.id:03X}#{frame.data.hex().upper()}"


def filter_frames(frames: Iterable[CanFrame], id_filter: IdFilter) -> list[CanFrame]:
    """Keep exactly the frames matching any filter entry, preserving order."""
    return [f for f in frames if id_filter.matches(f.id)]


def parse_log(
    lines: Iterable[str], strict: bool = True
) -> tuple[list[CanFrame], list[tuple[int, str]]]:
    """Parse a multi-line log.

    Blank lines are ignored. In strict mode the first bad line aborts with
    LogParseError; otherwise bad lines are skipped and reported as
    (line_no, message) pairs, since real captures contain noise.
    """
    frames: list[CanFrame] = []
    skipped: list[tuple[int, str]] = []
    # ID#DATA token -> (id, payload), for tokens that pass _parse's checks
    bodies: dict[str, tuple[int, bytes]] = {}
    append, new, isfinite, intern = frames.append, tuple.__new__, math.isfinite, sys.intern
    for line_no, line in enumerate(lines, start=1):
        # the happy path: _parse's checks on a line's three tokens, in locals
        tokens = line.split()
        if len(tokens) == 3:
            stamp, interface, frame_text = tokens
            body = bodies.get(frame_text)
            if body is None:
                id_text, sep, data_text = frame_text.partition("#")
                if sep and len(data_text) <= 16 and not len(data_text) % 2:
                    try:
                        frame_id = int(id_text, 16)
                        data = bytes.fromhex(data_text)
                    except ValueError:
                        pass
                    else:
                        if 0 <= frame_id <= MAX_STD_ID:
                            body = (frame_id, data)
                            if len(bodies) < MEMO_ENTRIES:
                                bodies[frame_text] = body
            if body is not None and stamp[0] == "(" and stamp[-1] == ")":
                try:
                    timestamp = float(stamp[1:-1])
                except ValueError:
                    pass
                else:
                    if isfinite(timestamp) and timestamp >= 0:
                        append(new(CanFrame, (timestamp, intern(interface), body[0], body[1])))
                        continue
        text = line.strip()
        if not text:
            continue
        try:
            append(_parse(text, line_no))
        except LogParseError as exc:
            if strict:
                raise
            skipped.append((line_no, str(exc)))
    return frames, skipped


def read_log(source: str | TextIO, strict: bool = True) -> tuple[list[CanFrame], list[tuple[int, str]]]:
    """Read a log from a file path, named in its parse errors, or an open text stream."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fp:
                return parse_log(fp, strict=strict)
        except (LogParseError, UnicodeDecodeError) as exc:
            named = LogParseError(f"{source}: {exc}")
            named.line_no = getattr(exc, "line_no", None)
            raise named from None
    return parse_log(source, strict=strict)


def write_log(frames: Iterable[CanFrame], dest: str | TextIO) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fp:
            write_log(frames, fp)
        return
    for frame in frames:
        dest.write(format_line(frame) + "\n")
