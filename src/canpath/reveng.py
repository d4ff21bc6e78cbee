"""Steering-angle signal discovery and decoding.

Wiggling the wheel with the car parked changes the angle word by a few
bits per frame, while counters and checksums flip many. Ranking IDs by
average bit-level hamming distance between consecutive payloads therefore
puts the angle broadcast near the top; locating the two data bytes and the
offset stays a manual step, helped by the per-byte change rates.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canlog import CanFrame, text_lines
from .geokin import VehicleSpec

OFFSET_MODE = "offset"
TWOS_COMPLEMENT_MODE = "twos-complement"

# Angle broadcasts sit in the high-priority (low ID) half of the bus;
# empirically all known angle IDs are below this cutoff.
DEFAULT_ID_CEILING = 0x300

SHEET_HEADER = "canpath-decoders v1"


class AngleEncodeError(ValueError):
    pass


@dataclass(frozen=True)
class AngleDecoder:
    """Per-vehicle recipe turning a 16-bit payload word into degrees.

    ``offset`` mode: angle = ((data[byte_hi]*256 + data[byte_lo]) - offset) * scale.
    ``twos-complement`` mode interprets the word as a signed 16-bit value instead.
    Positive decoded angles mean a left turn.
    """

    id: int
    byte_hi: int = 0
    byte_lo: int = 1
    offset: int = 0x7FFF
    scale: float = 0.01
    mode: str = OFFSET_MODE

    def __post_init__(self):
        if not 0 <= self.id <= 0x7FF:
            raise ValueError(f"identifier 0x{self.id:X} out of 11-bit range")
        if not (0 <= self.byte_hi <= 7 and 0 <= self.byte_lo <= 7):
            raise ValueError("byte indices must be 0-7")
        if self.byte_hi == self.byte_lo:
            raise ValueError("byte_hi and byte_lo must differ")
        if not 0 <= self.offset <= 0xFFFF:
            raise ValueError("offset must fit 16 bits")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if self.mode not in (OFFSET_MODE, TWOS_COMPLEMENT_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class IdChangeStats:
    """Change statistics for one CAN ID over a captured log."""

    id: int
    frame_count: int
    avg_hamming: float
    per_byte_change_rate: tuple[float, ...]


def bit_hamming(a: bytes, b: bytes) -> int:
    """Bit-level hamming distance; a length mismatch counts as the extra bits."""
    common = min(len(a), len(b))
    bits = sum(bin(a[i] ^ b[i]).count("1") for i in range(common))
    return bits + 8 * abs(len(a) - len(b))


def compute_change_stats(frames: Iterable[CanFrame]) -> list[IdChangeStats]:
    """Per-ID frame counts, average hamming distance between consecutive
    payloads, and the fraction of consecutive pairs in which each byte changed.
    """
    prev: dict[int, bytes] = {}
    counts: dict[int, int] = {}
    ham_total: dict[int, int] = {}
    byte_changes: dict[int, list[int]] = {}
    for frame in frames:
        counts[frame.id] = counts.get(frame.id, 0) + 1
        if frame.id in prev:
            before = prev[frame.id]
            ham_total[frame.id] = ham_total.get(frame.id, 0) + bit_hamming(before, frame.data)
            changes = byte_changes.setdefault(frame.id, [0] * 8)
            for i in range(8):
                in_before = i < len(before)
                in_now = i < len(frame.data)
                if in_before != in_now or (in_before and before[i] != frame.data[i]):
                    changes[i] += 1
        prev[frame.id] = frame.data

    stats = []
    for frame_id in sorted(counts):
        pairs = counts[frame_id] - 1
        avg = ham_total.get(frame_id, 0) / pairs if pairs > 0 else 0.0
        changes = byte_changes.get(frame_id, [0] * 8)
        rates = tuple(c / pairs if pairs > 0 else 0.0 for c in changes)
        stats.append(
            IdChangeStats(
                id=frame_id,
                frame_count=counts[frame_id],
                avg_hamming=avg,
                per_byte_change_rate=rates,
            )
        )
    return stats


def rank_swa_candidates(
    stats: Sequence[IdChangeStats], id_ceiling: int = DEFAULT_ID_CEILING
) -> list[IdChangeStats]:
    """Order likely angle-sensor IDs: high-priority IDs only, never-changing
    payloads dropped, smoothest changers first (ties by ascending ID)."""
    kept = [s for s in stats if s.id < id_ceiling and s.avg_hamming > 0]
    return sorted(kept, key=lambda s: (s.avg_hamming, s.id))


def payload_angle(decoder: AngleDecoder, data: bytes) -> float | None:
    """Degrees (positive = left) that ``decoder`` reads from a payload, or
    None when the payload is too short to hold both angle bytes."""
    hi, lo = decoder.byte_hi, decoder.byte_lo
    if len(data) <= hi or len(data) <= lo:
        return None
    word = data[hi] * 256 + data[lo]
    if decoder.mode == TWOS_COMPLEMENT_MODE:
        if word >= 0x8000:
            word -= 0x10000
        return word * decoder.scale
    return (word - decoder.offset) * decoder.scale


def encode_angle(decoder: AngleDecoder, angle_deg: float) -> int:
    """Inverse of payload_angle: degrees to the 16-bit payload word.

    Round-trips within one quantization step (``scale`` degrees).
    """
    counts = round(angle_deg / decoder.scale)
    if decoder.mode == TWOS_COMPLEMENT_MODE:
        if not -0x8000 <= counts <= 0x7FFF:
            raise AngleEncodeError(f"angle {angle_deg} does not fit a signed 16-bit word")
        return counts & 0xFFFF
    word = decoder.offset + counts
    if not 0 <= word <= 0xFFFF:
        raise AngleEncodeError(f"angle {angle_deg} does not fit 16 bits at offset 0x{decoder.offset:04X}")
    return word


def encode_angle_frame(
    decoder: AngleDecoder, timestamp: float, angle_deg: float, interface: str = "can0", fill: int = 0xAA
) -> CanFrame:
    """Build the 8-byte frame a steering sensor would broadcast for an angle."""
    word = encode_angle(decoder, angle_deg)
    data = bytearray([fill] * 8)
    data[decoder.byte_hi] = word >> 8
    data[decoder.byte_lo] = word & 0xFF
    return CanFrame(timestamp=timestamp, interface=interface, id=decoder.id, data=bytes(data))


def format_candidate_report(stats: Sequence[IdChangeStats]) -> str:
    """Human-readable ranking table (id, count, avg hamming, per-byte rates)."""
    out = io.StringIO()
    out.write("   id  frames  avg_ham  " + "  ".join(f"  b{i}" for i in range(8)) + "\n")
    for s in stats:
        rates = "  ".join(f"{r:4.2f}" for r in s.per_byte_change_rate)
        out.write(f"0x{s.id:03X}  {s.frame_count:6d}  {s.avg_hamming:7.3f}  {rates}\n")
    return out.getvalue()


def candidate_report_csv(stats: Sequence[IdChangeStats]) -> str:
    lines = ["id,frame_count,avg_hamming," + ",".join(f"byte{i}_rate" for i in range(8))]
    for s in stats:
        rates = ",".join(f"{r:.6f}" for r in s.per_byte_change_rate)
        lines.append(f"0x{s.id:03X},{s.frame_count},{s.avg_hamming:.6f},{rates}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VehicleEntry:
    """One decoder-sheet row: how a given model encodes its steering angle."""

    model: str
    decoder: AngleDecoder
    wheelbase: float | None = None


def normalize_model(name: str) -> str:
    """A model name as the sheet keys it: lower case, single spaces."""
    return " ".join(name.lower().split())


# Decoders recovered on real vehicles: angle word in the first two data
# bytes around offset 0x7FFF, 0.01 degrees per count. Wheelbases are the
# published figures for these models.
_KNOWN = [
    VehicleEntry("renault captur", AngleDecoder(id=0x0C6), wheelbase=2.606),
    VehicleEntry("dacia duster", AngleDecoder(id=0x0C6), wheelbase=2.673),
    VehicleEntry("opel crossland", AngleDecoder(id=0x2F5), wheelbase=2.604),
    VehicleEntry("peugeot 5008", AngleDecoder(id=0x2EB), wheelbase=2.840),
]

# Alternate spellings seen in the wild map onto the same rows.
_ALIASES = {
    "renault capture": "renault captur",
    "peugeout 5008": "peugeot 5008",
}

KNOWN_VEHICLES: dict[str, VehicleEntry] = {e.model: e for e in _KNOWN}


def lookup_vehicle(model: str) -> VehicleEntry | None:
    """The shipped sheet row (decoder and wheelbase) for a vehicle model,
    spelling variants included, or None when the model is unknown."""
    key = normalize_model(model)
    key = _ALIASES.get(key, key)
    return KNOWN_VEHICLES.get(key)


def _hex(text: str) -> int:
    return int(text, 16)


def _mode(text: str) -> str:
    if text not in (OFFSET_MODE, TWOS_COMPLEMENT_MODE):
        raise ValueError(text)
    return text


# How each sheet field after the model reads, and what it must look like;
# AngleDecoder then checks the ranges.
_SHEET_FIELDS = (
    ("id", _hex, "a hex integer"),
    ("byte_hi", int, "an integer"),
    ("byte_lo", int, "an integer"),
    ("offset", _hex, "a hex integer"),
    ("scale", float, "a number"),
    ("mode", _mode, f"{OFFSET_MODE} or {TWOS_COMPLEMENT_MODE}"),
    ("wheelbase", float, "a number"),
)


def parse_decoder_sheet(text: str) -> dict[str, VehicleEntry]:
    """Parse a decoder sheet file into entries keyed by normalized model.

    A row with the wrong field count, a field that does not read as its
    kind (a hex id, an integer byte index, ...), or a value that
    ``AngleDecoder`` or ``VehicleSpec`` rejects (a byte index past 7, a zero
    scale or wheelbase, ...) is a ValueError naming its line."""
    lines = text_lines(text)
    if lines[0].strip() != SHEET_HEADER:
        raise ValueError(f"decoder sheet must start with {SHEET_HEADER!r}")
    entries: dict[str, VehicleEntry] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (7, 8):
            raise ValueError(f"line {line_no}: expected 7 or 8 comma-separated fields")
        model = normalize_model(parts[0])
        values = {}
        for (name, read, kind), part in zip(_SHEET_FIELDS, parts[1:]):
            try:
                values[name] = read(part)
            except ValueError:
                raise ValueError(f"line {line_no}: {name} must be {kind}, got {part!r}") from None
        wheelbase = values.pop("wheelbase", None)
        try:
            decoder = AngleDecoder(**values)
            if wheelbase is not None:
                VehicleSpec(wheelbase=wheelbase)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        entries[model] = VehicleEntry(model=model, decoder=decoder, wheelbase=wheelbase)
    return entries


def load_decoder_sheet(path: str) -> dict[str, VehicleEntry]:
    """A decoder sheet file, read with ``parse_decoder_sheet``; a format
    error, or text that is not UTF-8, names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse_decoder_sheet(fp.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class VehicleError(ValueError):
    """A vehicle named so that no decoder-sheet row, or no wheelbase, fits."""


# how messages spell the model, the decoder file and the wheelbase, unless a caller says otherwise
_FLAG_NAMES = ("--model", "--decoder-file", "--wheelbase")


def resolve_entry(model: str | None, decoder_file: str | None, names: tuple = _FLAG_NAMES) -> VehicleEntry:
    """The decoder-sheet row that a model name and/or a decoder file name:
    the model's row in the file, the file's only row, or the shipped row."""
    model_name, file_name, wheelbase_name = names
    if decoder_file:
        sheet = load_decoder_sheet(decoder_file)
        if model:
            entry = sheet.get(normalize_model(model))
            if entry is None:
                raise VehicleError(f"model {model!r} not in decoder file")
            return entry
        if len(sheet) != 1:
            raise VehicleError(f"{file_name} has several models; pick one with {model_name}")
        return next(iter(sheet.values()))
    if model:
        entry = lookup_vehicle(model)
        if entry is None:
            raise VehicleError(f"unknown model {model!r}: supply {file_name} and {wheelbase_name}")
        return entry
    raise VehicleError(f"one of {model_name} or {file_name} is required")


def resolve_spec(entry: VehicleEntry, wheelbase: float | None, names: tuple = _FLAG_NAMES) -> VehicleSpec:
    """The vehicle spec for a sheet row: an explicit wheelbase overrides the
    row's, and a row without one needs it."""
    if wheelbase is None:
        wheelbase = entry.wheelbase
    if wheelbase is None:
        raise VehicleError(f"no wheelbase on record for {entry.model!r}: supply {names[2]}")
    return VehicleSpec(wheelbase=wheelbase)
