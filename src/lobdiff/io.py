"""File formats: order-event CSV, path/price CSV, and JSON configs.

CSV files are UTF-8 with LF line endings and a fixed header; floats are
written with `repr`, so values round-trip exactly and identical inputs
produce byte-identical files. JSON documents are written canonically
(sorted keys, two-space indent) for the same reason. Config validation is
a small hand-rolled schema walk that reports every violation with a
JSONPath-style location, e.g. ``$.flow.lambda_limit: expected number``.
"""

import hashlib
import json
import math

import numpy as np

from .book import _as_columns

__all__ = [
    "ConfigError",
    "read_events_csv",
    "write_events_csv",
    "write_queues_csv",
    "write_prices_csv",
    "write_grid_csv",
    "load_json",
    "write_json",
    "jsonable",
    "validate_schema",
    "sha256_hex",
]

EVENTS_HEADER = "time,side,delta"
QUEUES_HEADER = "time,q_bid,q_ask"
PRICES_HEADER = "time,price_ticks"

_SIDE_LETTERS = ("b", "a")  # indexed by the 0 = bid / 1 = ask side code

#: Rows formatted per write, so no whole-file list of row strings is built.
_CHUNK_ROWS = 1 << 16


class ConfigError(ValueError):
    """A config or data file failed validation; message lists locations."""


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path, header, columns, row_format):
    """Write equal-length columns as rows, formatting `_CHUNK_ROWS` at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [col[lo:lo + _CHUNK_ROWS].tolist() for col in columns]
            fh.write("".join(map(row_format.format, *chunk)))


def write_events_csv(path, events):
    """Write an event stream (see `book.replay`) as `time,side,delta` rows."""
    times, sides, deltas = _as_columns(events)
    letters = np.array(_SIDE_LETTERS, dtype=object)[sides]
    _write_rows(path, EVENTS_HEADER, (times, letters, deltas), "{!r},{},{!r}\n")


def read_events_csv(path):
    """Parse an order-event CSV into columns (times, sides, deltas).

    Sides come back as int8 codes (0 = bid, 1 = ask); values are exactly
    `float` of each field, and blank lines are skipped. The tape must be
    usable as it stands: a malformed row, an unknown side, a negative or
    non-finite time, a time earlier than the one before, or a zero or
    non-finite delta raises ConfigError naming the file line (the header is
    line 1).
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if body and (body[0] == "\n" or "\n\n" in body or body[-1] != "\n"):
        body = "".join(line + "\n" for line in body.split("\n") if line)
    # Each newline becomes a field of its own, so a row has exactly three
    # fields iff every fourth field is a newline.
    fields = body.replace("\n", ",\n,").split(",")
    n = len(fields) // 4
    try:
        letters = np.array(fields[1::4], dtype=str)
        if (
            header == EVENTS_HEADER
            and len(fields) == 4 * n + 1
            and fields[3::4].count("\n") == n
            and np.all((letters == "b") | (letters == "a"))
        ):
            times = np.array(fields[0:-1:4], dtype=float)
            deltas = np.array(fields[2::4], dtype=float)
            return _as_columns((times, (letters == "a").astype(np.int8), deltas))
    except ValueError:
        pass
    _raise_at_bad_line(path, text)


def _raise_at_bad_line(path, text):
    """Walk the tape line by line and raise ConfigError at the first bad one."""
    lines = text.split("\n")
    if lines[0] != EVENTS_HEADER:
        raise ConfigError(
            f"{path}: line 1: expected header {EVENTS_HEADER!r}, got {lines[0]!r}"
        )
    last = 0.0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        where = f"{path}: line {lineno}"
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 3 fields, got {len(parts)}")
        try:
            t, delta = float(parts[0]), float(parts[2])
        except ValueError:
            raise ConfigError(f"{where}: non-numeric time or delta") from None
        if t < 0:
            raise ConfigError(f"{where}: negative timestamp {parts[0]}")
        if not math.isfinite(t):
            raise ConfigError(f"{where}: non-finite timestamp {parts[0]}")
        if t < last:
            raise ConfigError(f"{where}: time {parts[0]} is earlier than the line before")
        if delta == 0 or not math.isfinite(delta):
            raise ConfigError(f"{where}: delta must be finite and nonzero, got {parts[2]}")
        if parts[1] not in _SIDE_LETTERS:
            raise ConfigError(f"{where}: side must be 'b' or 'a', got {parts[1]!r}")
        last = t
    raise ConfigError(f"{path}: unreadable event tape")


def write_queues_csv(path, regulated):
    """Write a RegulatedPath as `time,q_bid,q_ask` rows."""
    columns = (regulated.times, regulated.q_bid, regulated.q_ask)
    _write_rows(path, QUEUES_HEADER, columns, "{!r},{!r},{!r}\n")


def write_prices_csv(path, price_path):
    """Write a PricePath as `time,price_ticks` rows."""
    _write_rows(path, PRICES_HEADER, (price_path.times, price_path.price_ticks), "{!r},{}\n")


def write_grid_csv(path, header, rows):
    """Write a generic numeric table with the given comma-joined header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# JSON documents


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, obj):
    """Write a JSON document canonically: sorted keys, LF, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _first_non_finite(value, path):
    """JSON path and value of the first NaN or infinite number in `value`."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, dict):
        items = ((f"{path}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for sub_path, sub in items:
        found = _first_non_finite(sub, sub_path)
        if found:
            return found
    return None


def load_json(path):
    """Parse a JSON config, refusing by location any number that is not finite:
    the NaN and +-Infinity tokens, and literals such as 1e400 that overflow."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    found = _first_non_finite(doc, "$")
    if found:
        raise ConfigError(f"{path}: {found[0]}: number {found[1]} is not finite")
    return doc


def sha256_hex(path):
    """Hex digest of a file's raw bytes, for provenance stamps."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Schema validation

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _walk(value, schema, path, errors):
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        choices = ", ".join(repr(c) for c in schema["enum"])
        errors.append(f"{path}: must be one of {choices}, got {value!r}")
        return
    if expected in ("number", "integer"):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: must be >= {schema['minimum']}, got {value}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(f"{path}: must be > {schema['exclusiveMinimum']}, got {value}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: must be <= {schema['maximum']}, got {value}")
    if expected == "array":
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(
                f"{path}: needs at least {schema['minItems']} items, got {len(value)}"
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: allows at most {schema['maxItems']} items, got {len(value)}")
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                _walk(item, item_schema, f"{path}[{i}]", errors)
    if expected == "object":
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}.{key}: required key is missing")
        if not schema.get("open", False):
            for key in value:
                if key not in props:
                    errors.append(f"{path}.{key}: unknown key")
        for key, sub in props.items():
            if key in value:
                _walk(value[key], sub, f"{path}.{key}", errors)


def validate_schema(obj, schema, where="$"):
    """Check `obj` against a small schema dialect; raise listing every issue.

    The dialect covers what configs need: type, required/properties (closed
    by default, opt out with "open": true), enum, items/minItems/maxItems, and
    numeric bounds. Errors carry JSONPath-style locations.
    """
    errors = []
    _walk(obj, schema, where, errors)
    if errors:
        raise ConfigError("\n".join(errors))
