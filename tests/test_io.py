"""Tests for CSV formats, canonical JSON, and schema validation."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lobdiff.book import (
    ASK,
    BID,
    BookState,
    OrderEvent,
    events_to_list,
    exponential_reinit,
    replay,
)
from lobdiff.io import (
    ConfigError,
    jsonable,
    load_json,
    read_events_csv,
    sha256_hex,
    validate_schema,
    write_events_csv,
    write_json,
    write_prices_csv,
    write_queues_csv,
)


def test_events_round_trip_exact(tmp_path):
    events = [
        OrderEvent(1e-9, BID, -0.333333333333),
        OrderEvent(0.1, BID, 1.5),
        OrderEvent(0.30000000000000004, ASK, -2.0),
    ]
    # time-ordered: the reader rejects a time earlier than the line before
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    back = events_to_list(*read_events_csv(path))
    assert back == events


def test_events_csv_bytes_are_stable(tmp_path):
    events = [OrderEvent(0.25, BID, 1.0), OrderEvent(0.5, ASK, -1.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_events_csv(p1, events)
    write_events_csv(p2, events)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "time,side,delta\n0.25,b,1.0\n0.5,a,-1.0\n"


def test_read_events_rejects_bad_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,delta,side\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_events_csv(p)


def test_read_events_names_offending_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,side,delta\n0.5,b,1.0\n-0.25,a,1.0\n")
    with pytest.raises(ConfigError, match="line 3: negative timestamp"):
        read_events_csv(p)
    p.write_text("time,side,delta\n0.5,b\n")
    with pytest.raises(ConfigError, match="line 2: expected 3 fields"):
        read_events_csv(p)
    p.write_text("time,side,delta\nzero,b,1.0\n")
    with pytest.raises(ConfigError, match="line 2: non-numeric"):
        read_events_csv(p)
    p.write_text("time,side,delta\n0.5,bid,1.0\n")
    with pytest.raises(ConfigError, match="side must be 'b' or 'a'"):
        read_events_csv(p)


def test_read_events_skips_blank_trailing_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,side,delta\n0.5,b,1.0\n\n")
    assert len(read_events_csv(p)[0]) == 1


def test_read_events_columns_match_float_of_each_field(tmp_path):
    rows = ["1e-9,b,-0.333333333333", "0.1,a,1.5", "0.1,a,1_0"]
    text = "time,side,delta\n" + "\n".join(rows) + "\n"
    p = tmp_path / "x.csv"
    p.write_text(text)
    times, sides, deltas = read_events_csv(p)
    assert times.tolist() == [1e-9, 0.1, 0.1]
    assert sides.dtype == np.int8 and sides.tolist() == [0, 1, 1]
    assert deltas.tolist() == [-0.333333333333, 1.5, 10.0]
    # CRLF endings and blank lines are normalized away: same columns
    p.write_bytes(text.replace("\n", "\r\n\r\n").encode())
    again = read_events_csv(p)
    for a, b in zip(again, (times, sides, deltas)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_read_events_rejects_rows_that_only_balance_in_total(tmp_path):
    # six fields over two rows, but 4 + 2 rather than 3 + 3
    p = tmp_path / "x.csv"
    p.write_text("time,side,delta\n0.5,b,1.0,2.0\nb,1.0\n")
    with pytest.raises(ConfigError, match="line 2: expected 3 fields"):
        read_events_csv(p)


def test_write_events_accepts_columns(tmp_path):
    p = tmp_path / "x.csv"
    write_events_csv(p, (np.array([0.25, 0.5]), np.array([0, 1], np.int8), np.array([1.0, -1.0])))
    assert p.read_text() == "time,side,delta\n0.25,b,1.0\n0.5,a,-1.0\n"


def test_queue_and_price_csv_headers(tmp_path):
    events = [OrderEvent(0.5, BID, -1.0), OrderEvent(1.0, ASK, -1.0)]
    rng = np.random.default_rng(4)
    path, prices = replay(
        events, BookState(10, 0.01, 2.0, 2.0), exponential_reinit(2.0, 2.0), rng
    )
    qp, pp = tmp_path / "q.csv", tmp_path / "p.csv"
    write_queues_csv(qp, path)
    write_prices_csv(pp, prices)
    qlines = qp.read_text().splitlines()
    assert qlines[0] == "time,q_bid,q_ask"
    assert len(qlines) == 1 + len(path.samples)
    plines = pp.read_text().splitlines()
    assert plines[0] == "time,price_ticks"
    assert plines[1] == "0.0,10"


def test_jsonable_handles_numpy_and_bools():
    doc = jsonable(
        {
            "arr": np.arange(3),
            "f": np.float64(0.5),
            "i": np.int32(7),
            "flag": np.bool_(True),
            "plain": True,
            "nested": [np.float32(1.0), {"k": np.int64(2)}],
        }
    )
    text = json.dumps(doc)
    assert json.loads(text) == {
        "arr": [0, 1, 2],
        "f": 0.5,
        "i": 7,
        "flag": True,
        "plain": True,
        "nested": [1.0, {"k": 2}],
    }
    assert isinstance(doc["flag"], bool)


def test_write_json_canonical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"b": 1, "a": [1.5, 2]})
    write_json(p2, {"a": [1.5, 2], "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert json.loads(p1.read_text()) == {"a": [1.5, 2], "b": 1}


@pytest.mark.parametrize(
    "text, where, value",
    [
        ('{"a": NaN}', "$.a", "nan"),
        ('{"a": {"b": [1.0, 2.0, -Infinity]}}', "$.a.b[2]", "-inf"),
        ('[{"x": 1}, {"y": Infinity}]', "$[1].y", "inf"),
        ('{"a": [1e400]}', "$.a[0]", "inf"),
    ],
)
def test_load_json_rejects_non_finite_numbers_by_location(tmp_path, text, where, value):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_json(p)
    assert str(err.value) == f"{p}: {where}: number {value} is not finite"


def test_load_json_keeps_finite_documents(tmp_path):
    p = tmp_path / "cfg.json"
    doc = {"a": [1, 2.5, -1e308], "b": {"c": None, "d": "NaN", "e": True}}
    p.write_text(json.dumps(doc))
    assert load_json(p) == doc


def test_sha256_hex(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    assert sha256_hex(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ---------------------------------------------------------------------------
# Schema validation


SCHEMA = {
    "type": "object",
    "required": ["flow", "horizon"],
    "properties": {
        "flow": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"type": "string", "enum": ["poisson", "agent"]},
                "rate": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "horizon": {"type": "number", "minimum": 0},
        "ladder": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
    },
}


def test_schema_accepts_valid():
    validate_schema(
        {"flow": {"kind": "poisson", "rate": 1.0}, "horizon": 2.0, "ladder": [1, 10]},
        SCHEMA,
    )


def test_schema_reports_paths_and_collects_everything():
    with pytest.raises(ConfigError) as err:
        validate_schema(
            {"flow": {"kind": "hawkes", "rate": -1.0}, "ladder": [0, "x"]},
            SCHEMA,
        )
    msg = str(err.value)
    assert "$.horizon: required key is missing" in msg
    assert "$.flow.kind: must be one of" in msg
    assert "$.flow.rate: must be > 0" in msg
    assert "$.ladder[0]: must be >= 1" in msg
    assert "$.ladder[1]: expected integer" in msg


def test_schema_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"\$\.typo: unknown key"):
        validate_schema({"flow": {"kind": "poisson"}, "horizon": 1.0, "typo": 3}, SCHEMA)


def test_schema_type_mismatches():
    with pytest.raises(ConfigError, match=r"\$\.horizon: expected number, got str"):
        validate_schema({"flow": {"kind": "poisson"}, "horizon": "long"}, SCHEMA)
    # booleans are not numbers
    with pytest.raises(ConfigError, match="expected number, got bool"):
        validate_schema({"flow": {"kind": "poisson"}, "horizon": True}, SCHEMA)


def test_schema_open_objects_allow_extra_keys():
    validate_schema({"anything": 1, "goes": 2}, {"type": "object", "open": True})
