"""The RRLG order-log codec: round trips, truncation, b64, files."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compact.varint import DeltaEncoder, encode_uvarint, zigzag
from repro.replay.orderlog import (
    _MAGIC,
    _TRAILER,
    CH_DELIVER,
    CH_EVENT,
    CH_FAULT,
    CH_MATCH,
    FORMAT_VERSION,
    Decision,
    OrderLog,
    bits_float,
    float_bits,
)


def sample_log():
    log = OrderLog(meta={"format": "repro.replay", "label": "t"})
    log.append(CH_EVENT, "P:rank0", 0, 0.0)
    log.append(CH_EVENT, "Timeout", 1, 0.5)
    log.append(CH_DELIVER, "0>1:7:world", -1, 0.5)
    log.append(CH_MATCH, "0>1:7:world", 3, 0.75)
    log.append(CH_FAULT, "loss.0.1", float_bits(0.123456), 1.25)
    log.append(CH_EVENT, "P:rank0", 0, 1.25)  # repeated key: interned
    return log


def test_roundtrip_is_exact():
    log = sample_log()
    data = log.to_bytes()
    back = OrderLog.from_bytes(data)
    assert back == log
    assert back.decisions == log.decisions
    assert back.meta == log.meta
    # Serialisation is deterministic: same log, same bytes.
    assert back.to_bytes() == data


def test_float_bits_round_trip():
    for value in (0.0, 1.0, -1.5, 0.1 + 0.2, 1e-300, float("inf")):
        assert bits_float(float_bits(value)) == value


def test_counts_by_channel():
    assert sample_log().counts() == {
        "event": 3, "deliver": 1, "match": 1, "fault": 1,
    }


def test_b64_round_trip():
    log = sample_log()
    assert OrderLog.from_b64(log.to_b64()) == log


def test_save_load_round_trip(tmp_path):
    log = sample_log()
    path = str(tmp_path / "run.order")
    log.save(path)
    assert OrderLog.load(path) == log


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="bad magic"):
        OrderLog.from_bytes(b"NOPE" + b"\x00" * 16)


def test_unsupported_version_rejected():
    data = bytearray(sample_log().to_bytes())
    data[4] = 99  # the version uvarint sits right after the magic
    with pytest.raises(ValueError, match="version"):
        OrderLog.from_bytes(bytes(data))


@pytest.mark.parametrize("cut", (6, 20, -5, -1))
def test_truncation_detected(cut):
    data = sample_log().to_bytes()
    with pytest.raises(ValueError, match="truncated or corrupt"):
        OrderLog.from_bytes(data[:cut])


def test_empty_log_round_trips():
    log = OrderLog(meta={})
    assert OrderLog.from_bytes(log.to_bytes()) == log
    assert len(log) == 0


def test_decision_to_dict_names_channel():
    d = Decision(CH_FAULT, "loss.0.1", 42, 1.5)
    doc = d.to_dict()
    assert doc["channel_name"] == "fault"
    assert doc["key"] == "loss.0.1"
    assert doc["value"] == 42


def test_out_of_range_timestamp_delta_is_a_corrupt_log():
    # A delta-of-delta that carries the bit pattern past 2**63 - 1
    # cannot be a double: the decoder must report a corrupt log, not
    # let struct.error escape.
    out = bytearray(_MAGIC)
    encode_uvarint(FORMAT_VERSION, out)
    encode_uvarint(2, out)
    out += b"{}"
    encode_uvarint(1, out)  # one key
    encode_uvarint(1, out)
    out += b"k"
    encode_uvarint(1, out)  # one decision
    out += bytes((CH_EVENT, 0, 0))
    encode_uvarint(zigzag(2 ** 63), out)
    encode_uvarint(1, out)
    out += _TRAILER
    with pytest.raises(ValueError, match="truncated or corrupt"):
        OrderLog.from_bytes(bytes(out))


# -- the bulk encoder against the per-decision reference ----------------------


def reference_to_bytes(log):
    """The per-decision RRLG encoder ``OrderLog.to_bytes`` must match."""
    out = bytearray()
    out += _MAGIC
    encode_uvarint(FORMAT_VERSION, out)
    meta_blob = json.dumps(
        log.meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    encode_uvarint(len(meta_blob), out)
    out += meta_blob
    table = {}
    for d in log.decisions:
        if d.key not in table:
            table[d.key] = len(table)
    encode_uvarint(len(table), out)
    for key in table:
        blob = key.encode("utf-8")
        encode_uvarint(len(blob), out)
        out += blob
    encode_uvarint(len(log.decisions), out)
    times = DeltaEncoder()
    for d in log.decisions:
        encode_uvarint(d.channel, out)
        encode_uvarint(table[d.key], out)
        encode_uvarint(zigzag(d.value), out)
        times.encode(d.time, out)
    encode_uvarint(len(log.decisions), out)
    out += _TRAILER
    return bytes(out)


_keys = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.integers(0, 299).map(lambda i: f"key{i}"),  # > 128 distinct keys
)
_times = st.one_of(
    st.floats(),  # -0.0, subnormals, +-inf, NaN
    st.integers(-2 ** 63, 2 ** 63 - 1).map(bits_float),  # NaN payloads
    st.integers(0, 64).map(lambda i: 0.75 + 0.125 * i),  # binade crossings
)
_decisions = st.builds(
    Decision,
    channel=st.one_of(st.integers(0, 3), st.integers(128, 2 ** 70)),
    key=_keys,
    value=st.one_of(st.integers(-64, 64), st.integers(-2 ** 70, 2 ** 70)),
    time=_times,
)
_logs = st.builds(
    OrderLog,
    meta=st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    decisions=st.lists(_decisions, max_size=400),
)


def _exact(log):
    # Bit patterns, so NaN times compare equal to themselves.
    return [(d.channel, d.key, d.value, float_bits(d.time)) for d in log.decisions]


@settings(max_examples=200, deadline=None)
@given(_logs)
@example(OrderLog())
@example(OrderLog(decisions=[
    Decision(CH_EVENT, f"rank{i}\u00e9\u4e2d", -2 ** 63 + i, 0.75 + 0.125 * i)
    for i in range(300)
]))
@example(OrderLog(decisions=[
    Decision(CH_FAULT, "s", 0, t)
    for t in (0.0, -0.0, 5e-324, 2.2250738585072014e-308, float("inf"),
              float("-inf"), bits_float(0x7FF0000000000001),
              bits_float(-0x0008000000000001), 1.0, 2.0, 4.0)
]))
def test_bulk_encoder_matches_the_per_decision_reference(log):
    data = log.to_bytes()
    assert data == reference_to_bytes(log)
    back = OrderLog.from_bytes(data)
    assert back.meta == log.meta
    assert _exact(back) == _exact(log)
    assert back.to_bytes() == data
