"""Unit tests for the serve wire protocol: parsing, validation,
batch keys, fingerprints, and the response-record envelope."""

import json

import pytest

from repro._version import __version__
from repro.errors import ServeProtocolError
from repro.eval.records import SCHEMA_VERSION
from repro.serve.client import request_line
from repro.serve.protocol import (
    IMPL_REGISTRY,
    MAX_LINE_BYTES,
    SERVE_RESPONSE_KIND,
    AlignRequest,
    canonical_encode,
    error_record,
    invalid_record,
    parse_request,
    rejection_record,
)


def make_request(**overrides):
    fields = dict(
        id="r1", tenant="acme", impl="ss-vec",
        pattern="ACGTACGT", text="ACGTACGT",
    )
    fields.update(overrides)
    return AlignRequest(**fields)


class TestParse:
    def test_minimal_request(self):
        request = parse_request(
            '{"id": "r1", "impl": "ss-vec", "pattern": "ACGT", "text": "ACGT"}'
        )
        assert request.id == "r1"
        assert request.tenant == "default"
        assert request.impl == "ss-vec"
        assert request.params == ()
        assert request.vlen_bits is None

    def test_round_trip_through_wire_line(self):
        request = make_request(
            params=(("threshold", 12),), vlen_bits=256
        )
        assert parse_request(request_line(request)) == request

    def test_bytes_input(self):
        line = request_line(make_request()).encode("utf-8")
        assert parse_request(line) == make_request()

    @pytest.mark.parametrize("line,fragment", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"impl": "ss-vec", "pattern": "A", "text": "A"}', "'id'"),
        ('{"id": "r", "impl": "nope", "pattern": "A", "text": "A"}',
         "unknown impl"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "A", "text": "A",'
         ' "params": [1]}', "must be an object"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "A", "text": "A",'
         ' "params": {"band": 3}}', "does not accept"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "A", "text": "A",'
         ' "params": {"threshold": [1]}}', "must be a scalar"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "A", "text": "A",'
         ' "vlen_bits": 64}', "vlen_bits"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "A", "text": "A",'
         ' "vlen_bits": "wide"}', "vlen_bits"),
        ('{"id": "r", "impl": "ss-vec", "pattern": "ACGTX", "text": "A"}',
         "invalid request payload"),
    ])
    def test_rejects_malformed(self, line, fragment):
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_request(line)
        assert fragment in str(excinfo.value)

    def test_rejects_oversized_line(self):
        line = json.dumps({
            "id": "r", "impl": "ss-vec",
            "pattern": "A" * (MAX_LINE_BYTES + 16), "text": "A",
        }).encode("utf-8")
        with pytest.raises(ServeProtocolError, match="exceeds"):
            parse_request(line)

    def test_rejects_non_utf8(self):
        with pytest.raises(ServeProtocolError, match="not UTF-8"):
            parse_request(b'{"id": "\xff\xfe"}')

    @pytest.mark.parametrize("vlen", (64, 192, 2176, 2**40))
    def test_rejects_vector_lengths_sve_cannot_have(self, vlen, monkeypatch):
        """Checked at parse time: no machine is sized from the value."""
        from repro.vector.machine import VectorMachine

        def no_machine(*args, **kwargs):
            raise AssertionError("a machine was built for a rejected length")

        monkeypatch.setattr(VectorMachine, "__init__", no_machine)
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_request(request_line(make_request(vlen_bits=vlen)))
        message = str(excinfo.value)
        assert "multiple of 128 in 128..2048" in message
        assert repr(vlen) in message

    @pytest.mark.parametrize("vlen", (128, 256, 2048))
    def test_accepts_sve_vector_lengths(self, vlen):
        assert parse_request(
            request_line(make_request(vlen_bits=vlen))
        ).vlen_bits == vlen

    def test_every_registered_impl_parses(self):
        for name in IMPL_REGISTRY:
            request = parse_request(json.dumps({
                "id": "r", "impl": name, "pattern": "ACGT" * 4,
                "text": "ACGT" * 4,
            }))
            assert request.make_impl() is not None


class TestBatchKey:
    def test_same_configuration_shares_key(self):
        a = make_request(id="a")
        b = make_request(id="b", tenant="other")
        assert a.batch_key == b.batch_key

    def test_params_split_keys(self):
        a = make_request(params=(("threshold", 8),))
        b = make_request(params=(("threshold", 9),))
        assert a.batch_key != b.batch_key

    def test_vlen_splits_keys(self):
        assert make_request().batch_key != make_request(vlen_bits=512).batch_key


class TestFingerprint:
    def test_stable_for_equal_requests(self):
        assert make_request().fingerprint() == make_request().fingerprint()

    def test_distinct_ids_distinct_fingerprints(self):
        assert (
            make_request(id="a").fingerprint()
            != make_request(id="b").fingerprint()
        )

    def test_payload_changes_fingerprint(self):
        assert (
            make_request().fingerprint()
            != make_request(pattern="ACGTACGA").fingerprint()
        )


class TestRecords:
    def test_envelope_fields(self):
        record = rejection_record("r9", "acme", "rate_limited")
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["kind"] == SERVE_RESPONSE_KIND
        assert record["version"] == __version__
        assert record["status"] == "rejected"
        assert record["reason"] == "rate_limited"

    def test_error_and_invalid_statuses(self):
        assert error_record(make_request(), "timeout")["status"] == "error"
        assert invalid_record("bad json")["status"] == "invalid"
        assert invalid_record("bad", "r1", "t")["id"] == "r1"

    def test_canonical_encode_is_key_order_independent(self):
        assert canonical_encode({"b": 1, "a": 2}) == canonical_encode(
            {"a": 2, "b": 1}
        )
        assert canonical_encode({"a": 2, "b": 1}) == '{"a":2,"b":1}'
