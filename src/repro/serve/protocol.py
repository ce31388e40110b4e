"""JSONL request/response framing for the alignment service.

One request per line, one response per line, both JSON objects.  A
request names an implementation from the serve registry and carries the
raw pair::

    {"id": "r1", "tenant": "acme", "impl": "ss-vec",
     "pattern": "ACGT...", "text": "ACGT...",
     "params": {"threshold": 12}}

Responses share the schema-versioned envelope of every other emitted
record (:mod:`repro.eval.records`): ``schema_version``, a ``kind`` tag
(:data:`SERVE_RESPONSE_KIND`), the package version, and then the
per-pair result — simulated cycles, the implementation output (its
``repr``, which is deterministic), and the full
:func:`~repro.eval.records.machine_record` statistics.  Because the
record contains only simulation-determined fields (never wall-clock or
arrival metadata), a serve response is *byte-comparable* with the record
derived from the equivalent batch run — the identity gate the test
suite and CI enforce.

Responses are canonically encoded (sorted keys, no whitespace) so
"byte-identical" is well defined across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256

from repro._version import __version__
from repro.align.interface import Implementation, PairResult
from repro.align.quetzal_impl import KswQz
from repro.align.vectorized import BiwfaVec, SsVec, WfaVec
from repro.config import SystemConfig
from repro.errors import ServeProtocolError
from repro.eval.records import SCHEMA_VERSION, machine_record
from repro.genomics.generator import SequencePair
from repro.genomics.sequence import Sequence

#: ``kind`` tag stamped on every serve response line.
SERVE_RESPONSE_KIND = "repro.serve_response"

#: Implementation registry: name -> (class, allowed constructor params).
#: The parameter allow-list keeps requests declarative — a request can
#: configure an implementation but never smuggle arbitrary state.
IMPL_REGISTRY: "dict[str, tuple[type, frozenset]]" = {
    "wfa-vec": (WfaVec, frozenset({"fast", "traceback", "max_score"})),
    "biwfa-vec": (BiwfaVec, frozenset({"fast"})),
    "ss-vec": (SsVec, frozenset({"threshold", "threshold_frac", "fast"})),
    "ksw-qz": (KswQz, frozenset({"band", "band_frac", "fast"})),
}

#: Hard cap on request line length (patterns + overhead), a first-line
#: defence against a client streaming an unbounded line into memory.
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class AlignRequest:
    """One parsed, validated alignment request.

    ``params`` is a sorted tuple of (name, value) pairs so requests are
    hashable and the coalescer can key batches on the implementation
    configuration; ``vlen_bits=None`` means the default system vector
    width.
    """

    id: str
    tenant: str
    impl: str
    pattern: str
    text: str
    params: "tuple[tuple[str, object], ...]" = ()
    vlen_bits: "int | None" = None

    @property
    def batch_key(self) -> tuple:
        """Requests sharing this key may execute in one batch."""
        return (self.impl, self.params, self.vlen_bits)

    def make_impl(self) -> Implementation:
        cls, _ = IMPL_REGISTRY[self.impl]
        return cls(**dict(self.params))

    def make_pair(self) -> SequencePair:
        return SequencePair(
            pattern=Sequence(self.pattern), text=Sequence(self.text)
        )

    def system(self) -> SystemConfig:
        if self.vlen_bits is None:
            return SystemConfig()
        return SystemConfig(vlen_bits=self.vlen_bits)

    def fingerprint(self) -> str:
        """Content digest for the journal: everything that determines
        the response, plus the request id (so distinct requests are
        journaled separately even when their content coincides)."""
        digest = sha256()
        for chunk in (
            __version__, self.id, self.tenant, self.impl,
            repr(self.params), repr(self.vlen_bits),
            self.pattern, self.text,
        ):
            digest.update(chunk.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()


def _require_str(obj: dict, key: str, default: "str | None" = None) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str) or not value:
        raise ServeProtocolError(f"request field {key!r} must be a non-empty string")
    return value


def parse_request(line: "str | bytes") -> AlignRequest:
    """Parse and validate one request line.

    Raises :class:`~repro.errors.ServeProtocolError` with an
    operator-readable reason on any malformed input; the server turns
    that into a ``status: "invalid"`` response instead of dying.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ServeProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeProtocolError(f"request line is not UTF-8: {exc}")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeProtocolError(f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServeProtocolError("request must be a JSON object")
    impl = _require_str(obj, "impl")
    if impl not in IMPL_REGISTRY:
        raise ServeProtocolError(
            f"unknown impl {impl!r}; choose from {', '.join(sorted(IMPL_REGISTRY))}"
        )
    cls, allowed = IMPL_REGISTRY[impl]
    raw_params = obj.get("params", {})
    if not isinstance(raw_params, dict):
        raise ServeProtocolError("request field 'params' must be an object")
    unknown = sorted(set(raw_params) - allowed)
    if unknown:
        raise ServeProtocolError(
            f"impl {impl!r} does not accept param(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    for key, value in raw_params.items():
        if not isinstance(value, (bool, int, float)) and value is not None:
            raise ServeProtocolError(
                f"param {key!r} must be a scalar, got {type(value).__name__}"
            )
    vlen = obj.get("vlen_bits")
    if vlen is not None and (
        type(vlen) is not int or not 128 <= vlen <= 2048 or vlen % 128
    ):
        # SVE's vector lengths; checked before any machine is sized.
        raise ServeProtocolError(
            "request field 'vlen_bits' must be a multiple of 128 in "
            f"128..2048 (an SVE vector length), got {vlen!r}"
        )
    request = AlignRequest(
        id=_require_str(obj, "id"),
        tenant=_require_str(obj, "tenant", "default"),
        impl=impl,
        pattern=_require_str(obj, "pattern"),
        text=_require_str(obj, "text"),
        params=tuple(sorted(raw_params.items())),
        vlen_bits=vlen,
    )
    try:
        # Validate the sequences eagerly so alphabet errors surface as
        # protocol errors, not batch-execution crashes.
        request.make_pair()
        request.make_impl()
    except Exception as exc:
        raise ServeProtocolError(f"invalid request payload: {exc}")
    return request


# ----------------------------------------------------------------------
# Response records
# ----------------------------------------------------------------------
def _envelope(request_id: str, tenant: str, status: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": SERVE_RESPONSE_KIND,
        "version": __version__,
        "id": request_id,
        "tenant": tenant,
        "status": status,
    }


def response_record(request: AlignRequest, result: PairResult) -> dict:
    """The ``status: "ok"`` record for one completed request.

    Contains only simulation-determined fields, so it is byte-comparable
    with the record derived from the equivalent batch run.
    """
    record = _envelope(request.id, request.tenant, "ok")
    record["impl"] = request.impl
    record["cycles"] = result.cycles
    record["instructions"] = result.instructions
    record["output"] = repr(result.output)
    record["machine"] = machine_record(result.stats)
    return record


def rejection_record(request_id: str, tenant: str, reason: str) -> dict:
    """Admission-control rejection (the 429 analogue)."""
    record = _envelope(request_id, tenant, "rejected")
    record["reason"] = reason
    return record


def error_record(request: AlignRequest, reason: str) -> dict:
    """Execution failure after retry exhaustion."""
    record = _envelope(request.id, request.tenant, "error")
    record["reason"] = reason
    return record


def invalid_record(reason: str, request_id: str = "", tenant: str = "") -> dict:
    """Unparseable or unvalidatable request line."""
    record = _envelope(request_id, tenant, "invalid")
    record["reason"] = reason
    return record


def canonical_encode(record: dict) -> str:
    """Deterministic one-line encoding (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
