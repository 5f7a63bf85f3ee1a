"""Append-only, hash-chained JSONL artifact ledger.

One ledger file holds one run's evidence trail: experiment run records,
serve metrics snapshots, benchmark timing artifacts. Each line is the
canonical JSON (:mod:`repro.audit.canonical`) of one
:class:`LedgerRecord`; records are chained by sha256 — record ``i``
stores ``prev_hash`` = the ``record_hash`` of record ``i - 1`` (the fixed
:data:`GENESIS_HASH` for the first), and its own ``record_hash`` is the
sha256 of its canonical body *without* the hash field. Editing any byte
of any line therefore breaks either that record's hash or every later
record's link, which is what ``rfprotect audit verify`` checks.

Records are schema-versioned (:data:`SCHEMA_VERSION` rides in every
record) and typed by ``kind`` (:data:`RECORD_KINDS`); payloads are
arbitrary canonically-serializable JSON. Nothing here reads a clock —
ordering is the chain itself, and callers that want wall-clock context
supply it inside the payload (the serve snapshot's ``now=`` convention).
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterator
from typing import Any

from repro.audit import ed25519
from repro.audit.canonical import canonical_json, digest, sha256_hex
from repro.errors import AuditError, LedgerError, SignatureError

__all__ = [
    "ChainVerification",
    "GENESIS_HASH",
    "LEDGER_NAME",
    "Ledger",
    "LedgerRecord",
    "RECORD_KINDS",
    "SCHEMA_VERSION",
    "sign_ledger",
    "signing_payload",
    "verify_chain",
    "verify_signature",
]

#: Version of the record schema written by this module.
SCHEMA_VERSION = 1

#: The chain link of the first record.
GENESIS_HASH = sha256_hex(b"rfprotect-audit-genesis-v1")

#: File name of the ledger inside a record directory: the experiments
#: runner appends to it, ``rfprotect audit`` reads it.
LEDGER_NAME = "ledger.jsonl"

#: Recognized record types.
RECORD_KINDS: tuple[str, ...] = (
    "experiment_run", "serve_metrics", "benchmark_timing",
)


#: Each record field and the one JSON type it may have (never a boolean).
_FIELD_TYPES: dict[str, type] = {
    "index": int, "kind": str, "payload": dict, "prev_hash": str,
    "record_hash": str, "schema": int,
}


@dataclasses.dataclass(frozen=True)
class LedgerRecord:
    """One chained ledger entry."""

    index: int
    kind: str
    payload: dict[str, Any]
    prev_hash: str
    record_hash: str
    schema: int = SCHEMA_VERSION

    def body(self) -> dict[str, Any]:
        """The hashed portion: everything except ``record_hash``."""
        return {
            "index": self.index,
            "kind": self.kind,
            "payload": self.payload,
            "prev_hash": self.prev_hash,
            "schema": self.schema,
        }

    def computed_hash(self) -> str:
        """sha256 over the canonical serialization of :meth:`body`."""
        return digest(self.body())

    def to_dict(self) -> dict[str, Any]:
        record = self.body()
        record["record_hash"] = self.record_hash
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "LedgerRecord":
        """The record a parsed ledger line holds, its JSON types checked.

        The hash covers the field values, so a field rewritten to another
        JSON type (``"index":"0"``, ``0.0`` or ``true``) must fail here
        rather than be coerced back to the value it replaced.
        """
        for name, kind in _FIELD_TYPES.items():
            if name not in record:
                raise LedgerError(f"malformed ledger record: no {name!r}")
            value = record[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise LedgerError(
                    f"malformed ledger record: {name!r} is "
                    f"{type(value).__name__}, expected {kind.__name__}")
        return cls(**{name: record[name] for name in _FIELD_TYPES})


class Ledger:
    """An append-only chained record log backed by one JSONL file.

    Appends re-anchor on the file's current tail, so sequential appends
    from several ``Ledger`` instances still form one valid chain.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._next_index = 0
        self._tail_hash = GENESIS_HASH
        if os.path.exists(path):
            for record in self.records():
                self._next_index = record.index + 1
                self._tail_hash = record.record_hash

    def __len__(self) -> int:
        return self._next_index

    @property
    def head_hash(self) -> str:
        """The chain head: the last record's hash (genesis when empty)."""
        return self._tail_hash

    def records(self) -> Iterator[LedgerRecord]:
        """Parse every record in file order (no chain checks)."""
        if not os.path.exists(self.path):
            return
        for line_number, line in _ledger_lines(self.path):
            yield _parse_line(line, self.path, line_number)

    def append(self, kind: str, payload: dict[str, Any]) -> LedgerRecord:
        """Chain and persist one record; returns the stored record."""
        if kind not in RECORD_KINDS:
            known = ", ".join(RECORD_KINDS)
            raise LedgerError(f"unknown record kind {kind!r}; known: {known}")
        body = {
            "index": self._next_index,
            "kind": kind,
            "payload": payload,
            "prev_hash": self._tail_hash,
            "schema": SCHEMA_VERSION,
        }
        record = LedgerRecord(
            index=self._next_index,
            kind=kind,
            payload=payload,
            prev_hash=self._tail_hash,
            record_hash=digest(body),
        )
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record.to_dict()) + "\n")
        self._next_index = record.index + 1
        self._tail_hash = record.record_hash
        return record


def _ledger_lines(path: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of ``path``, newline removed, 1-based numbers.

    Only the newline goes: any other whitespace stays on the line, where
    :func:`_parse_line` rejects it. A non-UTF-8 byte decodes to a lone
    surrogate, so it fails its own line in :func:`_parse_line` instead of
    raising out of the decoder, which reads ahead of the line being
    checked.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="\n") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.strip():
                yield line_number, line.removesuffix("\n")


def _parse_line(line: str, path: str, line_number: int) -> LedgerRecord:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise LedgerError(
            f"{path}:{line_number}: ledger line is not valid UTF-8"
        ) from None
    try:
        raw = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as error:
        raise LedgerError(
            f"{path}:{line_number}: unparseable ledger line: {error}"
        ) from error
    if not isinstance(raw, dict):
        raise LedgerError(
            f"{path}:{line_number}: ledger line is not a JSON object"
        )
    record = LedgerRecord.from_dict(raw)
    # The hash covers the record's fields, not the line's bytes: an added
    # key, reordered keys or extra whitespace would still verify.
    if line != canonical_json(record.to_dict()):
        raise LedgerError(
            f"{path}:{line_number}: ledger line is not the canonical JSON "
            f"of its record"
        )
    return record


@dataclasses.dataclass(frozen=True)
class ChainVerification:
    """Outcome of walking a ledger's hash chain."""

    ok: bool
    length: int
    head_hash: str
    #: Index of the first record that failed, or ``None`` when ok.
    first_bad_index: int | None = None
    reason: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "length": self.length,
            "head_hash": self.head_hash,
            "first_bad_index": self.first_bad_index,
            "reason": self.reason,
        }


def verify_chain(path: str) -> ChainVerification:
    """Walk the chain in ``path``; any byte flip surfaces here.

    Never raises for file content: a line that is not UTF-8, not JSON,
    nested too deep, malformed or off the chain is reported as a failed
    verification at its record (a missing file does raise).
    """
    if not os.path.exists(path):
        raise LedgerError(f"no such ledger: {path}")
    expected_prev = GENESIS_HASH
    length = 0
    for line_number, line in _ledger_lines(path):
        try:
            record = _parse_line(line, path, line_number)
            problem = _record_problem(record, length, expected_prev)
        except (AuditError, RecursionError) as error:
            problem = str(error)
        if problem is not None:
            return ChainVerification(
                ok=False, length=length, head_hash=expected_prev,
                first_bad_index=length, reason=problem,
            )
        expected_prev = record.record_hash
        length += 1
    return ChainVerification(ok=True, length=length, head_hash=expected_prev)


def _record_problem(record: LedgerRecord, position: int,
                    expected_prev: str) -> str | None:
    if record.schema != SCHEMA_VERSION:
        return (f"record {position} has schema {record.schema}, "
                f"expected {SCHEMA_VERSION}")
    if record.index != position:
        return f"record {position} carries index {record.index}"
    if record.kind not in RECORD_KINDS:
        return f"record {position} has unknown kind {record.kind!r}"
    if record.prev_hash != expected_prev:
        return f"record {position} breaks the chain link"
    if record.computed_hash() != record.record_hash:
        return f"record {position} fails its content hash"
    return None


def signing_payload(verification: ChainVerification) -> dict[str, Any]:
    """What a ledger signature covers: schema, length, and chain head."""
    return {
        "schema": SCHEMA_VERSION,
        "length": verification.length,
        "head_hash": verification.head_hash,
    }


def sign_ledger(path: str, seed: bytes) -> dict[str, Any]:
    """Sign the (verified) chain head of the ledger at ``path``.

    Returns the signature document ``rfprotect audit sign`` writes next to
    the ledger: the signed payload, the public key, and the signature,
    all hex/JSON so the document itself is canonically serializable.
    """
    verification = verify_chain(path)
    if not verification.ok:
        raise LedgerError(
            f"refusing to sign a broken ledger: {verification.reason}"
        )
    payload = signing_payload(verification)
    message = canonical_json(payload).encode("utf-8")
    return {
        "payload": payload,
        "public_key": ed25519.public_key(seed).hex(),
        "signature": ed25519.sign(seed, message).hex(),
    }


def verify_signature(path: str, signature_doc: dict[str, Any]) -> bool:
    """Whether ``signature_doc`` signs the *current* chain of ``path``.

    Re-verifies the chain, requires the signed payload to match the
    recomputed head (a signature over a shorter, truncated ledger must
    not validate), then checks the Ed25519 signature.
    """
    verification = verify_chain(path)
    if not verification.ok:
        return False
    try:
        payload = dict(signature_doc["payload"])
        public = bytes.fromhex(str(signature_doc["public_key"]))
        signature = bytes.fromhex(str(signature_doc["signature"]))
    except (KeyError, TypeError, ValueError):
        return False
    if payload != signing_payload(verification):
        return False
    message = canonical_json(payload).encode("utf-8")
    try:
        return ed25519.verify(public, message, signature)
    except SignatureError:
        return False
