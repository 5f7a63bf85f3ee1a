"""Tests for repro.audit.ledger: the hash-chained artifact log.

The tamper-evidence claim is checked the blunt way: write a real ledger,
flip one byte anywhere in it, and assert verification pinpoints a
failure. Chain continuity across separate ``Ledger`` instances, the
canonical serialization contract, and the signature layer (which must
also reject truncation, not just mutation) get their own coverage. A
fuzzer holds ``verify_chain`` to its contract on arbitrary bytes: it
reports a failed verification and never raises.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import canonical_json, digest
from repro.audit.ledger import (
    GENESIS_HASH,
    ChainVerification,
    Ledger,
    LedgerRecord,
    RECORD_KINDS,
    SCHEMA_VERSION,
    sign_ledger,
    signing_payload,
    verify_chain,
    verify_signature,
)
from repro.errors import LedgerError

SEED = bytes(range(32))


@pytest.fixture
def ledger_path(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = Ledger(path)
    ledger.append("experiment_run", {"experiment_id": "fig7", "seed": 0})
    ledger.append("serve_metrics", {"counters": {"admitted": 3}, "now": 1.5})
    ledger.append("benchmark_timing", {"name": "bench_chain", "p50_s": 0.01})
    return path


class TestChain:
    def test_verify_ok(self, ledger_path):
        verification = verify_chain(ledger_path)
        assert verification.ok
        assert verification.length == 3
        assert verification.first_bad_index is None

    def test_first_record_anchors_on_genesis(self, ledger_path):
        first = next(iter(Ledger(ledger_path).records()))
        assert first.prev_hash == GENESIS_HASH
        assert first.index == 0

    def test_links_are_prev_hashes(self, ledger_path):
        records = list(Ledger(ledger_path).records())
        for previous, current in zip(records, records[1:]):
            assert current.prev_hash == previous.record_hash

    def test_head_hash_tracks_tail(self, ledger_path):
        ledger = Ledger(ledger_path)
        assert ledger.head_hash == list(ledger.records())[-1].record_hash
        assert verify_chain(ledger_path).head_hash == ledger.head_hash

    def test_appends_reanchor_across_instances(self, ledger_path):
        # A fresh Ledger over an existing file must continue the chain,
        # not restart it at genesis.
        Ledger(ledger_path).append("experiment_run", {"experiment_id": "t1"})
        verification = verify_chain(ledger_path)
        assert verification.ok
        assert verification.length == 4

    def test_unknown_kind_rejected(self, ledger_path):
        with pytest.raises(LedgerError, match="unknown record kind"):
            Ledger(ledger_path).append("telemetry", {})
        assert verify_chain(ledger_path).ok

    def test_empty_ledger_head_is_genesis(self, tmp_path):
        ledger = Ledger(str(tmp_path / "fresh.jsonl"))
        assert len(ledger) == 0
        assert ledger.head_hash == GENESIS_HASH

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no such ledger"):
            verify_chain(str(tmp_path / "absent.jsonl"))


class TestTamperEvidence:
    def test_every_single_byte_flip_is_detected(self, ledger_path, tmp_path):
        # The headline property, exhaustively: flipping the low bit of
        # ANY byte in the file must break verification. Quote characters
        # may yield a parse failure, content bytes a hash failure, hash
        # bytes a link/content mismatch — all must surface as not-ok.
        # Each flipped copy goes to a fresh file: creating a file is far
        # cheaper than truncating and rewriting one on many filesystems.
        with open(ledger_path, "rb") as handle:
            original = handle.read()
        flips = tmp_path / "flips"
        flips.mkdir()
        for offset in range(len(original)):
            tampered = bytearray(original)
            tampered[offset] ^= 0x01
            if tampered[offset] in (0x0A, 0x0D) or original[offset] == 0x0A:
                continue  # newline edits change framing, checked below
            flipped = flips / f"flip-{offset}.jsonl"
            flipped.write_bytes(bytes(tampered))
            verification = verify_chain(str(flipped))
            assert not verification.ok, f"byte {offset} flip went undetected"
            assert verification.first_bad_index is not None
        with open(ledger_path, "wb") as handle:
            handle.write(original)
        assert verify_chain(ledger_path).ok

    def test_deleting_a_middle_line_breaks_the_chain(self, ledger_path):
        with open(ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        del lines[1]
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        verification = verify_chain(ledger_path)
        assert not verification.ok
        assert verification.first_bad_index == 1

    def test_reordering_records_breaks_the_chain(self, ledger_path):
        with open(ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0], lines[1] = lines[1], lines[0]
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        assert not verify_chain(ledger_path).ok

    def test_forged_consistent_record_flagged_by_schema_guard(
            self, ledger_path):
        # A forger who recomputes hashes can only forge records that
        # still satisfy the schema/kind checks; an invented kind fails
        # even with self-consistent hashes.
        records = list(Ledger(ledger_path).records())
        body = records[0].body()
        body["kind"] = "forged_kind"
        forged = LedgerRecord(
            index=0, kind="forged_kind", payload=body["payload"],
            prev_hash=GENESIS_HASH, record_hash=digest(body),
        )
        lines = [canonical_json(forged.to_dict())]
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        verification = verify_chain(ledger_path)
        assert not verification.ok
        assert "unknown kind" in verification.reason


def _valid_ledger_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "ledger.jsonl")
        ledger = Ledger(path)
        ledger.append("experiment_run", {"experiment_id": "fig7", "seed": 0})
        ledger.append("serve_metrics", {"counters": {"admitted": 3}})
        with open(path, "rb") as handle:
            return handle.read()


VALID_LEDGER = _valid_ledger_bytes()

#: Byte strings aimed at the decoder and parser edges: deep nesting, lone
#: continuation and lead bytes, and a valid ledger with junk appended.
sharp_bytes = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda unit, n: unit * n,
              st.sampled_from([b"[", b'{"a":', b"\xff", b"\xc3", b"\n"]),
              st.integers(0, 200_000)),
    st.binary(max_size=40).map(lambda junk: VALID_LEDGER + junk),
)


def _verify_bytes(data: bytes) -> ChainVerification:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "ledger.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        return verify_chain(path)


class TestVerifyNeverRaises:
    @given(data=sharp_bytes)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_arbitrary_bytes_return_a_verification(self, data):
        verification = _verify_bytes(data)
        assert isinstance(verification, ChainVerification)
        assert verification.ok == (verification.first_bad_index is None)

    @given(offset=st.integers(0, len(VALID_LEDGER) - 1),
           value=st.integers(0, 255))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_single_byte_edits_return_a_verification(self, offset, value):
        edited = bytearray(VALID_LEDGER)
        edited[offset] = value
        verification = _verify_bytes(bytes(edited))
        assert isinstance(verification, ChainVerification)
        if value & 0x80:
            # Every byte of a valid ledger is ASCII, so bit 7 leaves
            # invalid UTF-8, which must fail at the edited record.
            assert not verification.ok
            assert verification.first_bad_index == VALID_LEDGER[
                :offset].count(b"\n")

    def test_reproduced_inputs_fail_at_their_line(self):
        middle = len(VALID_LEDGER) // 2
        edited = bytearray(VALID_LEDGER)
        edited[middle] |= 0x80
        deep = VALID_LEDGER + b"[" * 100_000 + b"\n"
        cases = ((bytes(edited), VALID_LEDGER[:middle].count(b"\n"), "UTF-8"),
                 (deep, 2, "unparseable"))
        for data, bad_index, reason in cases:
            verification = _verify_bytes(data)
            assert not verification.ok
            assert verification.first_bad_index == bad_index
            assert reason in verification.reason

    @pytest.mark.parametrize("line, old, new", [
        (0, b'"index":0', b'"index":"0"'),
        (0, b'"schema":1', b'"schema":"1"'),
        (0, b'"index":0', b'"index":0.0'),
        (1, b'"index":1', b'"index":true'),
        (0, b'"payload":{"experiment_id":"fig7","seed":0}',
         b'"payload":[["experiment_id","fig7"],["seed",0]]'),
    ])
    def test_a_field_of_another_json_type_fails_its_record(self, line, old,
                                                            new):
        # Each edit converts back to the hashed value, so only the field's
        # JSON type shows the bytes changed.
        lines = VALID_LEDGER.splitlines(keepends=True)
        assert lines[line].count(old) == 1
        lines[line] = lines[line].replace(old, new)
        verification = _verify_bytes(b"".join(lines))
        assert not verification.ok
        assert verification.first_bad_index == line
        assert "malformed ledger record" in verification.reason

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(b'"index":0,', b'"index":0,"note":"edited",'),
        lambda line: line.replace(b'"index":0,', b'"index": 0, '),
        lambda line: json.dumps(
            dict(reversed(json.loads(line).items())),
            separators=(",", ":")).encode() + b"\n",
        lambda line: line.replace(b"\n", b" \n"),
    ], ids=["added-key", "spaces", "reversed-keys", "trailing-space"])
    def test_a_line_that_is_not_canonical_json_fails_its_record(
            self, edit, tmp_path):
        # Each edit keeps the six hashed field values, so only the line's
        # bytes show it.
        lines = VALID_LEDGER.splitlines(keepends=True)
        edited = edit(lines[0])
        assert edited != lines[0]
        assert json.loads(edited)["record_hash"] == json.loads(
            lines[0])["record_hash"]
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b"".join([edited, *lines[1:]]))
        verification = verify_chain(str(path))
        assert not verification.ok
        assert verification.first_bad_index == 0
        assert "canonical JSON" in verification.reason
        with pytest.raises(LedgerError, match="canonical JSON"):
            Ledger(str(path))

    def test_reading_a_non_utf8_ledger_raises_a_ledger_error(self,
                                                              tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(VALID_LEDGER.replace(b"fig7", b"fig\xb7"))
        with pytest.raises(LedgerError, match="not valid UTF-8"):
            Ledger(str(path))


class TestCanonicalForm:
    def test_lines_are_canonical_json(self, ledger_path):
        with open(ledger_path, "r", encoding="utf-8") as handle:
            for line in handle:
                parsed = json.loads(line)
                assert line.rstrip("\n") == canonical_json(parsed)
                assert parsed["schema"] == SCHEMA_VERSION
                assert parsed["kind"] in RECORD_KINDS

    def test_record_hash_is_body_digest(self, ledger_path):
        for record in Ledger(ledger_path).records():
            assert record.record_hash == record.computed_hash()
            assert record.computed_hash() == digest(record.body())

    def test_identical_appends_yield_identical_files(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl")]
        for path in paths:
            ledger = Ledger(path)
            ledger.append("experiment_run", {"b": 2, "a": 1})
        contents = [open(p, "rb").read() for p in paths]  # noqa: SIM115
        assert contents[0] == contents[1]


class TestSignature:
    def test_sign_and_verify(self, ledger_path):
        document = sign_ledger(ledger_path, SEED)
        assert verify_signature(ledger_path, document)
        assert document["payload"] == signing_payload(
            verify_chain(ledger_path)
        )

    def test_signature_rejects_appended_records(self, ledger_path):
        # The signed payload pins length + head: growing the ledger
        # after signing must invalidate the old signature.
        document = sign_ledger(ledger_path, SEED)
        Ledger(ledger_path).append("experiment_run", {"experiment_id": "x"})
        assert not verify_signature(ledger_path, document)

    def test_signature_rejects_truncation(self, ledger_path):
        document = sign_ledger(ledger_path, SEED)
        with open(ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        assert not verify_signature(ledger_path, document)

    def test_signature_rejects_tampered_document(self, ledger_path):
        document = sign_ledger(ledger_path, SEED)
        signature = bytearray(bytes.fromhex(document["signature"]))
        signature[5] ^= 0x01
        document["signature"] = bytes(signature).hex()
        assert not verify_signature(ledger_path, document)

    def test_refuses_to_sign_broken_chain(self, ledger_path):
        with open(ledger_path, "rb+") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(LedgerError, match="refusing to sign"):
            sign_ledger(ledger_path, SEED)

    def test_malformed_document_fails_closed(self, ledger_path):
        assert not verify_signature(ledger_path, {})
        assert not verify_signature(
            ledger_path, {"payload": {}, "public_key": "zz", "signature": ""}
        )
