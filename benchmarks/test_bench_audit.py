"""Benchmarks for the audit trail: ledger throughput and Ed25519 cost.

The audit layer rides along every recorded run, so its cost must stay
trivial next to the experiments it notarizes: appending a record is one
sha256 over a canonical JSON line, verifying a chain is a linear rescan,
and the pure-python Ed25519 sign/verify (big-int point arithmetic, no C
extension) lands in tens of milliseconds — fine for one signature per
run, which is exactly how it is used.

The measured timings are themselves written as ``benchmark_timing``
records into a scratch ledger, chain-verified and signed — the benchmark
eats the subsystem's own dog food — and dumped to ``audit-timings.json``
next to the other CI timing artifacts.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_timings
from repro.audit import Ledger, ed25519, sign_ledger, verify_chain, verify_signature

NUM_RECORDS = 200
SEED = bytes(range(32))

_RESULTS: dict[str, float] = {}


def test_aa_ledger_append_throughput(tmp_path):
    """Append NUM_RECORDS payloads; record per-append cost."""
    ledger = Ledger(str(tmp_path / "bench.jsonl"))
    payload = {"experiment_id": "fig9", "elapsed_s": 1.25,
               "result_summary": {"median_errors_m": [0.3, 0.4, 0.5]}}
    started = time.perf_counter()
    for index in range(NUM_RECORDS):
        ledger.append("experiment_run", {**payload, "seed": index})
    elapsed = time.perf_counter() - started
    _RESULTS["ledger.append_s"] = elapsed / NUM_RECORDS
    print(f"\nledger append: {elapsed / NUM_RECORDS * 1e6:.1f} us/record")
    assert len(ledger) == NUM_RECORDS

    started = time.perf_counter()
    verification = verify_chain(ledger.path)
    _RESULTS["ledger.verify_chain_s"] = time.perf_counter() - started
    print(f"chain verify ({NUM_RECORDS} records): "
          f"{_RESULTS['ledger.verify_chain_s'] * 1e3:.1f} ms")
    assert verification.ok and verification.length == NUM_RECORDS


def test_ed25519_sign_verify_cost():
    """One signature round-trip; the per-run notarization cost."""
    message = b"\x5a" * 64
    started = time.perf_counter()
    public = ed25519.public_key(SEED)
    _RESULTS["ed25519.keygen_s"] = time.perf_counter() - started

    started = time.perf_counter()
    signature = ed25519.sign(SEED, message)
    _RESULTS["ed25519.sign_s"] = time.perf_counter() - started

    started = time.perf_counter()
    ok = ed25519.verify(public, message, signature)
    _RESULTS["ed25519.verify_s"] = time.perf_counter() - started

    for name in ("ed25519.keygen_s", "ed25519.sign_s", "ed25519.verify_s"):
        print(f"\n{name}: {_RESULTS[name] * 1e3:.1f} ms")
    assert ok
    # Pure-python curve math is slow in absolute terms but must stay in
    # the "one per run is free" regime, with CI-noise headroom.
    assert _RESULTS["ed25519.sign_s"] < 5.0
    assert _RESULTS["ed25519.verify_s"] < 5.0


def test_zz_dump_audit_timings(tmp_path):
    """Ledger the measured timings, sign, verify, and dump the artifact."""
    assert _RESULTS, "measurement tests must run first"
    assert all(np.isfinite(v) for v in _RESULTS.values())

    ledger = Ledger(str(tmp_path / "timings.jsonl"))
    for name in sorted(_RESULTS):
        ledger.append("benchmark_timing",
                      {"name": name, "seconds": _RESULTS[name]})
    signature_doc = sign_ledger(ledger.path, SEED)
    assert verify_signature(ledger.path, signature_doc)
    assert signature_doc["payload"]["head_hash"] == ledger.head_hash

    write_timings("audit-timings.json", _RESULTS)
