"""``rfprotect audit``: drive the signed-artifact audit trail.

Subcommands::

    rfprotect audit keygen --seed-hex <64 hex> --key-file audit-key.json
    rfprotect audit sign   <ledger.jsonl> --key-file audit-key.json
    rfprotect audit verify <run-dir | ledger.jsonl | *.sig.json | report.json>
    rfprotect audit report <run-dir> [--key-file ...] [--profile ...]

``keygen`` is deterministic from an explicit 32-byte seed (the repo's
determinism discipline forbids hidden entropy reads; mint a seed with
your platform's secure randomness, e.g. ``python -c "import secrets;
print(secrets.token_hex(32))"``, and keep the key file private).
``verify`` exits non-zero on the first integrity failure — a single
flipped byte in a ledger line, a signature document, or a signed report
body makes it fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from typing import Any

from repro.audit import ed25519
from repro.audit.canonical import canonical_json
from repro.audit.ledger import (
    LEDGER_NAME,
    Ledger,
    sign_ledger,
    verify_chain,
    verify_signature,
)
from repro.audit.report import (
    build_report,
    render_html,
    sign_report,
    verify_report,
)
from repro.audit.slo import DEFAULT_PROFILE, evaluate_profile, load_profile
from repro.errors import AuditError, ReproError

__all__ = ["KEY_SCHEMA_VERSION", "load_key_seed", "main", "write_key_file"]

KEY_SCHEMA_VERSION = 1


def write_key_file(path: str, seed: bytes) -> dict[str, Any]:
    """Persist a key document (seed + derived public key) to ``path``."""
    document = {
        "schema": KEY_SCHEMA_VERSION,
        "kind": "rfprotect-audit-key",
        "seed": seed.hex(),
        "public_key": ed25519.public_key(seed).hex(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document) + "\n")
    return document


def load_key_seed(path: str) -> bytes:
    """The 32-byte signing seed from a key file written by ``keygen``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise AuditError(f"cannot load key file {path}: {error}") from error
    if not isinstance(document, dict) or "seed" not in document:
        raise AuditError(f"key file {path} has no 'seed' field")
    try:
        seed = bytes.fromhex(str(document["seed"]))
    except ValueError as error:
        raise AuditError(f"key file {path}: seed is not hex") from error
    if len(seed) != ed25519.SEED_SIZE:
        raise AuditError(
            f"key file {path}: seed must be {ed25519.SEED_SIZE} bytes, "
            f"got {len(seed)}"
        )
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfprotect audit",
        description="hash-chained, Ed25519-signed privacy audit trail",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    keygen = subparsers.add_parser(
        "keygen", help="derive a signing key file from an explicit seed")
    keygen.add_argument(
        "--seed-hex", required=True,
        help="64 hex chars (32 bytes) of caller-supplied entropy")
    keygen.add_argument(
        "--key-file", required=True, help="where to write the key document")

    sign = subparsers.add_parser(
        "sign", help="sign a ledger's verified chain head")
    sign.add_argument("ledger", help="path to a ledger .jsonl file")
    sign.add_argument(
        "--key-file", required=True, help="signing key file")
    sign.add_argument(
        "--out", default=None,
        help="signature document path (default: <ledger>.sig.json)")

    verify = subparsers.add_parser(
        "verify",
        help="verify a run dir, a ledger, a signature doc, or a report")
    verify.add_argument(
        "target",
        help="run directory, ledger .jsonl, <ledger>.sig.json, or a "
             "signed report.json")

    report = subparsers.add_parser(
        "report", help="evaluate privacy SLOs and write JSON + HTML reports")
    report.add_argument("run_dir", help="record directory holding the ledger")
    report.add_argument(
        "--key-file", default="",
        help="sign the report with this key (default: unsigned)")
    report.add_argument(
        "--profile", default="",
        help="SLO profile JSON (default: the built-in rf-protect-default)")
    report.add_argument(
        "--out-json", default=None,
        help="report JSON path (default: <run-dir>/report.json)")
    report.add_argument(
        "--out-html", default=None,
        help="report HTML path (default: <run-dir>/report.html)")
    report.add_argument(
        "--generated-at", default="",
        help="timestamp string embedded verbatim in the report "
             "(clock-free by default)")
    return parser


def _signature_path(ledger_path: str) -> str:
    return ledger_path + ".sig.json"


def _load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise AuditError(f"cannot load {path}: {error}") from error
    if not isinstance(document, dict):
        raise AuditError(f"{path} is not a JSON object")
    return document


def _cmd_keygen(args: argparse.Namespace) -> int:
    try:
        seed = bytes.fromhex(args.seed_hex.strip())
    except ValueError as error:
        raise AuditError(f"--seed-hex is not hex: {error}") from error
    if len(seed) != ed25519.SEED_SIZE:
        raise AuditError(
            f"--seed-hex must encode {ed25519.SEED_SIZE} bytes, "
            f"got {len(seed)}"
        )
    document = write_key_file(args.key_file, seed)
    print(f"key file written to {args.key_file}")
    print(f"public key: {document['public_key']}")
    return 0


def _cmd_sign(args: argparse.Namespace) -> int:
    seed = load_key_seed(args.key_file)
    signature_doc = sign_ledger(args.ledger, seed)
    out = args.out if args.out is not None else _signature_path(args.ledger)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(signature_doc) + "\n")
    payload = signature_doc["payload"]
    print(f"signed {payload['length']} record(s); head "
          f"{payload['head_hash'][:16]}…")
    print(f"signature document written to {out}")
    return 0


def _verify_ledger(ledger_path: str, *, quiet: bool = False) -> bool:
    """Chain check plus, when present, the sibling signature document."""
    verification = verify_chain(ledger_path)
    ok = verification.ok
    if verification.ok:
        if not quiet:
            print(f"chain ok: {verification.length} record(s), head "
                  f"{verification.head_hash[:16]}…")
    else:
        print(f"chain FAILED at record {verification.first_bad_index}: "
              f"{verification.reason}")
    signature_file = _signature_path(ledger_path)
    if os.path.exists(signature_file):
        valid = verify_signature(ledger_path, _load_json(signature_file))
        print(f"ledger signature {'ok' if valid else 'FAILED'} "
              f"({signature_file})")
        ok = ok and valid
    return ok


def _verify_report_file(path: str) -> bool:
    document = _load_json(path)
    if "report" not in document:
        print(f"{path} is not a signed report (no 'report' envelope)")
        return False
    valid = verify_report(document)
    print(f"report signature {'ok' if valid else 'FAILED'} ({path})")
    return valid


def _cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    ok = True
    if os.path.isdir(target):
        ledger_path = os.path.join(target, LEDGER_NAME)
        ok = _verify_ledger(ledger_path)
        report_path = os.path.join(target, "report.json")
        if os.path.exists(report_path):
            document = _load_json(report_path)
            if "report" in document:
                ok = _verify_report_file(report_path) and ok
    elif target.endswith(".sig.json"):
        ledger_path = target[: -len(".sig.json")]
        valid = verify_signature(ledger_path, _load_json(target))
        print(f"ledger signature {'ok' if valid else 'FAILED'} ({target})")
        ok = valid
    elif target.endswith(".jsonl"):
        ok = _verify_ledger(target)
    else:
        ok = _verify_report_file(target)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    ledger_path = os.path.join(args.run_dir, LEDGER_NAME)
    chain = verify_chain(ledger_path)

    profile = load_profile(args.profile) if args.profile else DEFAULT_PROFILE

    records = list(Ledger(ledger_path).records()) if chain.ok else []
    evaluation = evaluate_profile(profile, records)

    signature_file = _signature_path(ledger_path)
    signature_doc = (_load_json(signature_file)
                     if os.path.exists(signature_file) else None)

    report = build_report(
        ledger_path, chain=chain, profile=profile, evaluation=evaluation,
        signature_doc=signature_doc, generated_at=args.generated_at,
    )

    document: dict[str, Any]
    if args.key_file:
        document = sign_report(report, load_key_seed(args.key_file))
    else:
        document = report

    out_json = (args.out_json if args.out_json is not None
                else os.path.join(args.run_dir, "report.json"))
    out_html = (args.out_html if args.out_html is not None
                else os.path.join(args.run_dir, "report.html"))
    with open(out_json, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    with open(out_html, "w", encoding="utf-8") as handle:
        handle.write(render_html(report))

    slo = report["slo"]
    print(f"chain {'ok' if chain.ok else 'FAILED'}; SLO profile "
          f"{slo['profile_name']}: {slo['passed']} passed, "
          f"{slo['failed']} failed")
    print(f"report written to {out_json} and {out_html}"
          + (" (signed)" if args.key_file else " (unsigned)"))
    return 0 if report["ok"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(
        list(sys.argv[1:] if argv is None else argv)
    )
    handlers = {
        "keygen": _cmd_keygen,
        "sign": _cmd_sign,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
