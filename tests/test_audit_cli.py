"""End-to-end tests for ``rfprotect audit`` and the runner/ledger wiring.

The full loop the README documents: run an experiment with
``--record-dir``, keygen from an explicit seed, sign the ledger, verify,
produce a signed report, verify that — then flip one byte and watch each
verification fail. Everything drives the real CLI entry points
(``repro.cli.main`` forwarding included), so these tests pin the process
exit codes CI relies on.
"""

import json

import pytest

from repro.audit import verify_report
from repro.audit.app import load_key_seed, main as audit_main, write_key_file
from repro.audit.ledger import LEDGER_NAME, Ledger, verify_chain
from repro.cli import main as cli_main
from repro.experiments.runner import run_experiments
from repro.obs import MetricsRegistry

SEED_HEX = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"


@pytest.fixture
def run_dir(tmp_path):
    """A record dir produced by a real (fast) experiment run."""
    target = tmp_path / "run"
    run_experiments(["fig9"], fast=True, workers=1, seed=3,
                    duration=3.0, record_dir=str(target))
    return target


@pytest.fixture
def key_file(tmp_path):
    path = tmp_path / "audit-key.json"
    write_key_file(str(path), bytes.fromhex(SEED_HEX))
    return path


def ledger_path(run_dir):
    return run_dir / LEDGER_NAME


class TestRunnerWiring:
    def test_run_appends_ledger_records(self, run_dir):
        verification = verify_chain(str(ledger_path(run_dir)))
        assert verification.ok
        assert verification.length == 1
        record = next(iter(Ledger(str(ledger_path(run_dir))).records()))
        assert record.kind == "experiment_run"
        assert record.payload["experiment_id"] == "fig9"

    def test_records_carry_provenance(self, run_dir):
        record = next(iter(Ledger(str(ledger_path(run_dir))).records()))
        provenance = record.payload["provenance"]
        assert provenance["package_version"]
        assert provenance["config_hash"]
        assert "RF_PROTECT_NN_DTYPE" in provenance["config"]
        summary = record.payload["result_summary"]
        assert "median_errors_m" in summary

    def test_json_record_matches_ledger_payload(self, run_dir):
        json_record = json.loads((run_dir / "fig9.json").read_text())
        ledger_record = next(
            iter(Ledger(str(ledger_path(run_dir))).records())
        )
        assert ledger_record.payload == json_record

    def test_reruns_extend_the_same_chain(self, run_dir):
        run_experiments(["fig9"], fast=True, workers=1, seed=4,
                        duration=3.0, record_dir=str(run_dir))
        verification = verify_chain(str(ledger_path(run_dir)))
        assert verification.ok
        assert verification.length == 2

    def test_metrics_snapshot_is_ledger_appendable(self, run_dir):
        registry = MetricsRegistry()
        registry.inc("requests_admitted", 5)
        snapshot = registry.snapshot(now=12.5, sequence=1)
        Ledger(str(ledger_path(run_dir))).append("serve_metrics", snapshot)
        verification = verify_chain(str(ledger_path(run_dir)))
        assert verification.ok
        assert verification.length == 2


class TestCliLoop:
    def test_keygen_sign_verify_report(self, run_dir, key_file, capsys):
        # keygen (through the top-level CLI to pin the forwarding too)
        assert cli_main(["audit", "keygen", "--seed-hex", SEED_HEX,
                         "--key-file", str(key_file)]) == 0
        assert load_key_seed(str(key_file)) == bytes.fromhex(SEED_HEX)

        # sign
        assert audit_main(["sign", str(ledger_path(run_dir)),
                           "--key-file", str(key_file)]) == 0
        assert (run_dir / (ledger_path(run_dir).name + ".sig.json")).exists()

        # verify the run dir (chain + signature)
        assert audit_main(["verify", str(run_dir)]) == 0

        # report (signed)
        assert audit_main(["report", str(run_dir),
                           "--key-file", str(key_file)]) == 0
        report_json = run_dir / "report.json"
        report_html = run_dir / "report.html"
        assert report_json.exists() and report_html.exists()
        document = json.loads(report_json.read_text())
        assert verify_report(document)
        assert document["report"]["ok"] is True
        assert document["report"]["slo"]["failed"] == 0
        html = report_html.read_text()
        assert "PASS" in html and "<script" not in html

        # and the run dir still verifies with the report in place
        assert audit_main(["verify", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out

    def test_unsigned_report(self, run_dir):
        assert audit_main(["report", str(run_dir)]) == 0
        document = json.loads((run_dir / "report.json").read_text())
        assert "report" not in document  # bare report, no envelope
        assert document["ok"] is True
        assert document["ledger"]["signature"]["present"] is False

    def test_keygen_rejects_bad_seed(self, tmp_path, capsys):
        bad = str(tmp_path / "key.json")
        assert audit_main(["keygen", "--seed-hex", "abcd",
                           "--key-file", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sign_requires_key_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            audit_main(["sign", str(tmp_path / LEDGER_NAME)])
        assert exited.value.code == 2
        assert "--key-file" in capsys.readouterr().err

    def test_verify_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert audit_main(["verify", str(tmp_path)]) == 2
        assert "no such ledger" in capsys.readouterr().err


class TestTamperDetection:
    @pytest.fixture
    def signed_run(self, run_dir, key_file):
        audit_main(["sign", str(ledger_path(run_dir)),
                    "--key-file", str(key_file)])
        audit_main(["report", str(run_dir), "--key-file", str(key_file)])
        return run_dir

    def test_ledger_byte_flip_fails_verify(self, signed_run):
        path = ledger_path(signed_run)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert audit_main(["verify", str(signed_run)]) == 1

    def test_signature_byte_flip_fails_verify(self, signed_run):
        sig_path = signed_run / (ledger_path(signed_run).name + ".sig.json")
        document = json.loads(sig_path.read_text())
        tampered = bytearray(bytes.fromhex(document["signature"]))
        tampered[10] ^= 0x01
        document["signature"] = bytes(tampered).hex()
        sig_path.write_text(json.dumps(document, sort_keys=True))
        assert audit_main(["verify", str(sig_path)]) == 1

    def test_report_byte_flip_fails_verify(self, signed_run):
        report_path = signed_run / "report.json"
        document = json.loads(report_path.read_text())
        document["report"]["slo"]["failed"] = 0  # no-op edit...
        document["report"]["generated_at"] = "forged"  # ...and a real one
        report_path.write_text(json.dumps(document, sort_keys=True))
        assert audit_main(["verify", str(report_path)]) == 1

    def test_non_canonical_ledger_line_fails_verify(self, signed_run,
                                                     capsys):
        # A space after the first colon keeps every hashed field value.
        path = ledger_path(signed_run)
        data = path.read_bytes()
        path.write_bytes(data.replace(b":", b": ", 1))
        assert audit_main(["verify", str(signed_run)]) == 1
        assert "chain FAILED at record 0" in capsys.readouterr().out

    def test_appending_after_signing_fails_verify(self, signed_run):
        Ledger(str(ledger_path(signed_run))).append(
            "experiment_run", {"experiment_id": "late"}
        )
        assert audit_main(["verify", str(signed_run)]) == 1
