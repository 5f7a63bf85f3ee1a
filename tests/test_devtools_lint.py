"""Tests for the rflint static-analysis suite (``repro.devtools``).

Each RFP rule is pinned three ways: it fires on its bad fixture, stays
quiet on its good fixture, and an inline ``# rflint: disable=`` comment
silences it. The engine gets its own coverage — logical-line suppression
spans, path scopes, the fixture-corpus exclusion, parse errors, and the
CLI's exit codes. On top of that, the repo itself must lint clean — the
same gate CI runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.devtools.engine import PARSE_ERROR_ID, lint_paths, lint_source
from repro.devtools.lint import main as lint_main
from repro.devtools.rules import RULES

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "rflint"

#: Display path each rule's fixtures are linted under, chosen to satisfy
#: the rule's path scope (RFP004 only runs under the numeric packages,
#: RFP007 only under tests, RFP008 only under serve, RFP015 only under the
#: audit package, RFP016 only under experiments/serve). RFP009-RFP014 are
#: retired.
RULE_DISPLAY_PATHS = {
    "RFP001": "src/repro/module.py",
    "RFP002": "src/repro/module.py",
    "RFP003": "src/repro/module.py",
    "RFP004": "src/repro/radar/module.py",
    "RFP005": "src/repro/module.py",
    "RFP006": "src/repro/module.py",
    "RFP007": "tests/test_module.py",
    "RFP008": "src/repro/serve/module.py",
    "RFP015": "src/repro/audit/module.py",
    "RFP016": "src/repro/experiments/module.py",
}

RULE_IDS = sorted(RULE_DISPLAY_PATHS)


def lint_fixture(name: str, display_path: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(text, display_path)


class TestRegistry:
    def test_all_ten_rules_registered(self):
        assert [rule_cls.rule_id for rule_cls in RULES] == RULE_IDS

    def test_rules_have_docs_and_titles(self):
        for rule_cls in RULES:
            assert rule_cls.title
            assert rule_cls.__doc__


@pytest.mark.parametrize("rule_id", RULE_IDS)
class TestEachRule:
    def test_fires_on_bad_fixture(self, rule_id):
        findings = lint_fixture(
            f"{rule_id.lower()}_bad.py", RULE_DISPLAY_PATHS[rule_id]
        )
        assert findings, f"{rule_id} did not fire on its bad fixture"
        assert {f.rule_id for f in findings} == {rule_id}

    def test_quiet_on_good_fixture(self, rule_id):
        findings = lint_fixture(
            f"{rule_id.lower()}_good.py", RULE_DISPLAY_PATHS[rule_id]
        )
        assert findings == []

    def test_inline_suppression_silences_rule(self, rule_id):
        display_path = RULE_DISPLAY_PATHS[rule_id]
        text = (FIXTURES / f"{rule_id.lower()}_bad.py").read_text(
            encoding="utf-8"
        )
        findings = lint_source(text, display_path)
        lines = text.splitlines()
        for line_number in sorted({f.line for f in findings}, reverse=True):
            lines[line_number - 1] += f"  # rflint: disable={rule_id}"
        suppressed = lint_source("\n".join(lines) + "\n", display_path)
        assert [f for f in suppressed if f.rule_id == rule_id] == []


class TestSuppression:
    def test_static_suppressed_fixture_is_clean(self):
        assert lint_fixture("rfp_suppressed.py", "src/repro/module.py") == []

    def test_disable_all_keyword(self):
        text = "import numpy as np\nnp.random.seed(0)  # rflint: disable=all\n"
        assert lint_source(text, "src/repro/module.py") == []

    def test_suppression_inside_string_is_inert(self):
        text = (
            "import numpy as np\n"
            'MESSAGE = "# rflint: disable=RFP001"\n'
            "np.random.seed(0)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.rule_id for f in findings] == ["RFP001"]

    def test_trailing_disable_covers_multiline_statement(self):
        # The finding anchors at line 2; the comment trails line 4. The
        # statement is one logical line, so its whole span is covered.
        text = (
            "import numpy as np\n"
            "np.random.seed(\n"
            "    0\n"
            ")  # rflint: disable=RFP001\n"
        )
        assert lint_source(text, "src/repro/module.py") == []

    def test_standalone_comment_covers_only_its_own_line(self):
        text = (
            "import numpy as np\n"
            "# rflint: disable=RFP001\n"
            "np.random.seed(0)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.rule_id for f in findings] == ["RFP001"]

    def test_disable_does_not_leak_to_next_statement(self):
        text = (
            "import numpy as np\n"
            "np.random.seed(0)  # rflint: disable=RFP001\n"
            "np.random.seed(1)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.line for f in findings] == [3]


class TestScoping:
    def test_rfp004_scoped_to_numeric_packages(self):
        text = (FIXTURES / "rfp004_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "src/repro/radar/module.py")
        assert lint_source(text, "src/repro/signal/module.py")
        assert lint_source(text, "src/repro/nn/module.py")
        assert lint_source(text, "src/repro/gan/module.py")
        assert lint_source(text, "src/repro/trajectories/module.py") == []

    def test_rfp003_exempts_the_registry_module(self):
        text = (
            "import os\n"
            'DTYPE = os.environ.get("RF_PROTECT_NN_DTYPE", "float64")\n'
        )
        assert lint_source(text, "src/repro/radar/module.py")
        assert lint_source(text, "src/repro/config.py") == []

    def test_rfp007_scoped_to_tests(self):
        text = (FIXTURES / "rfp007_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "tests/test_module.py")
        assert lint_source(text, "src/repro/module.py") == []

    def test_rfp008_scoped_to_serve(self):
        text = (FIXTURES / "rfp008_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "src/repro/serve/module.py")
        assert lint_source(text, "src/repro/radar/module.py") == []

    def test_fixture_corpus_excluded_from_directory_walk(self, tmp_path):
        tests_dir = tmp_path / "tests"
        corpus = tests_dir / "fixtures" / "rflint"
        corpus.mkdir(parents=True)
        (corpus / "rfp006_bad.py").write_text(
            (FIXTURES / "rfp006_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        (tests_dir / "test_clean.py").write_text("VALUE = 1\n",
                                                 encoding="utf-8")
        result = lint_paths([str(tests_dir)])
        assert result.files_checked == 1
        assert result.findings == ()

    def test_explicitly_named_file_bypasses_excludes(self):
        result = lint_paths([str(FIXTURES / "rfp006_bad.py")])
        assert result.findings


class TestEngine:
    def test_parse_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "src/repro/module.py")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_unreadable_file_reported_not_raised(self, tmp_path):
        target = tmp_path / "latin1.py"
        target.write_bytes(b"NAME = '\xe9'\n")
        result = lint_paths([str(target)])
        assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]
        assert "unreadable file" in result.findings[0].message

    def test_findings_are_sorted(self):
        findings = lint_fixture("rfp006_bad.py", "src/repro/module.py")
        assert findings == sorted(findings)
        for finding in findings:
            assert finding.format_human().startswith(
                f"src/repro/module.py:{finding.line}:{finding.col}: RFP006 "
            )


class TestCli:
    def test_repo_lints_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "tests", "benchmarks", "examples"]) == 0

    def test_rfprotect_lint_subcommand(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "rfp006_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RFP006" in out
        assert out.rstrip().endswith("1 file checked, 2 finding(s)")
        assert cli_main(["lint", str(FIXTURES / "rfp006_good.py")]) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            "1 file checked, clean"
        )

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_python_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "RFP001" in completed.stdout
        assert "RFP016" in completed.stdout


class TestTypingGate:
    def test_mypy_strict_packages(self):
        pytest.importorskip("mypy", reason="mypy not installed")
        completed = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
