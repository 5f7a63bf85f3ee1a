"""End-to-end tests for ``rfprotect serve`` (:mod:`repro.serve.app`).

Drives the real CLI entry point (``repro.cli.main`` forwarding included)
through each demo workload on short sensing spans: the stateless burst,
the registry-weighted ``--mix`` and the stateful ``--sessions`` demo.
Each run serves with the default :class:`ServiceConfig`, which its
``serving:`` line reports. A typed error ends the command with exit
code 1 and one ``error:`` line, as in ``rfprotect run``.
"""

import pytest

from repro.cli import main as cli_main
from repro.serve import ServiceConfig

DEFAULTS = ServiceConfig()
SERVING_LINE = (f"serving: max_batch={DEFAULTS.max_batch_size}, "
                f"window={DEFAULTS.batch_window_ms}ms, "
                f"queue_depth={DEFAULTS.queue_depth}, "
                f"workers={DEFAULTS.workers}")


@pytest.mark.parametrize("workload, summary", [
    ([], "completed 16 request(s)"),
    (["--mix"], "traffic mix:"),
    (["--sessions", "2", "--chunks", "2"], "2 session(s) x 2 chunk(s)"),
], ids=["burst", "mix", "sessions"])
def test_workload_serves_with_default_config(workload, summary, capsys):
    assert cli_main(["serve", "--sense-duration", "0.1", *workload]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SERVING_LINE
    assert any(line.startswith(summary) for line in lines)


def test_mix_with_sessions_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exited:
        cli_main(["serve", "--mix", "--sessions", "2"])
    assert exited.value.code == 2
    assert "--mix" in capsys.readouterr().err


@pytest.mark.parametrize("arguments, message", [
    (["--scenario", "atlantis"], "unknown scenario 'atlantis'"),
    (["--sense-duration", "nan"], "duration must be finite"),
], ids=["unknown-scenario", "nan-duration"])
def test_typed_errors_exit_1_with_one_line(arguments, message, capsys):
    assert cli_main(["serve", *arguments]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
