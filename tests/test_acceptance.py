"""Acceptance gate: every end-to-end criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); the same registry backs the ``riggedframes demo`` subcommand.
"""

import json

import pytest

from riggedframes.acceptance import ALL_CHECKS


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_acceptance_criterion(check):
    result = check()
    print(f"{'PASS' if result['passed'] else 'FAIL'}  {result['name']}: {result['detail']}")
    assert result["passed"], result["detail"]


def test_demo_command_reports_all_checks(tmp_path, capsys):
    from riggedframes.reporting import config_from_dict, emit, run

    report = run("demo", config_from_dict({"map": {"kind": "dirac"}}))
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith("PASS") for line in lines)
    assert all(check["passed"] for check in report["checks"])
    emitted = json.loads(emit(report).decode())
    assert list(emitted) == ["config", "grid", "stages", "labels", "dual", "moment", "checks", "timing"]
    assert len(emitted["checks"]) == len(ALL_CHECKS)
    assert all(list(check) == ["name", "passed", "detail"] for check in emitted["checks"])
