"""Argument checks of ``scripts/route_report.py``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seed", "-1"], "argument --seed: '-1' is below 0"),
        (["--seed", "1", "--block-elements", "0"], "argument --block-elements: '0' is below 1"),
        (["--seed", "1", "--block-elements", "-3"], "argument --block-elements: '-3' is below 1"),
        (["--seed", "one"], "argument --seed: invalid integer value: 'one'"),
    ],
)
def test_bad_numbers_are_usage_errors(args, message):
    # Parsed before anything is imported or routed.
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "route_report.py"), str(ROOT), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert message in done.stderr
    assert done.stdout == ""
