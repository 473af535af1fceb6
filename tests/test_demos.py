"""Every demo under `demos/` runs to completion against the package in
`src/` and prints exactly its expected output, kept in
`tests/demo_output/<demo>.txt`: the payoff tables, verdicts and intervals
that the demos show are pinned, not only their exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert DEMOS
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [demo.stem for demo in DEMOS]


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_expected_output(demo):
    done = _run(demo)
    assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
