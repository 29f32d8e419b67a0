"""Golden CLI outputs: the exact bytes of `energy`, `sweep`, `examples`,
`weights-check` and `orlicz-check`.

Each case is a `harmext-lab` command line whose output is stored under
`tests/golden/`.  A refactor that must not change results keeps these
files byte-identical; a change that does alter results re-records them
and says which fields moved.  Re-record with

    PYTHONPATH=src python tests/test_golden.py

which runs every case in a fresh interpreter.
"""

import difflib
import subprocess
import sys
from pathlib import Path

import pytest

from harmext.cli import main

GOLDEN = Path(__file__).parent / "golden"

FLEET = {
    "identity": "identity",
    "rotation": "rotation:0.3",
    "pl_mild": "piecewise_linear:0,0;0.5,0.25;1,1",
    "pl_kinked": "piecewise_linear:0,0;0.25,0.5;0.75,0.6;1,1",
    "staircase_s2": "cantor_log:s=2,depth=10",
}
ALL = "e1,e2,i1,i2,u,v"

CASES = {
    "sweep_pl_kinked.json": [
        "sweep", "--map", FLEET["pl_kinked"], "--functionals", ALL,
        "--levels", "8", "--p", "1.5", "--p", "3", "--alpha", "-0.25",
        "--lambda", "-0.5", "--lambda", "0.5"],
    **{f"energy_{name}.json": [
        "energy", "--map", desc, "--functionals", ALL, "--levels", "8",
        "--p", "1.5", "--alpha", "0.25", "--lambda", "1"]
       for name, desc in FLEET.items()},
    "energy_pl_kinked.csv": [
        "energy", "--map", FLEET["pl_kinked"], "--functionals", ALL,
        "--levels", "8", "--p", "2", "--alpha", "-0.5", "--lambda", "0.5",
        "--format", "csv"],
    # deep enough (12 levels) for i1/i2 to converge and carry a tail
    # estimate in their notes
    "energy_identity_tail.json": [
        "energy", "--map", "identity", "--functionals", "i1,i2",
        "--levels", "12", "--p", "2", "--alpha", "-0.5", "--lambda", "2"],
    # the three staircase studies: cantor block sums and a 20-level e1
    "examples_default.json": ["examples"],
    # the A_p estimate of the fleet round's weights study: 200 random
    # disks, each averaged by the refined radial quadrature
    "weights_check.json": [
        "weights-check", "--p", "2", "--alpha", "0.5", "--lambda", "1",
        "--trials", "200", "--seed", "0"],
    # lambda < 0: the gauge is repaired past its breakpoints
    "orlicz_check_negative.json": [
        "orlicz-check", "--p", "3", "--lambda", "-1.5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    want = (GOLDEN / name).read_text()
    got = out.read_text()
    if got != want:
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    "golden", "now", lineterm="", n=1)
        pytest.fail(f"{name} differs from the golden output:\n"
                    + "\n".join(list(diff)[:60]))


def record():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        subprocess.run([sys.executable, "-m", "harmext.cli", *argv,
                        "--out", str(GOLDEN / name)], check=True)
        print(f"recorded {name}")


if __name__ == "__main__":
    record()
