"""`mlmd` and `member --mode powers` stdout on fixed criterion-5 instances.

golden_powers.json holds ten circuits (k = 1..4, in and not in the power
ideal <x_i^e_i>, `--trials auto` and explicit counts) with the `--json` stdout
both commands printed at commit f883195, before the scaled-Hadamard test
evaluated its summands in blocks.  Colorings, primes and points come from the
seeded rng alone and the arithmetic is exact mod p, so a change to how the
summands are evaluated must not move a byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from unideal.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_powers.json").read_text())


@pytest.mark.parametrize("command", ["mlmd", "member"])
@pytest.mark.parametrize("case", GOLDEN, ids=lambda g: f"k{g['k']}-{'in' if g['in_ideal'] else 'out'}-t{g['trials']}")
def test_power_ideal_stdout_matches_golden(tmp_path, case, command):
    circuit = tmp_path / "c.txt"
    circuit.write_text(case["circuit"])
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("".join(f"var {i} : " + " ".join(["0"] * e + ["1"]) + "\n" for i, e in enumerate(case["exponents"])))
    if command == "mlmd":
        argv = ["mlmd", "--circuit", str(circuit), "--exponents", " ".join(map(str, case["exponents"])),
                "--trials", case["trials"]]
    else:
        argv = ["member", "--circuit", str(circuit), "--ideal", str(ideal), "--mode", "powers"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--seed", str(case["seed"]), "--json"]) == 0
    assert out.getvalue() == case["stdout"][command]
    decision = json.loads(out.getvalue())["decision"]
    assert decision.endswith("MEMBER" if command == "member" else "IN-IDEAL")
    assert decision.startswith("NOT-") != case["in_ideal"]
