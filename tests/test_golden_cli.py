"""CLI stdout on fixed instances: power ideals, root certificates, low rank.

golden_powers.json holds ten circuits (k = 1..4, in and not in the power
ideal <x_i^e_i>, `--trials auto` and explicit counts) with the `--json` stdout
both commands printed at commit f883195, before the scaled-Hadamard test
evaluated its summands in blocks.  Colorings, primes and points come from the
seeded rng alone and the arithmetic is exact mod p, so a change to how the
summands are evaluated must not move a byte.

golden_certify.json holds four squarefree instances: an integer-root member
and nonmember on a 4^3 grid, shaped like the `control` benchmark's certify
slots; the dense 51-term nonmember of `unideal selftest`, also on a 4^3 grid;
and the selftest instance with roots +-i and +-sqrt(2), whose certificate has
a 2^64 denominator.  For each it keeps the plain and `--json` stdout of
`certify --search --out-cert`, the written certificate and the stdout of
`certify --verify` on it, all as the certifier printed them while it still
evaluated the circuit on Gaussian rationals.  The thresholds are exact and
the grid sweep visits the same exact values in the same order, so a change
to how the grid is evaluated must not move a byte.

golden_lowrank.json holds small fixed instances of the low-rank commands:
`vc --tight` on K3[2,2,1] with k = 3 (HAS-VC) and on K3,3 with k = 2
(NO-VC, all 20 points), `member --mode lowrank` on a boolean-ideal member
and nonmember over 6 variables, `perm --mode lowrank` on a rank-2 6x6
matrix and `rem-eval` on the cubic family at n = 5.  For each it keeps the
input files and the plain and `--json` stdout, as printed at commit a7bdedc,
before the level-0 expansion multiplied by quadratic factors in the fused
kernel, before the congruence tracked P = Q^-1 in place of inverting Q, and
before the row-basis split replaced the congruence.
The points come from the seeded rng alone and every value is exact, so a
change to how the instance is built or evaluated must not move a byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from unideal.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_powers.json").read_text())
GOLDEN_CERTIFY = json.loads((Path(__file__).parent / "golden_certify.json").read_text())
GOLDEN_LOWRANK = json.loads((Path(__file__).parent / "golden_lowrank.json").read_text())


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


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
    out = _stdout(argv + ["--seed", str(case["seed"]), "--json"])
    assert out == case["stdout"][command]
    decision = json.loads(out)["decision"]
    assert decision.endswith("MEMBER" if command == "member" else "IN-IDEAL")
    assert decision.startswith("NOT-") != case["in_ideal"]


@pytest.mark.parametrize("case", GOLDEN_CERTIFY, ids=lambda g: g["name"])
def test_certify_stdout_matches_golden(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # the certificate path is printed as given
    Path("f.txt").write_text(case["circuit"])
    Path("ideal.txt").write_text(case["ideal"])
    argv = ["certify", "--circuit", "f.txt", "--ideal", "ideal.txt"]
    cert = Path("cert.txt")
    for flags in ([], ["--json"]):
        cert.unlink(missing_ok=True)
        got = _stdout(argv + ["--search", "--out-cert", str(cert)] + flags)
        assert got == case["stdout"][" ".join(["search"] + flags)]
        assert (cert.read_text() if cert.exists() else None) == case["certificate"]
    if case["certificate"] is not None:
        for flags in ([], ["--json"]):
            assert _stdout(argv + ["--verify", str(cert)] + flags) == case["stdout"][" ".join(["verify"] + flags)]


@pytest.mark.parametrize("case", GOLDEN_LOWRANK, ids=lambda g: g["name"])
def test_lowrank_stdout_matches_golden(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for name, text in case["files"].items():
        Path(name).write_text(text)
    assert _stdout(case["argv"]) == case["stdout"]["plain"]
    assert _stdout(case["argv"] + ["--json"]) == case["stdout"]["json"]
