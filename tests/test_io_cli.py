import json
import random
from fractions import Fraction

import pytest

from helpers import klineq_solutions
from unideal import io as uio
from unideal.apps import Graph
from unideal.certifier import Certificate
from unideal.circuits import CircuitBuilder, expand
from unideal.cli import main
from unideal.division import UnivariateIdeal, divide
from unideal.linalg import LinearForm
from unideal.lowrank import LowRankInput, inline_forms
from unideal.poly import SparsePoly, UnivariatePoly

F = Fraction


def test_matrix_parsing():
    m = uio.parse_matrix("1 2/3\n-4 5\n")
    assert m[0, 1] == F(2, 3) and m[1, 0] == -4


def test_circuit_roundtrip():
    text = "vars 2\nin 0\nin 1\nconst 3/2\nadd 0 1\nmul 2 3\nlin 1 -2 + 5\nadd 4 5\nout 6\n"
    c = uio.parse_circuit(text)
    assert uio.write_circuit(c) == text
    c2 = uio.parse_circuit(uio.write_circuit(c))
    pt = [F(2), F(3)]
    assert c.evaluate(pt) == c2.evaluate(pt)


def test_ideal_roundtrip():
    ideal = UnivariateIdeal(
        ((0, UnivariatePoly([F(0), F(-1), F(1)])), (2, UnivariatePoly([F(1, 2), F(1)])))
    )
    assert uio.parse_ideal(uio.write_ideal(ideal)) == ideal


def test_graph_parsing():
    g = uio.parse_graph("4 2\n0 1\n2 3\n")
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])


def test_lowrank_roundtrip():
    b = CircuitBuilder(1)
    outer = b.build(b.mul(b.input(0), b.input(0)))
    inp = LowRankInput(outer, (LinearForm((F(1), F(1)), F(2)),))
    text = uio.write_lowrank(inp)
    back = uio.parse_lowrank(text)
    assert back.forms == inp.forms


def test_certificate_roundtrip():
    cert = Certificate(((F(1, 3), F(-2, 7)), (F(5), F(0))))
    assert uio.parse_certificate(uio.write_certificate(cert)) == cert


def test_klineq_roundtrip():
    from unideal.reductions import KLinEqInstance

    inst = KLinEqInstance(((1, 2, 0), (0, 1, 1)), (2, 1))
    assert uio.parse_klineq(uio.write_klineq(inst)) == inst


def test_forms_parsing():
    forms = uio.parse_forms("form 1 2 3\nform 0 -1 1/2 + 4\n")
    assert forms[0] == LinearForm((F(1), F(2), F(3)), F(0))
    assert forms[1] == LinearForm((F(0), F(-1), F(1, 2)), F(4))


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "ones4.txt").write_text("1 1 1 1\n" * 4)
    (tmp_path / "c4.txt").write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    (tmp_path / "zero.txt").write_text("vars 2\nconst 0\nout 0\n")
    (tmp_path / "sq.txt").write_text("var 0 : 0 0 1\nvar 1 : 0 0 1\n")
    (tmp_path / "mlc.txt").write_text("vars 2\nin 0\nin 1\nmul 0 1\nout 2\n")
    (tmp_path / "fx.txt").write_text("vars 1\nin 0\nconst -1\nadd 0 1\nout 2\n")
    (tmp_path / "ix.txt").write_text("var 0 : -4 0 1\n")
    (tmp_path / "binom.txt").write_text("vars 2\nin 0\nin 1\nadd 0 1\nmul 2 2\nout 3\n")
    return tmp_path


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_perm(workdir, capsys):
    code, out = run_cli(capsys, "perm", "--matrix", str(workdir / "ones4.txt"))
    assert code == 0
    assert "value: 24" in out
    assert "(rank 1)" in out


def test_cli_member_brute_zero(workdir, capsys):
    code, out = run_cli(
        capsys, "member", "--circuit", str(workdir / "zero.txt"),
        "--ideal", str(workdir / "sq.txt"), "--mode", "brute",
    )
    assert code == 0 and "decision: MEMBER" in out


def test_cli_member_auto_dispatches_powers(workdir, capsys):
    code, out = run_cli(
        capsys, "member", "--circuit", str(workdir / "mlc.txt"), "--ideal", str(workdir / "sq.txt"),
    )
    assert code == 0
    assert "dispatch=auto->scaled Hadamard" in out
    assert "decision: NOT-MEMBER" in out


@pytest.mark.parametrize(
    "circuit, ideal, decision",
    [
        ("vars 2\nin 1\nout 0\n", "var 0 : 0 1\nvar 5 : 0 1\n", "NOT-MEMBER"),  # x1 mod <x0, x5>
        ("vars 2\nin 0\nin 1\nmul 0 0\nmul 2 1\nout 3\n", "var 0 : 0 0 1\n", "MEMBER"),  # x0^2 x1 mod <x0^2>
    ],
    ids=["x5-outside-the-circuit", "x1-without-generator"],
)
def test_cli_member_auto_powers_needs_every_circuit_variable(workdir, capsys, circuit, ideal, decision):
    (workdir / "c.txt").write_text(circuit)
    (workdir / "i.txt").write_text(ideal)
    argv = ["member", "--circuit", str(workdir / "c.txt"), "--ideal", str(workdir / "i.txt")]
    code, out = run_cli(capsys, *argv, "--mode", "brute")
    assert code == 0 and f"decision: {decision}\n" in out
    code, out = run_cli(capsys, *argv)
    assert code == 0 and f"decision: {decision}\n" in out
    assert "dispatch=auto->expand-and-divide" in out
    code, out, err = run_cli_err(capsys, *argv, "--mode", "powers")
    assert code == 2 and err == "error: powers mode needs one generator per circuit variable\n"


def test_cli_vc_and_error_bound(workdir, capsys):
    code, out = run_cli(
        capsys, "vc", "--graph", str(workdir / "c4.txt"), "--k", "2", "--seed", "1",
        "--trials", "20",
    )
    assert code == 0
    assert "decision: HAS-VC" in out and "error_bound: 0 (one-sided)" in out
    code, out = run_cli(
        capsys, "vc", "--graph", str(workdir / "c4.txt"), "--k", "1", "--seed", "1",
        "--trials", "20",
    )
    assert code == 0
    # (min(n, deg) / (100 deg))^trials with n = 4 and deg = 2 C(4, 2) + 3 = 15.
    assert "decision: NO-VC" in out and "error_bound: 3.31e-52" in out


def test_cli_member_lowrank_error_bound(workdir, capsys):
    # z0 z1 with z0 = z1 = x0 is x0^2, a member of <x0^2>.  The remainder has
    # degree < 2 in x0, so the bound is (min(2, 1) / (100 * 2))^4.
    (workdir / "x0.txt").write_text("form 1\nform 1\n")
    (workdir / "sq0.txt").write_text("var 0 : 0 0 1\n")
    code, out = run_cli(
        capsys, "member", "--circuit", str(workdir / "mlc.txt"), "--ideal", str(workdir / "sq0.txt"),
        "--forms", str(workdir / "x0.txt"), "--trials", "4",
    )
    assert code == 0
    assert "decision: MEMBER" in out and "error_bound: 6.25e-10" in out


def test_cli_vc_error_bound_below_float_range(workdir, capsys):
    # (4 / 1500)^140 is about 4.32e-361; as a float it underflowed to "0".
    argv = ["vc", "--graph", str(workdir / "c4.txt"), "--k", "1", "--seed", "1", "--trials", "140"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "decision: NO-VC" in out and "error_bound: 4.32e-361\n" in out
    code, out = run_cli(capsys, *argv, "--json")
    assert json.loads(out)["error_bound"] == "4.32e-361"


def test_cli_member_lowrank_error_bound_below_float_range(workdir, capsys):
    # (1 / 200)^200 is about 6.22e-461; as a float it underflowed and the
    # MEMBER answer printed "0 (one-sided)".
    (workdir / "x0.txt").write_text("form 1\nform 1\n")
    (workdir / "sq0.txt").write_text("var 0 : 0 0 1\n")
    code, out = run_cli(
        capsys, "member", "--circuit", str(workdir / "mlc.txt"), "--ideal", str(workdir / "sq0.txt"),
        "--forms", str(workdir / "x0.txt"), "--trials", "200",
    )
    assert code == 0
    assert "decision: MEMBER" in out and "error_bound: 6.22e-461\n" in out


def test_cli_member_lowrank_schedule_keeps_the_rng_stream(workdir, capsys, monkeypatch):
    # `member --mode lowrank` on the compiled schedule prints what the same
    # run on the sparse walk of `helpers.walk_eval` prints, and leaves its
    # rng in the same state: the same points, drawn from the same stream, up
    # to the same stop.
    from functools import partial

    import unideal.cli as cli
    from helpers import walk_eval
    from unideal.lowrank import RemEvaluator

    files = {
        "x0.txt": "form 1\nform 1\n",
        "x0x1.txt": "form 1 1\nform 1 0\n",
        "frac.txt": "form 1/2 1 + 1\nform 2/3 -1\n",
        "sq0.txt": "var 0 : 0 0 1\n",
        "lin.txt": "var 0 : 0 1\nvar 1 : 0 1\n",
        "nonmonic.txt": "var 0 : 1 0 2\nvar 1 : 0 3 1/2\n",
    }
    for name, text in files.items():
        (workdir / name).write_text(text)
    cases = [("x0.txt", "sq0.txt"), ("x0x1.txt", "sq.txt"), ("x0x1.txt", "lin.txt"), ("frac.txt", "nonmonic.txt")]
    real = cli.random_zero_test
    states = []

    def spy(r_eval, n, d, trials, rng, p=None):
        nonzero = real(r_eval, n, d, trials, rng, p)
        states.append(rng.getstate())
        return nonzero

    monkeypatch.setattr(cli, "random_zero_test", spy)

    def runs():
        return [
            run_cli(capsys, "member", "--circuit", str(workdir / "mlc.txt"), "--ideal", str(workdir / ideal),
                    "--forms", str(workdir / forms), "--mode", "lowrank", "--seed", str(seed), "--json")
            for forms, ideal in cases for seed in (0, 5)
        ]

    def no_eval(self, alpha):
        raise AssertionError("the zero test called eval")

    with monkeypatch.context() as m:
        m.setattr(RemEvaluator, "eval", no_eval)
        compiled = runs()
    with monkeypatch.context() as m:
        m.setattr(RemEvaluator, "schedule", lambda self: partial(walk_eval, self))
        walked = runs()
    assert compiled == walked
    assert states[: len(compiled)] == states[len(compiled) :]
    decisions = [json.loads(out)["decision"] for _, out in compiled]
    assert {"MEMBER", "NOT-MEMBER"} == set(decisions)


def test_format_bound_matches_float_formatting():
    from unideal.cli import _format_bound, _power_ideal_bound
    from unideal.hadamard import PowerIdealSpec

    rng = random.Random(23)
    for _ in range(200):
        x = F(rng.randint(1, 10**6), rng.randint(1, 10**6)) ** rng.randint(1, 50)
        assert _format_bound(x) == f"{float(x):.3g}"
    assert _format_bound(F(0)) == "0"
    # Below the normal range the float loses digits (5e-324 is the smallest
    # subnormal, printed 4.94e-324); the exact value keeps them.
    assert _format_bound(F(5, 10**324)) == "5e-324"
    assert _format_bound(F(12345, 10**404)) == "1.23e-400"
    # The IN-IDEAL bound of `mlmd --trials 2000` on three cubes, degree 3.
    spec = PowerIdealSpec((3, 3, 3), 3)
    assert _power_ideal_bound(spec, 2000) == "<= 2.03e-567 coverage + zero-test/prime terms"


def test_cli_determinism(workdir, capsys):
    args = ("vc", "--graph", str(workdir / "c4.txt"), "--k", "1", "--seed", "3", "--json")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"decision", "value", "error_bound", "seed", "algorithm", "timings", "trials"}
    assert payload["timings"] is None


def test_cli_mlmd(workdir, capsys):
    argv = ["mlmd", "--circuit", str(workdir / "mlc.txt"), "--exponents", "2 2", "--trials", "auto", "--seed", "11"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "decision: NOT-IN-IDEAL" in out
    assert "degrees 0..2" in out
    # The degree is the circuit's syntactic degree; there is no --k to override it.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--k", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 1" in capsys.readouterr().err


def test_cli_certify_search_then_verify(workdir, capsys):
    cert_path = str(workdir / "cert.txt")
    code, out = run_cli(
        capsys, "certify", "--circuit", str(workdir / "fx.txt"), "--ideal", str(workdir / "ix.txt"),
        "--search", "--out-cert", cert_path,
    )
    assert code == 0 and "decision: NONMEMBER" in out
    code, out = run_cli(
        capsys, "certify", "--circuit", str(workdir / "fx.txt"), "--ideal", str(workdir / "ix.txt"),
        "--verify", cert_path,
    )
    assert code == 0 and "decision: ACCEPT" in out


def test_cli_cap_exceeded_exit_code(workdir, capsys):
    code, _ = run_cli(
        capsys, "member", "--circuit", str(workdir / "binom.txt"),
        "--ideal", str(workdir / "sq.txt"), "--mode", "brute", "--cap", "1",
    )
    assert code == 3


def test_cli_oversized_declared_sizes_exit_without_allocating(tmp_path, capsys, monkeypatch):
    # A circuit on 10^9 variables, or a graph on 10^9 vertices, used to end
    # in a MemoryError: `expand` built an exponent tuple of length n for an
    # input, and `vc` a dense n x n adjacency.  Both now stop before either.
    def refuse(*args):
        raise AssertionError("built an object of the declared size")

    monkeypatch.setattr(SparsePoly, "variable", refuse)
    monkeypatch.setattr(Graph, "adjacency", refuse)
    (tmp_path / "f.txt").write_text("vars 1000000000\nin 0\nout 0\n")
    (tmp_path / "i.txt").write_text("var 0 : -1 0 1\n")
    (tmp_path / "sq.txt").write_text("var 0 : 0 0 1\n")  # a power ideal, so auto checks its variables first
    for ideal, mode in (("i.txt", "brute"), ("i.txt", "auto"), ("sq.txt", "auto")):
        code, out, err = run_cli_err(capsys, "member", "--circuit", str(tmp_path / "f.txt"),
                                     "--ideal", str(tmp_path / ideal), "--mode", mode)
        assert code == 3 and out == "" and "1000000000 variables exceed the term cap" in err
    (tmp_path / "g.txt").write_text("1000000000 0\n")
    code, out, err = run_cli_err(capsys, "vc", "--graph", str(tmp_path / "g.txt"), "--k", "1", "--tight")
    assert code == 2 and out == "" and "adjacency guard" in err


def test_cli_usage_error_exit_code(workdir, capsys):
    code, _ = run_cli(
        capsys, "member", "--circuit", str(workdir / "zero.txt"),
        "--ideal", str(workdir / "zero.txt"), "--mode", "brute",
    )
    assert code == 2  # an ideal file that does not parse


def run_cli_err(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["member", "--circuit", "mlc.txt", "--ideal", "sq.txt", "--mode", "lowrank"],
         "lowrank mode needs --forms"),
        (["member", "--circuit", "mlc.txt", "--ideal", "x0sq.txt", "--mode", "powers"],
         "powers mode needs one generator per circuit variable"),
        (["member", "--circuit", "mlc.txt", "--ideal", "ix.txt", "--mode", "powers"],
         "powers mode needs every generator to be a power of its variable"),
        (["mlmd", "--circuit", "mlc.txt", "--exponents", "2"], "need one exponent per circuit variable"),
        (["reduce", "indep-set", "--in", "c4.txt"], "indep-set reduction needs --k"),
        (["reduce", "coloring", "--in", "c4.txt"], "coloring instance needs --k"),
    ],
    ids=["member-lowrank-forms", "member-powers-generators", "member-powers-not-powers", "mlmd-exponents",
         "indep-set-k", "coloring-k"],
)
def test_cli_usage_errors_exit_2(workdir, capsys, monkeypatch, argv, message):
    (workdir / "x0sq.txt").write_text("var 0 : 0 0 1\n")
    monkeypatch.chdir(workdir)
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["0", "-1", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--circuit", "mlc.txt", "--ideal", "sq.txt", "--forms", "forms.txt"],
        ["vc", "--graph", "c4.txt", "--k", "1"],
        ["mlmd", "--circuit", "mlc.txt", "--exponents", "2 2"],
    ],
    ids=["member", "vc", "mlmd"],
)
def test_cli_rejects_trials_below_one(workdir, capsys, monkeypatch, argv, trials):
    (workdir / "forms.txt").write_text("form 1 0\nform 0 1\n")
    monkeypatch.chdir(workdir)
    code, out, err = run_cli_err(capsys, *argv, "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_cli_process_exit_code_on_bad_trials(workdir):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import unideal

    env = dict(os.environ, PYTHONPATH=str(Path(unideal.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "unideal.cli", "mlmd", "--circuit", str(workdir / "mlc.txt"),
         "--exponents", "2 2", "--trials", "-2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "--trials must be at least 1" in proc.stderr


MALFORMED = {
    "matrix-zero-denominator": ("bad.txt", "1 1/0\n2 3\n", ["perm", "--matrix", "bad.txt"]),
    "circuit-bare-vars": ("bad.txt", "vars\nin 0\nout 0\n", ["mlmd", "--circuit", "bad.txt", "--exponents", "2"]),
    "circuit-out-without-id": ("bad.txt", "vars 1\nin 0\nout\n", ["mlmd", "--circuit", "bad.txt", "--exponents", "2"]),
    "circuit-in-without-var": ("bad.txt", "vars 1\nin\nout 0\n", ["mlmd", "--circuit", "bad.txt", "--exponents", "2"]),
    "circuit-dangling-plus": ("bad.txt", "vars 1\nlin 1 +\nout 0\n", ["mlmd", "--circuit", "bad.txt", "--exponents", "2"]),
    "ideal-short-line": ("bad.txt", "var 0\n", ["member", "--circuit", "mlc.txt", "--ideal", "bad.txt"]),
    "ideal-two-generators-one-var": (
        "bad.txt", "var 0 : -1 0 1\nvar 0 : 1/2 1\n", ["member", "--circuit", "mlc.txt", "--ideal", "bad.txt"],
    ),
    "graph-empty": ("bad.txt", "", ["vc", "--graph", "bad.txt", "--k", "1"]),
    "klineq-empty": ("bad.txt", "# nothing\n", ["reduce", "klineq", "--in", "bad.txt"]),
    "klineq-without-b": ("bad.txt", "1 2\n", ["reduce", "klineq", "--in", "bad.txt"]),
    "one-in-three-empty": ("bad.txt", "\n", ["reduce", "one-in-three", "--in", "bad.txt"]),
    "certificate-zero-denominator": (
        "bad.txt", "1/0 0\n",
        ["certify", "--circuit", "fx.txt", "--ideal", "ix.txt", "--verify", "bad.txt"],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input_exits_2(workdir, capsys, monkeypatch, name):
    path, text, argv = MALFORMED[name]
    (workdir / path).write_text(text)
    monkeypatch.chdir(workdir)
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_cli_process_malformed_matrix_has_no_traceback(workdir):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import unideal

    (workdir / "bad.txt").write_text("1 1/0\n2 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(unideal.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "unideal.cli", "perm", "--matrix", str(workdir / "bad.txt")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "zero denominator" in proc.stderr


def test_cli_rem_eval(workdir, capsys, tmp_path):
    lr = tmp_path / "lr.txt"
    lr.write_text("vars 1\nin 0\nmul 0 0\nout 1\nform 1 1\n")
    code, out = run_cli(
        capsys, "rem-eval", "--input", str(lr), "--ideal", str(workdir / "sq.txt"),
        "--point", "1 1",
    )
    assert code == 0 and "value: 2" in out


def test_cli_rem_eval_gate_the_output_does_not_reach(capsys, tmp_path):
    # Gate 4, ((z + 1)^4)^2, is expanded but not reached from the output
    # z = x0 + x1.  No term cap stops it: the answer is the oracle's.
    text = "vars 1\nin 0\nconst 1\nadd 0 1\nmul 2 2 2 2\nmul 3 3\nout 0\nform 1 1\n"
    ideal_text = "var 0 : 0 0 0 0 0 1\nvar 1 : 0 0 0 0 0 1\n"
    (tmp_path / "lr.txt").write_text(text)
    (tmp_path / "ideal.txt").write_text(ideal_text)
    ideal = uio.parse_ideal(ideal_text)
    want = divide(expand(inline_forms(uio.parse_lowrank(text))), ideal).evaluate([2, 3])
    assert want == 5
    code, out = run_cli(
        capsys, "rem-eval", "--input", str(tmp_path / "lr.txt"), "--ideal", str(tmp_path / "ideal.txt"),
        "--point", "2 3",
    )
    assert code == 0 and "value: 5" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rem-eval", "--input", "lr.txt", "--ideal", "sq.txt", "--point", "1 1"], ["--degree-bound", "1"]),
        (["perm", "--matrix", "ones4.txt"], ["--rank", "1"]),
    ],
    ids=["rem-eval-degree-bound", "perm-rank"],
)
def test_cli_deleted_options_exit_2(workdir, capsys, monkeypatch, argv, flag):
    # The degree and the rank are read off the input; neither is declared.
    (workdir / "lr.txt").write_text("vars 1\nin 0\nmul 0 0\nout 1\nform 1 1\n")
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_cli_reduce_one_in_three(workdir, capsys, tmp_path):
    src = tmp_path / "oit.txt"
    src.write_text("3 1\n0 1 2\n")
    out_c = tmp_path / "rc.txt"
    out_i = tmp_path / "ri.txt"
    out_k = tmp_path / "rk.txt"
    code, _ = run_cli(
        capsys, "reduce", "one-in-three", "--in", str(src),
        "--out-circuit", str(out_c), "--out-ideal", str(out_i), "--out-instance", str(out_k),
    )
    assert code == 0
    packed = uio.parse_klineq(out_k.read_text())
    assert sorted(klineq_solutions(packed)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    circuit = uio.parse_circuit(out_c.read_text())
    ideal = uio.parse_ideal(out_i.read_text())
    from unideal.division import is_member_brute

    assert not is_member_brute(circuit, ideal)


def test_cli_reduce_indep_set(workdir, capsys, tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("3 3\n0 1\n1 2\n0 2\n")
    out_c = tmp_path / "ic.txt"
    out_i = tmp_path / "ii.txt"
    code, _ = run_cli(
        capsys, "reduce", "indep-set", "--in", str(tri), "--k", "2",
        "--out-circuit", str(out_c), "--out-ideal", str(out_i),
    )
    assert code == 0
    from unideal.division import is_member_brute

    assert is_member_brute(uio.parse_circuit(out_c.read_text()), uio.parse_ideal(out_i.read_text()))


def test_selftest_clean():
    from unideal.selftest import run_selftest

    assert run_selftest(seed=7) == []


def test_cli_process_empty_graph_has_no_traceback(workdir):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import unideal

    (workdir / "empty.txt").write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(unideal.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "unideal.cli", "vc", "--graph", str(workdir / "empty.txt"), "--k", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: graph file")
