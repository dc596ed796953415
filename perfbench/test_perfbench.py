"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import unideal.cli  # noqa: E402
from oracles import hadamard_summands  # noqa: E402
from workloads import MLMD_MICRO, WORKLOADS, build  # noqa: E402

LOWRANK = [
    "lowrank.prepare_calls", "lowrank.prepare_s", "lowrank.materialize_s",
    "lowrank.materialized_frac", "lowrank.eval_calls", "lowrank.walked_evals", "lowrank.eval_s",
    "lowrank.compose_s", "lowrank.expand_reduced_s", "lowrank.depth",
    "lowrank.peak_terms_over_cap", "poly.substitute_s", "poly.mul_calls", "poly.mul_s",
    "poly.mul_term_pairs", "poly.mul_terms_out", "division.reduce_calls", "division.reduce_s",
    "division.reduce_terms_in", "division.reduce_terms_out", "linalg.rank_basis_s",
]
HADAMARD = ["hadamard.test_s", "hadamard.build_s", "hadamard.summands", "hadamard.eval_calls", "hadamard.eval_s"]

# Per-layer metrics each workload must exercise (value > 0 on its micro set).
EXERCISED = {
    "lowrank": ["cli.self_s", "io.parse_s", "apps.perm_s", "linalg.congruence_s", "linalg.inverse_s",
                "apps.vc_build_s", "apps.vc_no_s", "apps.vc_yes_s",
                "division.zero_test_points", "division.zero_test_decisions"] + LOWRANK,
    "control": ["cli.self_s", "io.parse_s", "circuits.homogeneous_calls", "circuits.homogeneous_s",
                "circuits.power_decompose_s", "circuits.evaluate_calls", "circuits.evaluate_s",
                "poly.divmod_calls", "poly.divmod_s", "fields.primes_drawn", "fields.prime_s",
                "circuits.expand_s", "certifier.threshold_s", "certifier.grid_bound_s",
                "poly.charpoly_s", "poly.charpoly_dim", "division.quotients_s", "division.reduce_calls",
                "certifier.roots_s", "certifier.dk_runs", "certifier.search_s", "certifier.tuples",
                "certifier.verify_s"] + HADAMARD,
}
# Layers a workload is built to bypass.
SKIPPED = {
    "lowrank": HADAMARD,
    "control": [m for m in layers.METRICS if m.startswith("lowrank.")],
}


def _traced_micro(workload, tmp_path):
    clock = run.Clock()
    inst = build(workload, 7, clock, micro=True)
    for name, text in inst.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(tmp_path)
    try:
        plain = run.run_pass(unideal.cli, inst.ops)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(unideal.cli, inst.ops, tracer)
        finally:
            tracer.uninstall()
        verdicts = run.judge(inst.ops, [plain, traced], clock)
    finally:
        os.chdir(here)
    assert all(all(row) for row in verdicts), [op.label for op, ok in zip(inst.ops, verdicts[0]) if not ok]
    assert [(r.rc, r.out, r.written) for r in plain] == [(r.rc, r.out, r.written) for r in traced]
    assert layers.Tracer.leftovers() == [] and tracer.missing == []
    return tracer.metrics()


def test_every_metric_belongs_to_a_workload():
    assert set().union(*EXERCISED.values()) == set(layers.METRICS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_instances(workload):
    clock = run.Clock()
    first = build(workload, 3, clock).digest()
    assert build(workload, 3, clock).digest() == first
    assert build(workload, 4, clock).digest() != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_micro_trace_covers_layers(workload, tmp_path):
    metrics = _traced_micro(workload, tmp_path)
    assert [m for m in EXERCISED[workload] if not metrics[m] > 0] == []
    assert [m for m in SKIPPED[workload] if metrics[m] != 0] == []
    again = _traced_micro(workload, tmp_path)
    counts = [m for m, unit in layers.METRICS.items() if unit != "s"]
    assert {m: metrics[m] for m in counts} == {m: again[m] for m in counts}


def test_summands_follow_criterion_6(tmp_path):
    metrics = _traced_micro("control", tmp_path)
    assert metrics["hadamard.summands"] == sum(hadamard_summands(*slot) for slot in MLMD_MICRO)


def test_each_pass_certificate_is_judged(tmp_path):
    clock = run.Clock()
    inst = build("control", 7, clock, micro=True)
    for name, text in inst.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(tmp_path)
    try:
        good = run.run_pass(unideal.cli, inst.ops)
    finally:
        os.chdir(here)
    bad = [dataclasses.replace(r, written="0 0\n0 0\n") if op.writes else r for r, op in zip(good, inst.ops)]
    assert [op.label for op in inst.ops if op.writes]
    first, second = run.judge(inst.ops, [good, bad], clock)
    assert all(first)
    assert [ok for ok, op in zip(second, inst.ops) if op.writes] == [False]


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
