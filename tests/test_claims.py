"""Probability claims checked by exact or seeded runs.

The coloring-coverage rate behind the power-ideal test: a batch of
coverage_trials(k) colorings misses a fixed degree-k monomial with
probability at most 2^-k, and `scripts/coverage_experiment.py` exits 1 when
an observed miss count is improbable under that rate.  The growth of the
detection circuit's fan-in that README states next to its asymptotic base.
The d^O(r) * poly(n) size of remainder evaluation, counted in the entries
of the compiled levels rather than timed.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

from unideal.circuits import syntactic_degree
from unideal.hadamard import _color_count, degree_trials
from unideal.lowrank import RemEvaluator

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_coverage_experiment():
    return load_script("coverage_experiment")


def test_binomial_tail_is_exact():
    tail = load_coverage_experiment().binomial_tail
    assert tail(2, Fraction(1, 2), 0) == 1
    assert tail(2, Fraction(1, 2), 1) == Fraction(3, 4)
    assert tail(3, Fraction(1, 4), 2) == Fraction(3 * 3 + 1, 64)
    assert tail(5, Fraction(1, 3), 6) == 0


def test_coverage_experiment_passes_at_the_claimed_rate(capsys):
    assert load_coverage_experiment().main(["--runs", "200", "--seed", "0"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_coverage_experiment_fails_on_a_planted_shortfall(monkeypatch, capsys):
    # One coloring per batch misses a k = 3 monomial with probability 0.52,
    # far above the claimed 2^-3.
    module = load_coverage_experiment()
    monkeypatch.setattr(module, "coverage_trials", lambda k: 1)
    assert module.main(["--runs", "200", "--seed", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_fan_in_grows_about_22_per_two_steps():
    # README: with the automatic trial count at m = 3k, the fan-in
    # degree_trials(k, 3k) * 2^(ceil(1.5k) - 1) grows about 22x per two steps
    # of k for k = 4..12, above the asymptotic 4.44^2 (about 19.7), because
    # the trial count's log binom(m,k) + 20 factor still shows at these k.
    fan_in = {k: degree_trials(k, 3 * k) * 2 ** (_color_count(k) - 1) for k in range(4, 13)}
    ratios = [Fraction(fan_in[k], fan_in[k - 2]) for k in range(6, 13)]
    assert all(21 < r < 24 for r in ratios), [float(r) for r in ratios]
    assert min(ratios) > Fraction(444, 100) ** 2


def test_rem_eval_levels_stay_within_the_size_bound():
    # `RemEvaluator._compile`: a level holds at most C(D + r, r) * C(D + 2r, 2r)
    # entries (350 for the cubic outer polynomial in two forms of
    # scripts/scaling_rem.py), whatever n is, so the entries per variable stay
    # flat as n doubles from 20 to 640 (about 15 to 20 at seeds 0 and 1).
    build_instance = load_script("scaling_rem").build_instance
    for seed in (0, 1):
        rng = random.Random(seed)
        per_n = []
        for n in (20, 40, 80, 160, 320, 640):
            inp, ideal, _ = build_instance(rng, n)
            d, r = syntactic_degree(inp.outer), len(inp.forms)
            bound = math.comb(d + r, r) * math.comb(d + 2 * r, 2 * r)
            assert bound == 350
            # A level is (offset, s, consumed, rows, tail count, scale).
            levels = list(RemEvaluator(inp, ideal)._compile())
            entries = [sum(len(srcs) for _, _, srcs, _ in level[3]) for level in levels]
            assert max(entries) <= bound, (seed, n, entries)
            per_n.append(Fraction(sum(entries), n))
        assert max(per_n) <= 2 * min(per_n), (seed, [float(x) for x in per_n])
