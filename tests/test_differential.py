"""Differential suites: power ideals, and squarefree ideals with integer roots.

On power ideals <x_i^e_i> with a rank <= 2 input three engines apply at once
and share no evaluation code: expand-and-divide on the inlined circuit
(`is_member_brute`), the low-rank remainder zero test on the compiled levels,
and the scaled-Hadamard power-ideal test.  Root certificates do not apply
there: x^e with e >= 2 has a repeated root.

On squarefree generators with distinct integer roots the root-grid search
is checked against expand-and-divide and against the low-rank zero test on
the identity forms, every certificate it returns against
the verifier, and its exact grid evaluation `_grid_abs2` against the
gate-by-gate `Circuit.evaluate` on Gaussian rationals, at the root grid and
at tuples of rationals with unrelated denominators.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import circuit_abs2
from unideal.certifier import _grid_abs2, compute_threshold, search_nonmembership, verify_certificate
from unideal.circuits import CircuitBuilder, expand, syntactic_degree
from unideal.division import UnivariateIdeal, is_member_brute, random_zero_test
from unideal.hadamard import PowerIdealSpec, membership_powers
from unideal.linalg import LinearForm
from unideal.lowrank import LowRankInput, RemEvaluator, inline_forms
from unideal.poly import UnivariatePoly

F = Fraction
_small = st.integers(-2, 2)


@st.composite
def _outer(draw, r, max_deg=3):
    """A random circuit over r form variables, times (z_0 + c)^j for j <= 2."""
    b = CircuitBuilder(r)
    ids = [b.input(i) for i in range(r)] + [b.const(F(draw(st.integers(-3, 3))))]
    degs = [1] * r + [0]
    for _ in range(draw(st.integers(1, 5))):
        x, y = draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, len(ids) - 1))
        if draw(st.booleans()) and degs[x] + degs[y] <= max_deg:
            ids.append(b.mul(ids[x], ids[y]))
            degs.append(degs[x] + degs[y])
        else:
            ids.append(b.add(ids[x], ids[y]))
            degs.append(max(degs[x], degs[y]))
    shifted = b.add(ids[0], b.const(F(draw(_small))))
    return b.build(b.mul(ids[-1], b.power(shifted, draw(st.integers(0, 2)))))


@st.composite
def power_ideal_instances(draw):
    """(low-rank input, exponents, constructed member?).

    A constructed member is g(z_0) * z_1^e_0 with z_1 = x_0, a multiple of
    x_0^e_0; otherwise the outer circuit and both forms are random.
    """
    n = draw(st.integers(1, 4))
    member = draw(st.booleans())
    exps = tuple(draw(st.integers(1, 2 if member else 3)) for _ in range(n))
    forms = [LinearForm(tuple(F(draw(_small)) for _ in range(n)), F(draw(st.integers(-1, 1)))) for _ in range(2)]
    if member:
        b = CircuitBuilder(2)
        g = b.add(b.power(b.input(0), draw(st.integers(1, 2))), b.const(F(draw(_small))))
        outer = b.build(b.mul(g, b.power(b.input(1), exps[0])))
        forms[1] = LinearForm(tuple(F(int(i == 0)) for i in range(n)))
    else:
        outer = draw(_outer(draw(st.integers(1, 2))))
    inp = LowRankInput(outer, tuple(forms[: outer.n]))
    return inp, exps, member


@settings(max_examples=100, deadline=None)
@given(power_ideal_instances(), st.integers(0, 2**32))
def test_brute_lowrank_and_powers_agree(instance, seed):
    inp, exps, member = instance
    ideal = PowerIdealSpec(exps, 0).to_ideal()
    c = inline_forms(inp)
    brute = is_member_brute(c, ideal)
    lowrank = not random_zero_test(
        RemEvaluator(inp, ideal).schedule(), inp.n, max(syntactic_degree(inp.outer), *exps), 5, random.Random(seed)
    )
    powers = not membership_powers(c, PowerIdealSpec(exps, syntactic_degree(c)), rng=random.Random(seed))
    assert brute == lowrank == powers
    assert brute or not member


@st.composite
def root_grid_instances(draw):
    """(circuit, ideal, roots): generators with distinct integer roots, grid <= 64.

    The circuit is a random DAG over the inputs; with probability about one
    half it is multiplied by p_j(x_j), which makes it a member.
    """
    n = draw(st.integers(1, 3))
    roots = [draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d, unique=True))
             for d in [draw(st.integers(1, 4)) for _ in range(n)]]
    gens = [UnivariatePoly.from_roots([F(a) for a in rs]) for rs in roots]
    b = CircuitBuilder(n)
    ids = [b.input(i) for i in range(n)] + [b.const(F(draw(st.integers(-3, 3))))]
    for _ in range(draw(st.integers(1, 4))):
        x, y = draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, len(ids) - 1))
        ids.append(b.add(ids[x], ids[y]) if draw(st.booleans()) else b.mul(ids[x], ids[y]))
    out = ids[-1]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        acc = b.const(gens[j].coeffs[-1])
        for c in reversed(gens[j].coeffs[:-1]):
            acc = b.add(b.mul(acc, ids[j]), b.const(c))
        out = b.mul(out, acc)
    return b.build(out), UnivariateIdeal(tuple(enumerate(gens))), roots


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(root_grid_instances(), st.data())
def test_certify_search_verify_and_grid_agree(instance, data):
    c, ideal, roots = instance
    decision, cert = search_nonmembership(c, ideal)
    member = is_member_brute(c, ideal)
    assert (decision == "member") == member
    # The low-rank zero test on the identity forms, a third engine: a
    # nonzero value proves nonmembership, and a miss has probability at
    # most (d / 100d)^5.
    n = c.n
    identity = tuple(LinearForm(tuple(int(i == j) for j in range(n))) for i in range(n))
    d = max(syntactic_degree(c), *(g.degree() for _, g in ideal.generators))
    run = RemEvaluator(LowRankInput(c, identity), ideal).schedule()
    assert (not random_zero_test(run, n, d, 5, random.Random(0))) == member
    if cert is not None:
        assert verify_certificate(c, ideal, cert, compute_threshold(c, ideal))
    fp = expand(c)
    grids = [[[(F(a), F(0)) for a in rs] for rs in roots]]
    # rational tuples: per variable one to three values with unrelated denominators
    grids.append([data.draw(st.lists(st.tuples(_rational, _rational), min_size=1, max_size=3)) for _ in roots])
    for per_var in grids:
        want = [circuit_abs2(c, tup) for tup in itertools.product(*per_var)]
        assert list(_grid_abs2(fp, per_var)) == want
