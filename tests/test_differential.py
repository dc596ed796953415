"""Differential suite: power ideals <x_i^e_i> with a rank <= 2 input.

On these instances three engines apply at once and share no evaluation code:
expand-and-divide on the inlined circuit (`is_member_brute`), the low-rank
remainder zero test on the compiled levels, and the scaled-Hadamard power-ideal
test.  Root certificates do not apply: x^e with e >= 2 has a repeated root.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from unideal.circuits import CircuitBuilder, syntactic_degree
from unideal.division import is_member_brute, random_zero_test
from unideal.fields import QQ
from unideal.hadamard import PowerIdealSpec, membership_powers
from unideal.linalg import LinearForm
from unideal.lowrank import LowRankInput, RemEvaluator, inline_forms

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
    inp = LowRankInput(outer, tuple(forms[: outer.n]), max(syntactic_degree(outer), *exps))
    return inp, exps, member


@settings(max_examples=100, deadline=None)
@given(power_ideal_instances(), st.integers(0, 2**32))
def test_brute_lowrank_and_powers_agree(instance, seed):
    inp, exps, member = instance
    ideal = PowerIdealSpec(exps, 0).to_ideal(QQ)
    c = inline_forms(inp)
    brute = is_member_brute(c, ideal)
    lowrank = not random_zero_test(
        RemEvaluator(inp, ideal).schedule(), inp.n, inp.degree_bound, 5, random.Random(seed), field=QQ
    )
    powers = not membership_powers(c, PowerIdealSpec(exps, syntactic_degree(c)), rng=random.Random(seed))
    assert brute == lowrank == powers
    assert brute or not member
