import random
from fractions import Fraction

import pytest

from helpers import (
    in_field,
    lift_forms,
    lift_ideal,
    mod_p,
    oracle_rem_eval,
    random_forms,
    random_lowrank_instance,
    walk_eval,
)
from unideal import io as uio
from unideal.circuits import Add, Circuit, CircuitBuilder, Const, Input, Linear, Mul, expand
from unideal.division import UnivariateIdeal, divide, is_member_brute
from unideal.fields import FieldMismatch, kernel_map, residue
from unideal.linalg import LinearForm, Matrix, rank_and_row_basis
from unideal.lowrank import LowRankInput, RemEvaluator, inline_forms, rem_eval
from unideal.poly import SparsePoly, UnivariatePoly

F = Fraction


def square_ideal(n):
    sq = UnivariatePoly([F(0), F(0), F(1)])
    return UnivariateIdeal(tuple((i, sq) for i in range(n)))


def test_rem_eval_square_of_sum():
    b = CircuitBuilder(1)
    z = b.input(0)
    outer = b.build(b.mul(z, z))
    inp = LowRankInput(outer, (LinearForm((F(1), F(1))),))
    assert rem_eval(inp, square_ideal(2), [F(1), F(1)]) == 2


def test_rem_eval_already_reduced_is_plain_eval():
    b = CircuitBuilder(2)
    outer = b.build(b.add(b.input(0), b.mul(b.input(1), b.const(F(3)))))
    forms = (LinearForm((F(1), F(0), F(0))), LinearForm((F(0), F(1), F(1))))
    inp = LowRankInput(outer, forms)
    ideal = square_ideal(3)
    alpha = [F(2), F(3), F(5)]
    composed = inline_forms(inp)
    assert rem_eval(inp, ideal, alpha) == composed.evaluate(alpha)


def test_rem_eval_rank_one_permanent():
    from unideal.apps import ryser_permanent

    a = Matrix([[F(1), F(1)], [F(1), F(1)]])
    b = CircuitBuilder(1)
    z = b.input(0)
    outer = b.build(b.mul(z, z))
    inp = LowRankInput(outer, (LinearForm((F(1), F(1))),))
    got = rem_eval(inp, square_ideal(2), [F(1), F(1)])
    assert got == ryser_permanent(a) == 2


def rational_instance(rng, inp, ideal):
    """The same shape with rational constants, form and generator coefficients."""
    nodes = []
    for node in inp.outer.nodes:
        if isinstance(node, Const):
            node = Const(F(node.value) / rng.choice([1, 2, 3]))
        elif isinstance(node, Linear):
            node = Linear(LinearForm(tuple(F(c) / 2 for c in node.form.coeffs), F(node.form.const) / 3))
        nodes.append(node)
    outer = Circuit(inp.outer.n, nodes, inp.outer.out)
    forms = tuple(
        LinearForm(tuple(c / rng.choice([1, 2, 3]) for c in f.coeffs), F(rng.randint(-2, 2), 3))
        for f in inp.forms
    )
    gens = {v: UnivariatePoly([c / rng.choice([1, 2, 5]) for c in p.coeffs]) for v, p in ideal.generators}
    return LowRankInput(outer, forms), UnivariateIdeal(tuple(sorted(gens.items())))


def test_oracle_equivalence_random():
    # The exact evaluator against expand-and-divide, and the residue walk over
    # GF(p) against the image of the same exact value, on integer and
    # rational instances with non-monic generators.
    rng = random.Random(10)
    moduli = [10007, 2**61 - 1]
    cases = []
    for _ in range(60):
        inp, ideal, alpha = random_lowrank_instance(rng)
        cases.append((inp, ideal, alpha))
        if len(cases) % 3 == 0:
            cases.append((*rational_instance(rng, inp, ideal), alpha))
    for n, lo, hi in [(5, 2, 3), (8, 2, 3)]:
        inp, ideal = gate_mix_instance(rng, n, lo, hi)
        cases.append((*rational_instance(rng, inp, ideal), [F(rng.randint(-4, 4)) for _ in range(n)]))
    depths = set()
    for inp, ideal, alpha in cases:
        want = divide(expand(inline_forms(inp)), ideal).evaluate(alpha)
        assert rem_eval(inp, ideal, alpha) == want
        for p in moduli:
            ev = RemEvaluator(inp, ideal, p)
            assert all(type(c) is int and 0 < c < p for c in ev._base.terms.values())
            got = ev.eval(alpha)
            assert type(got) is int and 0 <= got < p
            assert got == residue(want, p)
            depths.add(ev.depth)
    assert max(depths) >= 2
    assert any(p.lc() != 1 for _, ideal, _ in cases for _, p in ideal.generators)
    assert any(c.denominator > 1 for inp, _, _ in cases for f in inp.forms for c in f.coeffs)


def test_oracle_equivalence_prime_field():
    rng = random.Random(11)
    p = 10007
    for _ in range(25):
        inp, ideal, alpha = random_lowrank_instance(rng, n_max=4)
        inp_p = LowRankInput(mod_p(inp.outer, p), lift_forms(inp.forms, p))
        ideal_p = lift_ideal(ideal, p)
        alpha_p = mod_p(alpha, p)
        want = divide(SparsePoly(inp.n, expand(inline_forms(inp)).terms, p), ideal).evaluate(alpha)
        ev = RemEvaluator(inp_p, ideal_p, p)
        # Over GF(p) the evaluator walks on the residue kernel.
        assert ev.p == p and ev._base.p == p
        got = ev.eval(alpha_p)
        assert got == want
        # cross-field consistency with the rational pipeline
        assert residue(rem_eval(inp, ideal, alpha), p) == got
        assert RemEvaluator(inp, ideal, p).eval(alpha) == rem_eval(inp, ideal, alpha, p) == got


def test_residue_evaluator_field_mismatch():
    b = CircuitBuilder(2)
    outer = b.build(b.mul(b.input(0), b.input(1), b.const(F(3))))
    forms = (LinearForm((F(1), F(1, 7), F(0))), LinearForm((F(0), F(1), F(2))))
    inp = LowRankInput(outer, forms)
    ideal = square_ideal(3)
    alpha = [F(1), F(2), F(3)]
    # A form coefficient 1/7 has no image in GF(7), but one in GF(11).
    with pytest.raises(FieldMismatch):
        RemEvaluator(inp, ideal, 7)
    assert RemEvaluator(inp, ideal, 11).eval(alpha) == residue(rem_eval(inp, ideal, alpha), 11)
    # A generator whose leading coefficient is a multiple of p loses its degree mod p.
    gens = {v: UnivariatePoly([F(0), F(1), F(7)]) for v in range(3)}
    integral = LowRankInput(outer, (forms[1], forms[1]))
    assert RemEvaluator(integral, square_ideal(3), 7).eval(alpha) == residue(rem_eval(integral, square_ideal(3), alpha), 7)
    with pytest.raises(FieldMismatch):
        RemEvaluator(integral, UnivariateIdeal(tuple(sorted(gens.items()))), 7)


def test_default_field_is_never_inferred():
    # The field is stated, never inferred from the scalars: an input whose
    # scalars are residues mod p is, under the default p = None, the integer
    # instance it spells, and its exact value maps to the GF(p) value.
    p = 10007
    b = CircuitBuilder(2)
    outer = b.build(b.mul(b.input(0), b.linear(LinearForm((F(1), F(-2)), F(1, 3))), b.const(F(-3, 2))))
    forms = (LinearForm((F(1), F(2), F(-1, 5))), LinearForm((F(0), F(1), F(2)), F(1)))
    inp = LowRankInput(outer, forms)
    ideal = UnivariateIdeal(tuple((v, UnivariatePoly([F(-1, 2), F(3), F(2)])) for v in range(3)))
    lifted = LowRankInput(mod_p(outer, p), lift_forms(forms, p))
    lifted_ideal = lift_ideal(ideal, p)
    alpha = [F(1, 2), F(2), F(-3)]
    ev = RemEvaluator(lifted, lifted_ideal)
    assert ev.p is None
    exact = ev.eval(alpha)
    assert type(exact) is F and exact == divide(expand(inline_forms(lifted)), lifted_ideal).evaluate(alpha)
    want = rem_eval(inp, ideal, alpha, p)
    assert exact != want and residue(exact, p) == want == rem_eval(lifted, lifted_ideal, alpha, p)


def ideal_of_degrees(rng, n, lo, hi):
    gens = {}
    for v in range(n):
        d = rng.randint(lo, hi)
        gens[v] = UnivariatePoly([F(rng.randint(-3, 3)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))])
    return UnivariateIdeal(tuple(sorted(gens.items())))


def test_transform_soundness_random():
    # Each level rewrites its incoming forms over s consumed variables plus r'
    # fresh ones standing for the independent rest-forms: hat_i evaluated at
    # (x_0..x_{s-1}, residual_1(x_tail), ..., residual_r'(x_tail)) is l_i(x).
    rng = random.Random(12)
    depths = set()
    for _ in range(30):
        n = rng.randint(1, 8)
        r = rng.randint(1, min(3, n))
        b = CircuitBuilder(r)
        inp = LowRankInput(b.build(b.mul(*[b.input(i) for i in range(r)])), random_forms(rng, r, n))
        ev = RemEvaluator(inp, ideal_of_degrees(rng, n, 2, 3))
        forms = list(inp.forms)
        for lvl in ev.levels:
            assert lvl.s == min(len(forms), n - lvl.offset)
            assert lvl.w == lvl.s + len(lvl.residual_rows) <= 2 * r
            residuals = [LinearForm(inp.forms[i].coeffs[lvl.offset + lvl.s :]) for i in lvl.residual_rows]
            for _ in range(3):
                x = [F(rng.randint(-5, 5)) for _ in range(n - lvl.offset)]
                local = x[: lvl.s] + [res.evaluate(x[lvl.s :]) for res in residuals]
                for f, hat in zip(forms, lvl.hats):
                    assert hat.evaluate(local) == f.evaluate(x)
            forms = residuals
        depths.add(ev.depth)
    assert max(depths) >= 2


def structured_forms(rng, r, n, p):
    """Forms with zero columns, repeated and dependent rows, constants, and
    supports that end early, so tails lose rank partway down the recursion."""
    zero_cols = set(rng.sample(range(n), rng.randint(0, n // 2)))
    rows = []
    for _ in range(r):
        kind = rng.random()
        if rows and kind < 0.2:
            row = [rng.choice([1, -1, 2]) * c for c in rng.choice(rows)]
        elif len(rows) >= 2 and kind < 0.4:
            a, b = rng.sample(rows, 2)
            row = [x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
        else:
            end = rng.randint(0, n)
            row = [0 if j >= end or j in zero_cols else rng.randint(-2, 2) for j in range(n)]
        rows.append(row)
    return tuple(LinearForm(tuple(in_field(c, p) for c in row), in_field(rng.choice([0, 0, 1, -3]), p)) for row in rows)


def reference_levels(inp, p):
    """(offset, s, w, unreduced hats, residual tails) per level, from one
    elimination of the whole remaining tail at every level, over the
    kernel scalars of modulus p."""
    scalar = kernel_map(p)
    forms = [(tuple(map(scalar, f.coeffs)), scalar(f.const)) for f in inp.forms]
    offset, levels = 0, []
    while forms and inp.n - offset > 0:
        s = min(len(forms), inp.n - offset)
        rests = Matrix([c[s:] for c, _ in forms])
        rank, basis, coords = rank_and_row_basis(rests, p)
        w = s + rank
        hats = []
        for i, (coeffs, const) in enumerate(forms):
            terms = {}
            for j, c in [(j, coeffs[j]) for j in range(s)] + [(s + t, coords[i, t]) for t in range(rank)]:
                if c:
                    terms[tuple(int(k == j) for k in range(w))] = c
            if const:
                terms[(0,) * w] = const
            hats.append(SparsePoly(w, terms, p))
        levels.append((offset, s, w, hats, [rests.rows[t] for t in basis]))
        forms = [(rests.rows[t], 0) for t in basis]
        offset += s
    return levels


def test_prepared_levels_match_full_tail_elimination():
    # Solving each level on the pivot columns of one up-front elimination
    # gives the levels that eliminating the whole tail at every level gives,
    # down to the order of the hats' terms.
    rng = random.Random(18)
    drops = 0
    for p in (None, 7, 10007):
        for _ in range(60):
            n = rng.randint(1, 12)
            r = rng.randint(1, 4)
            b = CircuitBuilder(r)
            outer = b.build(b.mul(*[b.input(i) for i in range(r)]))
            inp = LowRankInput(outer, structured_forms(rng, r, n, p))
            ev = RemEvaluator(inp, lift_ideal(ideal_of_degrees(rng, n, 1, 3), p), p)
            want = reference_levels(inp, ev.p)
            assert len(ev.levels) == len(want)
            incoming = r
            for lvl, (offset, s, w, hats, rests) in zip(ev.levels, want):
                assert (lvl.offset, lvl.s, lvl.w, len(lvl.residual_rows)) == (offset, s, w, len(rests))
                assert [inp.forms[i].coeffs[offset + s :] for i in lvl.residual_rows] == rests
                assert len(lvl.hats) == len(hats) == incoming
                for got, hat in zip(lvl.hats, hats):
                    assert list(got.terms.items()) == list(lvl.reducer.reduce(hat).terms.items())
                drops += len(lvl.residual_rows) < min(incoming, n - offset - s)
                incoming = len(lvl.residual_rows)
    assert drops > 0


def test_preparation_solves_small_systems(monkeypatch):
    # Every level's rest-forms are solved on at most r columns, so
    # preparation stays linear in n; eliminating each level's whole
    # r x (n - offset) tail would make it quadratic.
    import unideal.lowrank as lowrank

    seen = []
    real = lowrank.rank_and_row_basis

    def spy(m, p=None):
        seen.append((m.nrows, m.ncols))
        return real(m, p)

    monkeypatch.setattr(lowrank, "rank_and_row_basis", spy)
    rng = random.Random(19)
    n, r = 320, 3
    b = CircuitBuilder(r)
    outer = b.build(b.add(b.mul(b.input(0), b.input(1)), b.mul(b.input(2), b.input(2))))
    inp = LowRankInput(outer, random_forms(rng, r, n, lo=-3, hi=3))
    ev = RemEvaluator(inp, ideal_of_degrees(rng, n, 2, 3))
    assert ev.depth >= n // r - 1
    assert len(seen) == ev.depth
    assert all(cols <= r for _, cols in seen)
    assert sum(rows * cols for rows, cols in seen) <= r * r * ev.depth


def test_recursion_depth_bounded():
    rng = random.Random(13)
    for _ in range(20):
        inp, ideal, alpha = random_lowrank_instance(rng)
        ev = RemEvaluator(inp, ideal)
        assert ev.depth <= inp.n
        ev.eval(alpha)


def test_membership_corollary_zero_everywhere():
    # f = p_1(x_1) * (x_1 + x_2) is in the ideal, so rem_eval is 0 at any point.
    rng = random.Random(14)
    b = CircuitBuilder(2)
    z1, z2 = b.input(0), b.input(1)
    # outer = z1^2 * z2 with forms l1 = x1, l2 = x1 + x2 and ideal <x1^2, x2^2>
    outer = b.build(b.mul(z1, z1, z2))
    inp = LowRankInput(outer, (LinearForm((F(1), F(0))), LinearForm((F(1), F(1)))))
    ideal = square_ideal(2)
    assert is_member_brute(inline_forms(inp), ideal)
    for _ in range(20):
        alpha = [F(rng.randint(-10, 10)) for _ in range(2)]
        assert rem_eval(inp, ideal, alpha) == 0


def test_missing_generator_rejected():
    b = CircuitBuilder(1)
    outer = b.build(b.input(0))
    inp = LowRankInput(outer, (LinearForm((F(1), F(1))),))
    ideal = UnivariateIdeal(((0, UnivariatePoly([F(0), F(0), F(1)])),))
    with pytest.raises(ValueError):
        rem_eval(inp, ideal, [F(1), F(1)])


def test_zero_rank_constant_outer():
    b = CircuitBuilder(0)
    outer = b.build(b.const(F(7)))
    inp = LowRankInput(outer, ())
    ideal = square_ideal(0)
    assert rem_eval(inp, ideal, []) == 7
    # Forms over no variables are constants.
    b = CircuitBuilder(2)
    outer = b.build(b.mul(b.input(0), b.input(1), b.const(F(2))))
    inp = LowRankInput(outer, (LinearForm((), F(3)), LinearForm((), F(5))))
    assert rem_eval(inp, ideal, []) == 30


def gate_mix_instance(rng, n, lo, hi):
    """Two affine forms under an outer circuit with every gate kind, linear
    gates over z with constants included."""
    b = CircuitBuilder(2)
    lin = [b.linear(LinearForm((F(rng.randint(-2, 2)), F(rng.randint(1, 2))), F(rng.choice([-2, -1, 1, 2]))))
           for _ in range(2)]
    outer = b.build(b.add(b.mul(lin[0], lin[1], b.input(0)), b.input(1), b.const(F(3))))
    forms = tuple(LinearForm(f.coeffs, F(rng.randint(-2, 2))) for f in random_forms(rng, 2, n))
    return LowRankInput(outer, forms), ideal_of_degrees(rng, n, lo, hi)


def test_evaluator_reuse_matches_one_shot():
    # One prepared evaluator, many points, against expand-and-divide, on a
    # residue grid of 16 points and on one of more than 3^9.
    rng = random.Random(15)
    for n, lo, hi in [(4, 2, 2), (9, 3, 4)]:
        inp, ideal = gate_mix_instance(rng, n, lo, hi)
        ev = RemEvaluator(inp, ideal)
        assert ev.depth >= 2
        remainder = divide(expand(inline_forms(inp)), ideal)
        for _ in range(12):
            alpha = [F(rng.randint(-4, 4)) for _ in range(n)]
            assert ev.eval(alpha) == remainder.evaluate(alpha)


def test_rem_eval_matches_sympy_reduced():
    # An oracle that shares no code with the package: sympy's multivariate
    # division by the generators, which form a Groebner basis.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)

    def q(c):
        return sympy.Rational(c.numerator, c.denominator)

    cases = [random_lowrank_instance(rng)[:2] for _ in range(12)]
    cases += [gate_mix_instance(rng, 4, 2, 2), gate_mix_instance(rng, 7, 2, 3)]
    for inp, ideal in cases:
        xs = sympy.symbols(f"x0:{inp.n}")
        zs = [sum((q(c) * x for c, x in zip(f.coeffs, xs)), q(F(f.const))) for f in inp.forms]
        vals = []
        for node in inp.outer.nodes:
            if isinstance(node, Input):
                vals.append(zs[node.var])
            elif isinstance(node, Const):
                vals.append(q(node.value))
            elif isinstance(node, Add):
                vals.append(sympy.Add(*[vals[ch] for ch in node.children]))
            elif isinstance(node, Mul):
                vals.append(sympy.Mul(*[vals[ch] for ch in node.children]))
            else:
                form = node.form
                vals.append(sum((q(c) * z for c, z in zip(form.coeffs, zs)), q(F(form.const))))
        gens = [sum(q(c) * xs[v] ** k for k, c in enumerate(p.coeffs)) for v, p in ideal.generators]
        _, rem = sympy.reduced(sympy.expand(vals[inp.outer.out]), gens, *xs)
        for _ in range(3):
            alpha = [F(rng.randint(-4, 4)) for _ in range(inp.n)]
            want = rem.subs(dict(zip(xs, [q(a) for a in alpha])))
            assert rem_eval(inp, ideal, alpha) == F(int(want.p), int(want.q))


def test_integral_input_walks_on_ints(monkeypatch):
    # Over QQ an integral input with monic generators keeps its scalars as
    # ints: the split's matrices, the hats, the level-0 expansion, the fold
    # rows and the compiled levels' entries (at scale 1) hold no Fraction and
    # no float, whether the input holds its integers as Fractions or as the
    # ints `io` reads, and the value still comes back as a Fraction.  All
    # levels share the fold rows of one reducer.  Over GF(p) the split is
    # given the modulus and runs on residues.
    import unideal.lowrank as lowrank

    split_types, split_moduli = set(), set()

    def spy(fn):
        def wrapped(m, p=None):
            split_types.update(type(c) for row in m.rows for c in row)
            split_moduli.add(p)
            return fn(m, p)
        return wrapped

    reducers = []

    class CountingReducer(lowrank._Reducer):
        def __init__(self, *args):
            reducers.append(self)
            super().__init__(*args)

    monkeypatch.setattr(lowrank, "suffix_pivots", spy(lowrank.suffix_pivots))
    monkeypatch.setattr(lowrank, "rank_and_row_basis", spy(lowrank.rank_and_row_basis))
    monkeypatch.setattr(lowrank, "_Reducer", CountingReducer)
    b = CircuitBuilder(2)
    lin = b.linear(LinearForm((F(2), F(-1)), F(3)))
    outer = b.build(b.add(b.mul(lin, b.input(0), b.input(1)), b.mul(b.input(1), b.input(1)), b.const(F(-5))))
    forms = (LinearForm((F(1), F(2), F(-1), F(3), F(1), F(0)), F(2)),
             LinearForm((F(0), F(1), F(2), F(-1), F(1), F(1))))
    inp = LowRankInput(outer, forms)
    gens = [[F(2), F(-1), F(0), F(1)], [F(0), F(-1), F(1)], [F(-3), F(1), F(1), F(1)],
            [F(1), F(0), F(0), F(0), F(1)], [F(0), F(1), F(1)], [F(4), F(2), F(0), F(1)]]
    ideal = UnivariateIdeal(tuple((v, UnivariatePoly(g)) for v, g in enumerate(gens)))
    parsed = uio.parse_lowrank(uio.write_lowrank(inp)), uio.parse_ideal(uio.write_ideal(ideal))
    assert {type(c) for f in parsed[0].forms for c in f.coeffs} == {int}
    remainder = divide(expand(inline_forms(inp)), ideal)
    rng = random.Random(17)
    for case in ((inp, ideal), parsed):
        split_types.clear()
        split_moduli.clear()
        reducers.clear()
        ev = RemEvaluator(*case)
        assert split_types == {int} and split_moduli == {None} and len(reducers) == 1
        for _ in range(5):
            alpha = [rng.randint(-4, 4) for _ in range(inp.n)]
            got = ev.eval(alpha)
            assert type(got) is F and got == remainder.evaluate(alpha)
        assert ev.depth == 3
        assert all(type(c) is int for c in ev._base.terms.values())
        for lvl in ev.levels:
            assert all(type(c) is int for hat in lvl.hats for c in hat.terms.values())
            rows = [c for row in lvl.reducer.rows.values() for c in row]
            assert rows and all(type(c) is int for c in rows)
        for offset, s, consumed, rows, ntails, scale in ev._compile():
            assert scale == 1 and all(type(c) is int for row in rows for c in row[3])
        p = 10007
        split_types.clear()
        split_moduli.clear()
        ev = RemEvaluator(*case, p)
        assert split_types == {int} and split_moduli == {p}
        assert all(type(c) is int for lvl in ev.levels for hat in lvl.hats for c in hat.terms.values())
        assert ev.eval(alpha) == residue(remainder.evaluate(alpha), p)
    # A fractional input (forms, constants, non-monic generators) still
    # equals expand-and-divide.
    frac, frac_ideal = rational_instance(random.Random(18), inp, ideal)
    assert any(c.denominator > 1 for f in frac.forms for c in f.coeffs)
    assert any(g.lc() != 1 for _, g in frac_ideal.generators)
    want = divide(expand(inline_forms(frac)), frac_ideal)
    ev = RemEvaluator(frac, frac_ideal)
    for _ in range(5):
        alpha = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(inp.n)]
        assert ev.eval(alpha) == want.evaluate(alpha)


def test_rem_eval_matches_independent_oracle():
    # rem_eval against `helpers.oracle_rem_eval`, which shares no code with
    # the engine (no `_Reducer`, no `SparsePoly.mul`): integer instances
    # read through `io` as the CLI reads them, and rational instances with
    # non-monic generators.
    rng = random.Random(19)
    kinds = set()
    for t in range(40):
        inp, ideal, alpha = random_lowrank_instance(rng)
        if t % 2:
            inp, ideal = rational_instance(rng, inp, ideal)
            alpha = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in alpha]
        else:
            inp = uio.parse_lowrank(uio.write_lowrank(inp))
            ideal = uio.parse_ideal(uio.write_ideal(ideal))
            alpha = uio.parse_point(" ".join(uio.format_scalar(a) for a in alpha))
        kinds.add(frozenset(type(c) for f in inp.forms for c in f.coeffs))
        assert rem_eval(inp, ideal, alpha) == oracle_rem_eval(inp, ideal, alpha)
    assert frozenset({int}) in kinds and any(F in k for k in kinds)


def test_remainder_oracle_never_calls_the_fused_kernel(monkeypatch):
    # expand-and-divide multiplies with `SparsePoly.mul` and reduces with `reduce`
    # only, so it checks the fused kernel rather than reusing it.
    import unideal.division as division

    rng = random.Random(22)
    cases = [random_lowrank_instance(rng) for _ in range(12)]
    want = [rem_eval(inp, ideal, alpha) for inp, ideal, alpha in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the remainder oracle called _Reducer.mul")

    monkeypatch.setattr(division._Reducer, "mul", forbidden)
    with pytest.raises(AssertionError):
        rem_eval(*cases[0])
    for (inp, ideal, alpha), value in zip(cases, want):
        assert divide(expand(inline_forms(inp)), ideal).evaluate(alpha) == value


def test_schedule_matches_walk_and_oracle():
    # The compiled schedule and the streamed `eval` against the sparse walk
    # of `helpers.walk_eval` and expand-and-divide at random points (and at
    # the first, the engine-free `helpers.oracle_rem_eval`), over QQ
    # on rational instances with non-monic generators (so the hats of deeper
    # levels carry denominators, which the per-level lcm clears) and over
    # GF(p), with zero coordinates among the points.
    rng = random.Random(24)
    cases = []
    for _ in range(30):
        inp, ideal, _ = random_lowrank_instance(rng)
        cases += [(inp, ideal), rational_instance(rng, inp, ideal)]
    for n, lo, hi in [(5, 2, 3), (8, 1, 3)]:
        inp, ideal = gate_mix_instance(rng, n, lo, hi)
        cases += [(inp, ideal), rational_instance(rng, inp, ideal)]
    fractional = 0
    for inp, ideal in cases:
        remainder = divide(expand(inline_forms(inp)), ideal)
        evs = [RemEvaluator(inp, ideal, p) for p in (None, 10007, 2**61 - 1)]
        runs = [ev.schedule() for ev in evs]
        for t in range(4):
            alpha = [F(rng.choice([0, 0, rng.randint(-4, 4), F(rng.randint(-4, 4), 3)])) for _ in range(inp.n)]
            want = remainder.evaluate(alpha)
            assert t or want == oracle_rem_eval(inp, ideal, alpha)
            for ev, run in zip(evs, runs):
                got = run(alpha)
                assert got == ev.eval(alpha) == walk_eval(ev, alpha) == in_field(want, ev.p)
                assert type(got) is F if ev.p is None else type(got) is int and 0 <= got < ev.p
        fractional += any(c.denominator > 1 for lvl in evs[0].levels[1:] for h in lvl.hats for c in h.terms.values())
    assert fractional > 0
    assert any(p.lc() != 1 for _, ideal in cases for _, p in ideal.generators)


def test_schedule_edge_cases():
    # No levels (constant forms), a zero remainder, n = 1, and the point
    # length check.
    b = CircuitBuilder(2)
    outer = b.build(b.add(b.mul(b.input(0), b.input(1), b.const(F(2, 3))), b.const(F(1))))
    inp = LowRankInput(outer, (LinearForm((), F(3)), LinearForm((), F(5, 2))))
    for p in (None, 10007):
        ev = RemEvaluator(inp, square_ideal(0), p)
        assert ev.depth == 0 and ev.schedule()([]) == ev.eval([]) == walk_eval(ev, []) == in_field(6, p)
    b = CircuitBuilder(2)
    zero = LowRankInput(b.build(b.const(F(0))), (LinearForm((F(1), F(0))), LinearForm((F(1), F(1)))))
    b = CircuitBuilder(2)
    member = LowRankInput(b.build(b.mul(b.input(0), b.input(0), b.input(1))), zero.forms)
    for inp in (zero, member):
        for p in (None, 7):
            ev = RemEvaluator(inp, square_ideal(2), p)
            run = ev.schedule()
            for alpha in ([0, 0], [3, 0], [F(1, 2), 5]):
                assert run(alpha) == ev.eval(alpha) == walk_eval(ev, alpha) == in_field(0, p)
    b = CircuitBuilder(1)
    z = b.input(0)
    outer = b.build(b.add(b.mul(z, z, z), b.mul(b.const(F(-1, 2)), z)))
    inp = LowRankInput(outer, (LinearForm((F(2, 3),), F(1)),))
    ideal = UnivariateIdeal(((0, UnivariatePoly([F(1), F(0), F(3)])),))
    remainder = divide(expand(inline_forms(inp)), ideal)
    for p in (None, 10007):
        ev = RemEvaluator(inp, ideal, p)
        run = ev.schedule()
        for x in (0, 1, F(-7, 5), 12):
            assert run([x]) == ev.eval([x]) == walk_eval(ev, [x]) == in_field(remainder.evaluate([F(x)]), p)
        for wrong_length in (run, ev.eval):
            with pytest.raises(ValueError):
                wrong_length([1, 2])
