import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import unideal
from helpers import GaussianRational, charpoly, circuit_abs2
from unideal import certifier
from unideal import io as uio
from unideal.certifier import (
    Certificate,
    NotSquarefree,
    approximate_roots,
    compute_threshold,
    root_bound,
    search_nonmembership,
    verify_certificate,
    _grid_charpoly,
    _grid_value_lower_bound,
    _is_squarefree,
    _poly_abs2,
    _residual_threshold_sq,
    _separated,
)
from unideal.circuits import CircuitBuilder, expand
from unideal.cli import main
from unideal.division import UnivariateIdeal, _Reducer, divide, is_member_brute
from unideal.linalg import Matrix
from unideal.poly import SparsePoly, UnivariatePoly

F = Fraction


def upoly(*coeffs):
    return UnivariatePoly([F(c) for c in coeffs])


def horner_circuit(b, p, x_id):
    acc = b.const(F(p.coeffs[-1]))
    for c in reversed(p.coeffs[:-1]):
        acc = b.add(b.mul(acc, x_id), b.const(F(c)))
    return acc


def test_root_bounds_examples():
    assert root_bound(upoly(-2, 0, 1)) == 4  # x^2 - 2
    assert root_bound(upoly(-1, 1)) == 1  # x - 1


def test_root_bounds_contain_true_roots():
    rng = random.Random(0)
    for _ in range(30):
        d = rng.randint(1, 5)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(d)] + [F(rng.choice([1, -1, 2, 3]))]
        p = UnivariatePoly(coeffs)
        if p.degree() < 1:
            continue
        hi = root_bound(p)
        roots = mpmath.polyroots([float(c) for c in reversed(p.coeffs)], maxsteps=200, extraprec=80)
        for r in roots:
            assert abs(r) <= float(hi) + 1e-9


def test_approximate_roots_rejects_repeated_roots():
    with pytest.raises(NotSquarefree):
        approximate_roots(upoly(1, -2, 1), F(1, 2**30))  # (x - 1)^2


def test_separation_needs_more_than_2r():
    # The distinctness proof of approximate_roots: discs of radius r around
    # the picks are disjoint exactly when the picks are more than 2r apart.
    r, tiny = F(1, 2**10), F(1, 2**40)
    a = (F(1, 3), F(-2, 7))
    for ux, uy in ((1, 0), (0, -1), (F(3, 5), F(4, 5))):  # unit directions
        for dist, ok in ((2 * r + tiny, True), (2 * r, False), (2 * r - tiny, False), (3 * r / 2, False)):
            b = (a[0] + dist * ux, a[1] + dist * uy)
            far = (a[0] - 5 * r, a[1])
            assert _separated([a, b], r) is ok
            assert _separated([far, a, b], r) is ok
            assert _separated([b, far, a], r / 2)
    assert _separated([a], r) and _separated([], r)


def test_approximate_roots_real_pair():
    eps = F(1, 2**30)
    roots = approximate_roots(upoly(-1, 0, 1), eps)
    got = sorted(roots)
    assert abs(got[0][0] + 1) <= eps and abs(got[1][0] - 1) <= eps
    assert got[0][1] == got[1][1] == 0


def test_approximate_roots_origin_exact():
    (r,) = approximate_roots(upoly(0, 1), F(1, 1024))
    assert r == (0, 0)


def test_approximate_roots_imaginary_with_residual():
    p = upoly(1, 0, 1)  # x^2 + 1
    eps = F(1, 2**20)
    roots = approximate_roots(p, eps)
    for re, im in roots:
        assert abs(abs(im) - 1) <= eps and abs(re) <= eps
        assert _poly_abs2(p, (re, im)) < (F(1, 2) * eps**2) ** 2 * 4  # residual is tiny


def oracle_roots(p):
    """The roots of p by mpmath.polyroots at 400 bits, from the exact coefficients."""
    with mpmath.workprec(400):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        return mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)


def oracle_polys():
    """60 seeded squarefree polynomials of degree 1 to 6, ten of each kind."""
    rng = random.Random(13)
    kinds = ["integer roots", "conjugate pairs", "rational lc", "root at 0", "close pair", "dense"]
    out = []
    for t in range(60):
        kind = kinds[t % len(kinds)]
        while True:
            d = rng.randint(1, 6)
            if kind == "integer roots":
                p = UnivariatePoly.from_roots([F(a) for a in rng.sample(range(-7, 8), d)])
            elif kind == "conjugate pairs":  # (x - a)^2 + b^2 per pair, one real root if d is odd
                p = UnivariatePoly.from_roots([F(rng.randint(-4, 4))] * (d % 2))
                for _ in range(d // 2):
                    a, b = rng.randint(-4, 4), rng.choice([-3, -2, -1, 1, 2, 3])
                    p = p * upoly(a * a + b * b, -2 * a, 1)
            elif kind == "rational lc":
                p = UnivariatePoly([F(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(d)]
                                   + [rng.choice([F(3, 2), F(-2, 7), F(5, 3)])])
            elif kind == "root at 0":
                p = upoly(0, 1) * UnivariatePoly([F(rng.randint(-6, 6)) for _ in range(d - 1)] + [F(1)])
            elif kind == "close pair":  # two roots 2^-40 apart
                a = F(rng.randint(-3, 3))
                p = UnivariatePoly.from_roots([a, a + F(1, 2**40)]
                                              + [F(b) for b in rng.sample(range(4, 9), max(0, d - 2))])
            else:
                p = UnivariatePoly([F(rng.randint(-9, 9)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))])
            if p.degree() >= 1 and _is_squarefree(p):
                out.append((kind, p))
                break
    return out


def count_dk_runs(monkeypatch):
    """Replace `_durand_kerner` by a wrapper that records each run's precision.

    No polynomial of these tests needs more than 1024 bits, so a run past
    that fails at once instead of escalating to 2^20 bits.
    """
    precs = []
    inner = certifier._durand_kerner

    def counted(p, prec):
        assert prec <= 1024, f"escalated to {prec} bits on {p.coeffs}"
        precs.append(prec)
        return inner(p, prec)

    monkeypatch.setattr(certifier, "_durand_kerner", counted)
    return precs


def test_approximate_roots_match_polyroots(monkeypatch):
    # At eps = 1 the radius comes from the candidates' spread on the close
    # pairs: each root must still lie within eps of a distinct oracle root.
    precs = count_dk_runs(monkeypatch)
    escalated = set()
    for eps, (kind, p) in itertools.product([F(1, 2**30), F(1)], oracle_polys()):
        del precs[:]
        got = approximate_roots(p, eps)
        want = oracle_roots(p)
        assert len(got) == p.degree() == len(want)
        with mpmath.workprec(400):
            nearest = set()
            for re, im in got:
                z = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                               mpmath.mpf(im.numerator) / im.denominator)
                dist = [abs(z - w) for w in want]
                j = min(range(len(want)), key=dist.__getitem__)
                assert dist[j] <= mpmath.mpf(eps.numerator) / eps.denominator, (kind, p.coeffs, re, im)
                nearest.add(j)
        assert len(nearest) == p.degree(), (kind, p.coeffs)
        if max(precs, default=0) > 128:
            escalated.add(kind)
    assert "close pair" in escalated


def test_approximate_roots_integer_roots_accepted_at_128_bits(monkeypatch):
    # Control-style instances: integer-root generators of degree <= 5 and
    # the eps of compute_threshold.  Rounded to nearest, every candidate
    # lands on its integer root, so the first 128-bit run is accepted.
    precs = count_dk_runs(monkeypatch)
    rng = random.Random(7)
    runs = 0
    for n, deg in [(2, 2), (3, 3), (3, 4), (2, 5), (4, 3), (3, 5)]:
        roots = [rng.sample(range(-6, 7), deg) for _ in range(n)]
        gens = [UnivariatePoly.from_roots([F(a) for a in rs]) for rs in roots]
        ideal = UnivariateIdeal(tuple(enumerate(gens)))
        b = CircuitBuilder(n)
        ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-4, 4)))]
        for _ in range(4):
            u, v = rng.choice(ids), rng.choice(ids)
            ids.append(b.add(u, v) if rng.random() < 0.6 else b.mul(u, v))
        j = rng.randrange(n)
        out = b.add(b.mul(ids[-1], horner_circuit(b, gens[j], b.input(j))), b.const(F(rng.choice([-2, 1, 3]))))
        budget = compute_threshold(b.build(out), ideal)
        thr_sq = _residual_threshold_sq(budget)
        for rs, p in zip(roots, gens):
            del precs[:]
            got = approximate_roots(p, budget.eps, threshold_sq=thr_sq)
            assert precs == [128]
            assert sorted(got) == sorted((F(a), F(0)) for a in rs)
            runs += 1
    assert runs == 17


def test_cli_import_leaves_mpmath_out():
    env = dict(os.environ, PYTHONPATH=str(Path(unideal.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, unideal.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_compute_threshold_worked_example():
    # n = 1, p = x^2 - 4, f = x - 1: R = f, grid values {-3, 1}, so B3 = 1.
    b = CircuitBuilder(1)
    c = b.build(b.add(b.input(0), b.const(F(-1))))
    ideal = UnivariateIdeal(((0, upoly(-4, 0, 1)),))
    budget = compute_threshold(c, ideal)
    assert budget.b3 == 1
    assert budget.M == F(1, 3)
    assert budget.eps * budget.lip <= budget.M
    # gap realized at both (approximate) roots
    for r in approximate_roots(upoly(-4, 0, 1), budget.eps):
        v2 = _poly_abs2(upoly(-1, 1), r)
        assert v2 >= (2 * budget.M) ** 2 or v2 <= budget.M**2


def test_compute_threshold_member_stays_below_m():
    # f = p_1(x_1) * x_2 is in the ideal; every root tuple stays within M.
    ideal = UnivariateIdeal(((0, upoly(-1, 0, 1)), (1, upoly(-2, 0, 1))))
    b = CircuitBuilder(2)
    f = b.build(b.mul(horner_circuit(b, upoly(-1, 0, 1), b.input(0)), b.input(1)))
    budget = compute_threshold(f, ideal)
    roots0 = approximate_roots(upoly(-1, 0, 1), budget.eps)
    roots1 = approximate_roots(upoly(-2, 0, 1), budget.eps)
    for tup in itertools.product(roots0, roots1):
        assert circuit_abs2(f, tup) <= budget.M**2


def multiplication_matrix(r, ideal, degs):
    """The matrix of g -> R g on the residue basis, columns by `divide`."""
    basis = list(itertools.product(*[range(d) for d in degs]))
    index = {e: i for i, e in enumerate(basis)}
    rows = [[F(0)] * len(basis) for _ in basis]
    for j, e in enumerate(basis):
        shifted = SparsePoly(r.n, {tuple(a + b for a, b in zip(e, ee)): c for ee, c in r.terms.items()})
        for ee, c in divide(shifted, ideal).terms.items():
            rows[index[ee]][j] = F(c)
    return Matrix(rows)


def test_grid_charpoly_matches_hessenberg_oracle():
    rng = random.Random(12)
    kinds = ["monic", "rational lc", "dense", "vanishing", "zero", "grid 1"]
    seen = dict.fromkeys(kinds + ["rational R", "trailing zeros"], 0)
    for t in range(120):
        kind = kinds[t % len(kinds)]
        n = rng.randint(1, 3)
        gens = []
        for v in range(n):
            d = 1 if kind == "grid 1" else rng.randint(1, 3)
            if kind == "vanishing":
                p = UnivariatePoly.from_roots([F(a) for a in rng.sample(range(-4, 5), d)])
            else:
                lc = 1 if kind in ("monic", "dense") else rng.choice([-1, 2, F(3, 2), F(-2, 5)])
                p = UnivariatePoly([F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) for _ in range(d)] + [F(lc)])
            gens.append((v, p))
        ideal = UnivariateIdeal(tuple(gens))
        degs = [p.degree() for _, p in gens]
        grid = math.prod(degs)
        basis = list(itertools.product(*[range(d) for d in degs]))
        size = 0 if kind == "zero" else max(1, grid // 2) if kind == "dense" else rng.randint(1, grid)
        den = 1 if kind == "monic" else rng.choice([1, 2, 7])
        terms = {e: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, den])) for e in rng.sample(basis, size)}
        r = SparsePoly(n, terms)
        if kind == "vanishing":  # times x_v - a for a root a of p_v: R(a) = 0 on a slice of the grid
            v = rng.randrange(n)
            a = F(rng.choice([x for x in range(-4, 5) if not gens[v][1].evaluate(F(x))]))
            r = divide(r * SparsePoly(n, {tuple(int(i == v) for i in range(n)): F(1), (0,) * n: -a}), ideal)
        reducer = _Reducer(ideal)
        want = charpoly(multiplication_matrix(r, ideal, degs)).coeffs
        got = _grid_charpoly(r, reducer, degs, grid)
        assert list(want) == got
        tail = list(want[next(i for i, c in enumerate(want) if c):])
        b3 = F(1) if r.is_zero() or len(tail) == 1 else min(F(1), abs(tail[0]) / sum(abs(c) for c in tail[1:]))
        assert _grid_value_lower_bound(r, reducer, degs, grid) == b3
        seen[kind] += 1
        seen["rational R"] += any(F(c).denominator > 1 for c in r.terms.values())
        seen["trailing zeros"] += not r.is_zero() and not want[0]
    assert all(count >= 10 for count in seen.values()), seen


def test_dense_remainder_certified_through_cli(tmp_path, capsys):
    # A 4^3 grid and a remainder with at least 20 terms, so the threshold runs
    # the power sums of a dense R; f itself is reduced, so R = f.
    rng = random.Random(64)
    roots = [rng.sample(range(-6, 7), 4) for _ in range(3)]
    ideal = UnivariateIdeal(tuple((v, UnivariatePoly.from_roots([F(a) for a in rs])) for v, rs in enumerate(roots)))
    b = CircuitBuilder(3)
    xs = [b.input(v) for v in range(3)]
    monomials = rng.sample(list(itertools.product(range(4), repeat=3)), 24)
    c = b.build(b.add(*[
        b.mul(b.const(F(rng.choice([-3, -2, -1, 1, 2, 3]))), *[b.power(x, k) for x, k in zip(xs, e)])
        for e in monomials
    ]))
    assert len(divide(expand(c), ideal).terms) >= 20 and not is_member_brute(c, ideal)
    (tmp_path / "f.txt").write_text(uio.write_circuit(c))
    (tmp_path / "i.txt").write_text(uio.write_ideal(ideal))
    files = ["--circuit", str(tmp_path / "f.txt"), "--ideal", str(tmp_path / "i.txt")]
    cert = str(tmp_path / "cert.txt")
    assert main(["certify", *files, "--search", "--out-cert", cert]) == 0
    assert "decision: NONMEMBER" in capsys.readouterr().out
    assert main(["certify", *files, "--verify", cert]) == 0
    assert "decision: ACCEPT" in capsys.readouterr().out


# Unit directions with rational components, for complex offsets from a root.
UNIT_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)),
                   (F(-3, 5), F(-4, 5)), (F(4, 5), F(-3, 5))]


def near_tuples(root_tuple, eps):
    """Every tuple whose coordinates sit at offset 0 or just below eps, in any
    of the unit directions, from the given exact root tuple."""
    radius = eps * (1 - F(1, 1024))
    offsets = [GaussianRational(F(0))] + [GaussianRational(radius * re, radius * im) for re, im in UNIT_DIRECTIONS]
    for offs in itertools.product(offsets, repeat=len(root_tuple)):
        yield [GaussianRational(F(a)) + o for a, o in zip(root_tuple, offs)]


def test_lipschitz_gap_holds_near_every_root_tuple():
    # p0 = (x - 1)(x + 2) and p1 = x(x - 3) have integer roots, so the root
    # tuples are exact and the offsets are the only approximation.
    p0, p1 = upoly(-2, 1, 1), upoly(0, -3, 1)
    ideal = UnivariateIdeal(((0, p0), (1, p1)))
    root_tuples = list(itertools.product((1, -2), (0, 3)))

    def circuit(member):
        b = CircuitBuilder(2)
        x0, x1 = b.input(0), b.input(1)
        # p0(x0) * (x1 - 5) + 2 * p1(x1) * x0^2, plus x0 - x1 for the nonmember
        out = b.add(
            b.mul(horner_circuit(b, p0, x0), b.add(x1, b.const(F(-5)))),
            b.mul(b.const(F(2)), horner_circuit(b, p1, x1), b.power(x0, 2)),
        )
        if not member:
            out = b.add(out, x0, b.mul(b.const(F(-1)), x1))
        return b.build(out)

    member, nonmember = circuit(True), circuit(False)
    assert is_member_brute(member, ideal) and not is_member_brute(nonmember, ideal)

    budget = compute_threshold(member, ideal)
    assert budget.lip > 0 and budget.eps * budget.lip <= budget.M
    for a in root_tuples:
        for z in near_tuples(a, budget.eps):
            assert circuit_abs2(member, z) <= budget.M**2

    budget = compute_threshold(nonmember, ideal)
    assert budget.lip > 0 and budget.eps * budget.lip <= budget.M
    separated = [
        a for a in root_tuples
        if all(circuit_abs2(nonmember, z) >= 4 * budget.M**2
               for z in near_tuples(a, budget.eps))
    ]
    assert separated


def test_compute_threshold_rejects_repeated_roots():
    b = CircuitBuilder(1)
    c = b.build(b.input(0))
    ideal = UnivariateIdeal(((0, upoly(1, -2, 1)),))
    with pytest.raises(NotSquarefree):
        compute_threshold(c, ideal)


def test_verify_certificate_accepts_witness():
    b = CircuitBuilder(1)
    c = b.build(b.add(b.input(0), b.const(F(-1))))
    ideal = UnivariateIdeal(((0, upoly(-4, 0, 1)),))
    budget = compute_threshold(c, ideal)
    (r1, r2) = approximate_roots(upoly(-4, 0, 1), budget.eps)
    witness = r1 if abs(r1[0] - 2) < 1 else r2
    assert verify_certificate(c, ideal, Certificate((witness,)), budget)


def test_verify_certificate_rejects_vanishing_f():
    b = CircuitBuilder(1)
    x = b.input(0)
    c = b.build(b.add(b.mul(x, x), b.const(F(-4))))  # f = p
    ideal = UnivariateIdeal(((0, upoly(-4, 0, 1)),))
    budget = compute_threshold(c, ideal)
    for r in approximate_roots(upoly(-4, 0, 1), budget.eps):
        assert not verify_certificate(c, ideal, Certificate((r,)), budget)


def test_verify_certificate_rejects_far_point():
    b = CircuitBuilder(1)
    c = b.build(b.add(b.input(0), b.const(F(-1))))
    ideal = UnivariateIdeal(((0, upoly(-4, 0, 1)),))
    budget = compute_threshold(c, ideal)
    fake = Certificate(((F(100), F(0)),))
    assert not verify_certificate(c, ideal, fake, budget)


def test_search_product_instance():
    ideal = UnivariateIdeal(((0, upoly(-1, 0, 1)), (1, upoly(-1, 0, 1))))
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    decision, cert = search_nonmembership(c, ideal)
    assert decision == "nonmember" and cert is not None
    budget = compute_threshold(c, ideal)
    assert verify_certificate(c, ideal, cert, budget)


def test_search_member_instance():
    ideal = UnivariateIdeal(((0, upoly(-1, 0, 1)), (1, upoly(-1, 0, 1))))
    b = CircuitBuilder(2)
    x1 = b.input(0)
    c = b.build(b.mul(b.add(b.mul(x1, x1), b.const(F(-1))), b.input(1)))
    decision, cert = search_nonmembership(c, ideal)
    assert decision == "member" and cert is None


def test_search_unit_instance():
    ideal = UnivariateIdeal(((0, upoly(-4, 0, 1)),))
    b = CircuitBuilder(1)
    c = b.build(b.const(F(1)))
    decision, cert = search_nonmembership(c, ideal)
    assert decision == "nonmember"


def test_certificate_bit_size_is_finite_and_modest():
    roots = approximate_roots(upoly(-2, 0, 1), F(1, 2**20))
    cert = Certificate(tuple(roots))
    assert cert.bit_size() < 20000


def test_search_agrees_with_brute_membership():
    rng = random.Random(2)
    agree = 0
    for t in range(30):
        n = rng.randint(1, 3)
        gens = []
        for i in range(n):
            while True:
                d = rng.randint(1, 4)
                coeffs = [F(rng.randint(-8, 8)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))]
                p = UnivariatePoly(coeffs)
                if _is_squarefree(p):
                    gens.append((i, p))
                    break
        ideal = UnivariateIdeal(tuple(gens))
        b = CircuitBuilder(n)
        ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-4, 4)))]
        for _ in range(4):
            u, v = rng.choice(ids), rng.choice(ids)
            ids.append(b.add(u, v) if rng.random() < 0.6 else b.mul(u, v))
        out = ids[-1]
        if rng.random() < 0.4:
            j, pj = gens[rng.randrange(len(gens))]
            out = b.mul(out, horner_circuit(b, pj, b.input(j)))
        c = b.build(out)
        decision, cert = search_nonmembership(c, ideal)
        assert (decision == "member") == is_member_brute(c, ideal)
        if cert is not None:
            assert verify_certificate(c, ideal, cert, compute_threshold(c, ideal))
        agree += 1
    assert agree == 30
