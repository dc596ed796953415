"""Seeded instance sets for the two workloads.

Every workload is a fixed list of slots (an instance shape: command, sizes,
answer kind); the seed only fills in the numbers.  Keeping the shapes fixed
is what makes one seed's run cost close to another's, so run-to-run spread
measures the program and not the luck of the draw.  Each operation carries
an oracle from `oracles.py` that is evaluated after the timed region.

Why these two (see NOTES.md for the layer predictions):
- lowrank: the `lowrank` layer on both sides of its materialize-or-walk
  trade-off.  First evaluators prepared and used at ONE point (`perm --mode
  lowrank`, `rem-eval`), where materializing the whole remainder (done by
  `perm` when 2^n <= 4096) is pure overhead; then evaluators prepared once
  and used at up to 20 points (`vc --tight`, `member --mode lowrank`),
  where materializing can pay off;
- control: `mlmd` (the scaled-Hadamard test) and `certify --search` /
  `--verify` (root certificates), with no low-rank work: the no-change
  control for low-rank changes, and the only workload of the `hadamard`
  and `certifier` layers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from oracles import (
    Gates,
    certificate_names_root,
    expand,
    fmt,
    has_vertex_cover,
    lowest_surviving_degree,
    poly_from_roots,
    rank,
    rem_eval_cubic,
    remainder,
    ryser,
    vanishes_on_cube,
)


@dataclass
class Op:
    label: str
    argv: list
    expect: Callable[[], dict]          # oracle: fields the JSON answer must have
    writes: str | None = None           # file the op writes, kept after every call
    check: Callable[[str], bool] | None = None  # oracle on the text of that file


@dataclass
class Instances:
    files: dict = field(default_factory=dict)  # file name -> text
    ops: list = field(default_factory=list)

    def file(self, stem: str, text: str) -> str:
        name = f"{len(self.files):03d}-{stem}.txt"
        self.files[name] = text
        return name

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps([op.argv for op in self.ops]).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def _ideal_text(gens) -> str:
    return "".join(f"var {v} : " + " ".join(fmt(c) for c in p) + "\n" for v, p in enumerate(gens))


def _form_lines(forms) -> str:
    return "".join("form " + " ".join(map(str, f)) + "\n" for f in forms)


# --- lowrank, one point per evaluator ---------------------------------------------


def _perm(inst, rng, r, n):
    # U V with nonzero entries in U (n x r) and V (r x n): a zero pattern can
    # drop the rank of a level's tail and cut the cost by 50x.
    entries = (-2, -1, 1, 2)
    while True:
        u = [[rng.choice(entries) for _ in range(r)] for _ in range(n)]
        v = [[rng.choice(entries) for _ in range(n)] for _ in range(r)]
        a = [[sum(u[i][t] * v[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
        if rank(a) == r:
            break
    name = inst.file(f"perm-r{r}-n{n}", "".join(" ".join(map(str, row)) + "\n" for row in a))
    inst.ops.append(Op(
        f"perm r={r} n={n}",
        ["perm", "--matrix", name, "--mode", "lowrank"],
        lambda: {"value": fmt(ryser(a))},
    ))


# The scripts/scaling_rem.py family: l1^2 l2 + l2^2 + l1 modulo monic cubics.
_CUBIC_OUTER = "vars 2\nin 0\nin 1\nmul 0 0 1\nmul 1 1\nadd 2 3 0\nout 4\n"


def _rem_eval(inst, rng, n):
    a = [rng.randint(-3, 3) for _ in range(n)]
    b = [rng.randint(-3, 3) for _ in range(n)]
    gens = [[rng.randint(-3, 3) for _ in range(3)] + [1] for _ in range(n)]
    alpha = [rng.randint(-4, 4) for _ in range(n)]
    li = inst.file(f"rem-n{n}-input", _CUBIC_OUTER + _form_lines([a, b]))
    ideal = inst.file(f"rem-n{n}-ideal", _ideal_text(gens))
    inst.ops.append(Op(
        f"rem-eval n={n}",
        ["rem-eval", "--input", li, "--ideal", ideal, "--point", " ".join(map(str, alpha))],
        lambda: {"value": fmt(rem_eval_cubic(a, b, gens, alpha))},
    ))


def _one_point(inst, rng, micro):
    perms = [(1, 4), (1, 13)] if micro else [(1, 8), (1, 12), (1, 16), (2, 8), (2, 14), (3, 8)]
    for r, n in perms:
        _perm(inst, rng, r, n)
    # Three n = 160 evaluations sit at the median cost of the lowrank
    # list, so the median operation does not depend on the rank-2 and
    # rank-3 draws.
    for n in [20] if micro else [20, 40, 80, 160, 160, 160, 320, 560, 640]:
        _rem_eval(inst, rng, n)


# --- lowrank, up to 20 points per evaluator ----------------------------------------

_K2 = [(0, 1)]
_K3 = [(0, 1), (1, 2), (0, 2)]
_C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


def _vc(inst, rng, name, base, sizes, ks):
    # Vertices stay in class order: relabeling changes the congruence
    # diagonalization, and with it the cost, by up to 50x at n = 13.
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    n = starts[-1]
    edges = sorted(
        (a, b)
        for u, v in base
        for a in range(starts[u], starts[u + 1])
        for b in range(starts[v], starts[v + 1])
    )
    g = inst.file(f"vc-{name}", f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    for k in ks:
        inst.ops.append(Op(
            f"vc {name} n={n} k={k}",
            ["vc", "--graph", g, "--k", str(k), "--trials", "20", "--tight",
             "--seed", str(rng.randrange(10**6))],
            lambda k=k: {"decision": "HAS-VC" if has_vertex_cover(n, edges, k) else "NO-VC"},
        ))


def _member_cube(inst, rng, n, width):
    """A rank-2 member of the boolean ideal: prod_t (l1 - t) * (l2 + c).

    l1 sums `width` of the variables, so it takes only the values 0..width on
    0/1 points and the product over t = 0..width vanishes on the whole cube.
    """
    chosen = set(rng.sample(range(n), width))
    l1 = [1 if i in chosen else 0 for i in range(n)]
    l2 = [rng.randint(-2, 2) for _ in range(n)]
    outer = Gates(2)
    z0, z1 = outer.input(0), outer.input(1)
    factors = [outer.add(z0, outer.const(-t)) for t in range(width + 1)]
    factors.append(outer.add(z1, outer.const(rng.randint(1, 3))))
    out = outer.mul(*factors)
    c = inst.file(f"member-n{n}-outer", outer.text(out))
    f = inst.file(f"member-n{n}-forms", _form_lines([l1, l2]))
    ideal = inst.file(f"member-n{n}-ideal", _ideal_text([[0, -1, 1]] * n))
    inst.ops.append(Op(
        f"member lowrank n={n}",
        ["member", "--circuit", c, "--ideal", ideal, "--forms", f, "--mode", "lowrank",
         "--seed", str(rng.randrange(10**6))],
        lambda: {"decision": "MEMBER" if vanishes_on_cube(outer, out, [l1, l2], n) else "NOT-MEMBER"},
    ))


def _many_points(inst, rng, micro):
    if micro:
        _vc(inst, rng, "C4", _C4, [1, 1, 1, 1], (1, 2))
        _vc(inst, rng, "K1,12", _K2, [1, 12], (1,))
        _member_cube(inst, rng, 13, 2)
        return
    # n <= 7: the residue grid 2^n fits the materialization budget
    _vc(inst, rng, "K2,3", _K2, [2, 3], (1, 2))
    _vc(inst, rng, "K3,3", _K2, [3, 3], (2, 3))
    _vc(inst, rng, "K3[2,2,1]", _K3, [2, 2, 1], (2, 3))
    _vc(inst, rng, "K3,4", _K2, [3, 4], (2, 3))
    # n = 13: walked; k = tau - 1 evaluates all 20 points, k = tau stops early
    _vc(inst, rng, "K1,12", _K2, [1, 12], (0, 1))
    _vc(inst, rng, "K2,11", _K2, [2, 11], (2,))
    _vc(inst, rng, "K3,10", _K2, [3, 10], (3,))
    _vc(inst, rng, "K1,1,11", _K3, [1, 1, 11], (2,))
    # l1 over two variables keeps these below the K3[2,2,1] and K3,3
    # operations (wider l1 costs 0.03-0.1 s with the draw), so the median
    # operation is a fixed graph.
    _member_cube(inst, rng, 13, 2)
    _member_cube(inst, rng, 16, 2)


def lowrank(rng, clock, micro=False):
    """Evaluators used at one point, then evaluators used at up to 20."""
    inst = Instances()
    _one_point(inst, rng, micro)
    _many_points(inst, rng, micro)
    return inst


# --- control: mlmd (power ideals) and certify -------------------------------------


def _family_circuit(rng, n, max_deg, steps=5):
    """The acceptance criterion-5 generator: a random DAG of degree <= max_deg."""
    g = Gates(n)
    ids = [g.input(i) for i in range(n)] + [g.const(rng.randint(-3, 3))]
    for _ in range(steps):
        i, j = ids[rng.randrange(len(ids))], ids[rng.randrange(len(ids))]
        if rng.random() < 0.5 and g.degs[i] + g.degs[j] <= max_deg:
            ids.append(g.mul(i, j))
        else:
            ids.append(g.add(i, j))
    return g, ids[-1]


def _mlmd(inst, rng, clock, t, exps, k, jstar):
    """A family circuit of syntactic degree k whose least surviving degree is jstar."""
    n = len(exps)
    for _ in range(20000):
        g, out = _family_circuit(rng, n, k)
        if g.degs[out] != k:
            continue
        with clock:
            found = lowest_surviving_degree(expand(g, out), exps)
        if found == jstar:
            break
    else:
        raise RuntimeError(f"no family circuit with exponents {exps}, k={k}, j*={jstar}")
    c = inst.file(f"mlmd-k{k}", g.text(out))
    inst.ops.append(Op(
        f"mlmd k={k} " + ("in" if jstar is None else f"out j*={jstar}"),
        ["mlmd", "--circuit", c, "--exponents", " ".join(map(str, exps)), "--trials", "auto",
         "--seed", str(50000 + t)],
        lambda: {"decision": "IN-IDEAL" if jstar is None else "NOT-IN-IDEAL"},
    ))


# (exponents, k, least surviving degree or None for IN-IDEAL)
_MLMD_SLOTS = [
    ((2, 2, 1, 3), 1, None),
    ((1, 2, 2), 1, None),
    ((1, 2, 2, 3, 2), 1, 1),
    ((2, 2, 2, 3, 1), 1, 1),
    ((1, 3, 2, 2), 2, None),
    ((2, 1, 3, 2, 2), 2, 1),
    ((2, 2, 2, 2, 3, 1, 2, 3), 3, 1),
    ((2, 3, 1, 2, 2, 3), 2, None),
    ((3, 2, 2, 1, 2, 3), 2, 2),
    ((2, 2, 3, 1, 2, 2, 3), 2, 1),
    ((2, 1, 2, 3), 3, None),
    ((2, 3, 2, 2, 1, 3, 2, 2), 3, 2),
    ((3, 3, 2), 3, 3),
    ((2, 2, 2, 1, 3), 4, 1),
    ((1, 3, 2, 2, 2, 3, 1), 2, 0),
]


MLMD_MICRO = [((2, 2, 1, 3), 1, None), ((1, 2, 2, 3, 2), 1, 1)]


def _certify(inst, rng, n, deg, member):
    """A criterion-7 circuit times p_j(x_j); a nonmember adds c0 + c1 x_i."""
    roots = [rng.sample(range(-6, 7), deg) for _ in range(n)]
    gens = [poly_from_roots(rs) for rs in roots]
    g = Gates(n)
    ids = [g.input(i) for i in range(n)] + [g.const(rng.randint(-4, 4))]
    for _ in range(4):
        u, v = rng.choice(ids), rng.choice(ids)
        ids.append(g.add(u, v) if rng.random() < 0.6 else g.mul(u, v))
    j = rng.randrange(n)
    xj = g.input(j)
    acc = g.const(gens[j][-1])
    for cc in reversed(gens[j][:-1]):
        acc = g.add(g.mul(acc, xj), g.const(cc))
    out = g.mul(ids[-1], acc)
    if not member:
        i = rng.randrange(n)
        c0, c1 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
        out = g.add(out, g.const(c0), g.mul(g.const(c1), g.input(i)))
    tag = f"certify-n{n}-d{deg}"
    c = inst.file(tag, g.text(out))
    ideal = inst.file(tag + "-ideal", _ideal_text(gens))
    label = f"certify {deg}^{n} " + ("member" if member else "nonmember")

    def decision():
        in_ideal = not remainder(expand(g, out), dict(enumerate(gens)))
        return {"decision": "MEMBER" if in_ideal else "NONMEMBER"}

    if member:
        inst.ops.append(Op(label, ["certify", "--circuit", c, "--ideal", ideal, "--search"], decision))
        return
    cert = inst.file(tag + "-cert", "")

    inst.ops.append(Op(
        label + " search",
        ["certify", "--circuit", c, "--ideal", ideal, "--search", "--out-cert", cert],
        lambda: dict(decision(), certificate=cert),
        writes=cert,
        check=lambda text: certificate_names_root(text, roots, g, out),
    ))
    inst.ops.append(Op(
        label + " verify",
        ["certify", "--circuit", c, "--ideal", ideal, "--verify", cert],
        lambda: {"decision": "ACCEPT"},
    ))


# (variables, generator degree, member?): root grids deg^n of 64 to 256
_CERTIFY_SLOTS = [
    (3, 4, True), (3, 4, True), (4, 3, True), (3, 5, True), (4, 4, True),
    (3, 4, False), (3, 4, False), (4, 3, False), (4, 3, False), (4, 4, False),
]


def control(rng, clock, micro=False):
    """mlmd on the criterion-5 family, then certify, each slot drawn once."""
    inst = Instances()
    for t, (exps, k, jstar) in enumerate(MLMD_MICRO if micro else _MLMD_SLOTS):
        _mlmd(inst, rng, clock, t, exps, k, jstar)
    for n, deg, member in [(2, 3, True), (2, 3, False)] if micro else _CERTIFY_SLOTS:
        _certify(inst, rng, n, deg, member)
    return inst


WORKLOADS = {"lowrank": lowrank, "control": control}


def build(workload: str, seed: int, clock, micro=False) -> Instances:
    """The instance set of one workload; depends only on (workload, seed, micro)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), clock, micro)
