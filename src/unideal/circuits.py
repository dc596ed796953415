"""Arithmetic circuits (DAGs of +, *, linear-form and constant gates).

Circuits are the working representation of the input polynomial f everywhere.
They are never flattened implicitly: `expand` takes an explicit monomial cap
and raises CapExceeded when the budget is blown, because full expansion is
meant to happen only after the variable count has been compressed.

DiagonalCircuit is the other representation used here: a common scale times
a sum of scalar multiples of k-th powers of homogeneous linear forms
(`hadamard.build_detection_circuit` builds them through Fischer's identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .fields import rational
from .linalg import LinearForm
from .poly import CapExceeded, SparsePoly, _acc, _mod_terms

__all__ = [
    "Input",
    "Const",
    "Add",
    "Mul",
    "Linear",
    "Circuit",
    "CircuitBuilder",
    "DiagonalCircuit",
    "CapExceeded",
    "expand",
    "homogeneous_part_eval",
    "map_scalars",
    "syntactic_degree",
]


@dataclass(frozen=True)
class Input:
    var: int


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Add:
    children: tuple


@dataclass(frozen=True)
class Mul:
    children: tuple


@dataclass(frozen=True)
class Linear:
    form: LinearForm


class Circuit:
    """DAG of gates; children always precede parents in the node list."""

    __slots__ = ("n", "nodes", "out")

    def __init__(self, n: int, nodes, out: int):
        self.n = n
        self.nodes = tuple(nodes)
        self.out = out
        if not 0 <= out < len(self.nodes):
            raise ValueError("output id out of range")
        for i, node in enumerate(self.nodes):
            if isinstance(node, Input):
                if not 0 <= node.var < n:
                    raise ValueError(f"input variable {node.var} out of range")
            elif isinstance(node, (Add, Mul)):
                if not node.children:
                    raise ValueError("empty gate")
                if any(not 0 <= c < i for c in node.children):
                    raise ValueError("children must precede parents")
            elif isinstance(node, Linear):
                if node.form.n != n:
                    raise ValueError("linear gate arity mismatch")
            elif not isinstance(node, Const):
                raise TypeError(f"unknown node {node!r}")

    def evaluate(self, point):
        """Exact value at a point of ints and Fractions, over QQ.  Over
        GF(p) evaluate on int residues and reduce the value mod p."""
        if len(point) != self.n:
            raise ValueError("point length mismatch")
        vals: list = [None] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if isinstance(node, Input):
                vals[i] = point[node.var]
            elif isinstance(node, Const):
                vals[i] = node.value
            elif isinstance(node, Add):
                acc = vals[node.children[0]]
                for c in node.children[1:]:
                    acc = acc + vals[c]
                vals[i] = acc
            elif isinstance(node, Mul):
                acc = vals[node.children[0]]
                for c in node.children[1:]:
                    acc = acc * vals[c]
                vals[i] = acc
            else:
                vals[i] = node.form.evaluate(point)
        return vals[self.out]

    def __repr__(self):
        return f"Circuit(n={self.n}, {len(self.nodes)} nodes)"


def map_scalars(c: Circuit, fn) -> Circuit:
    """`c` with `fn` applied to every constant and linear-gate coefficient."""
    nodes = []
    for node in c.nodes:
        if isinstance(node, Const):
            node = Const(fn(node.value))
        elif isinstance(node, Linear):
            form = node.form
            node = Linear(LinearForm(tuple(map(fn, form.coeffs)), fn(form.const)))
        nodes.append(node)
    return Circuit(c.n, nodes, c.out)


class CircuitBuilder:
    """Incremental construction helper; returns node ids."""

    def __init__(self, n: int):
        self.n = n
        self.nodes: list = []

    def _push(self, node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def input(self, i: int) -> int:
        return self._push(Input(i))

    def const(self, c) -> int:
        return self._push(Const(c))

    def add(self, *ids: int) -> int:
        return self._push(Add(tuple(ids)))

    def mul(self, *ids: int) -> int:
        return self._push(Mul(tuple(ids)))

    def linear(self, form: LinearForm) -> int:
        return self._push(Linear(form))

    def product(self, ids) -> int:
        """Product gate; an empty list becomes the constant 1."""
        ids = list(ids)
        if not ids:
            return self.const(Fraction(1))
        if len(ids) == 1:
            return ids[0]
        return self.mul(*ids)

    def power(self, node: int, e: int) -> int:
        if e == 0:
            return self.const(Fraction(1))
        if e == 1:
            return node
        return self.mul(*([node] * e))

    def build(self, out: int) -> Circuit:
        return Circuit(self.n, self.nodes, out)


def syntactic_degree(c: Circuit) -> int:
    """Upper bound on the degree, computed gate by gate."""
    deg = [0] * len(c.nodes)
    for i, node in enumerate(c.nodes):
        if isinstance(node, Input):
            deg[i] = 1
        elif isinstance(node, Const):
            deg[i] = 0
        elif isinstance(node, Add):
            deg[i] = max(deg[ch] for ch in node.children)
        elif isinstance(node, Mul):
            deg[i] = sum(deg[ch] for ch in node.children)
        else:
            deg[i] = 1 if any(node.form.coeffs) else 0
    return deg[c.out]


def expand(c: Circuit, monomial_cap: int | None = 10**6, images=None, reducer=None) -> SparsePoly:
    """Exact sparse expansion; aborts with CapExceeded past the term budget.

    Without `images` the result is over QQ, and the circuit's scalars are
    mapped by `fields.rational`.  With `images` (one SparsePoly per input
    variable, all over the same variables and with one modulus p) the
    result is c(images) instead of c itself, and the circuit's scalars must
    already be mapped into the field of modulus p (`map_scalars`).  With a
    `reducer` (a `division._Reducer`) every product and linear gate is
    reduced as soon as it is formed, so intermediate term counts stay within
    the residue grid and the result is the unique remainder; products go through
    `reducer.mul`, which forms a product by a factor of total degree at most
    2 (an image form, its square, or a quadratic form shifted by a constant,
    as in the vertex-cover factors q - s) in shift-and-fold passes, without
    the unreduced product.
    Those products take no cap, and `monomial_cap` (None for none) then
    bounds only the Add gates: a reduced product of degree D over w
    variables has at most C(D + w, w) terms.  Only the gates the output
    reaches are expanded, and none when n exceeds `monomial_cap`: one
    exponent vector would then be longer than the whole term budget.
    """
    n = c.n if images is None else (images[0].n if images else 0)
    if monomial_cap is not None and n > monomial_cap:
        raise CapExceeded(f"{n} variables exceed the term cap {monomial_cap}")
    p = images[0].p if images else None
    reduce = (lambda f: f) if reducer is None else reducer.reduce
    live = {c.out}
    for i in range(c.out, -1, -1):  # children precede parents
        if i in live and isinstance(c.nodes[i], (Add, Mul)):
            live.update(c.nodes[i].children)
    vals: list = [None] * len(c.nodes)
    for i in sorted(live):
        node = c.nodes[i]
        if isinstance(node, Input):
            vals[i] = reduce(SparsePoly.variable(n, node.var) if images is None else images[node.var])
        elif isinstance(node, Const):
            vals[i] = SparsePoly.const(n, node.value, p)
        elif isinstance(node, Add):
            acc = vals[node.children[0]]
            for ch in node.children[1:]:
                acc = acc + vals[ch]
            if monomial_cap is not None and len(acc.terms) > monomial_cap:
                raise CapExceeded(f"term count exceeded cap {monomial_cap}")
            vals[i] = acc
        elif isinstance(node, Mul):
            acc = vals[node.children[0]]
            for ch in node.children[1:]:
                if reducer is None:
                    acc = acc.mul(vals[ch], cap=monomial_cap)
                else:
                    acc = reducer.mul(acc, vals[ch])
            vals[i] = acc
        else:
            # One dict pass over the images, so a gate over plain variables
            # costs O(n) terms rather than n copies of a growing sum.
            terms: dict = {}
            coeffs, const = node.form.coeffs, node.form.const
            if images is None:
                coeffs, const = map(rational, coeffs), rational(const)
            for j, coef in enumerate(coeffs):
                if not coef:
                    continue
                if images is None:
                    e = [0] * n
                    e[j] = 1
                    _acc(terms, tuple(e), coef)
                else:
                    for e, v in images[j].terms.items():
                        _acc(terms, e, coef * v)
            if const:
                _acc(terms, (0,) * n, const)
            vals[i] = reduce(SparsePoly.raw(n, _mod_terms(terms, p), p))
    return vals[c.out]


def homogeneous_part_eval(c: Circuit, k: int, points, p: int) -> list:
    """Values mod p of the degree-k homogeneous component of the circuit at each of `points`.

    The t^k coefficient of f(t * b) for every point b of the block, from one
    pass over the gates in power series truncated after t^k: an input is
    [0, b_i], a constant [c], a linear gate [c_0, sum c_i b_i]; Add is
    coefficient-wise, Mul a truncated convolution.  A gate's t^0
    coefficient, its value at 0, is one scalar shared by the whole block;
    every other coefficient is a list with one value per point (or a scalar 0
    where it vanishes identically), and lists combine elementwise, so the
    per-gate work of the interpreter is paid once per block rather than once
    per point.  Space is
    O(|c| * (k+1) * len(points)); callers bound the block to keep it
    polynomial.  Any prime p works, however small against the degree.  The
    circuit's scalars must already be residues mod p (`map_scalars`), the
    points may hold any ints, each gate's values are reduced mod p once, and
    the values returned are residues in [0, p).
    """
    if any(len(b) != c.n for b in points):
        raise ValueError("point length mismatch")
    size = len(points)
    if not size:
        return []
    columns = [list(col) for col in zip(*points)]
    top = k + 1
    vals: list = [None] * len(c.nodes)
    for i, node in enumerate(c.nodes):
        if isinstance(node, Input):
            s = [0, columns[node.var]]
        elif isinstance(node, Const):
            s = [node.value]
        elif isinstance(node, Add):
            s = []
            for ch in node.children:
                for j, v in enumerate(vals[ch]):
                    if j < len(s):
                        s[j] = _coef_add(s[j], v)
                    else:
                        s.append(v)
        elif isinstance(node, Mul):
            s = vals[node.children[0]]
            for ch in node.children[1:]:
                s = _series_mul(s, vals[ch], top)
        else:
            form = node.form
            lin = 0
            for cc, col in zip(form.coeffs, columns):
                if cc:
                    lin = _coef_add(lin, [cc * x for x in col])
            s = [form.const, lin]
        vals[i] = [[x % p for x in v] if type(v) is list else v % p for v in s[:top]]
    out = vals[c.out]
    v = out[k] if k < len(out) else 0
    return v if type(v) is list else [v] * size


def _coef_add(a, b):
    """Sum of two series coefficients of homogeneous_part_eval.

    Only a t^0 coefficient is a nonzero scalar, so a list meets at most a
    zero scalar here.  Lists are never empty and never changed in place, so
    one may be shared between gates.
    """
    if type(a) is not list:
        return b if type(b) is list else a + b
    return list(map(add, a, b)) if type(b) is list else a


def _coef_mul(a, b):
    """Product of two series coefficients (see `_coef_add`)."""
    if type(a) is list:
        if type(b) is list:
            return list(map(mul, a, b))
        return [x * b for x in a]
    if type(b) is list:
        return [a * y for y in b]
    return a * b


def _series_mul(a: list, b: list, top: int) -> list:
    """Product of two power series in t, truncated to its first `top` terms."""
    out = [0] * min(len(a) + len(b) - 1, top)
    for i, x in enumerate(a[: len(out)]):
        if x:
            for j, y in enumerate(b[: len(out) - i]):
                if y:
                    out[i + j] = _coef_add(out[i + j], _coef_mul(x, y))
    return out


@dataclass(frozen=True)
class DiagonalCircuit:
    """scale * (sum of c_j * (linear form_j)^k), all forms homogeneous."""

    n: int
    degree: int
    summands: tuple  # of (coefficient, LinearForm)
    scale: object = 1

    def __post_init__(self):
        for coef, form in self.summands:
            if form.n != self.n:
                raise ValueError("summand arity mismatch")
            if form.const:
                raise ValueError("summand forms must be homogeneous")

    @property
    def fan_in(self) -> int:
        return len(self.summands)

