"""Text formats for matrices, circuits, ideals, graphs, forms and certificates.

All numbers are decimal integers or "a/b" rationals.  Formats:

  matrix       one row per line, whitespace-separated entries
  circuit      "vars n", then one gate per line ("in i", "const a/b",
               "add id id ...", "mul id id ...", "lin c1 ... cn [+ c0]"),
               then "out id"; gate ids are 0-based line positions
  ideal        one generator per line: "var i : c0 c1 ... cd" (low to high)
  graph        "n m" then m lines "u v" with 0-based vertices
  low-rank     a circuit file for the outer polynomial followed by
               "form c1 ... cn [+ c0]" lines, one per linear form
  certificate  n lines "re_num/re_den im_num/im_den"
  klineq       "k n", then b as k entries, then the k rows of A
  one-in-three "v c" then c lines of three 0-based variable indices
"""

from __future__ import annotations

import re
from fractions import Fraction

from .apps import Graph
from .certifier import Certificate
from .circuits import Add, Circuit, Const, Input, Linear, Mul
from .division import UnivariateIdeal
from .linalg import LinearForm, Matrix
from .lowrank import LowRankInput
from .poly import UnivariatePoly
from .reductions import KLinEqInstance, OneInThreeInstance

__all__ = [
    "parse_scalar",
    "format_scalar",
    "parse_matrix",
    "parse_circuit",
    "write_circuit",
    "parse_ideal",
    "write_ideal",
    "parse_graph",
    "parse_lowrank",
    "write_lowrank",
    "parse_certificate",
    "write_certificate",
    "parse_point",
    "parse_klineq",
    "write_klineq",
    "parse_one_in_three",
]


# Largest exponent a scalar token may carry, in absolute value: the digit
# limit CPython applies to int(str) (sys.int_info.default_max_str_digits).
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_scalar(tok: str) -> int | Fraction:
    """A scalar token: an optionally signed run of decimal digits as the int
    it is, any other token as `Fraction(tok)` reads it.

    The int path takes only tokens that `Fraction` reads as the same
    integer, so a token parses exactly when `Fraction(tok)` does (the
    Python version decides, for instance, whether "1_000" is a number),
    with one exception: a token whose exponent exceeds MAX_EXPONENT in
    absolute value, or is written with more digits than that, raises
    ValueError, where `Fraction("1e999999999")` would build 10**999999999.
    """
    if (tok[1:] if tok[:1] in ("+", "-") else tok).isdecimal():
        return int(tok)
    exp = _EXPONENT.search(tok)
    if exp:
        digits = exp[1].replace("_", "") or "0"
        if len(digits) > MAX_EXPONENT or int(digits) > MAX_EXPONENT:
            raise ValueError(f"exponent of {tok[:40]!r} exceeds {MAX_EXPONENT} in absolute value")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None


def format_scalar(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _content_lines(text: str):
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            yield line


def parse_matrix(text: str) -> Matrix:
    rows = [[parse_scalar(t) for t in line.split()] for line in _content_lines(text)]
    if not rows:
        raise ValueError("empty matrix file")
    return Matrix(rows)


def parse_point(text: str):
    return [parse_scalar(t) for t in text.replace(",", " ").split()]


def _parse_lin_tokens(toks, n):
    if "+" in toks:
        at = toks.index("+")
        if at != len(toks) - 2:
            raise ValueError('a linear form ends in "+ c0"')
        coeffs = toks[:at]
        const = parse_scalar(toks[at + 1])
    else:
        coeffs = toks
        const = 0
    if len(coeffs) != n:
        raise ValueError(f"linear form needs {n} coefficients, got {len(coeffs)}")
    return LinearForm(tuple(parse_scalar(t) for t in coeffs), const)


def parse_circuit(text: str) -> Circuit:
    lines = list(_content_lines(text))
    return _parse_circuit_lines(lines)


def _parse_circuit_lines(lines) -> Circuit:
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "vars":
        raise ValueError('circuit file must start with "vars n"')
    n = int(head[1])
    nodes = []
    out = None
    for line in lines[1:]:
        toks = line.split()
        kind = toks[0]
        if kind in ("in", "const", "out") and len(toks) != 2:
            raise ValueError(f'"{kind}" takes one argument: {line}')
        if kind == "in":
            nodes.append(Input(int(toks[1])))
        elif kind == "const":
            nodes.append(Const(parse_scalar(toks[1])))
        elif kind == "add":
            nodes.append(Add(tuple(int(t) for t in toks[1:])))
        elif kind == "mul":
            nodes.append(Mul(tuple(int(t) for t in toks[1:])))
        elif kind == "lin":
            nodes.append(Linear(_parse_lin_tokens(toks[1:], n)))
        elif kind == "out":
            out = int(toks[1])
        else:
            raise ValueError(f"unknown circuit line: {line}")
    if out is None:
        raise ValueError('circuit file is missing the "out id" line')
    return Circuit(n, nodes, out)


def write_circuit(c: Circuit) -> str:
    lines = [f"vars {c.n}"]
    for node in c.nodes:
        if isinstance(node, Input):
            lines.append(f"in {node.var}")
        elif isinstance(node, Const):
            lines.append(f"const {format_scalar(node.value)}")
        elif isinstance(node, Add):
            lines.append("add " + " ".join(map(str, node.children)))
        elif isinstance(node, Mul):
            lines.append("mul " + " ".join(map(str, node.children)))
        else:
            bits = "lin " + " ".join(format_scalar(x) for x in node.form.coeffs)
            if node.form.const:
                bits += " + " + format_scalar(node.form.const)
            lines.append(bits)
    lines.append(f"out {c.out}")
    return "\n".join(lines) + "\n"


def parse_ideal(text: str) -> UnivariateIdeal:
    gens = []
    for line in _content_lines(text):
        toks = line.split()
        if len(toks) < 3 or toks[0] != "var" or toks[2] != ":":
            raise ValueError(f'ideal line must look like "var i : c0 c1 ...": {line}')
        var = int(toks[1])
        coeffs = [parse_scalar(t) for t in toks[3:]]
        gens.append((var, UnivariatePoly(coeffs)))
    if not gens:
        raise ValueError("empty ideal file")
    return UnivariateIdeal(tuple(sorted(gens, key=lambda g: g[0])))


def write_ideal(ideal: UnivariateIdeal) -> str:
    lines = []
    for var, p in ideal.generators:
        lines.append(f"var {var} : " + " ".join(format_scalar(c) for c in p.coeffs))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = list(_content_lines(text))
    if not lines:
        raise ValueError('graph file must start with "n m"')
    n, m = (int(t) for t in lines[0].split())
    edges = []
    for line in lines[1 : m + 1]:
        u, v = (int(t) for t in line.split())
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError("edge count mismatch")
    return Graph.from_edges(n, edges)


def parse_lowrank(text: str) -> LowRankInput:
    lines = list(_content_lines(text))
    outer = _parse_circuit_lines([l for l in lines if not l.startswith("form ")])
    return LowRankInput(outer, _parse_form_lines(lines))


def parse_forms(text: str):
    """Standalone "form c1 ... cn [+ c0]" lines."""
    return _parse_form_lines(_content_lines(text))


def _parse_form_lines(lines) -> tuple:
    """The forms of the "form ..." lines among `lines`; the first sets n."""
    rows = [l.split()[1:] for l in lines if l.startswith("form ")]
    if not rows:
        raise ValueError("no form lines found")
    n = len(rows[0]) - (2 if "+" in rows[0] else 0)
    return tuple(_parse_lin_tokens(toks, n) for toks in rows)


def write_lowrank(inp: LowRankInput) -> str:
    out = write_circuit(inp.outer)
    for f in inp.forms:
        line = "form " + " ".join(format_scalar(c) for c in f.coeffs)
        if f.const:
            line += " + " + format_scalar(f.const)
        out += line + "\n"
    return out


def parse_certificate(text: str) -> Certificate:
    values = []
    for line in _content_lines(text):
        re_tok, im_tok = line.split()
        values.append((parse_scalar(re_tok), parse_scalar(im_tok)))
    return Certificate(tuple(values))


def write_certificate(cert: Certificate) -> str:
    return "\n".join(
        f"{re.numerator}/{re.denominator} {im.numerator}/{im.denominator}" for re, im in cert.values
    ) + "\n"


def parse_klineq(text: str) -> KLinEqInstance:
    lines = list(_content_lines(text))
    if len(lines) < 2:
        raise ValueError('k-lin-eq file must start with "k n" and the line of b')
    k, n = (int(t) for t in lines[0].split())
    b = tuple(int(t) for t in lines[1].split())
    rows = tuple(tuple(int(t) for t in line.split()) for line in lines[2 : 2 + k])
    if len(b) != k or len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError("inconsistent k-lin-eq file")
    return KLinEqInstance(rows, b)


def write_klineq(inst: KLinEqInstance) -> str:
    lines = [f"{inst.k} {inst.n}", " ".join(map(str, inst.b))]
    lines += [" ".join(map(str, row)) for row in inst.a]
    return "\n".join(lines) + "\n"


def parse_one_in_three(text: str) -> OneInThreeInstance:
    lines = list(_content_lines(text))
    if not lines:
        raise ValueError('one-in-three file must start with "v c"')
    v, c = (int(t) for t in lines[0].split())
    clauses = tuple(tuple(int(t) for t in line.split()) for line in lines[1 : c + 1])
    if len(clauses) != c:
        raise ValueError("clause count mismatch")
    return OneInThreeInstance(v, clauses)
