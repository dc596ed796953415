"""Hostile text for the parsers of `unideal.io`.

`parse_scalar` reads an optionally signed run of decimal digits as an int
and any other token as `Fraction(tok)` does.  The differential check holds
it to `Fraction`, value or ValueError, on a fixed list of edge cases and on
generated tokens: signs, whitespace, underscores, non-ASCII digits, decimal
points, exponents and zero denominators.  Whether "1_000" is a number
depends on the Python version (3.10's `Fraction` rejects it, 3.11's reads
it), so the check also runs as a plain script, for interpreters without
pytest or hypothesis, on the fixed list and seeded random tokens:

    PYTHONPATH=src python tests/test_parsers.py

Generated exponents have at most three digits: `Fraction("1e999999999")`
builds 10**999999999.  The parser's one divergence from `Fraction` is
there: it refuses a token whose exponent exceeds `io.MAX_EXPONENT` (4300,
CPython's digit limit for int(str)) in absolute value, or is written with
more digits than that, with ValueError.  The exponent check holds that
bound without calling `Fraction` on a token past it.

The fuzz tests feed every text parser (`parse_ideal`, `parse_lowrank`,
`parse_point`, `parse_circuit`, `parse_graph`, `parse_matrix`,
`parse_forms`, `parse_certificate`, `parse_klineq` and
`parse_one_in_three`) text built from the formats' own words, and valid
files with tokens deleted, repeated or replaced.  Every input must parse
or raise ValueError, which the CLI reports as a usage error (exit 2)
rather than a traceback.
"""

from __future__ import annotations

import random
import re
import sys
import time
from fractions import Fraction

from unideal import io as uio

EDGE_TOKENS = [
    "0", "-0", "+0", "7", "+7", "-7", "007", " 12 ", "\t-3\n", "\xa05", "5 ",
    "1_000", "-1_000", "1__000", "_1", "1_", "1_/2", "1/2_0",
    "٣", "-٣٣", "１２", "²", "1²", "①",
    "3.0", "-3.0", "3.", ".5", "-.5", ".", "3.5", "1.d",
    "1e3", "1E3", "-2e-2", "1e+3", "1.5e2", "e3", "1e", "1e3.0",
    "1/0", "-1/0", "0/0", "1/2", "-4/6", "+4/-6", "1 /2", "1/ 2", "1//2", "/2", "2/",
    "", " ", "+", "-", "+-1", "--1", "++1", "- 1", "0x10", "0b1", "inf", "nan", "1j", "1\x00",
    "9" * 5000, "-" + "9" * 4300,
]

# Characters of generated tokens; "e" and "E" come only from _exponent_token.
ALPHABET = "0123456789+-_/. \t\xa0٣²１x"


def _reference(tok: str):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return ValueError


def check_scalar(tok: str):
    """parse_scalar(tok) is Fraction(tok), or both reject tok; an integer
    token comes back as an int."""
    want = _reference(tok)
    try:
        got = uio.parse_scalar(tok)
    except ValueError:
        got = ValueError
    assert (got is ValueError) == (want is ValueError), (tok, got, want)
    if got is not ValueError:
        assert got == want, (tok, got, want)
        assert type(got) in (int, Fraction), (tok, got)
        if re.fullmatch(r"[+-]?\d+", tok):
            assert type(got) is int, (tok, got)


def _exponent_token(rng: random.Random) -> str:
    digits = "0123456789٣"
    mantissa = "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.5:
        mantissa += "." + "".join(rng.choice(digits) for _ in range(rng.randint(0, 2)))
    exponent = rng.choice(["", "+", "-"]) + "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))
    return rng.choice("+- ")[: rng.randint(0, 1)] + mantissa + rng.choice("eE") + exponent


def random_tokens(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            yield _exponent_token(rng)
        else:
            yield "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 7)))


# Past the exponent bound; Fraction would build 10**|exponent| for most.
HUGE_EXPONENT_TOKENS = ["1e4301", "-1e-4301", "1e999999999", "1E+4_301", ".5e-99999", "1e" + "0" * 4301 + "1"]


def check_exponent_bound():
    """The bound itself parses as Fraction reads it; every token past it
    raises ValueError at once."""
    bound = uio.MAX_EXPONENT
    for tok in (f"1e{bound}", f"-1e-{bound}", f"2.5E+{bound}"):
        assert uio.parse_scalar(tok) == Fraction(tok), tok
    for tok in HUGE_EXPONENT_TOKENS:
        start = time.perf_counter()
        try:
            got = uio.parse_scalar(tok)
        except ValueError:
            got = ValueError
        assert got is ValueError, tok[:40]
        assert time.perf_counter() - start < 0.5, tok[:40]


def test_parse_scalar_edge_tokens():
    for tok in EDGE_TOKENS:
        check_scalar(tok)


def test_parse_scalar_bounds_exponents():
    check_exponent_bound()


def test_cli_rejects_huge_exponent_point(tmp_path, capsys):
    from unideal.cli import main

    (tmp_path / "lr.txt").write_text("vars 1\nin 0\nmul 0 0\nout 1\nform 1 1\n")
    (tmp_path / "sq.txt").write_text("var 0 : 0 0 1\nvar 1 : 0 0 1\n")
    start = time.perf_counter()
    code = main(["rem-eval", "--input", str(tmp_path / "lr.txt"), "--ideal", str(tmp_path / "sq.txt"),
                 "--point", "1 1e999999999"])
    assert code == 2 and time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: exponent")


if __name__ == "__main__":
    tokens = EDGE_TOKENS + list(random_tokens(0, 20000))
    for tok in tokens:
        check_scalar(tok)
    check_exponent_bound()
    print(f"parse_scalar agrees with Fraction on {len(tokens)} tokens (Python {sys.version.split()[0]})")
    sys.exit(0)


# The hypothesis tests; the script above runs without pytest or hypothesis.
import pytest  # noqa: E402
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_no_exponent = st.characters(blacklist_categories=("Cs",)).filter(lambda c: not re.fullmatch("e", c, re.I))
_digit_runs = st.from_regex(r"\A\s?[+-]?\d{1,4}(_\d{1,3})?\s?\Z")
_exponents = st.from_regex(r"\A[+-]?\d{0,3}(\.\d{0,2})?[eE][+-]?\d{1,3}\Z")


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(st.sampled_from(ALPHABET), max_size=8),
    st.text(_no_exponent, max_size=6),
    _digit_runs,
    _exponents,
    st.fractions().map(str),
    st.integers().map(str),
))
def test_parse_scalar_agrees_with_fraction(tok):
    check_scalar(tok)


# --- parser fuzzing -----------------------------------------------------------

VALID_LOWRANK = "vars 2\nin 0\nin 1\nmul 0 0 1\nlin 1 -2 + 1/2\nadd 2 3 0\nout 4\nform 1 0 -3\nform 0 2 1 + 5\n"
VALID_IDEAL = "var 0 : -1 0 1\nvar 1 : 2 -1 0 1  # a cubic\nvar 2 : 1/2 1\n"
VALID_POINT = "1, -2 3/4"

WORDS = ["vars", "in", "const", "add", "mul", "lin", "out", "form", "var", ":", "+", "#", ",",
         "0", "1", "2", "3", "-1", "1/2", "1/0", "2.5", "1_0", "٣", "x", "-", "/", "99999999999"]



def _texts(words):
    """Lines of up to six of `words`, up to eight lines."""
    return st.lists(st.lists(st.sampled_from(words), max_size=6).map(" ".join), max_size=8).map("\n".join)


_word_texts = _texts(WORDS)


@st.composite
def _mutations(draw, text):
    """`text` with a few of its tokens deleted, repeated or replaced, and
    maybe a line break moved."""
    toks = re.split(r"( |\n)", text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(toks) - 1))
        how = draw(st.sampled_from(["delete", "repeat", "replace"]))
        if how == "delete":
            del toks[i]
        elif how == "repeat":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from(WORDS + [" ", "\n", ""]))
        if not toks:
            break
    return "".join(toks)


def _parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(_word_texts, _mutations(VALID_LOWRANK)))
def test_parse_lowrank_raises_only_value_error(text):
    _parses_or_value_error(uio.parse_lowrank, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_word_texts, _mutations(VALID_IDEAL)))
@example("var 0 : -1 0 1\nvar 0 : 1/2 1\n")  # two different generators for one variable
def test_parse_ideal_raises_only_value_error(text):
    _parses_or_value_error(uio.parse_ideal, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_word_texts, _mutations(VALID_POINT), st.text(st.sampled_from(ALPHABET + ",\n"), max_size=12)))
def test_parse_point_raises_only_value_error(text):
    _parses_or_value_error(uio.parse_point, text)


# Each remaining parser: its valid file and the words of its format, beside
# the number tokens every format shares.
NUMBER_WORDS = ["0", "1", "2", "3", "-1", "1/2", "1/0", "2.5", "1_0", "٣", "x", "-", "/", "+", "#", "99999999999"]
FORMATS = {
    "circuit": (uio.parse_circuit, "vars 2\nin 0\nin 1\nmul 0 1\nconst -1/2\nlin 1 -2 + 3\nadd 2 3 4\nout 5\n",
                ["vars", "in", "const", "add", "mul", "lin", "out"]),
    "graph": (uio.parse_graph, "4 3\n0 1\n1 2 # a path\n2 3\n", []),
    "matrix": (uio.parse_matrix, "1 2 1/2\n0 -1 3\n", []),
    "forms": (uio.parse_forms, "form 1 0 -3\nform 0 2 1 + 5\n", ["form"]),
    "certificate": (uio.parse_certificate, "1/2 -3/4\n0 1\n", []),
    "klineq": (uio.parse_klineq, "2 3\n1 0\n1 1 0\n0 1 1\n", []),
    "one_in_three": (uio.parse_one_in_three, "4 2\n0 1 2\n1 2 3\n", []),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_format_parsers_raise_only_value_error(name):
    parse, valid, words = FORMATS[name]
    parse(valid)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_texts(words + NUMBER_WORDS), _mutations(valid)))
    def check(text):
        _parses_or_value_error(parse, text)

    check()


def test_valid_files_parse():
    inp = uio.parse_lowrank(VALID_LOWRANK)
    assert inp.n == 3 and len(inp.forms) == 2
    assert [g.degree() for _, g in uio.parse_ideal(VALID_IDEAL).generators] == [2, 3, 1]
    assert uio.parse_point(VALID_POINT) == [1, -2, Fraction(3, 4)]
