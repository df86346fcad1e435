"""Fuzzed input to the three readers of outside text: character files,
multiset files and weight arguments.

Every input ends in an answer or in exit 2 with a one-line `error:` message;
no reader lets an exception other than its typed error escape.
"""

import contextlib
import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice.reps import SemisimpleAlgebra
from charlattice.verifycli.charfile import CharFileError, parse_character
from charlattice.verifycli.cli import UsageError, _parse_hw, main
from charlattice.verifycli.commands import _read_multiset
from test_charfile import emit

ALGEBRAS = ["A1", "A2", "A1+A1", "B2", "G2", "C3", "A2+A1", "E9", "A0", "X3", "a2",
            "A²", "A١", "", "A1 A1", "A-1", "+", "A99", "D3", "B1"]
INTEGER = st.one_of(st.integers(-4, 4), st.integers(-10**30, 10**30)).map(str)
TOKEN = st.one_of(INTEGER, st.sampled_from(["x", "1.5", "²", "١", "--1", "+2",
                                            "1_0", "0x1", "", "#", ";", ","]),
                  st.text(string.printable + "²١ω", max_size=4))


def row(width):
    return st.lists(TOKEN, min_size=0, max_size=width).map(" ".join)


LINE = st.one_of(
    st.sampled_from(ALGEBRAS).map(lambda a: f"algebra: {a}"),
    st.sampled_from(["weights:", "involution:", "# comment", "", "algebra:"]),
    row(5), st.lists(INTEGER, min_size=1, max_size=4).map(" ".join),
    st.text(max_size=12))


def document(lines):
    return st.lists(lines, max_size=10).map("\n".join)


def _rank(name: str) -> int:
    try:
        return SemisimpleAlgebra.parse(name).rank
    except ValueError:
        return 2


@st.composite
def near_valid_character_file(draw):
    """A character file that is mostly well formed: a known algebra, rows of
    about the right width, small entries, sometimes an involution section
    (which the reader refuses), then sometimes a line replaced or inserted at
    random."""
    name = draw(st.sampled_from(["A1", "A2", "A1+A1", "B2", "G2", "C3"] * 3 + ALGEBRAS))
    rank = _rank(name)
    coord = st.integers(-2, 2).map(str)
    mult = st.sampled_from(["1", "2", "3"] * 4 + ["0", "-1"])
    lines = [f"algebra: {name}", "weights:"]
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.sampled_from([rank] * 8 + [rank - 1, rank + 1]))
        lines.append(" ".join(draw(st.lists(coord, min_size=width, max_size=width))
                              + [draw(mult)]))
    if draw(st.booleans()):
        lines.append("involution:")
        sign = draw(st.sampled_from([1, -1]))
        flip = draw(st.booleans())
        for i in range(draw(st.sampled_from([rank] * 3 + [rank - 1, rank + 1]))):
            entries = [sign * int(j == (rank - 1 - i if flip else i)) for j in range(rank)]
            if draw(st.integers(0, 4)) == 0:
                entries = draw(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank))
            lines.append(" ".join(map(str, entries)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            lines[at] = draw(LINE)
        else:
            lines.insert(at, draw(LINE))
    return "\n".join(lines)


CHARFILE = st.one_of(near_valid_character_file(), near_valid_character_file(),
                     document(LINE), st.text(max_size=60))


def run(*argv):
    """main(argv) with its output captured: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_answer_or_usage_error(code, out, err):
    if code == 0:
        return
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(CHARFILE)
def test_character_file_parse_answers_or_raises_its_error(text):
    try:
        parsed = parse_character(text)
    except CharFileError:
        return
    assert parse_character(emit(parsed)) == parsed


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(CHARFILE.map(lambda t: t.encode("utf-8")), st.binary(max_size=40)))
def test_samechar_on_fuzzed_files_exits_0_or_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.char"
    path.write_bytes(data)
    assert_answer_or_usage_error(*run("samechar", str(path), str(path)))


MSET_LINE = st.one_of(row(4), st.lists(INTEGER, min_size=1, max_size=3).map(" ".join),
                      st.sampled_from(["", "# c", "1 2 # c", "\t1\t2"]))
NEAR_VALID_MSET = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.one_of(*[st.lists(st.integers(-3, 3).map(str), min_size=width, max_size=width)
                .map(" ".join)] * 6, MSET_LINE), min_size=1, max_size=8)).map("\n".join)
MSET = st.one_of(NEAR_VALID_MSET.map(lambda t: t.encode("utf-8")),
                 document(MSET_LINE).map(lambda t: t.encode("utf-8")),
                 st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(data=MSET, torsion=st.integers(1, 5))
def test_read_multiset_answers_or_raises_usage_error(tmp_path_factory, data, torsion):
    path = tmp_path_factory.getbasetemp() / "fuzz.mset"
    path.write_bytes(data)
    try:
        mset = _read_multiset(str(path), torsion)
    except UsageError:
        return
    assert mset.size >= 1


@settings(max_examples=150, deadline=None)
@given(data=MSET, torsion=st.integers(-1, 5), profile=st.sampled_from(["2,2", "1,3", "2,x", ""]))
def test_factorize_on_fuzzed_files_exits_0_or_2(tmp_path_factory, data, torsion, profile):
    path = tmp_path_factory.getbasetemp() / "fuzz.mset"
    path.write_bytes(data)
    assert_answer_or_usage_error(
        *run("factorize", str(path), "--profile", profile, "--torsion", str(torsion)))


WEIGHT = st.one_of(
    st.lists(st.integers(-1, 3).map(str), min_size=1, max_size=5).map(",".join),
    st.integers(-1, 9).map(lambda i: f"w{i}"),
    st.lists(TOKEN, min_size=1, max_size=5).map(",".join),
    st.lists(TOKEN, min_size=1, max_size=5).map(";".join),
    st.tuples(st.sampled_from(["w", "W", "omega", "ω", " w"]), TOKEN).map("".join),
    st.text(max_size=10))


@pytest.mark.parametrize("name", ["A1", "A3", "B2+A1", "G2"])
@settings(max_examples=100, deadline=None)
@given(text=WEIGHT)
def test_parse_hw_answers_or_raises_usage_error(name, text):
    alg = SemisimpleAlgebra.parse(name)
    try:
        flat = _parse_hw(alg, text)
    except UsageError:
        return
    assert len(flat) == alg.rank and all(type(c) is int for c in flat)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), text=WEIGHT)
def test_dim_on_fuzzed_arguments_exits_0_or_2(name, text):
    assert_answer_or_usage_error(*run("dim", "--", name, text))
