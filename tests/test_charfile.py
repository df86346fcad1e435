"""Character file parsing, and a canonical writer for the round trip."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice.reps import SemisimpleAlgebra, irreducible_character
from charlattice.verifycli.charfile import (CharFileError, parse_character,
                                            read_character_file)

README = Path(__file__).resolve().parent.parent / "README.md"


def emit(fc) -> str:
    """The canonical text of a character: sorted weights, single spaces, no
    comments, so parsing it and emitting again reproduces it byte for byte."""
    out = [f"algebra: {fc.algebra}", "weights:"]
    out += [" ".join(map(str, w)) + f" {m}" for w, m in fc.weights]
    return "\n".join(out) + "\n"


def test_parse_minimal():
    fc = parse_character("algebra: A1\nweights:\n-1 1\n1 1\n")
    assert str(fc.algebra) == "A1"
    assert fc.counts() == {(-1,): 1, (1,): 1}


def test_parse_accepts_comments_and_blanks():
    text = """
    # standard of sl2, doubled
    algebra: A1

    weights:
    -1 1   # lower weight
    -1 1
    1 2
    """
    fc = parse_character(text)
    assert fc.counts() == {(-1,): 2, (1,): 2}


def test_emit_is_canonical_fixed_point():
    text = "algebra: A2\nweights:\n2 0 1\n0 1 3\n-1 -1 2\n"
    emitted = emit(parse_character(text))
    assert emit(parse_character(emitted)) == emitted
    # emitted form sorts the weights
    assert emitted.index("-1 -1 2") < emitted.index("0 1 3") < emitted.index("2 0 1")


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("weights:\n1 1\n", "algebra"),
    ("algebra: Z9\nweights:\n1 1\n", "line 1"),
    ("algebra: A1\n1 1\n", "weights"),
    ("algebra: A1\nweights:\n1 2 3\n", "line 3"),
    ("algebra: A1\nweights:\nx 1\n", "non-integer"),
    ("algebra: A1\nweights:\n1 0\n", "positive"),
    ("algebra: A1\nweights:\n", "no weight rows"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(CharFileError, match=fragment):
        parse_character(text)


def test_involution_section_is_refused():
    text = "algebra: A1+A1\nweights:\n1 1 1\n-1 -1 1\ninvolution:\n0 1\n1 0\n"
    with pytest.raises(CharFileError, match="^line 5: "):
        parse_character(text)


def test_read_character_file(tmp_path):
    p = tmp_path / "std.char"
    p.write_text("algebra: A2\nweights:\n1 0 1\n-1 1 1\n0 -1 1\n", encoding="utf-8")
    assert read_character_file(str(p)).size == 3


def test_readme_example_parses(tmp_path):
    """The character file shown in the README is one that the reader accepts."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"Character files are plain text:\n\n```\n(.*?)```", readme, re.S)
    p = tmp_path / "readme.char"
    p.write_text(block.group(1), encoding="utf-8")
    fc = read_character_file(str(p))
    assert fc == irreducible_character(fc.algebra, (1, 0))


@settings(max_examples=25, deadline=None)
@given(hw=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_irreducible_characters_roundtrip(hw):
    fc = irreducible_character(SemisimpleAlgebra.parse("A2"), hw)
    again = parse_character(emit(fc))
    assert again == fc
    assert emit(again) == emit(fc)
