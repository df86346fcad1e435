"""Plain-text character files.

A file names an algebra and lists weight rows:

    algebra: A2+A1
    weights:
    1 0 0 1
    0 1 0 1

Weight rows hold the fundamental coordinates followed by the multiplicity.
Lines starting with # and blank lines are ignored.  Every other line after
`weights:` must be a weight row, so a section header there is refused.  An
algebra of rank above MAX_CHARACTER_RANK is refused before any weight row is
read.
"""

from __future__ import annotations

from ..reps import FormalCharacter, SemisimpleAlgebra


# The root-datum cap.  Matching eliminates rank x rank integer matrices, so
# its time grows like the cube of the rank even for a file of two weights;
# at this rank such a file answers in about 1 s.
MAX_CHARACTER_RANK = 300


class CharFileError(ValueError):
    pass


def parse_character(text: str) -> FormalCharacter:
    """The formal character that the text of a character file describes."""
    lines: list[tuple[int, str]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((idx, stripped))
    if not lines:
        raise CharFileError("empty character file")

    lineno, head = lines[0]
    if not head.startswith("algebra:"):
        raise CharFileError(f"line {lineno}: expected 'algebra: <types>'")
    try:
        alg = SemisimpleAlgebra.parse(head[len("algebra:"):])
    except ValueError as exc:
        raise CharFileError(f"line {lineno}: {exc}") from exc
    rank = alg.rank
    if rank > MAX_CHARACTER_RANK:
        raise CharFileError(
            f"line {lineno}: rank {rank} of {alg} exceeds the character-file limit {MAX_CHARACTER_RANK}")

    if len(lines) < 2 or lines[1][1] != "weights:":
        raise CharFileError("expected a 'weights:' section after the algebra line")

    counts: dict[tuple[int, ...], int] = {}
    for lineno, line in lines[2:]:
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise CharFileError(f"line {lineno}: non-integer entry") from exc
        if len(nums) != rank + 1:
            raise CharFileError(
                f"line {lineno}: weight rows need {rank} coordinates plus a multiplicity")
        coords, mult = tuple(nums[:rank]), nums[rank]
        if mult < 1:
            raise CharFileError(f"line {lineno}: multiplicity must be positive")
        counts[coords] = counts.get(coords, 0) + mult

    if not counts:
        raise CharFileError("no weight rows")
    return FormalCharacter.from_counts(alg, counts)


def read_character_file(path: str) -> FormalCharacter:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CharFileError(f"{path}: not UTF-8 text") from exc
    return parse_character(text)
