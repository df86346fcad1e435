"""Plain-text character files.

A file names an algebra, lists weight rows, and may carry an involution:

    algebra: A2+A1
    weights:
    1 0 0 1
    0 1 0 1
    involution:
    0 1 0
    1 0 0
    0 0 1

Weight rows hold the fundamental coordinates followed by the multiplicity.
Lines starting with # and blank lines are ignored on input; emit writes the
canonical form (sorted weights, single spaces, no comments), so parsing an
emitted file and emitting again reproduces it byte for byte.
"""

from __future__ import annotations

from .._record import record
from ..reps import FormalCharacter, SemisimpleAlgebra
from ..rootsys import LatticeInvolution


class CharFileError(ValueError):
    pass


@record
class CharacterFile:
    character: FormalCharacter
    involution: LatticeInvolution | None = None

    @classmethod
    def parse(cls, text: str) -> "CharacterFile":
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

        if len(lines) < 2 or lines[1][1] != "weights:":
            raise CharFileError("expected a 'weights:' section after the algebra line")

        counts: dict[tuple[int, ...], int] = {}
        inv_rows: list[tuple[int, ...]] = []
        section = "weights"
        for lineno, line in lines[2:]:
            if line == "involution:":
                if section == "involution":
                    raise CharFileError(f"line {lineno}: duplicate involution section")
                section = "involution"
                continue
            try:
                nums = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise CharFileError(f"line {lineno}: non-integer entry") from exc
            if section == "weights":
                if len(nums) != rank + 1:
                    raise CharFileError(
                        f"line {lineno}: weight rows need {rank} coordinates "
                        "plus a multiplicity")
                coords, mult = tuple(nums[:rank]), nums[rank]
                if mult < 1:
                    raise CharFileError(f"line {lineno}: multiplicity must be positive")
                counts[coords] = counts.get(coords, 0) + mult
            else:
                if len(nums) != rank:
                    raise CharFileError(
                        f"line {lineno}: involution rows need {rank} entries")
                inv_rows.append(tuple(nums))

        if not counts:
            raise CharFileError("no weight rows")
        fc = FormalCharacter.from_counts(alg, counts)

        involution = None
        if section == "involution":
            if len(inv_rows) != rank:
                raise CharFileError(
                    f"involution matrix needs {rank} rows, got {len(inv_rows)}")
            try:
                involution = LatticeInvolution(tuple(inv_rows))
            except ValueError as exc:
                raise CharFileError(str(exc)) from exc
        return cls(character=fc, involution=involution)

    def emit(self) -> str:
        fc = self.character
        out = [f"algebra: {fc.algebra}", "weights:"]
        for w, m in fc.weights:
            out.append(" ".join(str(c) for c in w) + f" {m}")
        if self.involution is not None:
            out.append("involution:")
            for row in self.involution.matrix:
                out.append(" ".join(str(c) for c in row))
        return "\n".join(out) + "\n"


def read_character_file(path: str) -> CharacterFile:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CharFileError(f"{path}: not UTF-8 text") from exc
    return CharacterFile.parse(text)
