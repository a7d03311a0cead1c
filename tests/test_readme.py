"""The README's examples print what the README says they print.

Three examples are run: the `loopspace validate` transcript, compared
line by line with the README's text, and the two Python blocks, whose
`# ...` comments give what each print line shows.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

from test_cli import run as run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    """The bodies of the README's fenced blocks of that language, in
    order; lang "" for the blocks that name none."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
            if tag == lang]


def run_block(code):
    """What the block prints, line by line, and the comment of each of its
    print lines, with the comment lines that continue it joined on."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    notes = []
    for line in code.splitlines():
        if line.startswith("print("):
            notes.append(line.split("# ", 1)[1])
        elif line.lstrip().startswith("# ") and notes:
            notes[-1] += " " + line.lstrip()[2:]
    return out.getvalue().splitlines(), notes


def test_the_validate_transcript():
    transcript = next(b for b in blocks("") if b.startswith("$ loopspace validate "))
    command, *expected = transcript.splitlines()
    _, _, subcommand, path = command.split()
    code, out = run_cli([subcommand, str(ROOT / path)])
    assert out.splitlines() == expected
    assert code == 0 and expected[-1] == "exit-code: 0"


def test_the_library_use_block():
    code = next(b for b in blocks("python") if "verify_theorems" in b)
    out, notes = run_block(code)
    assert len(out) == len(notes) == 3
    assert out[0] == notes[0] == "1 1"
    assert notes[1] == "(n, rank, rank, rank) rows, the three ranks always equal"
    rows = ast.literal_eval(out[1])
    assert rows and all(len(row) == 4 and row[1] == row[2] == row[3] for row in rows)
    assert [row[0] for row in rows] == list(range(1, len(rows) + 1))
    assert notes[2] == "duality map invertible at cochain level?"
    assert out[2] in ("True", "False")


def test_the_loop_betti_block():
    code = next(b for b in blocks("python") if "loop_betti(" in b)
    out, notes = run_block(code)
    assert out == notes == ["1 0 1"]
