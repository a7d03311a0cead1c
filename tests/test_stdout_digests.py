"""Every command prints what it printed when the digests were recorded.

tests/stdout_digests.txt lists, one run a line, the command, the model,
the format, the exit code and the sha256 of stdout, for the six
commands in text and JSON on the shipped, benchmark and fixture models,
at --max-degree 14 (11 for s2cubed, whose slices grow fastest).  A
change that must keep every output byte passes this test unchanged.

To record the table again, only for a change that means to alter
output:

    PYTHONPATH=src python tests/test_stdout_digests.py > tests/stdout_digests.txt
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

import loopspace
from loopspace import cli

TESTS = Path(__file__).resolve().parent
TABLE = TESTS / "stdout_digests.txt"
COMMANDS = ("validate", "betti", "hodge", "quotient", "aut-ranks", "verify")
SHIPPED = ("s2", "s3", "cp2", "cp3", "s2xs3", "su3")
BENCH = ("cp2xs3", "flag", "hp2", "s2cubed")
FIXTURES = ("massey", "nonintegral", "not_pd", "s2xs2", "s2xs3_twisted")


def model_path(name):
    if name in SHIPPED:
        return str(loopspace.corpus_path(name))
    folder = TESTS.parent / "perfbench" / "models" if name in BENCH else TESTS / "fixtures"
    return str(folder / (name + ".model"))


def digest(command, name, fmt):
    """(exit code, sha256 hex of stdout) of one in-process run."""
    degree = "11" if name == "s2cubed" else "14"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, model_path(name), "--max-degree", degree,
                         "--format", fmt])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def recorded():
    """The rows of the table; none while it is being recorded, which
    `test_the_table_covers_every_run` then reports."""
    rows = []
    if not TABLE.exists():
        return rows
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        command, name, fmt, code, sha = line.split()
        rows.append((command, name, fmt, int(code), sha))
    return rows


ROWS = recorded()


def test_the_table_covers_every_run():
    assert [row[:3] for row in ROWS] == [
        (command, name, fmt) for command in COMMANDS
        for name in SHIPPED + BENCH + FIXTURES for fmt in ("text", "json")]


@pytest.mark.parametrize("command,name,fmt,code,sha", ROWS,
                         ids=["%s-%s-%s" % row[:3] for row in ROWS])
def test_stdout_matches_its_recorded_digest(command, name, fmt, code, sha):
    assert digest(command, name, fmt) == (code, sha)


if __name__ == "__main__":
    for command in COMMANDS:
        for name in SHIPPED + BENCH + FIXTURES:
            for fmt in ("text", "json"):
                sys.stdout.write("%s %s %s %d %s\n" % (
                    (command, name, fmt) + digest(command, name, fmt)))
