"""The benchmark's commands print their recorded goldens, byte for byte.

perfbench/goldens/ holds the stdout of every command the benchmark runs.
Running the same commands in process here makes "stdout byte-identical"
part of every test run, not only of a benchmark run.  Only reads
perfbench/; nothing there is written.
"""

from pathlib import Path

import pytest

import loopspace
from loopspace import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SHIPPED = ("s2", "s3", "cp2", "cp3", "s2xs3", "su3")

CASES = (
    [("verify-s2cubed", "s2cubed", ["verify", "--max-degree", "11"]),
     ("hodge-flag-j2", "flag", ["hodge", "--max-degree", "18", "--jobs", "2"])]
    + [("verify-corpus", name, ["verify", "--max-degree", "26"])
       for name in SHIPPED + ("hp2", "cp2xs3")])


def model_path(name):
    if name in SHIPPED:
        return loopspace.corpus_path(name)
    return BENCH / "models" / (name + ".model")


@pytest.mark.parametrize("workload,name,args", CASES,
                         ids=["%s-%s" % (w, n) for w, n, _ in CASES])
def test_stdout_matches_golden(workload, name, args, capsys):
    argv = [args[0], str(model_path(name))] + args[1:]
    assert cli.main(argv) == 0
    golden = (BENCH / "goldens" / workload / (name + ".out")).read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
