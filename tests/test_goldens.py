"""The benchmark's commands print their recorded goldens, byte for byte.

perfbench/goldens/ holds the stdout of every command the benchmark runs.
Running the same commands in process here makes "stdout byte-identical"
part of every test run, not only of a benchmark run.  The benchmark's
`--seed 1` copies of the models, with same-degree generators declared in
another order, must give the same output too, but for the exempt
`fundamental-class:` line.  Only reads perfbench/; nothing there is
written.
"""

import importlib.util
import sys
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


def bench_runner():
    """perfbench/run.py loaded as a module, read only; it imports the
    tracer beside it by its bare name."""
    had_tracer = "tracer" in sys.modules
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        runner = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(runner)
    finally:
        sys.path.remove(str(BENCH))
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return runner


@pytest.mark.parametrize("workload,name,args", CASES[:2],
                         ids=["%s-%s" % (w, n) for w, n, _ in CASES[:2]])
def test_stdout_matches_golden_under_seed_1(workload, name, args, capsys, tmp_path):
    runner = bench_runner()
    path = tmp_path / (name + ".model")
    path.write_text(runner.permute_generators(
        model_path(name).read_text(encoding="utf-8"), 1), encoding="utf-8")
    assert cli.main([args[0], str(path)] + args[1:]) == 0
    golden = (BENCH / "goldens" / workload / (name + ".out")).read_text(encoding="utf-8")
    assert runner.matches_golden(capsys.readouterr().out, golden, 1)
