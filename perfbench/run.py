#!/usr/bin/env python3
"""Benchmark of the loopspace command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs nothing beyond the
standard library and the sources under `src/`.  Each workload iteration
runs fresh `python -m loopspace.cli ...` processes one after another, since
every user run starts cold (the `gca.basis_of_degree` cache would
otherwise stay warm).  Every run's exit code and stdout are checked
against the goldens under perfbench/goldens/, the tool's seed-0 output.
A change that alters that output on purpose records new goldens in its
own diff and says why.

`--seed` permutes the declaration order of same-degree generators in
every model (seed 0 keeps the files as written).  That changes the pivot
order in the rank kernel but not the answers: only the
`fundamental-class:` note may read differently, so for other seeds that
line is exempt from the golden comparison.

With `--trace 0` the run prints the end-to-end metrics, each a median over
the samples of the run, each timed sample scaled to a reference machine
speed measured by a calibration load run before and after it (see
CALIBRATION): `wall_s` (one iteration, interpreter starts included),
`cpu_s` (user+sys of its processes from `os.wait4`, pool workers
included), `peak_rss_mb` (the largest `ru_maxrss` among them) and
`setup_s` (a fresh interpreter running `import loopspace.cli`).  It also
prints `error_rate`: failed CLI runs over attempted ones, where a run
fails on a non-zero exit code, a timeout or a stdout that differs from
the golden.  Other failed checks (the set-up check of the models, the
serial probe, counts that differ between traced iterations) make the run
incorrect without counting as failed CLI runs.  CLI processes run one at
a time; only hodge-flag-j2 starts a pool, of min(2, nproc) workers.

With `--trace 1` untraced iterations alternate
with traced ones (perfbench/tracer.py), and the per-layer metrics derived
from the recorded spans are printed.  Every exact count (see EXACT) must
repeat across the run's traced iterations, at least MIN_ITERATIONS of
them, each in fresh processes.  A layer's self time is the time
inside its spans minus the time inside their child spans, summed over
every process of the run, pool workers included.
The last line of stdout is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDENS = BENCH / "goldens"

SHIPPED = ("s2", "s3", "cp2", "cp3", "s2xs3", "su3")
OWN = ("s2cubed", "flag", "hp2", "cp2xs3")
JOBS = min(2, os.cpu_count() or 1)
TIMEOUT_S = 60          # one CLI process; a run that takes longer fails
MIN_ITERATIONS = 3
PROBES_PER_ITERATION = 2
CALIBRATION_REF_S = 0.2


@dataclass(frozen=True)
class Workload:
    command: str
    models: tuple
    options: tuple
    roadmap: str
    why: str


WORKLOADS = {
    "verify-s2cubed": Workload(
        "verify", ("s2cubed",), ("--max-degree", "11"),
        "item 2 (one rank kernel, rank each slice once)",
        "rank-bound: exactq.rref is two thirds of the time, on slices up to "
        "2896x1980, and three quarters of its inputs repeat; the unsplit "
        "loop_betti cross-check is half the time"),
    "hodge-flag-j2": Workload(
        "hodge", ("flag",), ("--max-degree", "18", "--jobs", str(JOBS)),
        "item 3 (keep or delete the --jobs process pool)",
        "only freeloop, gca and exactq run, through the ProcessPoolExecutor "
        "path; workers get the model pickled per cell and rebuild its "
        "matrices"),
    "verify-corpus": Workload(
        "verify", SHIPPED + ("hp2", "cp2xs3"), ("--max-degree", "26"),
        "items 2 and 3 (must not regress)",
        "eight small models, one process each: thousands of tiny rank calls "
        "and about 40% interpreter start and import, so a kernel with a "
        "higher fixed cost per call or a heavier import shows here"),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

SPAN_NAMES = tuple("%s.%s" % (module, name)
                   for module, names in TRACED.items() for name in names)
CALL_COUNTED = ("exactq.rref", "exactq.cohomology_dim",
                "exactq.SparseMatrix.mul", "gca.matrix_of_degree_slice",
                "freeloop.FreeLoopModel.d_matrix",
                "sections.ExtendedQuotientModel.d_matrix",
                "sections.ExtendedQuotientModel.rho_tensor_matrix")

# Per-layer metrics in output order, with units.  Those in EXACT are
# counts that must repeat exactly between traced runs of one seed.
PER_LAYER = (
    [("exactq.rref.calls", "count"), ("exactq.rref.self_s", "s"),
     ("exactq.rref.nnz_in", "count"), ("exactq.rref.max_rows", "count"),
     ("exactq.rref.max_cols", "count"), ("exactq.rref.unique_ratio", "ratio"),
     ("gca.basis_of_degree.hits", "count"),
     ("gca.basis_of_degree.misses", "count"),
     ("freeloop.FreeLoopModel.d_matrix.repeat_ratio", "ratio"),
     ("freeloop.hodge_betti_table.worker_cpu_s", "s"),
     ("freeloop.hodge_betti_table.serial_s", "s")]
    + [(n + ".calls", "count") for n in CALL_COUNTED if n != "exactq.rref"]
    + [(n + ".self_s", "s") for n in SPAN_NAMES if n != "exactq.rref"]
    + [("trace.overhead_ratio", "ratio")])
EXACT = tuple(n for n, _ in PER_LAYER
              if n.endswith((".calls", ".nnz_in", ".max_rows", ".max_cols",
                             ".hits", ".misses", "_ratio"))
              and n != "trace.overhead_ratio")

# Time one hodge_betti_table call with jobs=1 in a fresh process: the
# single-process baseline for the --jobs pool.
SERIAL_PROBE = """\
import sys, time
from loopspace.sullivan import parse_model
from loopspace.freeloop import build_free_loop_model, hodge_betti_table
with open(sys.argv[1], encoding="utf-8") as fh:
    flm = build_free_loop_model(parse_model(fh.read()))
t = time.perf_counter()
hodge_betti_table(flm, int(sys.argv[2]), jobs=1)
print(time.perf_counter() - t)
"""

# Set-up check: every bench model passes `verify` (exit 0) at the
# smallest window the command allows.
VERIFY_ALL = """\
import contextlib, io, sys
from loopspace import cli
bad = []
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", path, "--max-degree", "0"])
    if code != 0:
        bad.append("%s: exit %d" % (path, code))
print("\\n".join(bad))
"""


# A fixed load in a fresh interpreter, of the same kind of work as the
# tool's (process start, exact fractions, dicts keyed by tuples).  It uses
# nothing of the program under test, so its wall time measures how fast
# the machine runs at the moment.  CALIBRATION_REF_S is a round figure near
# its time on the machine the bounds were set on (about 0.23 s on a 2-vCPU
# Xeon VM with Python 3.11).
CALIBRATION = """\
from fractions import Fraction
acc, seen = Fraction(0), {}
for i in range(1, 30000):
    acc += Fraction(i % 97, i % 89 + 1)
    seen[(i % 1009, i % 7)] = acc
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # fixed string hashing, so set iteration order does not vary the timing
    env["PYTHONHASHSEED"] = "0"
    # an installed package runs from cached bytecode; so do the bench runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


ENV = child_env()


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: str


def run_process(argv, timeout=TIMEOUT_S):
    """Run `python argv...` to completion; wall, rusage and stdout."""
    out_path = WORK / "stdout"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable] + list(argv), stdout=out,
                             stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                             env=ENV, cwd=ROOT, start_new_session=True)
        # on timeout, kill the pool workers with the process
        timer = threading.Timer(timeout, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    # rusage from wait4 includes the child's own waited-for children
    return Proc(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                maxrss_mb=ru.ru_maxrss / 1024.0, exit_code=p.returncode,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"))


def permute_generators(text, seed):
    """Shuffle the `gen` lines of each degree among their own positions."""
    if seed == 0:
        return text
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    by_degree = {}
    for i, line in enumerate(lines):
        words = line.split()
        if words[:1] == ["gen"]:
            by_degree.setdefault(words[2], []).append(i)
    out = list(lines)
    for slots in by_degree.values():
        order = rng.sample(slots, len(slots))
        for dst, src in zip(slots, order):
            out[dst] = lines[src]
    return "".join(out)


def write_models(seed):
    """Seeded copies of every bench model under WORK; name -> path."""
    sys.path.insert(0, str(SRC))
    import loopspace
    paths = {}
    for name in SHIPPED + OWN:
        source = (loopspace.corpus_path(name) if name in SHIPPED
                  else BENCH / "models" / (name + ".model"))
        path = WORK / "models" / (name + ".model")
        path.write_text(permute_generators(source.read_text(encoding="utf-8"), seed),
                        encoding="utf-8")
        paths[name] = path
    return paths


def golden_path(workload, model):
    return GOLDENS / workload / (model + ".out")


def matches_golden(out, golden, seed):
    if seed == 0:
        return out == golden
    got, want = out.splitlines(), golden.splitlines()
    return len(got) == len(want) and all(
        g == w or (g.startswith("fundamental-class: ")
                   and w.startswith("fundamental-class: "))
        for g, w in zip(got, want))


def cli_argv(wl, model_path):
    return ["-m", "loopspace.cli", wl.command, str(model_path)] + list(wl.options)


class Tally:
    """CLI runs attempted and failed, with the reason of each failure.

    `problems` holds the other failed checks of the run; they make it
    incorrect but are not CLI runs, so they stay out of `error_rate`.
    """

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.attempted = 0
        self.failures = []
        self.problems = []

    def check(self, model, proc):
        self.attempted += 1
        golden = golden_path(self.name, model).read_text(encoding="utf-8")
        if proc.exit_code != 0:
            self.failures.append("%s: exit code %d" % (model, proc.exit_code))
        elif not matches_golden(proc.stdout, golden, self.seed):
            self.failures.append("%s: stdout differs from the golden" % model)


def run_iteration(wl, models, tally):
    procs = []
    for model in wl.models:
        proc = run_process(cli_argv(wl, models[model]))
        tally.check(model, proc)
        procs.append(proc)
    return {"wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.maxrss_mb for p in procs)}


def measure(seconds, step):
    """Call step() until `seconds` have passed, at least MIN_ITERATIONS times."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
        samples.append(step())
    return samples


def import_seconds():
    """Wall time of a fresh interpreter running `import loopspace.cli`."""
    proc = run_process(["-c", "import loopspace.cli"])
    if proc.exit_code != 0:
        raise BenchError("`import loopspace.cli` failed")
    return proc.wall_s


def calibration_seconds():
    proc = run_process(["-c", CALIBRATION])
    if proc.exit_code != 0:
        raise BenchError("the calibration load failed")
    return proc.wall_s


def check_models(models):
    proc = run_process(["-c", VERIFY_ALL] + [str(models[m]) for m in SHIPPED + OWN],
                       timeout=120)
    if proc.exit_code != 0:
        raise BenchError("the set-up check of the bench models crashed")
    return [line for line in proc.stdout.splitlines() if line]


# ---- traced runs ----------------------------------------------------------

def load_spans(out_dir):
    """Spans of every process of one traced CLI run, one list per process."""
    with open(out_dir / "main.json", encoding="utf-8") as fh:
        main = json.load(fh)
    processes = [main["spans"]]
    for path in sorted(out_dir.glob("worker-*.jsonl")):
        spans = []
        for line in path.read_text(encoding="utf-8").splitlines():
            # parents index the process's record; batches were cut at top level
            base = len(spans)
            spans.extend([n, s, e, p + base if p >= 0 else -1, a]
                         for n, s, e, p, a in json.loads(line))
        processes.append(spans)
    return main, processes


def layer_metrics(runs):
    """Per-layer metrics of one traced iteration (one entry per CLI run)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    m = dict.fromkeys(("nnz_in", "max_rows", "max_cols", "hits", "misses",
                       "worker_cpu_s"), 0)
    rref_unique = dmat_unique = 0
    for main, processes in runs:
        m["hits"] += main["basis_of_degree"]["hits"]
        m["misses"] += main["basis_of_degree"]["misses"]
        m["worker_cpu_s"] += main["worker_cpu_s"]
        rref_keys, dmat_keys = set(), set()
        for spans in processes:
            covered = [0.0] * len(spans)
            for name, start, end, parent, attrs in spans:
                if parent >= 0:
                    covered[parent] += end - start + (attrs or {}).get("pre", 0.0)
            for (name, start, end, _, attrs), cov in zip(spans, covered):
                calls[name] += 1
                self_s[name] += end - start - cov
                if name == "exactq.rref":
                    m["nnz_in"] += attrs["nnz"]
                    m["max_rows"] = max(m["max_rows"], attrs["rows"])
                    m["max_cols"] = max(m["max_cols"], attrs["cols"])
                    rref_keys.add(attrs["key"])
                elif name == "freeloop.FreeLoopModel.d_matrix":
                    dmat_keys.add(tuple(attrs["key"]))
        rref_unique += len(rref_keys)
        dmat_unique += len(dmat_keys)
    out = {
        "exactq.rref.nnz_in": m["nnz_in"],
        "exactq.rref.max_rows": m["max_rows"],
        "exactq.rref.max_cols": m["max_cols"],
        "exactq.rref.unique_ratio":
            rref_unique / calls["exactq.rref"] if calls["exactq.rref"] else 0.0,
        "gca.basis_of_degree.hits": m["hits"],
        "gca.basis_of_degree.misses": m["misses"],
        "freeloop.FreeLoopModel.d_matrix.repeat_ratio":
            1.0 - dmat_unique / calls["freeloop.FreeLoopModel.d_matrix"]
            if calls["freeloop.FreeLoopModel.d_matrix"] else 0.0,
        "freeloop.hodge_betti_table.worker_cpu_s": m["worker_cpu_s"],
    }
    for name in CALL_COUNTED:
        out[name + ".calls"] = calls[name]
    for name in SPAN_NAMES:
        out[name + ".self_s"] = self_s[name]
    return out


def traced_iteration(wl, models, tally):
    runs = []
    wall = 0.0
    for model in wl.models:
        out_dir = WORK / "trace"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        argv = [str(BENCH / "tracer.py"), str(out_dir)] + cli_argv(wl, models[model])[2:]
        proc = run_process(argv)
        tally.check(model, proc)
        wall += proc.wall_s
        if proc.exit_code == 0:
            runs.append(load_spans(out_dir))
    layers = layer_metrics(runs)
    layers["wall_s"] = wall
    # the same hodge_betti_table call, serial, in a fresh process
    n_max = wl.options[wl.options.index("--max-degree") + 1]
    serial = 0.0
    for model in wl.models:
        proc = run_process(["-c", SERIAL_PROBE, str(models[model]), n_max])
        if proc.exit_code != 0:
            tally.problems.append("%s: serial hodge probe failed" % model)
        else:
            serial += float(proc.stdout)
    layers["freeloop.hodge_betti_table.serial_s"] = serial
    return layers


def per_layer_result(untraced, traced):
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.median(t["wall_s"] for t in traced)
                     / statistics.median(u["wall_s"] for u in untraced))
        elif name in EXACT:
            value = traced[0][name]
        else:
            value = statistics.median(t[name] for t in traced)
        out[name] = {"value": value, "unit": unit}
    return out


# ---- main ------------------------------------------------------------------

def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "cpu": cpu, "commit": commit_hash(),
            "src_sha256": digest.hexdigest(),
            "mp_start_method": multiprocessing.get_start_method()}


def commit_hash():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def prepare(seed):
    if not (SRC / "loopspace" / "cli.py").is_file():
        raise BenchError("no loopspace sources under %s" % SRC)
    if not GOLDENS.is_dir():
        raise BenchError("no goldens under %s" % GOLDENS)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "models").mkdir(parents=True)
    return write_models(seed)


def run(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    models = prepare(seed)
    print("machine: %s" % json.dumps(machine(), sort_keys=True))
    print("workload: %s, judges ROADMAP %s" % (name, wl.roadmap))
    print("why: %s" % wl.why)
    print("command: python -m loopspace.cli %s MODEL %s  (MODEL in %s), seed %d"
          % (wl.command, " ".join(wl.options), ", ".join(wl.models), seed))
    tally = Tally(name, seed)
    tally.problems.extend("setup check: %s" % line for line in check_models(models))
    if trace:
        # untraced and traced iterations alternate, so a drift in machine
        # speed moves both sides of trace.overhead_ratio alike
        pairs = measure(seconds, lambda: (
            run_iteration(wl, models, tally),
            traced_iteration(wl, models, tally)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        print("wall_s per traced iteration: %s"
              % " ".join("%.3f" % t["wall_s"] for t in traced))
        metrics = per_layer_result(untraced, traced)
        for n in EXACT:
            if any(t[n] != traced[0][n] for t in traced[1:]):
                tally.problems.append("count %s differs between traced runs" % n)
    else:
        # The speed of a shared machine drifts by a fifth or more within
        # seconds, alike for every fresh Python process on it.  So each
        # timed sample (one iteration, one `import loopspace.cli`) is
        # bracketed by runs of the calibration load and scaled to the
        # reference speed: multiplied by CALIBRATION_REF_S / the mean of
        # the two calibration times around it.  The medians of the unscaled
        # samples are printed as well.
        calibrations = [calibration_seconds()]

        def scale_since_last_calibration():
            calibrations.append(calibration_seconds())
            return 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
        imports = []

        def step():
            for _ in range(PROBES_PER_ITERATION):
                t = import_seconds()
                imports.append((t, scale_since_last_calibration()))
            sample = run_iteration(wl, models, tally)
            sample["scale"] = scale_since_last_calibration()
            return sample
        untraced = measure(seconds, step)
        raw = {n: statistics.median(s[n] for s in untraced)
               for n in ("wall_s", "cpu_s", "peak_rss_mb")}
        raw["setup_s"] = statistics.median(t for t, _ in imports)
        print("unscaled: %s" % " ".join("%s=%.6g" % kv for kv in raw.items()))
        print("calibration median %.6g s over %d runs"
              % (statistics.median(calibrations), len(calibrations)))
        value = {n: statistics.median(s[n] * s["scale"] for s in untraced)
                 for n in ("wall_s", "cpu_s")}
        value["peak_rss_mb"] = raw["peak_rss_mb"]
        value["setup_s"] = statistics.median(t * k for t, k in imports)
        metrics = {n: {"value": value[n], "unit": unit} for n, unit in END_TO_END}
    print("wall_s per untraced iteration: %s"
          % " ".join("%.3f" % s["wall_s"] for s in untraced))
    print("medians over %d iterations" % len(untraced))
    for n, v in metrics.items():
        print("%-52s %14.6g %s" % (n, v["value"], v["unit"]))
    failed = len(tally.failures)
    print("error_rate: %g (%d failed of %d attempted)"
          % (failed / tally.attempted, failed, tally.attempted))
    for line in tally.failures:
        print("failed: %s" % line)
    for line in tally.problems:
        print("check failed: %s" % line)
    shutil.rmtree(WORK, ignore_errors=True)
    return {"correct": failed == 0 and not tally.problems,
            "attempted": tally.attempted, "failed": failed, "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
