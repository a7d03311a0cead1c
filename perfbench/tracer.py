"""Run the loopspace command line tool with spans recorded around its layers.

    python3 perfbench/tracer.py OUT_DIR COMMAND MODEL_FILE [options...]

The arguments after OUT_DIR are passed to `loopspace.cli.main` unchanged,
so stdout is the tool's own output.  The named public functions of each
module are wrapped from outside, before `main` runs; nothing under `src/`
is edited.  Each call of a wrapped function records one span

    [name, start, end, parent, attrs]

in memory, where `parent` is the index of the enclosing span in the same
process (-1 at top level) and `attrs` holds the per-call counts the
benchmark derives layer metrics from (or is null).  At exit the spans are
written to OUT_DIR/main.json.  Pool workers forked by `--jobs` inherit the
wrappers; each worker starts an empty record and appends its spans to
OUT_DIR/worker-<pid>.jsonl whenever its outermost span closes, because a
pool worker never runs exit handlers.  The `gca.basis_of_degree` cache
counts are those of the CLI process alone: how often a pool worker misses
depends on which cells it is handed, so its counts would not repeat.
"""

import functools
import json
import os
import resource
import sys
from time import perf_counter

# Functions and methods wrapped, by module.  The names are those of the
# per-layer metrics in BENCHMARK.json.
TRACED = {
    "cli": ("main",),
    "sullivan": ("parse_model", "validate", "check_poincare_duality"),
    "pdquotient": ("build_quotient", "structure_identities",
                   "verify_quasi_iso"),
    "freeloop": ("build_free_loop_model", "hodge_betti_table", "loop_betti",
                 "FreeLoopModel.d_matrix"),
    "sections": ("extend_to_quotient_loop", "verify_rho_tensor_quasi_iso",
                 "duality_map", "build_dual_complex",
                 "verify_duality_quasi_iso", "aut_rank_table",
                 "derivation_oracle", "verify_theorems",
                 "ExtendedQuotientModel.d_matrix",
                 "ExtendedQuotientModel.rho_tensor_matrix"),
    "gca": ("matrix_of_degree_slice",),
    "exactq": ("rref", "cohomology_dim", "SparseMatrix.mul"),
}


def _rref_attrs(m):
    return {"rows": m.rows, "cols": m.cols, "nnz": len(m.entries),
            "key": hash(m)}


def _slice_attrs(self, n, word_length=None):
    return {"key": [n, word_length]}


# Per-call attributes: they identify repeated inputs (the matrix hash, the
# slice key), so the benchmark can count work done more than once.
ATTRS = {
    "exactq.rref": _rref_attrs,
    "freeloop.FreeLoopModel.d_matrix": _slice_attrs,
}


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Recorder:
    """Spans of one process, kept in memory until written out."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans = []
        self.stack = []
        self.worker_cpu_s = 0.0

    def _claim(self):
        # A forked pool worker inherits the parent's record; it starts its own.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec._claim()
            attrs = None
            if attrs_of is not None:
                t = perf_counter()
                attrs = attrs_of(*args, **kwargs)
                # time spent on the attributes is charged to no layer
                attrs["pre"] = perf_counter() - t
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, attrs]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.stack.pop()
                if not rec.stack and rec.pid != rec.root_pid:
                    rec.flush_worker()
        return traced

    def flush_worker(self):
        path = os.path.join(self.out_dir, "worker-%d.jsonl" % self.pid)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def write_main(self, basis_cache):
        data = {"spans": self.spans,
                "worker_cpu_s": self.worker_cpu_s,
                "basis_of_degree": {"hits": basis_cache.hits,
                                    "misses": basis_cache.misses}}
        with open(os.path.join(self.out_dir, "main.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh)


def _count_child_cpu(rec, fn):
    """Add the pool workers' CPU time during `fn` to rec.worker_cpu_s."""
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        before = _children_cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.worker_cpu_s += _children_cpu() - before
    return inner


def install(rec):
    """Wrap every function in TRACED, wherever a loopspace module binds it."""
    import importlib
    import loopspace
    modules = {m: importlib.import_module("loopspace." + m) for m in TRACED}
    namespaces = [vars(loopspace)] + [vars(m) for m in modules.values()]
    for mod_name, names in TRACED.items():
        mod = modules[mod_name]
        for name in names:
            full = "%s.%s" % (mod_name, name)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, rec.wrap(full, getattr(cls, meth)))
                continue
            fn = getattr(mod, name)
            wrapped = rec.wrap(full, fn)
            if full == "freeloop.hodge_betti_table":
                wrapped = _count_child_cpu(rec, wrapped)
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is fn:
                        ns[key] = wrapped


def main(argv):
    out_dir, cli_args = argv[0], argv[1:]
    rec = Recorder(out_dir)
    install(rec)
    from loopspace import cli, gca
    code = cli.main(cli_args)
    sys.stdout.flush()
    rec.write_main(gca.basis_of_degree.cache_info())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
