"""Command line front end.

    loopspace COMMAND MODEL_FILE [--max-degree N] [--format text|json]
                                 [--growth] [--jobs K]

Commands: validate, betti, hodge, quotient, aut-ranks, verify.  Output is
deterministic byte for byte: tables are emitted in sorted label order and
JSON with sorted keys.  Exit codes: 0 all checks pass, 1 invalid model,
2 unreadable model file or bad arguments, 3 a mathematical identity
failed, 4 an internal invariant broke (a bug in the tool, never the
model's fault).

Verdicts are printed as checks pass, and on failure every command lists
the checks that passed before the error.  Every command, validate
included, runs its checks through one entry, sections.verify_theorems:
the three structural checks, then the ones it names from the ordered
sequence sections.CHECKS.  validate also lists a failed duality check,
with its degree.

Table entries computed above the model's declared completeness are
suffixed with '?' in text output; JSON carries the per-table
trusted_up_to bound instead.

--jobs K is accepted for compatibility and selects nothing: every slice
is computed in one process.  A K below 1 is still a usage error.
"""

import argparse
import gc
import os
import sys

from .errors import (ParseError, ValidationFailure, NotPoincareDuality,
                     MathMismatch, InternalCheckFailure, exit_code_for)
from .sullivan import parse_model, cohomology_table
from .freeloop import loop_betti, growth_report
from .sections import VERIFY_CHECKS, window, verify_theorems


class Report:
    """What one command printed: its tables, verdicts and notes, filled in
    as the checks run, then the exit code and the error, if any."""

    def __init__(self, model, command, max_degree, trusted_up_to):
        self.model = model
        self.command = command
        self.max_degree = max_degree
        self.trusted_up_to = trusted_up_to
        self.tables = {}
        self.verdicts = []
        self.notes = []
        self.exit_code = 0
        self.error = None

    def add_table(self, label, values, start=0, trusted_up_to=None):
        self.tables[label] = {"start": start, "trusted_up_to": trusted_up_to,
                              "values": list(values)}

    def add_rows(self, label, rows, start=0, trusted_up_to=None):
        self.tables[label] = {"start": start, "trusted_up_to": trusted_up_to,
                              "rows": [list(r) for r in rows]}

    def add_verdict(self, check, passed, degree=None):
        self.verdicts.append({"check": check, "degree": degree,
                              "pass": bool(passed)})

    def as_dict(self):
        d = {"model": self.model, "command": self.command,
             "max_degree": self.max_degree, "trusted_up_to": self.trusted_up_to,
             "tables": self.tables, "verdicts": self.verdicts,
             "exit_code": self.exit_code}
        if self.error is not None:
            d["error"] = self.error
        return d

    def to_json(self):
        import json     # only --format json needs it; kept off the start-up path
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def to_text(self):
        lines = ["model: %s" % self.model, "command: %s" % self.command]
        if self.max_degree is not None:
            lines.append("max-degree: %d" % self.max_degree)
        if self.trusted_up_to is not None:
            lines.append("trusted-up-to: %d" % self.trusted_up_to)
        for label in sorted(self.tables):
            tab = self.tables[label]
            if "rows" in tab:
                for off, row in enumerate(tab["rows"]):
                    n = tab["start"] + off
                    mark = "?" if (tab["trusted_up_to"] is not None
                                   and n > tab["trusted_up_to"]) else ""
                    lines.append("table %s n=%d%s: %s"
                                 % (label, n, mark,
                                    " ".join(str(v) for v in row)))
            else:
                vals = tab["values"]
                if not vals:
                    lines.append("table %s: (empty)" % label)
                    continue
                parts = []
                for off, v in enumerate(vals):
                    idx = tab["start"] + off
                    s = str(v)
                    if tab["trusted_up_to"] is not None and idx > tab["trusted_up_to"]:
                        s += "?"
                    parts.append(s)
                lines.append("table %s (%d..%d): %s"
                             % (label, tab["start"],
                                tab["start"] + len(vals) - 1, " ".join(parts)))
        for note in self.notes:
            lines.append(note)
        for v in self.verdicts:
            where = "" if v["degree"] is None else " (degree %d)" % v["degree"]
            lines.append("verdict %s%s: %s"
                         % (v["check"], where, "pass" if v["pass"] else "FAIL"))
        if self.error is not None:
            lines.append("error: %s" % self.error)
        lines.append("exit-code: %d" % self.exit_code)
        return "\n".join(lines) + "\n"


def _checked(model, report, checks):
    """Run the checks and record their verdicts on the report, also on
    failure."""
    verdicts = []
    try:
        return verify_theorems(model, report.max_degree, checks, verdicts)
    finally:
        for check, passed in verdicts:
            report.add_verdict(check, passed)


def _growth_tables(report, table):
    g = growth_report(table)
    report.add_table("growth_partial_sums", g.partial_sums, start=0)
    report.add_table("growth_ratios", [str(r) for r in g.ratios], start=0)
    report.add_table("growth_roots", [s for _, s in g.roots], start=1)
    report.add_table("growth_verdict", [g.verdict])


def _duality_tables(report, pd):
    report.add_table("base_betti", pd.betti.as_array(report.max_degree),
                     start=0, trusted_up_to=pd.betti.trusted_up_to)
    report.notes.append("fundamental-class: %s" % pd.fundamental_render)


def cmd_validate(model, args, report, checks):
    """parse, structural checks, base Betti table, duality check"""
    try:
        run = _checked(model, report, checks)
    except NotPoincareDuality as e:
        report.add_verdict("poincare_duality", False, degree=e.degree)
        raise
    _duality_tables(report, run.pd_report)


def cmd_betti(model, args, report, checks):
    """free loop Betti numbers; --growth adds the growth classifier"""
    run = _checked(model, report, checks)
    n_max = report.max_degree
    base = cohomology_table(model, n_max)
    report.add_table("base_betti", base.as_array(n_max), start=0,
                     trusted_up_to=base.trusted_up_to)
    loop = loop_betti(run.flm, n_max)
    report.add_table("loop_betti", loop.as_array(n_max), start=0,
                     trusted_up_to=loop.trusted_up_to)
    if args.growth:
        _growth_tables(report, loop)


def _hodge_tables(report, run, args):
    rows = [[run.hodge.get(n, k) for k in range(n + 1)]
            for n in range(run.n_max + 1)]
    report.add_rows("hodge", rows, start=0,
                    trusted_up_to=run.hodge.trusted_up_to)
    report.add_table("loop_betti", run.loop.as_array(run.n_max), start=0,
                     trusted_up_to=run.loop.trusted_up_to)
    if args.growth:
        _growth_tables(report, run.loop)


def _aut_tables(report, run):
    N = run.formal_dim
    report.add_table("aut_ranks", run.aut.as_array(run.n_max - N)[1:],
                     start=1, trusted_up_to=run.aut.trusted_up_to)
    report.add_table("low_degree_section_classes",
                     [run.low_degree[n] for n in range(1, N + 1)], start=1)


def cmd_hodge(model, args, report, checks):
    """word-length refinement of the loop Betti table"""
    _hodge_tables(report, _checked(model, report, checks), args)


def cmd_quotient(model, args, report, checks):
    """build the duality quotient, print its basis, check the quasi-iso"""
    algebra = _checked(model, report, checks).algebra
    dims = [len(algebra.basis(k)) for k in range(model.formal_dim + 1)]
    report.add_table("quotient_dims", dims, start=0)
    report.notes.append("classes: %s" % " | ".join(algebra.labels))


def cmd_aut_ranks(model, args, report, checks):
    """self-equivalence ranks via the dual complex"""
    run = _checked(model, report, checks)
    _aut_tables(report, run)
    report.trusted_up_to = run.aut.trusted_up_to


def cmd_verify(model, args, report, checks):
    """everything above plus the three-way rank comparison"""
    rep = _checked(model, report, checks)
    n_max, N = rep.n_max, rep.formal_dim
    _duality_tables(report, rep.pd_report)
    report.add_table("derivation_ranks",
                     rep.oracle.as_array(n_max - N + 1)[1:], start=1,
                     trusted_up_to=rep.oracle.trusted_up_to)
    _aut_tables(report, rep)
    _hodge_tables(report, rep, args)
    report.notes.append("duality-cochain-invertible: %s"
                        % ("yes" if rep.cochain_perfect else "no"))


# Each command with the checks it runs, by name from sections.CHECKS,
# after validating the model.
_COMMANDS = {
    "validate": (cmd_validate, ("poincare_duality",)),
    "betti": (cmd_betti, ()),
    "hodge": (cmd_hodge, ("hodge_sum_consistency",)),
    "quotient": (cmd_quotient, ("poincare_duality", "structure_identities",
                                "quotient_quasi_iso")),
    "aut-ranks": (cmd_aut_ranks, ("poincare_duality", "structure_identities",
                                  "square_identity", "dual_complex_agreement")),
    "verify": (cmd_verify, VERIFY_CHECKS),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="loopspace",
        description="Exact rational cohomology of free loop spaces from "
                    "Sullivan models, with duality and rank cross-checks.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("model_file", help="model description file")
        sp.add_argument("--max-degree", type=int, default=None,
                        help="top degree of the computed window "
                             "(default: formal dimension + 8)")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
        sp.add_argument("--growth", action="store_true",
                        help="append partial-sum growth tables")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; every slice is "
                             "computed in one process")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_degree is not None and args.max_degree < 0:
        parser.error("argument --max-degree: must not be negative")
    if args.jobs < 1:
        parser.error("argument --jobs: must be at least 1")
    name = os.path.splitext(os.path.basename(args.model_file))[0]
    report = Report(model=name, command=args.command,
                    max_degree=None, trusted_up_to=None)
    try:
        try:
            with open(args.model_file, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError("cannot read model file: %s" % e)
        except UnicodeDecodeError as e:
            raise ParseError("model file is not UTF-8 text: %s" % e)
        model = parse_model(text, name_hint=name)
        report.model = model.name
        command, checks = _COMMANDS[args.command]
        report.max_degree = window(model, args.max_degree, checks)
        report.trusted_up_to = model.trusted(report.max_degree)
        command(model, args, report, checks)
    except (ParseError, ValidationFailure, MathMismatch,
            InternalCheckFailure) as e:
        report.exit_code = exit_code_for(e)
        report.error = str(e)
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    return report.exit_code


def entry():
    """Run main() as the whole process: the console script and
    `python -m loopspace.cli`.  A run makes no reference cycles, so the
    cyclic collector is off throughout, and the heap is frozen before
    exit so that the interpreter's shutdown collection skips it.  main()
    itself leaves gc alone."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
