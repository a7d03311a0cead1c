"""End-to-end tests for the command line interface.

Everything runs in-process through cli.main so we can capture stdout
exactly and compare byte-for-byte where determinism matters.
"""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopspace
from loopspace import cli
from loopspace.cli import _COMMANDS, build_parser, main
from loopspace.sections import verify_theorems
from test_stdout_digests import ROWS as DIGEST_ROWS, digest

S2 = str(loopspace.corpus_path("s2"))
S3 = str(loopspace.corpus_path("s3"))
CP2 = str(loopspace.corpus_path("cp2"))
S2XS3 = str(loopspace.corpus_path("s2xs3"))


def run(args):
    # catch SystemExit so argparse usage errors report like normal exits
    buf = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def fixture(name):
    import os

    here = os.path.dirname(__file__)
    return os.path.join(here, "fixtures", name)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        code, _ = run([])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        code, _ = run(["frobnicate", S2])
        assert code == 2

    def test_missing_file_exits_two(self):
        code, out = run(["validate", "/tmp/no_such_model_anywhere.model"])
        assert code == 2
        assert "error: cannot read model file:" in out
        assert out.rstrip().endswith("exit-code: 2")

    def test_parse_error_exits_two_with_line_number(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("model Bad\ndim 4\ncomplete\ngen x nope\n")
        code, out = run(["validate", str(bad)])
        assert code == 2
        assert "error: line 4: generator degree must be an integer" in out

    def test_validation_failure_exits_one(self):
        code, out = run(["verify", fixture("not_pd.model")])
        assert code == 1
        assert "error: degree 4: H^4 has dimension 1 above the formal dimension" in out
        assert "exit-code: 1" in out

    def test_incomplete_model_quotient_exits_one(self, tmp_path):
        shallow = tmp_path / "shallow.model"
        shallow.write_text(
            "model Shallow\ndim 4\ncomplete-to 4\n"
            "gen x 2\ngen u 2\ngen y 3\ngen v 3\n"
            "d y = x^2\nd v = u^2\n"
        )
        code, out = run(["quotient", str(shallow)])
        assert code == 1
        assert (
            "error: quotient needs generators through degree 5, "
            "model is only complete to 4" in out
        )
        # PD itself holds on the truncation, so that verdict still prints
        assert "verdict poincare_duality: pass" in out

    def test_corrupt_alpha_exits_three(self, corrupt_quotient):
        corrupt_quotient()
        code, out = run(["verify", S2])
        assert code == 3
        assert "error: unit axiom fails at a_1" in out
        assert "exit-code: 3" in out

    def test_clean_verify_exits_zero(self):
        code, out = run(["verify", S2])
        assert code == 0
        assert out.rstrip().endswith("exit-code: 0")

    def test_verify_with_a_non_monomial_fundamental_class(self):
        code, out = run(["verify", fixture("s2xs3_twisted.model"),
                         "--max-degree", "10"])
        assert code == 0
        assert "fundamental-class: -x*z + x*a" in out
        assert len(re.findall(r"^verdict \S+: pass$", out, re.M)) == 13

    @pytest.mark.parametrize("option", [["--max-degree", "-3"],
                                        ["--jobs", "0"], ["--jobs", "-4"]])
    def test_out_of_range_option_is_usage_error(self, option):
        code, out = run(["validate", S2] + option)
        assert code == 2
        assert out == ""

    def test_fault_injection_is_no_cli_option(self):
        code, out = run(["verify", S2, "--corrupt-alpha"])
        assert code == 2
        assert out == ""

    def test_zero_denominator_exits_two_with_line_number(self, tmp_path):
        bad = tmp_path / "zero.model"
        bad.write_text("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = 1/0*x^2\n")
        code, out = run(["verify", str(bad)])
        assert code == 2
        assert "error: line 5: coefficient 1/0 has a zero denominator" in out

    @pytest.mark.parametrize("poly", ["x^" + "9" * 5000, "9" * 5000 + "*x^2",
                                      "1/" + "9" * 5000 + "*x^2"],
                             ids=["exponent", "numerator", "denominator"])
    def test_overlong_literal_exits_two_with_line_number(self, tmp_path, poly):
        # past Python's int-string digit limit, which raises ValueError
        bad = tmp_path / "long.model"
        bad.write_text("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = %s\n" % poly)
        code, out = run(["validate", str(bad)])
        assert code == 2
        assert "error: line 5: number has too many digits" in out

    def test_thousand_generators_end_with_an_exit_code(self, tmp_path):
        many = tmp_path / "many.model"
        many.write_text("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x^2\n"
                        + "".join("gen z%d 40\n" % i for i in range(1100)))
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(loopspace.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "loopspace.cli", "validate", str(many),
             "--max-degree", "4"], env=env, capture_output=True, text=True)
        assert proc.returncode in (0, 1, 2, 3)
        assert "exit-code: %d" % proc.returncode in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_non_utf8_file_exits_two(self, tmp_path):
        bad = tmp_path / "latin1.model"
        bad.write_bytes("model Sph\xe8re\ndim 2\ncomplete\ngen x 2\n".encode("latin-1"))
        code, out = run(["validate", str(bad)])
        assert code == 2
        assert "error: model file is not UTF-8 text:" in out
        assert out.rstrip().endswith("exit-code: 2")

    def test_byte_order_mark_is_accepted(self, tmp_path):
        bom = tmp_path / "bom.model"
        bom.write_bytes(b"\xef\xbb\xbf" + b"model S2\ndim 2\ncomplete\n"
                        b"gen x 2\ngen y 3\nd y = x^2\n")
        code, out = run(["validate", str(bom)])
        assert code == 0
        assert out.startswith("model: S2\n")

    def test_explicit_zero_differential_exits_zero(self, tmp_path):
        text = "dim 5\ncomplete\ngen x 2\ngen y 3\ngen z 3\nd y = x^2\n"
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        implicit.mkdir()
        explicit.mkdir()
        (implicit / "m.model").write_text(text)
        (explicit / "m.model").write_text(text + "d z = 0\n")
        code, out = run(["validate", str(explicit / "m.model")])
        assert code == 0
        assert out == run(["validate", str(implicit / "m.model")])[1]


class TestImport:
    def test_cli_import_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(loopspace.__file__))
        probe = ("import sys, loopspace.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestCollector:
    """cli.entry runs main() with the cyclic collector off and freezes the
    heap before exit.  That is safe because a run makes no reference
    cycles: every command on every model of the stdout digests, in text
    and JSON, error exits included, leaves nothing for a later collection
    and prints its recorded bytes.  The parser is built beforehand, as
    argparse's own objects refer to each other."""

    @pytest.mark.parametrize("command,name,fmt,code,sha", DIGEST_ROWS,
                             ids=["%s-%s-%s" % row[:3] for row in DIGEST_ROWS])
    def test_a_run_leaves_no_cyclic_garbage(self, monkeypatch, command, name,
                                            fmt, code, sha):
        parser = build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        gc.collect()
        gc.disable()
        try:
            assert digest(command, name, fmt) == (code, sha)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_main_leaves_the_collector_alone(self):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert run(["verify", S2])[0] == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_entry_exits_with_the_collector_off_and_the_heap_frozen(
            self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["loopspace", "validate", S2])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                with pytest.raises(SystemExit) as exit_:
                    cli.entry()
            assert exit_.value.code == 0
            assert not gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable()


class TestProcessEntry:
    """`python -m loopspace.cli`, run through cli.entry, prints the bytes
    and exits with the code of an in-process cli.main."""

    @staticmethod
    def run_module(args):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(loopspace.__file__)))
        return subprocess.run([sys.executable, "-m", "loopspace.cli"] + args,
                              env=env, capture_output=True)

    @pytest.mark.parametrize("args,code", [
        (["verify", S2], 0),
        (["verify", fixture("not_pd.model")], 1),
        (["verify", fixture("no_such.model")], 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_same_stdout_and_exit_code_as_main(self, args, code):
        proc = self.run_module(args)
        assert (proc.returncode, proc.stdout.decode("utf-8")) == run(args)
        assert proc.returncode == code

    def test_usage_error_exits_two_with_usage_on_stderr(self):
        proc = self.run_module(["verify", S2, "--max-degree", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode("utf-8").startswith("usage: loopspace ")
        assert b"--max-degree: must not be negative" in proc.stderr


class TestValidateText:
    def test_s2_verbatim(self):
        code, out = run(["validate", S2])
        assert code == 0
        assert out == (
            "model: S2\n"
            "command: validate\n"
            "max-degree: 10\n"
            "trusted-up-to: 10\n"
            "table base_betti (0..10): 1 0 1 0 0 0 0 0 0 0 0\n"
            "fundamental-class: x\n"
            "verdict simply_connected: pass\n"
            "verdict minimal: pass\n"
            "verdict d_squared_zero: pass\n"
            "verdict poincare_duality: pass\n"
            "exit-code: 0\n"
        )

    def test_degree_one_generator_fails_validation(self, tmp_path):
        bad = tmp_path / "deg1.model"
        bad.write_text("model Circle\ndim 3\ncomplete\ngen t 1\ngen z 3\n")
        code, out = run(["validate", str(bad)])
        assert code == 1
        assert "verdict simply_connected: FAIL" in out
        assert "exit-code: 1" in out


class TestVerifyText:
    def test_s2_verbatim(self):
        code, out = run(["verify", S2])
        assert code == 0
        assert out == (
            "model: S2\n"
            "command: verify\n"
            "max-degree: 10\n"
            "trusted-up-to: 10\n"
            "table aut_ranks (1..8): 0 1 0 0 0 0 0 0\n"
            "table base_betti (0..10): 1 0 1 0 0 0 0 0 0 0 0\n"
            "table derivation_ranks (1..9): 0 0 1 0 0 0 0 0 0\n"
            "table hodge n=0: 1\n"
            "table hodge n=1: 0 1\n"
            "table hodge n=2: 1 0 0\n"
            "table hodge n=3: 0 0 1 0\n"
            "table hodge n=4: 0 1 0 0 0\n"
            "table hodge n=5: 0 0 0 1 0 0\n"
            "table hodge n=6: 0 0 1 0 0 0 0\n"
            "table hodge n=7: 0 0 0 0 1 0 0 0\n"
            "table hodge n=8: 0 0 0 1 0 0 0 0 0\n"
            "table hodge n=9: 0 0 0 0 0 1 0 0 0 0\n"
            "table hodge n=10: 0 0 0 0 1 0 0 0 0 0 0\n"
            "table loop_betti (0..10): 1 1 1 1 1 1 1 1 1 1 1\n"
            "table low_degree_section_classes (1..2): 1 0\n"
            "fundamental-class: x\n"
            "duality-cochain-invertible: yes\n"
            "verdict simply_connected: pass\n"
            "verdict minimal: pass\n"
            "verdict d_squared_zero: pass\n"
            "verdict poincare_duality: pass\n"
            "verdict structure_identities: pass\n"
            "verdict quotient_quasi_iso: pass\n"
            "verdict loop_extension_quasi_iso: pass\n"
            "verdict duality_chain_property: pass\n"
            "verdict duality_cohomology_iso: pass\n"
            "verdict square_identity: pass\n"
            "verdict dual_complex_quasi_iso: pass\n"
            "verdict hodge_sum_consistency: pass\n"
            "verdict rank_triple_agreement: pass\n"
            "exit-code: 0\n"
        )

    def test_s2xs3_key_lines(self):
        # product of spheres: duality cochain map is singular yet all
        # cohomological checks still pass
        code, out = run(["verify", S2XS3])
        assert code == 0
        assert "model: S2xS3\n" in out
        assert "max-degree: 13\n" in out
        assert "fundamental-class: x*z\n" in out
        assert "duality-cochain-invertible: no\n" in out
        assert "table aut_ranks (1..8): 0 2 0 0 0 0 0 0\n" in out
        assert "table derivation_ranks (1..9): 1 0 2 0 0 0 0 0 0\n" in out
        assert "table loop_betti (0..13): 1 1 2 3 4 5 6 7 8 9 10 11 12 13\n" in out
        assert "table low_degree_section_classes (1..5): 1 1 0 3 1\n" in out
        assert "table hodge n=13: 0 0 0 0 5 1 0 7 0 0 0 0 0 0\n" in out

    def test_verdict_order_is_fixed(self):
        _, out = run(["verify", S2XS3])
        verdicts = [
            line.split()[1].rstrip(":")
            for line in out.splitlines()
            if line.startswith("verdict ")
        ]
        assert verdicts == [
            "simply_connected",
            "minimal",
            "d_squared_zero",
            "poincare_duality",
            "structure_identities",
            "quotient_quasi_iso",
            "loop_extension_quasi_iso",
            "duality_chain_property",
            "duality_cohomology_iso",
            "square_identity",
            "dual_complex_quasi_iso",
            "hodge_sum_consistency",
            "rank_triple_agreement",
        ]


class TestBettiCommand:
    def test_s3_with_growth(self):
        code, out = run(["betti", S3, "--max-degree", "10", "--growth"])
        assert code == 0
        assert "table base_betti (0..10): 1 0 0 1 0 0 0 0 0 0 0\n" in out
        assert "table loop_betti (0..10): 1 0 1 1 1 1 1 1 1 1 1\n" in out
        assert "table growth_partial_sums (0..10): 1 1 2 3 4 5 6 7 8 9 10\n" in out
        assert (
            "table growth_ratios (0..9): 1 2 3/2 4/3 5/4 6/5 7/6 8/7 9/8 10/9\n" in out
        )
        assert "table growth_verdict (0..0): inconclusive\n" in out
        # roots render with six decimal places, truncated
        assert "1.414213" in out
        assert "1.442249" in out

    def test_growth_verdict_changes_with_window(self):
        _, out11 = run(["betti", S3, "--max-degree", "11", "--growth"])
        assert "table growth_verdict (0..0): sub-exponential\n" in out11
        _, out14 = run(["betti", S2XS3, "--max-degree", "14", "--growth"])
        assert "table growth_verdict (0..0): exponential-in-window\n" in out14

    def test_no_growth_tables_without_flag(self):
        _, out = run(["betti", S3, "--max-degree", "10"])
        assert "growth" not in out


class TestQuotientCommand:
    def test_s2xs3_classes(self):
        code, out = run(["quotient", S2XS3])
        assert code == 0
        assert "table quotient_dims (0..5): 1 0 1 2 1 1\n" in out
        assert "classes: 1 | x | z | y | x^2 | x*z\n" in out
        assert "verdict structure_identities: pass" in out
        assert "verdict quotient_quasi_iso: pass" in out

    def test_cp2_classes(self):
        code, out = run(["quotient", CP2])
        assert code == 0
        assert "table quotient_dims (0..4): 1 0 1 0 1\n" in out
        assert "classes: 1 | x | x^2\n" in out


class TestHodgeCommand:
    def test_s2xs2_rows(self):
        code, out = run(["hodge", fixture("s2xs2.model"), "--max-degree", "6"])
        assert code == 0
        assert "table hodge n=0: 1\n" in out
        assert "table hodge n=1: 0 2\n" in out
        assert "table hodge n=2: 2 0 1\n" in out
        assert "table hodge n=3: 0 2 2 0\n" in out
        assert "table hodge n=4: 1 2 0 2 0\n" in out
        assert "table hodge n=5: 0 0 4 2 0 0\n" in out
        assert "table hodge n=6: 0 2 2 0 3 0 0\n" in out
        assert "table loop_betti (0..6): 1 2 3 4 5 6 7\n" in out
        assert "verdict hodge_sum_consistency: pass" in out


class TestAutRanksCommand:
    def test_cp2(self):
        code, out = run(["aut-ranks", CP2])
        assert code == 0
        assert "table aut_ranks (1..8): 0 1 0 1 0 0 0 0\n" in out
        assert "table low_degree_section_classes (1..4): 1 0 1 0\n" in out
        assert "verdict square_identity: pass" in out
        assert "verdict dual_complex_agreement: pass" in out


class TestTrustMarkers:
    @pytest.fixture()
    def trunc_cp2(self, tmp_path):
        p = tmp_path / "trunc_cp2.model"
        p.write_text(
            "model TruncCP2\ndim 4\ncomplete-to 6\ngen x 2\ngen y 5\nd y = x^3\n"
        )
        return str(p)

    def test_betti_marks_untrusted_degrees(self, trunc_cp2):
        code, out = run(["betti", trunc_cp2, "--max-degree", "9"])
        assert code == 0
        assert "trusted-up-to: 6\n" in out
        assert "table base_betti (0..9): 1 0 1 0 1 0 0 0? 0? 0?\n" in out
        assert "table loop_betti (0..9): 1 1 1 1 1 1 1? 1? 1? 1?\n" in out

    def test_aut_ranks_nearly_all_untrusted(self, trunc_cp2):
        code, out = run(["aut-ranks", trunc_cp2])
        assert code == 0
        # aut trust = completeness - 1 - formal dim = 6 - 1 - 4
        assert "trusted-up-to: 1\n" in out
        assert "table aut_ranks (1..8): 0 1? 0? 1? 0? 0? 0? 0?\n" in out

    def test_complete_model_has_no_markers(self):
        _, out = run(["verify", S2])
        assert "?" not in out


class TestJsonFormat:
    def test_shape_and_compactness(self):
        code, out = run(["verify", S2, "--format", "json"])
        assert code == 0
        assert out.endswith("\n")
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert sorted(doc.keys()) == [
            "command",
            "exit_code",
            "max_degree",
            "model",
            "tables",
            "trusted_up_to",
            "verdicts",
        ]
        assert doc["exit_code"] == 0
        assert doc["model"] == "S2"
        # canonical serialization: sorted keys, no spaces
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_tables_payload(self):
        _, out = run(["verify", S2, "--format", "json"])
        doc = json.loads(out)
        tables = doc["tables"]
        assert sorted(tables.keys()) == [
            "aut_ranks",
            "base_betti",
            "derivation_ranks",
            "hodge",
            "loop_betti",
            "low_degree_section_classes",
        ]
        assert tables["aut_ranks"] == {
            "start": 1,
            "trusted_up_to": 8,
            "values": [0, 1, 0, 0, 0, 0, 0, 0],
        }
        assert tables["hodge"]["start"] == 0
        assert tables["hodge"]["rows"][0] == [1]
        assert tables["hodge"]["rows"][4] == [0, 1, 0, 0, 0]
        verdict_names = [v["check"] for v in doc["verdicts"]]
        assert verdict_names[0] == "simply_connected"
        assert verdict_names[-1] == "rank_triple_agreement"
        assert all(v["pass"] is True for v in doc["verdicts"])

    def test_growth_tables_in_json(self):
        _, out = run(["betti", S3, "--max-degree", "10", "--growth", "--format", "json"])
        doc = json.loads(out)
        tables = doc["tables"]
        assert tables["growth_verdict"]["values"] == ["inconclusive"]
        assert tables["growth_roots"]["start"] == 1
        assert tables["growth_roots"]["values"][:3] == [
            "1.000000",
            "1.414213",
            "1.442249",
        ]
        assert tables["growth_partial_sums"]["start"] == 0
        assert tables["growth_ratios"]["values"][2] == "3/2"

    def test_failure_document(self):
        code, out = run(["verify", fixture("not_pd.model"), "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["exit_code"] == 1
        assert doc["error"] == "degree 4: H^4 has dimension 1 above the formal dimension"
        assert doc["tables"] == {}
        assert [v["check"] for v in doc["verdicts"]] == [
            "simply_connected",
            "minimal",
            "d_squared_zero",
        ]


class TestDeterminism:
    def test_json_byte_identical_across_runs(self):
        _, first = run(["verify", S2XS3, "--format", "json"])
        _, second = run(["verify", S2XS3, "--format", "json"])
        assert first == second

    def test_text_byte_identical_across_runs(self):
        _, first = run(["verify", CP2])
        _, second = run(["verify", CP2])
        assert first == second

    def test_jobs_do_not_change_output(self):
        _, serial = run(["verify", S2XS3, "--format", "json", "--jobs", "1"])
        _, parallel = run(["verify", S2XS3, "--format", "json", "--jobs", "3"])
        assert serial == parallel

    def test_jobs_do_not_change_hodge_text(self):
        _, serial = run(["hodge", S2XS3, "--max-degree", "12", "--jobs", "1"])
        _, parallel = run(["hodge", S2XS3, "--max-degree", "12", "--jobs", "3"])
        assert serial == parallel


def verdict_lines(out):
    return [line for line in out.splitlines() if line.startswith("verdict ")]


class TestFailedVerify:
    def test_corrupt_alpha_lists_checks_before_the_error(self, corrupt_quotient):
        corrupt_quotient()
        code, out = run(["verify", S2])
        assert code == 3
        assert verdict_lines(out) == [
            "verdict simply_connected: pass",
            "verdict minimal: pass",
            "verdict d_squared_zero: pass",
            "verdict poincare_duality: pass",
        ]
        assert out.endswith(
            "verdict poincare_duality: pass\n"
            "error: unit axiom fails at a_1\n"
            "exit-code: 3\n"
        )

    def test_failed_square_identity_stops_the_verdicts(self, monkeypatch):
        from loopspace import sections
        from loopspace.errors import SignIdentityFailure

        def broken(*args, **kwargs):
            raise SignIdentityFailure("square identity fails on the degree 3 slice")

        monkeypatch.setattr(sections, "build_dual_complex", broken)
        code, out = run(["verify", S2XS3])
        assert code == 3
        assert verdict_lines(out) == [
            "verdict simply_connected: pass",
            "verdict minimal: pass",
            "verdict d_squared_zero: pass",
            "verdict poincare_duality: pass",
            "verdict structure_identities: pass",
            "verdict quotient_quasi_iso: pass",
            "verdict loop_extension_quasi_iso: pass",
            "verdict duality_chain_property: pass",
            "verdict duality_cohomology_iso: pass",
        ]
        assert "error: square identity fails on the degree 3 slice\n" in out
        assert out.endswith("exit-code: 3\n")


class TestThinShell:
    """The CLI prints the verdicts the library records and adds none."""

    @pytest.mark.parametrize("command", ["betti", "hodge", "quotient",
                                         "aut-ranks", "verify"])
    @pytest.mark.parametrize("name", ["s2", "s2xs3"])
    def test_cli_verdicts_are_the_library_verdicts(self, name, command):
        code, out = run([command, str(loopspace.corpus_path(name)),
                         "--format", "json"])
        assert code == 0
        shown = [(v["check"], v["pass"]) for v in json.loads(out)["verdicts"]]
        got = []
        verify_theorems(loopspace.load_corpus_model(name), None,
                        _COMMANDS[command][1], got)
        assert shown == got

    @pytest.mark.parametrize("name", ["cp2", "s2xs3"])
    def test_aut_ranks_builds_no_loop_slice(self, name):
        # the rho (x) 1 square belongs to verify's loop_extension_quasi_iso
        # walk; aut-ranks reads only the word-length one extended slices
        report = verify_theorems(loopspace.load_corpus_model(name), None,
                                 _COMMANDS["aut-ranks"][1])
        assert not [key for key in report.flm._cache if key[0] == "d"]
        assert not [key for key in report.eqm._cache if key[0] == "rho"]
        assert report.eqm._cache


def scaled(rhs, c):
    """A differential's right-hand side with every term multiplied by c."""
    terms = []
    for sign, body in re.findall(r"([+-]?)\s*([^+\-]+)", rhs):
        coef, star, mono = body.strip().partition("*")
        if not star or not re.fullmatch(r"\d+(/\d+)?", coef):
            coef, mono = "1", body.strip()
        v = Fraction(coef) * c * (-1 if sign == "-" else 1)
        terms.append("%s %s*%s" % ("-" if v < 0 else "+", abs(v), mono))
    return " ".join(terms).removeprefix("+ ")


@st.composite
def edited_models(draw):
    """A shipped model after one to three edits of its `d` lines."""
    name = draw(st.sampled_from(loopspace.corpus_models()))
    lines = loopspace.corpus_path(name).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        d_rows = [i for i, line in enumerate(lines) if line.startswith("d ")]
        if not d_rows:
            break
        i = draw(st.sampled_from(d_rows))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "negate", "rescale")))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            c = -1 if edit == "negate" else draw(st.sampled_from(
                (2, -3, Fraction(1, 2), Fraction(-5, 7))))
            head, _, rhs = lines[i].partition("=")
            lines[i] = "%s= %s" % (head, scaled(rhs, c))
    return "\n".join(lines) + "\n"


class TestFuzz:
    """Mangled inputs end with an exit code of the contract, never with an
    exception; exit 4 (an internal check failed) would be a bug here."""

    def test_scaled_rewrites_every_term(self):
        assert scaled(" a^2 + a*b + b^2", -1) == "- 1*a^2 - 1*a*b - 1*b^2"
        assert scaled("x^2 - 2*y", Fraction(1, 2)) == "1/2*x^2 - 1*y"

    @given(edited_models())
    @settings(max_examples=60, deadline=None)
    def test_verify_on_edited_models(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "edited.model"
        path.write_text(text, encoding="utf-8")
        code, out = run(["verify", str(path), "--max-degree", "6"])
        assert code in (0, 1, 2, 3), out
        assert out.endswith("exit-code: %d\n" % code)

    @given(st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_validate_on_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.model"
        path.write_bytes(data)
        code, out = run(["validate", str(path), "--max-degree", "6"])
        assert code in (0, 1, 2, 3), out
        assert out.endswith("exit-code: %d\n" % code)
