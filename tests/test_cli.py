import argparse
import csv
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bornverifier import cli, derivation, detectors, reporting

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


def operator_texts():
    """Arbitrary text, and "diag:" forms whose entries run from valid
    numbers through overflowing and non-finite ones to junk."""
    entry = st.one_of(
        st.floats().map(repr),
        st.sampled_from(["1e400", "-1e400", "inf", "nan", "-0", "1_0", "", " 2 "]),
        st.text(max_size=4),
    )
    forms = st.lists(entry, max_size=3).map(lambda parts: "diag:" + ",".join(parts))
    return st.one_of(st.text(max_size=12), forms)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.qexp"
    path.write_text(
        "wire w0 : 2\nwire w1 : 2\n"
        "state S = sqrt(0.75)*|uu> + sqrt(0.25)*|dd>\n"
        "prepare S\n"
        "measure w1 SG -> first\n"
        "query up : first = u\n"
    )
    return path


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--out", str(out), "--subset", "lemma2")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall_pass"] is True
        assert doc["seed"] == 42
        assert doc["tolerance"] == 1e-9
        assert all("lemma2" in r["name"] for r in doc["reports"])

    def test_zero_tolerance_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--tolerance", "0", "--subset", "lemma2", "--out", str(out)
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["overall_pass"] is False

    def test_depth_flag_reaches_reports(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(
            "verify", "--subset", "lemma3", "--depth", "8", "--out", str(out)
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["reports"]
        assert all("depth=8" in r["name"] for r in doc["reports"])

    def test_csv_summary_written(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "summary.csv"
        run_cli("verify", "--subset", "lemma2", "--out", str(out), "--csv", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "name,kind,passed,max_deviation,tolerance"
        assert len(lines) >= 2

    def test_csv_quotes_a_name_with_a_comma_or_quote(self, tmp_path):
        wf_path = tmp_path / 'a,b "q".txt'
        wf_path.write_text("\n".join(f"{i * 0.005:.6f} 1.0" for i in range(200)) + "\n")
        csv_path = tmp_path / "summary.csv"
        run_cli(
            "verify", "--subset", "isospin", "--wavefunction", str(wf_path),
            "--out", str(tmp_path / "report.json"), "--csv", str(csv_path),
        )
        text = csv_path.read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [5] * len(rows)
        assert 'isospin-born[a,b "q".txt]' in [row[0] for row in rows]
        # A name without a comma or quote is written as it is.
        assert "\nisospin-born[gaussian],verification,true," in text

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setenv("BORNVERIFIER_SEED", "7")
        run_cli("verify", "--subset", "lemma2", "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 7

    def test_wavefunction_file_included(self, tmp_path):
        wf_path = tmp_path / "wf.txt"
        n = 200  # constant 1.0 on [0, 1): unit norm on this grid
        wf_path.write_text(
            "\n".join(f"{i * 0.005:.6f} 1.0" for i in range(n)) + "\n"
        )
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--subset", "isospin", "--wavefunction", str(wf_path),
            "--out", str(out),
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out.read_text())["reports"]]
        assert any("wf.txt" in name for name in names)

    def test_unnormalized_wavefunction_rejected(self, tmp_path):
        wf_path = tmp_path / "wf.txt"
        wf_path.write_text("\n".join(f"{i * 0.005:.6f} 2.0" for i in range(200)) + "\n")
        assert run_cli("verify", "--wavefunction", str(wf_path)) == 2

    def test_non_finite_wavefunction_exits_2_with_line(self, tmp_path, capsys):
        wf_path = tmp_path / "wf.txt"
        wf_path.write_text("0.0 1.0\n1 nan\n")
        assert run_cli("verify", "--subset", "isospin", "--wavefunction", str(wf_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {wf_path}:2: values must be finite")

    @pytest.mark.parametrize("data", [b"0.0 1.0\n0.5 \xff\n", "0.0 1.0\n0.5 \u0662.0\n".encode()])
    def test_unreadable_wavefunction_value_exits_2_with_line(self, tmp_path, capsys, data):
        wf_path = tmp_path / "wf.txt"
        wf_path.write_bytes(data)
        assert run_cli("verify", "--subset", "isospin", "--wavefunction", str(wf_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {wf_path}:2: ")

    def test_invalid_flag_exits_2(self, capsys):
        assert run_cli("verify", "--bogus") == 2

    def test_zero_depth_exits_2_at_the_flag(self, capsys):
        assert run_cli("verify", "--subset", "lemma3", "--depth", "0") == 2
        assert "--depth" in capsys.readouterr().err

    def test_depth_past_the_float_range_exits_2_at_the_flag(self, capsys, tmp_path):
        # 2.0**1024 overflows a double, so 1023 is the deepest profile.
        assert run_cli("verify", "--subset", "lemma3", "--depth", "1024") == 2
        assert "argument --depth: must be a finite int in [1, 1023], got '1024'" in capsys.readouterr().err
        assert run_cli("verify", "--subset", "lemma3", "--depth", "1023", "--out", str(tmp_path / "r.json")) == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance", "inf"), ("--tolerance", "-inf"), ("--tolerance", "nan"),
         ("--tolerance", "-1"), ("--tolerance", "x"), ("--seed", "-5"), ("--seed", "1.5"),
         ("--seed", "abc"),
         # Only ASCII decimals: no digits of other scripts, underscores or spaces.
         ("--seed", "\u0664\u0662"), ("--seed", "4_2"), ("--seed", " 42"), ("--depth", "1_0"),
         ("--tolerance", "1_0e-9"), ("--tolerance", "\u0661e-9")],
    )
    def test_bad_number_exits_2_at_the_flag(self, flag, value, capsys):
        assert run_cli("verify", "--subset", "lemma2", flag, value) == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err

    @pytest.mark.parametrize("value", ["abc", "-3", "", "4.0", "\u0664\u0662", "4_2", "42 "])
    def test_bad_seed_variable_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("BORNVERIFIER_SEED", value)
        assert run_cli("verify", "--subset", "lemma2") == 2
        assert capsys.readouterr().err.startswith("error: $BORNVERIFIER_SEED")

    @pytest.mark.parametrize("paths", [("a/w.txt", "b/w.txt"), ("gaussian",)])
    def test_clashing_wavefunction_names_exit_2_before_any_check(self, paths, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(derivation, "verify_envariance", boom)
        argv = []
        for path in paths:
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_text("\n".join(f"{i * 0.005:.6f} 1.0" for i in range(200)) + "\n")
            argv += ["--wavefunction", str(tmp_path / path)]
        assert run_cli("verify", *argv) == 2
        label = Path(paths[-1]).name
        assert capsys.readouterr().err == (
            f"error: --wavefunction: report 'isospin-born[{label}]' is declared twice; give the file another name\n"
        )

    def test_unmatched_subset_exits_2(self, capsys):
        assert run_cli("verify", "--subset", "nosuch") == 2
        assert capsys.readouterr().err == "error: --subset 'nosuch' matches no report\n"

    def test_internal_failure_exits_3(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("broken verifier")

        monkeypatch.setattr(derivation, "verify_envariance", broken)
        assert run_cli("verify", "--subset", "envariance") == 3
        assert capsys.readouterr().err == "internal error: ValueError: broken verifier\n"


class TestEval:
    def test_prints_probability(self, pair_file, capsys):
        assert run_cli("eval", str(pair_file), "up") == 0
        assert capsys.readouterr().out.strip() == "0.74999999999999989"

    def test_missing_query_exits_2(self, pair_file, capsys):
        assert run_cli("eval", str(pair_file), "nope") == 2
        assert "unknown query" in capsys.readouterr().err

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.qexp"
        bad.write_text("wire w0 : 2\ngate X on w0\n")
        assert run_cli("eval", str(bad), "q") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    @pytest.mark.parametrize(
        "text,where",
        [
            ("wire w0 : 2\nstate s = |u>\nwire w1 : 2\n", "line 3, column 6"),
            ("wire w0 : 2\nstate s = 1e400*|u> - 1e400*|u> + 1*|d>\n", "line 2, column 11"),
        ],
    )
    def test_declaration_error_exits_2_with_position(self, tmp_path, capsys, text, where):
        bad = tmp_path / "bad.qexp"
        bad.write_text(text + "prepare s\nmeasure w0 SG -> m\nquery q : m = u\n")
        assert run_cli("eval", str(bad), "q") == 2
        assert capsys.readouterr().err.startswith(f"parse error: {where}:")

    def test_file_that_is_not_utf8_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.qexp"
        bad.write_bytes(b"wire w0 : 2\nstate s = \xff|u>\n")
        assert run_cli("eval", str(bad), "q") == 2
        assert capsys.readouterr().err.startswith("parse error: line 2, column 11:")

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("eval", str(tmp_path / "none.qexp"), "q") == 2

    def test_no_click_of_an_always_detector_then_a_gate(self, tmp_path, capsys):
        # The oracle reads the click as 1 - 1.1e-16 on this state, but the
        # no-click Kraus operator is 0, so that branch ends before the gate.
        path = tmp_path / "always.qexp"
        path.write_text(
            "wire w : 2\n"
            "detector always = effect [[1, 0], [0, 1]]\n"
            "unitary X = [[0, 1], [1, 0]]\n"
            "state s = sqrt(0.1)*|u> + sqrt(0.9)*|d>\n"
            "prepare s\n"
            "measure w det always -> m\n"
            "gate X on w\n"
            "query q : m = noclick\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("eval", str(path), "q") == 0
        assert abs(float(capsys.readouterr().out)) <= 1e-12


class TestTomography:
    def test_projective_spec(self, tmp_path, capsys):
        spec = tmp_path / "det.qexp"
        spec.write_text("wire w0 : 2\ndetector P = effect [[1, 0], [0, 0]]\n")
        assert run_cli("tomography", str(spec)) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["reports"][0]
        assert report["alpha"][2] == pytest.approx(0.5, abs=1e-9)
        assert report["beta"] == pytest.approx(0.5, abs=1e-9)

    def test_constant_spec(self, tmp_path, capsys):
        spec = tmp_path / "det.qexp"
        spec.write_text("wire w0 : 2\ndetector C = effect [[0.5, 0], [0, 0.5]]\n")
        assert run_cli("tomography", str(spec)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(abs(v) for v in doc["reports"][0]["alpha"]) < 1e-9

    def test_ancilla_spec_matches_effect(self, tmp_path, capsys):
        spec = tmp_path / "det.qexp"
        spec.write_text(
            "wire w0 : 2\n"
            "detector A = ancilla 2 coupling [[1, 0, 0, 0], [0, 1, 0, 0], "
            "[0, 0, 0, 1], [0, 0, 1, 0]] projector [[1, 0], [0, 0]]\n"
            "detector E = effect [[1, 0], [0, 0]]\n"
        )
        assert run_cli("tomography", str(spec)) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in doc["reports"]}
        for axis in range(3):
            assert by_name["tomography:A"]["alpha"][axis] == pytest.approx(
                by_name["tomography:E"]["alpha"][axis], abs=1e-9
            )

    def test_no_detectors_exits_2(self, pair_file, capsys):
        assert run_cli("tomography", str(pair_file)) == 2

    @pytest.mark.parametrize("flag", [("--seed", "7"), ("--tolerance", "0"), ("--tolerance", "0.5")])
    def test_seed_and_tolerance_flags_exit_2(self, flag, tmp_path, capsys):
        # Tomography draws nothing, and each verdict uses the response's own
        # fixed slack, so neither flag would change its report.
        spec = tmp_path / "det.qexp"
        spec.write_text("wire w0 : 2\ndetector P = effect [[1, 0], [0, 0]]\n")
        assert run_cli("tomography", str(spec), *flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, seed", [(None, 42), ("7", 7)])
    def test_header_echoes_default_seed_and_tolerance(self, variable, seed, tmp_path, capsys, monkeypatch):
        if variable is None:
            monkeypatch.delenv("BORNVERIFIER_SEED", raising=False)
        else:
            monkeypatch.setenv("BORNVERIFIER_SEED", variable)
        spec = tmp_path / "det.qexp"
        spec.write_text("wire w0 : 2\ndetector P = effect [[1, 0], [0, 0]]\n")
        assert run_cli("tomography", str(spec)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["seed"], doc["tolerance"]) == (seed, 1e-9)

    def test_pass_flag_agrees_with_to_povm(self):
        # Eigenvalues beta +- |alpha| = 1 + 5e-10 and -5e-10: inside the
        # response's own slack, so the effect is accepted and passes.
        response = detectors.AffineResponse([0.0, 0.0, 0.5 + 5e-10], 0.5)
        entry = cli.TomographyEntry("E", response, detectors.to_povm(response))
        assert entry.passed
        assert entry.to_dict()["passed"] is True


class TestCounterexamples:
    def test_reference_rule_passes(self, tmp_path):
        out = tmp_path / "battery.json"
        assert run_cli("counterexamples", "born", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["overall_pass"] is True

    def test_cubic_rule_fails_decomposition(self, tmp_path):
        out = tmp_path / "battery.json"
        assert run_cli("counterexamples", "cubic3", "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        battery = doc["reports"][0]
        assert battery["identities"]["a5-decomposition"] == "fail"
        assert battery["deviations"]["a5-decomposition"] > 1e-2

    def test_csv_row_carries_the_worst_identity_deviation(self, tmp_path):
        out, csv_path = tmp_path / "battery.json", tmp_path / "battery.csv"
        run_cli("counterexamples", "cubic3", "--out", str(out), "--csv", str(csv_path))
        battery = json.loads(out.read_text())["reports"][0]
        (row,) = list(csv.reader(io.StringIO(csv_path.read_text())))[1:]
        assert row[:3] == ["counterexample:cubic3", "battery", "false"]
        assert float(row[3]) == max(battery["deviations"].values()) > 1e-2

    def test_modified_rule_operator_flag(self, tmp_path):
        out = tmp_path / "battery.json"
        code = run_cli(
            "counterexamples",
            "modified2",
            "--A",
            "diag:2,0.6666666666666666",
            "--out",
            str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["born_deviation"] > 0.01

    def test_bad_rule_exits_2(self, capsys):
        assert run_cli("counterexamples", "bogus") == 2

    def test_bad_operator_exits_2(self, capsys):
        assert run_cli("counterexamples", "modified2", "--A", "nope") == 2

    def test_operator_that_is_not_positive_exits_2(self, capsys):
        assert run_cli("counterexamples", "modified2", "--A", "diag:1,-1") == 2
        assert capsys.readouterr().err == "error: modified-product operator must be positive definite\n"

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_non_finite_operator_exits_2(self, entry, capsys):
        # pytest turns a numpy RuntimeWarning into an error.
        assert run_cli("counterexamples", "modified2", "--A", f"diag:{entry},1") == 2
        assert capsys.readouterr().err == "error: operator entries must be finite\n"

    @pytest.mark.parametrize("entry", ["2_0", "\u0662", "\uff12.5", "1e1_0"])
    def test_operator_entries_must_be_ascii_numerals(self, entry, capsys):
        assert run_cli("counterexamples", "modified2", "--A", f"diag:{entry},1") == 2
        assert capsys.readouterr().err == f"error: bad operator entries: not an ASCII decimal number: {entry!r}\n"

    @pytest.mark.parametrize("rule", ["born", "random1", "cubic3", "Cubic3"])
    def test_operator_flag_with_another_rule_exits_2(self, rule, capsys):
        assert run_cli("counterexamples", rule, "--A", "diag:2,1") == 2
        assert capsys.readouterr() == ("", f"error: --A applies only to modified2, not {rule.lower()}\n")

    def test_empty_operator_exits_2(self, capsys):
        assert run_cli("counterexamples", "modified2", "--A", "") == 2
        assert capsys.readouterr().err == "error: operator must look like diag:<a>,<b>\n"

    @settings(max_examples=150, deadline=None)
    @given(operator_texts())
    def test_any_operator_text_gives_finite_operator_or_usage_error(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                operator = cli._parse_operator(text)
            except cli._UsageError:
                return
        assert operator.shape == (2, 2) and np.isfinite(operator).all()


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--seed", "42", "--subset", "identity", "--out", str(a))
        run_cli("verify", "--seed", "42", "--subset", "identity", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text",
        ['say "hi"', "back\\slash", "\x00\x08\t\n\x0c\r\x1f\x7f", "ünïcödé λ → ∞ \U0001f600", ""],
    )
    def test_strings_round_trip_through_json(self, text):
        document = reporting.canonical_json({text: [text]})
        assert json.loads(document) == {text: [text]}
        assert not any(ord(c) < 0x20 for c in document[:-1])  # control characters escaped
        assert all(c in document for c in text if ord(c) > 0x7F)  # non-ASCII written as is


class TestReadmeUsage:
    def test_usage_block_lists_each_commands_flags(self):
        # Each ``bornverifier <command>`` entry of README's usage block,
        # continuation lines included, lists exactly the flags the parser
        # accepts for that command, and every command has an entry.
        section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        listed = {
            entry.split()[1]: set(re.findall(r"--[A-Za-z][\w-]*", entry))
            for entry in re.split(r"^(?=bornverifier )", block, flags=re.M)
            if entry
        }
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()
        }
        assert listed == accepted
