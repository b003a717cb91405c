"""Command-line behaviour: exit codes, reports, dot and json output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from memlit.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

DEKKER = CORPUS / "dekker.lit"

WEAK_CAS = """\
name: weak
init: x = 0
thread P0:
  r1 = cas_weak x 0 1
exists: x = 0
# expected: sc allowed
"""


def write(tmp_path: Path, text: str, name: str = "test.lit") -> str:
    target = tmp_path / name
    target.write_text(text)
    return str(target)


class TestExitCodes:
    def test_match_is_zero(self, capsys):
        assert main(["check", str(DEKKER), "--model", "all"]) == 0
        out = capsys.readouterr().out
        assert "expected tso allowed: ok" in out

    def test_mismatch_is_one(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 1\n"
            "# expected: sc forbidden\n",
        )
        assert main(["check", path, "--model", "sc"]) == 1
        assert "MISMATCH (got allowed)" in capsys.readouterr().out

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.lit")]) == 2
        assert capsys.readouterr().err

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "name: t\ninit: x = 0\nthread P0:\n  blargh x 1\nexists: x = 0\n")
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}:4:" in err

    def test_validation_error_is_two(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "name: t\ninit: x = 0\nthread P0:\n  store x r9\nexists: x = 0\n",
        )
        assert main(["check", path]) == 2
        assert "r9" in capsys.readouterr().err

    def test_malformed_expectation_is_two(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 1\n"
            "# expected: sc sometimes\n",
        )
        assert main(["check", path]) == 2

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DEKKER), "--model", "ppc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--max-candidates", "-5"), ("--max-states", "0")])
    def test_non_positive_budget_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DEKKER), flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_resource_limit_is_three(self, capsys):
        assert main(["check", str(DEKKER), "--model", "cxx11", "--max-candidates", "1"]) == 3
        assert "limit" in capsys.readouterr().err

    def test_state_limit_is_three(self):
        assert main(["check", str(DEKKER), "--model", "tso", "--max-states", "2"]) == 3


class TestReport:
    def test_witness_outcomes_are_starred(self, capsys):
        main(["check", str(DEKKER), "--model", "tso"])
        out = capsys.readouterr().out
        assert "  * P0:r1=0 P1:r1=0 | x=1 y=1" in out

    def test_skipped_expectations_are_reported(self, capsys):
        main(["check", str(DEKKER), "--model", "sc"])
        out = capsys.readouterr().out
        assert "expected tso allowed: skipped (model not run)" in out

    def test_race_warning_printed(self, capsys):
        main(["check", str(CORPUS / "race.lit"), "--model", "cxx11"])
        out = capsys.readouterr().out
        assert "data race" in out

    def test_compare_runs_all_models(self, capsys):
        assert main(["check", str(DEKKER), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "SC within TSO: holds (TSO adds 1)" in out
        for model in ("sc", "tso", "cxx11"):
            assert f"\n  {model}" in out


class TestWeakSpuriousFlag:
    def test_default_allows_spurious_failure(self, tmp_path):
        assert main(["check", write(tmp_path, WEAK_CAS), "--model", "sc"]) == 0

    def test_flag_removes_failure_branch(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, WEAK_CAS), "--model", "sc", "--no-weak-spurious"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestStrictSFlag:
    def test_no_strict_s_admits_dekker(self, capsys):
        assert main(["check", str(DEKKER), "--model", "cxx11", "--no-strict-s"]) == 1
        out = capsys.readouterr().out
        assert "expected cxx11 forbidden: MISMATCH (got allowed)" in out

    def test_strict_s_explicit(self):
        assert main(["check", str(DEKKER), "--model", "cxx11", "--strict-s"]) == 0


class TestJson:
    def test_document_schema(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        assert main(["check", str(DEKKER), "--model", "all", "--json-ish", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["name"] == "dekker"
        assert doc["match"] is True
        assert set(doc["models"]) == {"sc", "tso", "cxx11"}
        tso = doc["models"]["tso"]
        assert tso["verdict"] == "allowed"
        assert "P0:r1=0 P1:r1=0 | x=1 y=1" in tso["witnesses"]
        assert len(tso["outcomes"]) == 4
        assert any(e["model"] == "sc" and e["match"] for e in doc["expectations"])

    def test_all_model_runs_match_single_runs(self, tmp_path, capsys):
        combined = tmp_path / "all.json"
        main(["check", str(DEKKER), "--model", "all", "--json-ish", str(combined)])
        merged = json.loads(combined.read_text())["models"]
        for model in ("sc", "tso", "cxx11"):
            single = tmp_path / f"{model}.json"
            main(["check", str(DEKKER), "--model", model, "--json-ish", str(single)])
            doc = json.loads(single.read_text())["models"]
            assert doc[model]["outcomes"] == merged[model]["outcomes"]
            assert doc[model]["verdict"] == merged[model]["verdict"]


class TestDot:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["check", str(DEKKER), "--model", "all", "--dot", str(a)])
        main(["check", str(DEKKER), "--model", "all", "--dot", str(b)])
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_one_file_per_outcome(self, tmp_path, capsys):
        out = tmp_path / "dots"
        main(["check", str(DEKKER), "--model", "all", "--dot", str(out)])
        names = {p.name for p in out.iterdir()}
        assert {f"dekker-sc-{i}.dot" for i in range(3)} <= names
        assert {f"dekker-tso-{i}.dot" for i in range(4)} <= names
        assert {f"dekker-cxx11-{i}.dot" for i in range(3)} <= names

    def test_execution_graphs_show_relations(self, tmp_path, capsys):
        out = tmp_path / "dots"
        main(["check", str(CORPUS / "mp_rel_acq.lit"), "--model", "cxx11", "--dot", str(out)])
        text = "".join(p.read_text() for p in sorted(out.iterdir()))
        assert "digraph" in text
        assert 'label="rf"' in text and 'label="mo"' in text and 'label="sw"' in text

    def test_traces_show_buffer_steps(self, tmp_path, capsys):
        out = tmp_path / "dots"
        main(["check", str(DEKKER), "--model", "tso", "--dot", str(out)])
        text = "".join(p.read_text() for p in sorted(out.iterdir()))
        assert "dequeue" in text and 'label="prop"' in text
