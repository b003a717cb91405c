"""Command-line behaviour: exit codes, reports, dot and json output, several files."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from memlit.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

DEKKER = CORPUS / "dekker.lit"

INVALID = "name: t\ninit: x = 0\nthread P0:\n  store x r9\nexists: x = 0\n"

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
        assert "expected cxx11 forbidden: ok" in out

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
        path = write(tmp_path, INVALID)
        assert main(["check", path]) == 2
        assert "r9" in capsys.readouterr().err

    def test_thread_level_diagnostic_names_only_the_thread(self, tmp_path, capsys):
        stores = "".join(f"  store x {v}\n" for v in range(1, 10))
        path = write(tmp_path, f"name: t\ninit: x = 0\nthread P0:\n{stores}exists: x = 1\n")
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            f"{path}: error: instruction limit exceeded: 9 instructions, limit 8 (thread 0)\n"
        )

    def test_instruction_level_diagnostic_names_its_place(self, tmp_path, capsys):
        path = write(tmp_path, INVALID)
        assert main(["check", path]) == 2
        assert "(thread 0, instruction 0)\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "flag, target",
        [("--json-ish", "missing/doc.json"), ("--json-ish", "."), ("--dot", "plain.txt")],
    )
    def test_unwritable_output_is_two(self, tmp_path, flag, target, capsys):
        (tmp_path / "plain.txt").write_text("")
        assert main(["check", str(DEKKER), "--model", "sc", flag, str(tmp_path / target)]) == 2
        assert "error: cannot write" in capsys.readouterr().err


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


class TestWeakCas:
    def test_default_allows_spurious_failure(self, tmp_path):
        assert main(["check", write(tmp_path, WEAK_CAS), "--model", "sc"]) == 0

    def test_cas_strong_removes_failure_branch(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, WEAK_CAS.replace("cas_weak", "cas_strong")), "--model", "sc"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestRemovedFlags:
    @pytest.mark.parametrize("flag", ["--strict-s", "--no-strict-s", "--no-weak-spurious"])
    def test_is_an_unknown_argument(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DEKKER), "--model", "cxx11", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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


class TestSeveralFiles:
    def test_corpus_annotations_hold(self, capsys):
        paths = [str(p) for p in sorted(CORPUS.glob("*.lit"))]
        assert main(["check", *paths]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["file", "sc", "tso", "cxx11", "race", "time"]
        assert len(lines) == len(paths) + 2
        assert re.fullmatch(r"41 tests, 0 mismatched, \d+\.\d\d s", lines[-1])
        rows = {line.split()[0]: line.split()[1:5] for line in lines[1:-1]}
        assert rows[str(DEKKER)] == ["forbidden", "allowed", "forbidden", "race-free"]
        assert rows[str(CORPUS / "race.lit")] == ["allowed", "allowed", "allowed", "racy"]

    def test_mismatch_row_and_exit_one(self, tmp_path, capsys):
        wrong = write(
            tmp_path,
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 1\n"
            "# expected: sc forbidden\n",
        )
        assert main(["check", str(DEKKER), wrong, "--model", "sc"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["file", "sc", "time"]
        assert lines[1].split()[:2] == [str(DEKKER), "forbidden"]
        assert "<-" not in lines[1]  # dekker's tso and cxx11 expectations are skipped, not mismatched
        assert lines[2].startswith(wrong) and lines[2].endswith("  <- sc: expected forbidden, got allowed")
        assert lines[3].startswith("2 tests, 1 mismatched, ")

    def test_invalid_file_is_reported_and_nothing_runs(self, tmp_path, capsys):
        bad = write(tmp_path, INVALID, "bad.lit")
        unparsable = write(tmp_path, "name: t\ninit: x = 0\nthread P0:\n  blargh x 1\nexists: x = 0\n", "ugly.lit")
        out = tmp_path / "dots"
        assert main(["check", str(DEKKER), bad, unparsable, "--dot", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unwritten register" in captured.err and "r9" in captured.err
        assert f"{unparsable}:4:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_dot_writes_every_files_graphs(self, tmp_path, capsys):
        paths = [DEKKER, CORPUS / "mp_rel_acq.lit"]
        together = tmp_path / "together"
        assert main(["check", *map(str, paths), "--model", "tso", "--dot", str(together)]) == 0
        names = sorted(p.name for p in together.iterdir())
        assert [n for n in names if n.startswith("dekker-")] == [f"dekker-tso-{i}.dot" for i in range(4)]
        apart = tmp_path / "apart"
        for path in paths:
            main(["check", str(path), "--model", "tso", "--dot", str(apart)])
        assert names == sorted(p.name for p in apart.iterdir())
        for name in names:
            assert (together / name).read_bytes() == (apart / name).read_bytes()

    def test_dot_refuses_tests_that_share_a_name(self, tmp_path, capsys):
        mp = (CORPUS / "mp_rel_acq.lit").read_text()
        assert "name: mp_rel_acq\n" in mp
        other = write(tmp_path, mp.replace("name: mp_rel_acq\n", "name: dekker\n"), "other.lit")
        out = tmp_path / "dots"
        assert main(["check", str(DEKKER), other, "--model", "sc", "--dot", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {DEKKER} and {other} both name their test dekker; --dot would overwrite its graphs\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_budget_names_the_file(self, capsys):
        iriw = str(CORPUS / "iriw_seq_cst.lit")
        assert main(["check", iriw, str(DEKKER), "--model", "cxx11", "--max-candidates", "1"]) == 3
        assert f"{iriw}: error: candidate limit exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--compare", "--json-ish"])
    def test_single_file_flags_refuse_several(self, tmp_path, flag, capsys):
        extra = [str(tmp_path / "doc.json")] if flag == "--json-ish" else []
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DEKKER), str(DEKKER), flag, *extra])
        assert exc.value.code == 2
        assert "take a single file" in capsys.readouterr().err
        assert not (tmp_path / "doc.json").exists()
