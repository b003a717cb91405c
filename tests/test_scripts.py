"""The helper scripts under scripts/, run as a user runs them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORT = ROOT / "scripts" / "export_witnesses.py"


def export(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(EXPORT), *args], capture_output=True, text=True, timeout=60)


class TestExportWitnesses:
    def test_invalid_program_is_reported_not_raised(self, tmp_path):
        source = tmp_path / "bad.lit"
        source.write_text("name: t\ninit: x = 0\nthread P0:\n  store x r9\nexists: x = 0\n")
        out = tmp_path / "dots"
        result = export(str(source), "--out", str(out))
        assert result.returncode == 2
        assert "unwritten register" in result.stderr and "r9" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_writes_one_graph_per_outcome(self, tmp_path):
        out = tmp_path / "dots"
        result = export(str(ROOT / "corpus" / "dekker.lit"), "--model", "tso", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in out.iterdir()) == [f"dekker-tso-{i}.dot" for i in range(4)]
