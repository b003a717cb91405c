"""Pinned witnesses: for every corpus file and model, the explored count and
a hash of the graphs `memlit check FILE --dot DIR` writes, in sorted-outcome
order, under default flags.

A change to a count or to any witness shows as a changed row of
`witnesses.txt`.  When that change is the point, rewrite the table with

    PYTHONPATH=src python tests/test_witnesses.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from memlit.cli import main

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
TABLE = Path(__file__).with_name("witnesses.txt")
HEADER = "# corpus-file model explored sha256(dot graphs)[:16]"


def current_rows() -> list[str]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(CORPUS_DIR.glob("*.lit")):
            dots = Path(tmp) / path.stem
            report = Path(tmp) / f"{path.stem}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["check", str(path), "--dot", str(dots), "--json-ish", str(report)])
            assert status in (0, 1), f"{path.name}: memlit check exited {status}"
            graphs: dict[str, list[tuple[int, Path]]] = {}
            for graph in dots.iterdir():
                _, model, index = graph.stem.rsplit("-", 2)
                graphs.setdefault(model, []).append((int(index), graph))
            for model, result in json.loads(report.read_text())["models"].items():
                digest = hashlib.sha256()
                for _, graph in sorted(graphs.get(model, ())):
                    digest.update(graph.read_bytes())
                rows.append(f"{path.stem} {model} {result['explored']} {digest.hexdigest()[:16]}")
    return rows


def _keyed(rows: list[str]) -> dict[str, str]:
    return {" ".join(row.split()[:2]): row for row in rows}


def test_witnesses_match_the_table():
    want = _keyed([line for line in TABLE.read_text().splitlines() if not line.startswith("#")])
    got = _keyed(current_rows())
    differ = [
        f"{key}: table {want.get(key)!r}, now {got.get(key)!r}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    TABLE.write_text("\n".join([HEADER, *current_rows()]) + "\n")
