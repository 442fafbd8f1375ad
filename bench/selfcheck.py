"""Checks on the benchmark's own generators.

    python3 bench/selfcheck.py

1. At seed 0, ``desk-repeat`` is exactly the document (and planted
   constant counts) of ``_desk_scale_document`` in
   ``tests/test_acceptance.py``, so its numbers stay comparable with
   acceptance criterion 8.  The function is read from the test file's
   source, so no test dependency is imported.
2. Every workload's files are byte-identical for the same seed and
   differ for another seed.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import corpora  # noqa: E402


def acceptance_desk_document():
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_desk_scale_document"]
    namespace: dict = {}
    exec(compile(ast.Module(body=[fn], type_ignores=[]), "test_acceptance.py", "exec"), namespace)
    return namespace["_desk_scale_document"]()


def _file_bytes(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    corpus = corpora.build(workload, seed, directory)
    return {p.name: p.read_bytes() for p in corpus.files}


def main() -> int:
    ok = True
    doc, planted = acceptance_desk_document()
    ours, our_planted, ref = corpora.desk_document(0)
    same = json.dumps(doc) == json.dumps(ours) and planted == our_planted
    print(f"desk-repeat seed 0 equals the acceptance desk document: {same}")
    ok &= same
    ok &= ref.formulas == 51183 and len(ref.cells) == 51183

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in corpora.WORKLOADS:
            first = _file_bytes(workload, 7, Path(tmp) / f"{workload}-a")
            again = _file_bytes(workload, 7, Path(tmp) / f"{workload}-b")
            other = _file_bytes(workload, 8, Path(tmp) / f"{workload}-c")
            deterministic = first == again
            varies = first != other
            print(f"{workload}: same seed, same bytes: {deterministic}; other seed differs: {varies}")
            ok &= deterministic and varies
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
