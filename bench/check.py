"""Checks rendered reports against the generator's reference.

Works on the report bodies as bytes and parses them with the standard
library only; sheetaudit itself is never consulted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from corpora import CONSTANT_KINDS, Corpus, WorkbookRef

_MAX_PROBLEMS = 20


@dataclass
class Tally:
    """Cell-level outcome of checking one pass's outputs."""

    checked: int = 0
    failed: int = 0
    failed_by_cause: Counter = field(default_factory=Counter)
    # disagreements no recorded cause explains, and report-level errors
    problems: list[str] = field(default_factory=list)
    unexplained: int = 0

    def problem(self, text: str) -> None:
        self.unexplained += 1
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(text)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.checked if self.checked else 1.0


def _same_number(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


def _cell_agrees(expect, got) -> bool:
    if expect.kind is None:
        return got is None
    if got is None or got.get("kind") != expect.kind:
        return False
    if expect.kind in CONSTANT_KINDS:
        values = [c["value"] for c in got.get("constants", [])]
        if len(values) != len(expect.constants):
            return False
        if not all(_same_number(v, e) for v, e in zip(values, expect.constants)):
            return False
        if got.get("formula") != expect.formula:
            return False
    return _same_number(got.get("value"), expect.value)


def _cell_key(finding: dict) -> tuple[str, str]:
    return finding["sheet"], finding["cell"].replace("$", "")


def check_detail_json(body: bytes | None, ref: WorkbookRef, tally: Tally) -> dict | None:
    """Check one JSON detail report; a missing body fails every cell."""
    if body is None:
        tally.checked += len(ref.cells)
        tally.failed += len(ref.cells)
        tally.failed_by_cause["no report"] += len(ref.cells)
        tally.problem(f"{ref.name}: no report")
        return None
    doc = json.loads(body)
    findings: dict[tuple[str, str], dict] = {}
    for finding in doc["findings"]:
        key = _cell_key(finding)
        if key in findings:
            tally.problem(f"{ref.name}: two findings for {key}")
        findings[key] = finding
    failed_before = tally.failed
    for key, expect in ref.cells.items():
        tally.checked += 1
        if _cell_agrees(expect, findings.pop(key, None)):
            continue
        tally.failed += 1
        if expect.cause is None:
            tally.failed_by_cause["unexplained"] += 1
            tally.problem(f"{ref.name}: {key[0]}!{key[1]} {expect.formula or expect.value!r} disagrees")
        else:
            tally.failed_by_cause[expect.cause] += 1
    for key in findings:
        tally.problem(f"{ref.name}: finding for unpopulated cell {key}")

    counts = doc["counts"]
    reported = sum(len(f.get("constants", [])) for f in doc["findings"] if f["kind"] in CONSTANT_KINDS)
    expected_counts = {
        "worksheets": ref.sheets,
        "formulas": ref.formulas,
        "numeric_values": ref.numeric_values,
        # a known disagreement may change the constants found; the
        # count must still add up over the findings reported
        "hard_codings": ref.hard_codings if tally.failed == failed_before else reported,
    }
    for name, value in expected_counts.items():
        if counts.get(name) != value:
            tally.problem(f"{ref.name}: count {name} is {counts.get(name)}, expected {value}")
    warnings = [(w["kind"], w["sheet"], w["count"]) for w in doc["warnings"]]
    if warnings != ref.warnings:
        tally.problem(f"{ref.name}: warnings {warnings[:4]}... differ from {ref.warnings[:4]}...")
    return doc


def check_detail_csv(body: bytes, doc: dict, name: str, tally: Tally) -> None:
    """The CSV detail lists the JSON detail's findings, in the same order."""
    rows = list(csv.reader(io.StringIO(body.decode("utf-8"))))
    header = next((i for i, r in enumerate(rows) if r and r[0] == "No."), None)
    if header is None:
        tally.problem(f"{name}: CSV detail has no findings header")
        return
    listed = [(r[1], r[2], r[3]) for r in rows[header + 1:]]
    expected = [(f["sheet"], f["cell"], f.get("formula", "")) for f in doc["findings"]]
    if listed != expected:
        tally.problem(f"{name}: CSV detail rows differ from the JSON detail")


def check_detail_text(body: bytes, doc: dict, name: str, tally: Tally) -> None:
    text = body.decode("utf-8")
    if not text.startswith("Hard-coding audit of workbook\n") or doc["workbook"]["name"] not in text:
        tally.problem(f"{name}: text detail lacks its heading")
    if len(text.splitlines()) < 4 + len(doc["findings"]):
        tally.problem(f"{name}: text detail has fewer lines than findings")


def check_batch(corpus: Corpus, out_dir: Path, exit_code: int | None, tally: Tally) -> None:
    """The CLI output directory: details, summary and histogram in every format."""
    if exit_code != 1:
        tally.problem(f"exit code {exit_code}, expected 1 (hard codings found)")
    expected_files = {f"{Path(n).stem}.findings.{ext}" for n in corpus.refs
                      for ext in ("txt", "csv", "json")}
    expected_files |= {f"{stem}.{ext}" for stem in ("summary", "constants")
                       for ext in ("txt", "csv", "json")}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != expected_files:
        tally.problem(f"output files differ: {len(present)} written, {len(expected_files)} expected")

    def read(name: str) -> bytes | None:
        path = out_dir / name
        return path.read_bytes() if path.is_file() else None

    histogram: Counter = Counter()
    for file_name, ref in sorted(corpus.refs.items()):
        stem = Path(file_name).stem
        doc = check_detail_json(read(f"{stem}.findings.json"), ref, tally)
        if doc is None:
            continue
        csv_body, text_body = read(f"{stem}.findings.csv"), read(f"{stem}.findings.txt")
        if csv_body is not None:
            check_detail_csv(csv_body, doc, ref.name, tally)
        if text_body is not None:
            check_detail_text(text_body, doc, ref.name, tally)
        for expect in ref.cells.values():
            if expect.kind in CONSTANT_KINDS:
                histogram.update(expect.constants)

    summary = read("summary.json")
    if summary is not None:
        rows = json.loads(summary)["rows"]
        expected = [
            (ref.name, ref.sheets, ref.formulas, ref.hard_codings, ref.numeric_values, None)
            for _, ref in sorted(corpus.refs.items())
        ]
        got = [(r["workbook_name"], r["worksheet_count"], r["formula_count"],
                r["hard_coding_count"], r["numeric_value_count"], r["error"]) for r in rows]
        if got != expected:
            tally.problem("summary.json rows differ from the reference")
    hist = read("constants.json")
    if hist is not None:
        got = [(r["value"], r["count"]) for r in json.loads(hist)["rows"]]
        expected = sorted(histogram.items())
        if len(got) != len(expected) or not all(
            _same_number(g[0], e[0]) and g[1] == e[1] for g, e in zip(got, expected)
        ):
            tally.problem("constants.json differs from the reference histogram")
    for name in ("summary.txt", "summary.csv", "constants.txt", "constants.csv"):
        body = read(name)
        if not body:
            tally.problem(f"{name} is empty or missing")
