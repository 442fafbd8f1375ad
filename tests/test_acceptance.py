"""Acceptance suite: one test per criterion, each printing a PASS line
at its stated tolerance (run with -s or -rA to see the lines)."""

import json
import random
import time

from formula_gen import (
    FULL_A1,
    FULL_R1C1,
    ORACLE_A1,
    ORACLE_R1C1,
    REFS_ONLY_A1,
    REFS_ONLY_R1C1,
    STRING_ONLY_A1,
    FormulaGen,
)
from oracle import digit_run_constants
from sheetaudit.cli import main
from sheetaudit.detect import (
    CONSTANT_BEARING_KINDS,
    DataRegion,
    DetectionConfig,
    DetectionMode,
    FindingKind,
    analyze_workbook,
    constant_histogram,
)
from sheetaudit.lexer import extract_constants, render, tokenize
from sheetaudit.model import load_json, workbook_from_document
from sheetaudit.report import Format, render_detail
from table3 import (
    EXPECTED_INPUT_CELLS,
    EXPECTED_VALUE_SETS,
    workbook_document,
)
from test_detect import random_workbook, recompute_counts

DATA_CONFIG = DetectionConfig(data_regions=(DataRegion("Data"),))


def _ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def corpus_workbook(formulas, name="corpus"):
    cells = {}
    for i, formula in enumerate(formulas):
        row, col = i // 10 + 1, i % 10 + 1
        cells[f"{chr(ord('A') + col - 1)}{row}"] = {"f": formula}
    return workbook_from_document(
        {"name": name, "sheets": [{"name": "S", "cells": cells}]}
    )


def test_criterion_1_table3_fixture_reproduction():
    workbook = workbook_from_document(workbook_document())
    started = time.perf_counter()
    report = analyze_workbook(workbook, DATA_CONFIG)
    elapsed = time.perf_counter() - started

    value_sets = {
        (f.sheet, f.address.render()): {o.value for o in f.constants}
        for f in report.findings
        if f.kind in CONSTANT_BEARING_KINDS
    }
    assert value_sets == EXPECTED_VALUE_SETS
    inputs = {
        (f.sheet, f.address.render())
        for f in report.findings
        if f.kind is FindingKind.EXPECTED_INPUT_VALUE
    }
    assert inputs == EXPECTED_INPUT_CELLS
    assert len(inputs) == 4
    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"
    _ok("1 (detail-fixture value sets, 4 expected inputs, <1s)")


def test_criterion_3_round_trip_1000_formulas():
    failures = 0
    total = 0
    for seed, profile, style in [(301, FULL_A1, "A1"), (302, FULL_R1C1, "R1C1")]:
        gen = FormulaGen(seed=seed, profile=profile)
        for formula in gen.corpus(600):
            total += 1
            if render(tokenize(formula, style)) != formula:
                failures += 1
    assert total >= 1000
    assert failures == 0
    _ok(f"3 (round-trip on {total} formulas, 0 failures)")


def test_criterion_4_oracle_equivalence_1000_formulas():
    disagreements = 0
    total = 0
    for seed, profile, style in [(401, ORACLE_A1, "A1"), (402, ORACLE_R1C1, "R1C1")]:
        gen = FormulaGen(seed=seed, profile=profile)
        for formula in gen.corpus(600):
            total += 1
            if extract_constants(tokenize(formula, style)) != digit_run_constants(formula):
                disagreements += 1
    assert total >= 1000
    assert disagreements == 0
    _ok(f"4 (oracle equivalence on {total} formulas, 0 disagreements)")


def test_criterion_5_mode_containment():
    gen = FormulaGen(seed=501, profile=FULL_A1)
    formulas = gen.corpus(1000)
    violations = 0
    for chunk_start in range(0, 1000, 100):
        workbook = corpus_workbook(formulas[chunk_start : chunk_start + 100])
        lexical = analyze_workbook(workbook, DetectionConfig())
        heuristic = analyze_workbook(workbook, DetectionConfig(mode=DetectionMode.HEURISTIC))
        flagged_lex = {
            f.address[:2] for f in lexical.findings if f.kind in CONSTANT_BEARING_KINDS
        }
        flagged_heu = {
            f.address[:2] for f in heuristic.findings if f.kind in CONSTANT_BEARING_KINDS
        }
        violations += len(flagged_heu - flagged_lex)
    assert violations == 0
    _ok("5 (heuristic-flagged cells within lexical-flagged cells, 0 violations)")


def test_criterion_6_immunity_suites():
    gen = FormulaGen(seed=601, profile=STRING_ONLY_A1)
    string_formulas = gen.corpus(100)
    workbook = corpus_workbook(string_formulas)
    report = analyze_workbook(workbook, DetectionConfig())
    assert all(f.kind not in CONSTANT_BEARING_KINDS for f in report.findings)
    assert all(f.kind is not FindingKind.UNPARSEABLE for f in report.findings)

    for seed, profile, style in [(602, REFS_ONLY_A1, "A1"), (603, REFS_ONLY_R1C1, "R1C1")]:
        gen = FormulaGen(seed=seed, profile=profile)
        for formula in gen.corpus(100):
            assert extract_constants(tokenize(formula, style)) == []
    _ok("6 (100 string-digit formulas + 100 reference-only per style, 0 findings)")


def test_criterion_7_count_invariants_and_monotonicity():
    rng = random.Random(701)
    gen = FormulaGen(seed=702, profile=FULL_A1)
    pool = [0, 1, 2, 3, 12, 100, 200, 236, 1000]
    for _ in range(50):
        workbook = random_workbook(rng, gen)
        config = DetectionConfig(
            ignore_constants=frozenset(rng.sample(pool, rng.randint(0, 4))),
            data_regions=tuple(
                DataRegion(p) for p in rng.sample(["S0", "S1", "S2", "*"], rng.randint(0, 2))
            ),
        )
        report = analyze_workbook(workbook, config)
        hard, numeric = recompute_counts(report)
        assert report.hard_coding_count == hard
        assert report.numeric_value_count == numeric

        ignore = set(config.ignore_constants)
        prev_hard = report.hard_coding_count
        for _ in range(20):
            ignore.add(rng.choice(pool))
            grown = DetectionConfig(
                ignore_constants=frozenset(ignore), data_regions=config.data_regions
            )
            count = analyze_workbook(workbook, grown).hard_coding_count
            assert count <= prev_hard
            prev_hard = count

        regions = list(config.data_regions)
        base = analyze_workbook(workbook, config)
        prev_direct = sum(
            1 for f in base.findings if f.kind is FindingKind.DIRECT_NUMERIC_ENTRY
        )
        formula_findings = [
            f
            for f in base.findings
            if f.kind not in (FindingKind.DIRECT_NUMERIC_ENTRY, FindingKind.EXPECTED_INPUT_VALUE)
        ]
        for _ in range(20):
            regions.append(DataRegion(rng.choice(["S0", "S1", "S2", "*"])))
            grown = DetectionConfig(
                ignore_constants=config.ignore_constants, data_regions=tuple(regions)
            )
            report2 = analyze_workbook(workbook, grown)
            direct = sum(
                1 for f in report2.findings if f.kind is FindingKind.DIRECT_NUMERIC_ENTRY
            )
            assert direct <= prev_direct
            prev_direct = direct
            assert [
                f
                for f in report2.findings
                if f.kind
                not in (FindingKind.DIRECT_NUMERIC_ENTRY, FindingKind.EXPECTED_INPUT_VALUE)
            ] == formula_findings
    _ok("7 (50 workbook/config pairs, 20+20 config enlargements each)")


def _desk_scale_document(total_formulas=51183, sheet_count=18):
    """Synthetic practitioner-scale workbook with planted constants."""
    constants = [0, 0.01, 1, 2, 3, 12, 100, 236, 1000, 1000000]
    planted: dict[float, int] = {}
    per_sheet = total_formulas // sheet_count
    remainder = total_formulas - per_sheet * sheet_count
    sheets = []
    serial = 0
    for s in range(sheet_count):
        count = per_sheet + (remainder if s == 0 else 0)
        cells = {}
        for j in range(count):
            row, col = j // 8 + 1, j % 8 + 1
            addr = f"{chr(ord('A') + col - 1)}{row}"
            roll = serial % 5
            if roll < 2:
                formula = f"=A{row + 1}+B{row + 1}"
            elif roll < 4:
                c = constants[serial % len(constants)]
                formula = f"=C{row + 1}*{c}"
                planted[float(c)] = planted.get(float(c), 0) + 1
            else:
                c1 = constants[serial % len(constants)]
                c2 = constants[(serial + 3) % len(constants)]
                formula = f"=IF(D{row + 1}>{c1},E{row + 1}/{c2},{c1})"
                for c in (c1, c2, c1):
                    planted[float(c)] = planted.get(float(c), 0) + 1
            cells[addr] = {"f": formula}
            serial += 1
        sheets.append({"name": f"Model{s + 1}", "cells": cells})
    return {"name": "practitioner.xls", "sheets": sheets}, planted


def test_criterion_8_desk_scale_performance(tmp_path):
    doc, planted = _desk_scale_document()
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    started = time.perf_counter()
    workbook = load_json(path)
    report = analyze_workbook(workbook, DetectionConfig())
    rendered = render_detail(report, Format.JSON)
    elapsed = time.perf_counter() - started

    assert report.worksheet_count == 18
    assert report.formula_count == 51183
    assert dict(constant_histogram([report])) == planted
    assert rendered.body
    assert elapsed < 10.0, f"end-to-end took {elapsed:.2f}s"
    _ok(f"8 (51183 formulas end-to-end in {elapsed:.2f}s < 10s, histogram exact)")


def test_criterion_9_cli_batch(tmp_path):
    batch_dir = tmp_path / "batch"
    batch_dir.mkdir()
    for i in range(1, 10):
        doc = workbook_document(f"student{i}.xls")
        (batch_dir / f"student{i}.json").write_text(json.dumps(doc), encoding="utf-8")

    batch_out = tmp_path / "batch-out"
    code = main(
        [str(batch_dir / "*.json"), "--out", str(batch_out), "--format", "json",
         "--data-region", "Data"]
    )
    assert code == 1
    summary = json.loads((batch_out / "summary.json").read_text())
    assert len(summary["rows"]) == 9

    for i in range(1, 10):
        solo_out = tmp_path / f"solo{i}"
        solo_code = main(
            [str(batch_dir / f"student{i}.json"), "--out", str(solo_out), "--format", "json",
             "--data-region", "Data"]
        )
        assert solo_code == 1
        assert (
            (solo_out / f"student{i}.findings.json").read_bytes()
            == (batch_out / f"student{i}.findings.json").read_bytes()
        )

    clean = {
        "name": "clean",
        "sheets": [
            {"name": "Data", "cells": {"A1": {"v": 1}}},
            {"name": "Calc", "cells": {"B1": {"f": "=Data!A1*Data!A1"}}},
        ],
    }
    (tmp_path / "clean.json").write_text(json.dumps(clean), encoding="utf-8")
    assert main(
        [str(tmp_path / "clean.json"), "--out", str(tmp_path / "clean-out"),
         "--data-region", "Data"]
    ) == 0

    assert main([str(tmp_path / "nothing" / "*.json"), "--out", str(tmp_path / "x")]) == 2
    _ok("9 (nine-model batch byte-identical to solo, exit codes 1/0/2)")
