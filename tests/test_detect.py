import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sheetaudit.detect
from formula_gen import FULL_A1, FULL_R1C1, FormulaGen
from sheetaudit.addresses import CellAddress
from sheetaudit.detect import (
    AnalysisReport,
    DataRegion,
    DetectionConfig,
    DetectionMode,
    FindingKind,
    analyze_workbook,
    constant_histogram,
)
from sheetaudit.model import Cell, Sheet, Workbook, parse_range, workbook_from_document
from table3 import (
    EXPECTED_INPUT_CELLS,
    EXPECTED_OCCURRENCES,
    HARD_CODING_COUNT,
    workbook_document,
)

DATA_CONFIG = DetectionConfig(data_regions=(DataRegion("Data"),))


def make_cell(row, col, formula=None, value=None):
    return Cell(
        address=CellAddress(row=row, column=col), formula_text=formula, cached_value=value
    )


def cell_findings(cell, sheet_name, config, ref_style="A1"):
    """analyze_workbook's findings for a workbook that holds only ``cell``.

    One cell has one formula text and one address, so no memo entry is
    reused: this is the no-memo reference the differential tests compare with.
    """
    sheet = Sheet(name=sheet_name, cells={cell.address[:2]: cell})
    workbook = Workbook(name="cell", sheets=(sheet,), ref_style=ref_style)
    return list(analyze_workbook(workbook, config).findings)


def constant_values(finding):
    return [o.value for o in finding.constants]


class TestAnalyzeCell:
    """The cell rule, one cell at a time: each case runs through ``cell_findings``."""

    def test_hard_coded_constant_occurrences(self):
        cell = make_cell(16, 4, formula="=IF(C17*Data!$C$30>200, Data!$C$30*C17, 200)", value=382)
        [finding] = cell_findings(cell, "C", DetectionConfig())
        assert finding.kind is FindingKind.HARD_CODED_CONSTANT
        assert constant_values(finding) == [200, 200]

    def test_constant_only_formula(self):
        cell = make_cell(14, 1, formula="=9732311", value=9732311)
        [finding] = cell_findings(cell, "ExecSummary", DetectionConfig())
        assert finding.kind is FindingKind.CONSTANT_ONLY_FORMULA
        assert constant_values(finding) == [9732311]

    def test_expected_input_value_inside_region(self):
        cell = make_cell(9, 8, value=0.08)
        [finding] = cell_findings(cell, "Data", DATA_CONFIG)
        assert finding.kind is FindingKind.EXPECTED_INPUT_VALUE

    def test_direct_entry_outside_region(self):
        cell = make_cell(9, 8, value=0.08)
        [finding] = cell_findings(cell, "Outputs", DATA_CONFIG)
        assert finding.kind is FindingKind.DIRECT_NUMERIC_ENTRY

    def test_ignored_constant_suppresses_finding(self):
        cell = make_cell(7, 10, formula="=I7*(1-Data!$C$24)")
        config = DetectionConfig(ignore_constants=frozenset({1}))
        assert cell_findings(cell, "F", config) == []

    def test_unparseable_formula_recorded(self):
        cell = make_cell(1, 1, formula='=A1&"unterminated')
        [finding] = cell_findings(cell, "S", DetectionConfig())
        assert finding.kind is FindingKind.UNPARSEABLE
        assert "unterminated" in finding.detail

    def test_text_value_produces_nothing(self):
        assert cell_findings(make_cell(1, 1, value="hello"), "S", DetectionConfig()) == []
        assert cell_findings(make_cell(1, 1, value=True), "S", DetectionConfig()) == []

    def test_region_rectangle_restricts_match(self):
        region = DataRegion("Data", parse_range("A1:C10"))
        config = DetectionConfig(data_regions=(region,))
        inside = cell_findings(make_cell(5, 3, value=1.0), "Data", config)
        outside = cell_findings(make_cell(50, 3, value=1.0), "Data", config)
        assert inside[0].kind is FindingKind.EXPECTED_INPUT_VALUE
        assert outside[0].kind is FindingKind.DIRECT_NUMERIC_ENTRY

    def test_max_reported_constants_cap(self):
        cell = make_cell(1, 1, formula="=1+2+3+4+5")
        config = DetectionConfig(max_constants_per_cell=2)
        [finding] = cell_findings(cell, "S", config)
        assert constant_values(finding) == [1, 2]

    def test_heuristic_mode_uses_character_scan(self):
        config = DetectionConfig(mode=DetectionMode.HEURISTIC)
        cell = make_cell(1, 1, formula="=C6/12")
        [finding] = cell_findings(cell, "S", config)
        assert constant_values(finding) == [12]
        # digits after a letter are invisible to the legacy scan
        assert cell_findings(make_cell(1, 1, formula="=B22+C3"), "S", config) == []

    def test_heuristic_constant_only(self):
        config = DetectionConfig(mode=DetectionMode.HEURISTIC)
        [finding] = cell_findings(make_cell(1, 1, formula="=9732311"), "S", config)
        assert finding.kind is FindingKind.CONSTANT_ONLY_FORMULA

    def test_name_beside_a_literal_is_a_calculation(self):
        # a defined name is an operand as a reference is, so the 12 is a hard coding in both modes
        for mode in DetectionMode:
            cell = make_cell(1, 1, formula="=Rate*12")
            [finding] = cell_findings(cell, "S", DetectionConfig(mode=mode))
            assert finding.kind is FindingKind.HARD_CODED_CONSTANT, mode

    @pytest.mark.parametrize("operators", ["*.", "*123", "+0"])
    def test_operators_that_start_inside_a_number_are_refused(self, operators):
        # the scan would read a second number inside one literal: 1.5 and 5 in =A1*1.5
        with pytest.raises(ValueError, match="heuristic_operators: may not hold digits or '.'"):
            DetectionConfig(mode=DetectionMode.HEURISTIC, heuristic_operators=frozenset(operators))

    @given(st.text(), st.sampled_from(list(DetectionMode)), st.sampled_from(["A1", "R1C1"]))
    @example("=A2*\u00b2", DetectionMode.HEURISTIC, "A1")
    @example("=A1*\u0661", DetectionMode.LEXICAL, "A1")
    def test_any_formula_text_is_classified(self, text, mode, ref_style):
        cell = make_cell(1, 1, formula=text)
        findings = cell_findings(cell, "S", DetectionConfig(mode=mode), ref_style)
        assert len(findings) <= 1


class TestAnalyzeWorkbook:
    def test_table3_fixture(self):
        workbook = workbook_from_document(workbook_document())
        report = analyze_workbook(workbook, DATA_CONFIG)
        assert report.worksheet_count == 11
        assert report.formula_count == 9
        assert report.hard_coding_count == HARD_CODING_COUNT
        assert report.numeric_value_count == 4
        by_cell = {
            (f.sheet, f.address.render()): f
            for f in report.findings
            if f.kind is FindingKind.HARD_CODED_CONSTANT
        }
        assert set(by_cell) == set(EXPECTED_OCCURRENCES)
        for key, expected in EXPECTED_OCCURRENCES.items():
            assert constant_values(by_cell[key]) == expected
        inputs = {
            (f.sheet, f.address.render())
            for f in report.findings
            if f.kind is FindingKind.EXPECTED_INPUT_VALUE
        }
        assert inputs == EXPECTED_INPUT_CELLS

    def test_empty_workbook(self):
        workbook = Workbook(name="empty", sheets=(Sheet(name="only"),))
        report = analyze_workbook(workbook, DetectionConfig())
        assert report.formula_count == 0
        assert report.hard_coding_count == 0
        assert report.numeric_value_count == 0
        assert report.findings == ()

    def test_clean_model_baseline(self):
        cells = {
            (1, 1): make_cell(1, 1, formula="=A2+A3"),
            (2, 1): make_cell(2, 1, value=10),
            (3, 1): make_cell(3, 1, value=20),
        }
        workbook = Workbook(name="clean", sheets=(Sheet(name="Data", cells=cells),))
        report = analyze_workbook(workbook, DATA_CONFIG)
        assert report.formula_count == 1
        assert report.hard_coding_count == 0
        assert report.numeric_value_count == 2

    def test_findings_ordered_by_sheet_then_row_then_column(self):
        workbook = workbook_from_document(workbook_document())
        report = analyze_workbook(workbook, DATA_CONFIG)
        sheet_order = [s.name for s in workbook.sheets]
        keys = [
            (sheet_order.index(f.sheet), f.address.row, f.address.column)
            for f in report.findings
        ]
        assert keys == sorted(keys)

    def test_hidden_sheets_analyzed(self):
        doc = workbook_document()
        doc["sheets"][1]["visibility"] = "very_hidden"
        report = analyze_workbook(workbook_from_document(doc), DATA_CONFIG)
        assert report.hard_coding_count == HARD_CODING_COUNT
        assert any(w.kind.value == "very_hidden_sheet" for w in report.warnings)

    def test_determinism(self):
        workbook = workbook_from_document(workbook_document())
        assert analyze_workbook(workbook, DATA_CONFIG) == analyze_workbook(
            workbook, DATA_CONFIG
        )


class TestHistogram:
    def test_counts_by_hand(self):
        workbook = workbook_from_document(workbook_document())
        report = analyze_workbook(workbook, DATA_CONFIG)
        histogram = dict(constant_histogram([report]))
        # hand count over the nine fixture formulas
        assert histogram == {0: 4, 1: 5, 12: 3, 200: 6}

    def test_empty(self):
        assert constant_histogram([]) == []

    def test_sorted_ascending_and_numeric_aggregation(self):
        cells = {
            (1, 1): make_cell(1, 1, formula="=A2*0.01"),
            (2, 1): make_cell(2, 1, formula="=A3*.01+1000000"),
        }
        workbook = Workbook(name="h", sheets=(Sheet(name="S", cells=cells),))
        report = analyze_workbook(workbook, DetectionConfig())
        assert constant_histogram([report]) == [(0.01, 2), (1000000, 1)]


def random_workbook(rng, gen):
    sheets = []
    for s in range(rng.randint(1, 3)):
        cells = {}
        for _ in range(rng.randint(0, 20)):
            row, col = rng.randint(1, 30), rng.randint(1, 10)
            roll = rng.random()
            if roll < 0.5:
                cells[(row, col)] = make_cell(row, col, formula=gen.formula())
            elif roll < 0.85:
                cells[(row, col)] = make_cell(row, col, value=rng.choice([0, 1, 2.5, 200]))
            else:
                cells[(row, col)] = make_cell(row, col, value="note")
        sheets.append(Sheet(name=f"S{s}", cells=cells))
    return Workbook(name="rand", sheets=tuple(sheets))


def recompute_counts(report: AnalysisReport):
    hard = sum(
        len(f.constants)
        for f in report.findings
        if f.kind in (FindingKind.HARD_CODED_CONSTANT, FindingKind.CONSTANT_ONLY_FORMULA)
    )
    numeric = sum(
        1
        for f in report.findings
        if f.kind in (FindingKind.DIRECT_NUMERIC_ENTRY, FindingKind.EXPECTED_INPUT_VALUE)
    )
    return hard, numeric


class TestInvariants:
    def test_count_consistency_random(self):
        rng = random.Random(99)
        gen = FormulaGen(seed=100, profile=FULL_A1)
        for _ in range(25):
            workbook = random_workbook(rng, gen)
            config = DetectionConfig(
                ignore_constants=frozenset(rng.sample([0, 1, 2, 12, 200], rng.randint(0, 3)))
            )
            report = analyze_workbook(workbook, config)
            hard, numeric = recompute_counts(report)
            assert report.hard_coding_count == hard
            assert report.numeric_value_count == numeric

    def test_suppression_monotonicity(self):
        rng = random.Random(5)
        gen = FormulaGen(seed=6, profile=FULL_A1)
        workbook = random_workbook(rng, gen)
        ignore: set[float] = set()
        prev = analyze_workbook(workbook, DetectionConfig()).hard_coding_count
        for value in [0, 1, 2, 12, 100, 200, 1000]:
            ignore.add(value)
            count = analyze_workbook(
                workbook, DetectionConfig(ignore_constants=frozenset(ignore))
            ).hard_coding_count
            assert count <= prev
            prev = count

    def test_region_monotonicity(self):
        rng = random.Random(8)
        gen = FormulaGen(seed=9, profile=FULL_A1)
        workbook = random_workbook(rng, gen)
        regions: list[DataRegion] = []
        base = analyze_workbook(workbook, DetectionConfig())
        prev_direct = sum(
            1 for f in base.findings if f.kind is FindingKind.DIRECT_NUMERIC_ENTRY
        )
        formula_findings = [
            f
            for f in base.findings
            if f.kind
            not in (FindingKind.DIRECT_NUMERIC_ENTRY, FindingKind.EXPECTED_INPUT_VALUE)
        ]
        for pattern in ["S0", "S1", "*"]:
            regions.append(DataRegion(pattern))
            report = analyze_workbook(
                workbook, DetectionConfig(data_regions=tuple(regions))
            )
            direct = sum(
                1 for f in report.findings if f.kind is FindingKind.DIRECT_NUMERIC_ENTRY
            )
            assert direct <= prev_direct
            prev_direct = direct
            assert [
                f
                for f in report.findings
                if f.kind
                not in (FindingKind.DIRECT_NUMERIC_ENTRY, FindingKind.EXPECTED_INPUT_VALUE)
            ] == formula_findings

    def test_mode_containment(self):
        rng = random.Random(21)
        gen = FormulaGen(seed=22, profile=FULL_A1)
        for _ in range(10):
            workbook = random_workbook(rng, gen)
            lexical = analyze_workbook(workbook, DetectionConfig())
            heuristic = analyze_workbook(
                workbook, DetectionConfig(mode=DetectionMode.HEURISTIC)
            )
            bearing = (FindingKind.HARD_CODED_CONSTANT, FindingKind.CONSTANT_ONLY_FORMULA)
            lex_cells = {
                (f.sheet, f.address[:2])
                for f in lexical.findings
                if f.kind in bearing
            }
            heu_cells = {
                (f.sheet, f.address[:2])
                for f in heuristic.findings
                if f.kind in bearing
            }
            assert heu_cells <= lex_cells


# texts the lexer rejects, in both reference styles
UNPARSEABLE_TEXTS = ['=A1&"unterminated', "=#BOGUS+1", "=2~3", "='Open sheet+4"]
# (col_absolute, row_absolute, style) of a cell's own address
ADDRESS_FLAVOURS = [
    (False, False, "A1"),
    (True, False, "A1"),
    (False, True, "A1"),
    (True, True, "A1"),
    (False, False, "R1C1"),
]


@st.composite
def repeated_text_workbooks(draw):
    """A workbook whose formula texts each sit in several cells, plus a config."""
    ref_style = draw(st.sampled_from(["A1", "R1C1"]))
    gen = FormulaGen(
        seed=draw(st.integers(0, 10_000)),
        profile=FULL_A1 if ref_style == "A1" else FULL_R1C1,
    )
    texts = gen.corpus(draw(st.integers(1, 6)))
    texts += draw(st.lists(st.sampled_from(UNPARSEABLE_TEXTS), max_size=2))
    sheet_count = draw(st.integers(1, 3))
    slots = [(s, r, c) for s in range(sheet_count) for r in range(1, 9) for c in range(1, 4)]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=30, unique=True))
    cells: list[dict] = [{} for _ in range(sheet_count)]
    for s, row, col in chosen:
        # every branch of a finding's absolute address: R1C1, A1 with no, one or both "$"
        col_absolute, row_absolute, style = draw(st.sampled_from(ADDRESS_FLAVOURS))
        address = CellAddress(row, col, col_absolute, row_absolute, style)
        if draw(st.booleans()):
            cells[s][(row, col)] = Cell(address, formula_text=draw(st.sampled_from(texts)))
        else:
            value = draw(st.sampled_from([0, 1, 2.5, "x"]))
            cells[s][(row, col)] = Cell(address, cached_value=value)
    workbook = Workbook(
        name="repeat",
        sheets=tuple(Sheet(name=f"S{s}", cells=cells[s]) for s in range(sheet_count)),
        ref_style=ref_style,
    )
    config = DetectionConfig(
        mode=draw(st.sampled_from(list(DetectionMode))),
        ignore_constants=frozenset(draw(st.lists(st.sampled_from([0, 1, 2, 12, 200])))),
        data_regions=draw(st.sampled_from([(), (DataRegion("S0"),)])),
        max_constants_per_cell=draw(st.none() | st.integers(1, 3)),
    )
    return workbook, config


class TestClassificationMemo:
    @settings(max_examples=150, deadline=None)
    @given(repeated_text_workbooks())
    def test_workbook_findings_equal_per_cell_findings(self, case):
        workbook, config = case
        expected = []
        for sheet in workbook.sheets:
            for coords in sorted(sheet.cells):
                expected += cell_findings(
                    sheet.cells[coords], sheet.name, config, workbook.ref_style
                )
        assert list(analyze_workbook(workbook, config).findings) == expected

    def test_tokenize_called_once_per_distinct_text(self, monkeypatch):
        calls: list[str] = []
        original = sheetaudit.detect.tokenize

        def counting(formula, ref_style="A1"):
            calls.append(formula)
            return original(formula, ref_style)

        monkeypatch.setattr(sheetaudit.detect, "tokenize", counting)
        texts = ["=A1*12", "=B2+C3", '="open', "=A1*12 "]
        sheets = tuple(
            Sheet(
                name=f"S{s}",
                cells={
                    (row, 1): make_cell(row, 1, formula=texts[row % len(texts)])
                    for row in range(1, 41)
                },
            )
            for s in range(3)
        )
        report = analyze_workbook(Workbook(name="copies", sheets=sheets), DetectionConfig())
        assert report.formula_count == 120
        assert sorted(calls) == sorted(texts)
        # the memo lives for one call only
        analyze_workbook(Workbook(name="copies", sheets=sheets), DetectionConfig())
        assert len(calls) == 2 * len(texts)
