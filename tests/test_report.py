import csv
import dataclasses
import io
import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetaudit.addresses import A1, R1C1, CellAddress, parse_address
from sheetaudit.detect import (
    AnalysisReport,
    ConstantOccurrence,
    DataRegion,
    DetectionConfig,
    Finding,
    FindingKind,
    analyze_workbook,
    constant_histogram,
)
from sheetaudit.model import AuditWarning, WarningKind, parse_range, workbook_from_document
from sheetaudit.report import (
    EmptyBatch,
    Format,
    format_number,
    render_batch_summary,
    render_detail,
    render_histogram,
    report_to_document,
)
from table3 import workbook_document
from test_acceptance import _desk_scale_document
from test_detect import cell_findings

DATA_CONFIG = DetectionConfig(data_regions=(DataRegion("Data"),))


def report_from_document(doc):
    """Inverse of report_to_document, for lossless round-trip checks."""
    findings = tuple(
        Finding(
            kind=FindingKind(raw["kind"]),
            sheet=raw["sheet"],
            address=parse_address(raw["cell"]),
            formula_text=raw.get("formula"),
            cached_value=raw.get("value"),
            constants=tuple(
                ConstantOccurrence(o["value"], o["start"], o["end"])
                for o in raw.get("constants", [])
            ),
            detail=raw.get("detail", ""),
        )
        for raw in doc["findings"]
    )
    warnings = tuple(
        AuditWarning(WarningKind(raw["kind"]), raw["sheet"], raw["count"], tuple(raw["locations"]))
        for raw in doc["warnings"]
    )
    counts = doc["counts"]
    return AnalysisReport(
        workbook_name=doc["workbook"]["name"],
        workbook_location=doc["workbook"]["location"],
        worksheet_count=counts["worksheets"],
        formula_count=counts["formulas"],
        hard_coding_count=counts["hard_codings"],
        numeric_value_count=counts["numeric_values"],
        findings=findings,
        warnings=warnings,
    )


@pytest.fixture(scope="module")
def report():
    return analyze_workbook(workbook_from_document(workbook_document()), DATA_CONFIG)


def summary_reports():
    return [
        AnalysisReport("Budget Case-HongY.xls", "P:/Submissions", 12, 468, 91, 43),
        AnalysisReport("Budgeting assignment_Liu Liu.xls", "P:/Submissions", 12, 496, 60, 45),
        AnalysisReport("Jason324442.xls", "P:/Submissions", 13, 821, 47, 42),
    ]


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0"),
            (200.0, "200"),
            (0.01, "0.01"),
            (100, "100"),
            (247.536, "247.536"),
            (1000000, "1000000"),
            (float("inf"), "inf"),
        ],
    )
    def test_no_trailing_zero_padding(self, value, expected):
        assert format_number(value) == expected


# reports for the layout property: every kind, both address styles, any
# text, and the scalars json spells differently from repr
cached_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
)
addresses = st.builds(
    CellAddress,
    st.integers(1, 1_048_576),
    st.integers(1, 16_384),
    st.booleans(),
    st.booleans(),
    st.sampled_from([A1, R1C1]),
)
constants = st.builds(
    ConstantOccurrence,
    st.floats(min_value=0) | st.just(float("inf")),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
)
findings = st.builds(
    Finding,
    st.sampled_from(list(FindingKind)),
    st.text(),
    addresses,
    st.none() | st.text(),
    cached_values,
    st.lists(constants, max_size=3).map(tuple),
    st.text(),
)
audit_warnings = st.builds(
    AuditWarning,
    st.sampled_from(list(WarningKind)),
    st.text(),
    st.integers(0, 10**6),
    st.lists(st.text(), max_size=3).map(tuple),
)
reports = st.builds(
    AnalysisReport,
    st.text(),
    st.text(),
    *[st.integers(0, 10**6)] * 4,
    st.lists(findings, max_size=4).map(tuple),
    st.lists(audit_warnings, max_size=3).map(tuple),
)


# an equal value that json spells differently
_RESPELLED = {"1": 1.0, "1.0": 1, "0.0": -0.0, "-0.0": 0.0}


@st.composite
def shared_constants_reports(draw):
    """Reports whose findings draw their constants tuples, and details, from
    small pools; each tuple in the pool has an equal twin spelt differently."""
    occurrence = st.builds(
        ConstantOccurrence,
        st.sampled_from([1, 1.0, 0.0, -0.0, 2.5, float("inf")]),
        st.integers(0, 1),
        st.integers(0, 1),
    )
    pool = draw(st.lists(st.lists(occurrence, max_size=2).map(tuple), min_size=1, max_size=3))
    pool += [
        tuple(o._replace(value=_RESPELLED.get(repr(o.value), o.value)) for o in c) for c in pool
    ]
    shared = st.builds(
        Finding,
        st.sampled_from(list(FindingKind)),
        st.sampled_from(["S", "T"]),
        addresses,
        st.none() | st.text(max_size=5),
        cached_values,
        st.sampled_from(pool),
        st.sampled_from(["", "x", "unterminated"]),
    )
    findings = draw(st.lists(shared, min_size=2, max_size=8).map(tuple))
    return AnalysisReport("w", "loc", 1, 0, 0, 0, findings=findings)


big_ints = st.integers(-(10**40), 10**40)
batch_reports = st.builds(
    AnalysisReport, st.text(), st.text(), *[big_ints] * 4, error=st.none() | st.text()
)
histograms = st.lists(
    st.tuples(
        big_ints | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
        big_ints,
    ),
    max_size=5,
)


def stdlib_json(payload):
    return (json.dumps(payload, ensure_ascii=False, indent=1) + "\n").encode()


class TestDetail:
    def test_text_header_and_row(self, report):
        body = render_detail(report, Format.TEXT).body.decode()
        assert "305161814RowNumber7.xls" in body
        header_line = next(l for l in body.splitlines() if l.startswith("Workbook Name"))
        assert ["Wks", "F'm", "Hard", "Num'c"] == header_line.split()[-4:]
        row = next(l for l in body.splitlines() if "=Data!$E$35/12" in l)
        assert "cp" in row and "$E$7" in row and "30000" in row and "12" in row

    def test_text_no_findings_marker(self):
        from sheetaudit.detect import AnalysisReport

        empty = AnalysisReport("w", "loc", 1, 0, 0, 0)
        body = render_detail(empty, Format.TEXT).body.decode()
        assert "(no findings)" in body

    def test_text_caps_constant_columns(self):
        from sheetaudit.detect import analyze_workbook as aw
        from sheetaudit.model import workbook_from_document as wfd

        doc = {
            "name": "many",
            "sheets": [{"name": "S", "cells": {"A1": {"f": "=1+2+3+4+5+6"}}}],
        }
        report = aw(wfd(doc), DetectionConfig())
        text = render_detail(report, Format.TEXT).body.decode()
        assert "(+2 more)" in text
        csv_body = render_detail(report, Format.CSV).body.decode()
        assert "1 2 3 4 5 6" in csv_body

    def test_text_and_csv_of_a_workbook_with_warnings(self):
        doc = {
            "name": "warned",
            "sheets": [
                {
                    "name": "Calc",
                    "cells": {"A1": {"f": "=1+2+3+4+5+6", "v": 21}, "B2": {"v": 7}},
                    "merged": ["C3:D4"],
                    "hidden_rows": [5, 9],
                    "hidden_cols": [2],
                },
                {"name": "Old", "visibility": "hidden"},
                {"name": "Key", "visibility": "very_hidden", "cells": {"A1": {"f": "=A2*1.5"}}},
            ],
        }
        report = analyze_workbook(workbook_from_document(doc), DetectionConfig())
        assert render_detail(report, Format.TEXT).body.decode() == (
            "Hard-coding audit of workbook\n"
            "Workbook Name  Workbook Location  Wks  F'm  Hard  Num'c\n"
            "warned                            3    2    7     1\n"
            "\n"
            "No.  Worksheet  Cell  Cell Formula  Cell Value  Constants          Detail\n"
            "1    Calc       $A$1  =1+2+3+4+5+6  21          1 2 3 4 (+2 more)\n"
            "2    Calc       $B$2                7\n"
            "3    Key        $A$1  =A2*1.5                   1.5\n"
            "\n"
            "Warnings\n"
            "- hidden_rows on sheet 'Calc': 2 (5, 9)\n"
            "- hidden_columns on sheet 'Calc': 1 (B)\n"
            "- merged_cells on sheet 'Calc': 1 (C3:D4)\n"
            "- hidden_sheet on sheet 'Old': 1\n"
            "- very_hidden_sheet on sheet 'Key': 1\n"
        )
        assert render_detail(report, Format.CSV).body.decode() == (
            "Workbook Name,Workbook Location,Wks,F'm,Hard,Num'c,\n"
            "warned,,3,2,7,1,\n"
            "No.,Worksheet,Cell,Cell Formula,Cell Value,Constants,Detail\n"
            "1,Calc,$A$1,=1+2+3+4+5+6,21,1 2 3 4 5 6,\n"
            "2,Calc,$B$2,,7,,\n"
            "3,Key,$A$1,=A2*1.5,,1.5,\n"
        )

    def test_csv_constant_column_count(self, report):
        rows = list(csv.reader(io.StringIO(render_detail(report, Format.CSV).body.decode())))
        widths = {len(row) for row in rows}
        assert widths == {7}

    def test_json_round_trip(self, report):
        # an infinite constant and a boolean cached value, which json
        # spells differently from repr and int formatting
        cells = {"A1": {"f": "=A2*1e999", "v": True}}
        inf_doc = {"name": "inf", "sheets": [{"name": "S", "cells": cells}]}
        inf_report = analyze_workbook(workbook_from_document(inf_doc), DetectionConfig())
        for source in (report, inf_report):
            body = render_detail(source, Format.JSON).body
            parsed = json.loads(body.decode())
            assert parsed["schema_version"] == 1
            assert report_from_document(parsed) == source
            assert report_to_document(source) == parsed

    def test_header_counts_match_rendered_rows(self, report):
        parsed = json.loads(render_detail(report, Format.JSON).body.decode())
        hard = sum(
            len(f.get("constants", []))
            for f in parsed["findings"]
            if f["kind"] in ("hard_coded_constant", "constant_only_formula")
        )
        numeric = sum(
            1
            for f in parsed["findings"]
            if f["kind"] in ("direct_numeric_entry", "expected_input_value")
        )
        assert parsed["counts"]["hard_codings"] == hard
        assert parsed["counts"]["numeric_values"] == numeric

    @settings(max_examples=300, deadline=None)
    @given(reports)
    def test_json_layout_is_the_stdlib_indent_layout(self, generated):
        body = render_detail(generated, Format.JSON).body
        parsed = json.loads(body)
        assert body == (json.dumps(parsed, ensure_ascii=False, indent=1) + "\n").encode()
        # valid JSON can still carry the wrong scalar: 1 for true, 0.0 for -0.0;
        # their reprs tell them apart, and nan's repr equals itself
        got = [(f.get("value"), [o["value"] for o in f.get("constants", [])]) for f in parsed["findings"]]
        want = [(f.cached_value, [o.value for o in f.constants]) for f in generated.findings]
        assert repr(got) == repr(want)

    def test_equal_constants_keep_their_own_spelling(self):
        # equal tuples that json spells differently: 1 == 1.0 and 0.0 == -0.0
        spellings = [(1, "1"), (1.0, "1.0"), (0.0, "0.0"), (-0.0, "-0.0")]
        generated = AnalysisReport(
            "w", "loc", 1, 4, 4, 0,
            findings=tuple(
                Finding(
                    FindingKind.HARD_CODED_CONSTANT,
                    "S",
                    CellAddress(row, 1),
                    "=A2*1",
                    constants=(ConstantOccurrence(value, 3, 4),),
                )
                for row, (value, _) in enumerate(spellings, start=1)
            ),
        )
        body = render_detail(generated, Format.JSON).body.decode()
        got = re.findall(r'"constants": \[\n    \{\n     "value": ([^,]+),', body)
        assert got == [spelling for _, spelling in spellings]

    @settings(max_examples=200, deadline=None)
    @given(shared_constants_reports())
    def test_shared_constants_render_as_rebuilt_ones(self, generated):
        rebuilt = dataclasses.replace(
            generated,
            findings=tuple(
                f._replace(constants=tuple(ConstantOccurrence(*o) for o in f.constants))
                for f in generated.findings
            ),
        )
        for fmt in Format:
            assert render_detail(generated, fmt).body == render_detail(rebuilt, fmt).body
        # and each finding keeps its own spelling where equal tuples meet
        parsed = json.loads(render_detail(generated, Format.JSON).body)
        got = [[o["value"] for o in f.get("constants", [])] for f in parsed["findings"]]
        assert repr(got) == repr([[o.value for o in f.constants] for f in generated.findings])

    @pytest.mark.parametrize("ref_style", [A1, R1C1])
    def test_shared_addresses_render_as_fresh_ones(self, ref_style):
        # the loader shares one address per key among sheets, so the analysis and
        # render memos keyed on an address's id hit; fresh equal addresses miss them
        keys = [["A1", "$B$2", "c$3", "$D4", "R5C5"], ["R1C1", "B2", "$C$3", "D$4", "e5"]]
        cells = [
            {"f": "=A9*12"}, {"f": "=A9*12", "v": 4}, {"v": 2.5}, {"v": "x"}, {"f": "=7"}
        ]
        sheets = [
            {"name": name, "cells": dict(zip(keys[i % 2], cells[i:] + cells[:i]))}
            for i, name in enumerate(["Data", "Calc", "Copy", "Data2"])
        ]
        shared = workbook_from_document({"name": "w", "ref_style": ref_style, "sheets": sheets})
        fresh_sheets = []
        for sheet in shared.sheets:
            cells = {}
            for cell in sheet.cells.values():
                address = CellAddress(*cell.address)
                cells[(address.row, address.column)] = cell._replace(address=address)
            fresh_sheets.append(dataclasses.replace(sheet, cells=cells))
        fresh = dataclasses.replace(shared, sheets=tuple(fresh_sheets))
        config = DetectionConfig(data_regions=(DataRegion("Data", parse_range("A1:C3")),))
        reports = [analyze_workbook(workbook, config) for workbook in (shared, fresh)]
        per_cell = [
            finding
            for sheet in shared.sheets
            for coords in sorted(sheet.cells)
            for finding in cell_findings(sheet.cells[coords], sheet.name, config, ref_style)
        ]
        assert list(reports[0].findings) == list(reports[1].findings) == per_cell
        # ten distinct keys, so at most ten absolute addresses among the shared findings
        assert len({id(f.address) for f in reports[0].findings}) <= 10 < len(per_cell)
        assert len({id(f.address) for f in reports[1].findings}) == len(per_cell)
        for fmt in Format:
            assert render_detail(reports[0], fmt).body == render_detail(reports[1], fmt).body
        rendered = json.loads(render_detail(reports[0], Format.JSON).body)["findings"]
        assert [f["cell"] for f in rendered] == [f.address.render() for f in per_cell]

    def test_byte_identical_rendering(self, report):
        for fmt in Format:
            assert render_detail(report, fmt).body == render_detail(report, fmt).body

    def test_json_render_holds_about_one_report(self):
        body, peak = render_peak(pooled_report(), Format.JSON)
        assert body.count(b'"kind": "hard_coded_constant"') == 20_000
        assert peak <= 1.5 * len(body)

    @pytest.mark.parametrize("fmt,bound", [(Format.CSV, 4), (Format.TEXT, 5)])
    def test_csv_and_text_render_hold_a_few_reports(self, fmt, bound):
        # the desk workbook's shape; a text table lists its rows first, for their widths
        document, _ = _desk_scale_document(total_formulas=10_000, sheet_count=4)
        report = analyze_workbook(workbook_from_document(document), DetectionConfig())
        body, peak = render_peak(report, fmt)
        assert body.count(b"\n") > len(report.findings) == 6_000
        assert peak <= bound * len(body)


def pooled_report():
    """20,000 findings whose constants tuples come from a pool of 50, as
    the classification memo shares one tuple among the cells of a text."""
    pool = [
        tuple(ConstantOccurrence(n + k / 4, 3 * k, 3 * k + 2) for k in range(n % 3 + 1))
        for n in range(50)
    ]
    findings = tuple(
        Finding(
            FindingKind.HARD_CODED_CONSTANT,
            f"Sheet{n % 7}",
            CellAddress(n // 20 + 1, n % 20 + 1),
            f"=A{n}*{n % 50}",
            float(n),
            pool[n % 50],
            "" if n % 9 else "shared",
        )
        for n in range(20_000)
    )
    return AnalysisReport("w", "loc", 7, 20_000, 40_000, 0, findings=findings)


def render_peak(report, fmt):
    """One render's body and the traced peak of making it."""
    tracemalloc.start()
    try:
        body = render_detail(report, fmt).body
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return body, peak


class TestBatchSummary:
    def test_rows_numbered_in_order(self):
        body = render_batch_summary(summary_reports(), Format.TEXT).body.decode()
        lines = [l for l in body.splitlines() if l.startswith("#")]
        assert len(lines) == 3
        assert lines[2].split()[:1] == ["#3"]
        assert lines[2].split()[-4:] == ["13", "821", "47", "42"]

    def test_no_totals_line(self):
        body = render_batch_summary(summary_reports(), Format.TEXT).body.decode()
        assert "total" not in body.lower()

    def test_single_row(self):
        body = render_batch_summary(summary_reports()[:1], Format.CSV).body.decode()
        rows = list(csv.reader(io.StringIO(body)))
        assert len(rows) == 2

    def test_empty_batch_raises(self):
        with pytest.raises(EmptyBatch):
            render_batch_summary([], Format.TEXT)

    def test_error_marker_row(self):
        reports = summary_reports() + [
            AnalysisReport("broken.xlsx", "/tmp/broken.xlsx", 0, 0, 0, 0, error="not a ZIP package")
        ]
        body = render_batch_summary(reports, Format.TEXT).body.decode()
        assert "ERROR: not a ZIP package" in body

    def test_error_message_sets_no_column_width(self):
        message = "/sheets/0/cells/a1: keys 'A1' and 'a1' name the same cell!!!"
        assert len(message) == 60
        reports = summary_reports() + [AnalysisReport("keys.json", "k", 0, 0, 0, 0, error=message)]
        body = render_batch_summary(reports, Format.TEXT).body.decode()
        header = body.splitlines()[1]
        start = header.index("# worksheets")
        assert header.index("# formulas") == start + len("# worksheets  ")
        assert f"ERROR: {message}" in body

    @settings(max_examples=100, deadline=None)
    @given(st.lists(batch_reports, min_size=1, max_size=4))
    def test_json_layout_is_the_stdlib_indent_layout(self, reports):
        payload = {
            "schema_version": 1,
            "kind": "summary",
            "rows": [
                {
                    "index": index,
                    "workbook_name": r.workbook_name,
                    "workbook_location": r.workbook_location,
                    "worksheet_count": r.worksheet_count,
                    "formula_count": r.formula_count,
                    "hard_coding_count": r.hard_coding_count,
                    "numeric_value_count": r.numeric_value_count,
                    "error": r.error,
                }
                for index, r in enumerate(reports, start=1)
            ],
        }
        assert render_batch_summary(reports, Format.JSON).body == stdlib_json(payload)

    def test_json_shape(self):
        parsed = json.loads(render_batch_summary(summary_reports(), Format.JSON).body.decode())
        assert [r["index"] for r in parsed["rows"]] == [1, 2, 3]
        assert parsed["rows"][0]["hard_coding_count"] == 91


class TestHistogram:
    def test_two_column_rows_in_order(self):
        body = render_histogram([(0, 4095), (1, 6278)], Format.TEXT).body.decode()
        lines = body.splitlines()
        assert lines[0].split("  ")[0].strip() == "Constant Value"
        assert lines[1].split() == ["0", "4095"]
        assert lines[2].split() == ["1", "6278"]

    def test_empty_is_header_only(self):
        for fmt in (Format.TEXT, Format.CSV):
            body = render_histogram([], fmt).body.decode()
            assert len(body.strip().splitlines()) == 1

    def test_decimal_rendering(self):
        body = render_histogram([(0.01, 38), (100, 145)], Format.CSV).body.decode()
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[1] == ["0.01", "38"]
        assert rows[2] == ["100", "145"]

    @settings(max_examples=100, deadline=None)
    @given(histograms)
    @example([])
    def test_json_layout_is_the_stdlib_indent_layout(self, histogram):
        payload = {
            "schema_version": 1,
            "kind": "histogram",
            "rows": [{"value": value, "count": count} for value, count in histogram],
        }
        assert render_histogram(histogram, Format.JSON).body == stdlib_json(payload)

    def test_json_lossless(self, report):
        histogram = constant_histogram([report])
        parsed = json.loads(render_histogram(histogram, Format.JSON).body.decode())
        assert [(r["value"], r["count"]) for r in parsed["rows"]] == histogram
