import tracemalloc
import zipfile

import pytest

from sheetaudit import xlsx
from sheetaudit.addresses import address_memo
from sheetaudit.detect import DetectionConfig, FindingKind, analyze_workbook
from sheetaudit.model import SheetVisibility, WarningKind
from sheetaudit.xlsx import FormatError, load_xlsx
from xlsx_builder import build_xlsx


def cell_at(workbook, sheet_name, coords):
    sheet = next(s for s in workbook.sheets if s.name == sheet_name)
    return sheet.cells[coords]


class TestLoadXlsx:
    def test_formula_and_cached_value(self, tmp_path):
        path = build_xlsx(
            tmp_path / "one.xlsx",
            [{"name": "Sheet1", "rows": '<row r="1"><c r="A1"><f>1+B2</f><v>3</v></c></row>'}],
        )
        workbook = load_xlsx(path)
        assert len(workbook.sheets) == 1
        cell = cell_at(workbook, "Sheet1", (1, 1))
        assert cell.formula_text == "=1+B2"
        assert cell.cached_value == 3

    def test_very_hidden_sheet_loaded(self, tmp_path):
        path = build_xlsx(
            tmp_path / "vh.xlsx",
            [
                {"name": "Front", "rows": ""},
                {
                    "name": "Secret",
                    "state": "veryHidden",
                    "rows": '<row r="2"><c r="B2"><v>42</v></c></row>',
                },
            ],
        )
        workbook = load_xlsx(path)
        secret = workbook.sheets[1]
        assert secret.visibility is SheetVisibility.VERY_HIDDEN
        assert secret.cells[(2, 2)].cached_value == 42

    def test_empty_workbook(self, tmp_path):
        path = build_xlsx(tmp_path / "empty.xlsx", [{"name": "A"}, {"name": "B"}])
        workbook = load_xlsx(path)
        assert [s.name for s in workbook.sheets] == ["A", "B"]
        assert all(not s.cells for s in workbook.sheets)

    def test_shared_and_inline_strings_resolved(self, tmp_path):
        rows = (
            '<row r="1">'
            '<c r="A1" t="s"><v>0</v></c>'
            '<c r="B1" t="s"><v>1</v></c>'
            '<c r="C1" t="inlineStr"><is><t>inline</t></is></c>'
            "</row>"
        )
        path = build_xlsx(
            tmp_path / "str.xlsx",
            [{"name": "S", "rows": rows}],
            shared_strings=["hello", "world"],
        )
        workbook = load_xlsx(path)
        assert cell_at(workbook, "S", (1, 1)).cached_value == "hello"
        assert cell_at(workbook, "S", (1, 2)).cached_value == "world"
        assert cell_at(workbook, "S", (1, 3)).cached_value == "inline"

    def test_shared_formula_follower_reads_its_master_text(self, tmp_path):
        rows = (
            '<row r="1"><c r="A1"><f t="shared" ref="A1:A2" si="0">B1*12</f><v>24</v></c></row>'
            '<row r="2"><c r="A2"><f t="shared" si="0"/><v>36</v></c></row>'
        )
        sheet = load_xlsx(build_xlsx(tmp_path / "sh.xlsx", [{"name": "S", "rows": rows}])).sheets[0]
        assert [sheet.cells[(r, 1)].formula_text for r in (1, 2)] == ["=B1*12", "=B1*12"]
        assert sheet.cells[(2, 1)].cached_value == 36

    def test_formula_cell_count_matches_source(self, tmp_path):
        rows = (
            '<row r="1"><c r="A1"><f>B1*2</f><v>4</v></c><c r="B1"><v>2</v></c></row>'
            '<row r="2"><c r="A2"><f>B1+1</f><v>3</v></c></row>'
        )
        path = build_xlsx(tmp_path / "cnt.xlsx", [{"name": "S", "rows": rows}])
        workbook = load_xlsx(path)
        formulas = [c for c in workbook.sheets[0].cells.values() if c.formula_text]
        assert len(formulas) == 2

    def test_merged_regions_and_hidden_flags(self, tmp_path):
        path = build_xlsx(
            tmp_path / "meta.xlsx",
            [
                {
                    "name": "S",
                    "rows": '<row r="2" hidden="1"><c r="B2"><v>1</v></c></row>',
                    "merged": ["B2:C3"],
                    "cols": '<cols><col min="4" max="5" hidden="1"/></cols>',
                }
            ],
        )
        sheet = load_xlsx(path).sheets[0]
        assert [r.render() for r in sheet.merged_regions] == ["B2:C3"]
        assert sheet.hidden_rows == frozenset({2})
        assert sheet.hidden_cols == frozenset({4, 5})
        assert sheet.cells[(2, 2)].cached_value == 1

    def test_hidden_columns_to_the_last_column(self, tmp_path):
        # Excel hides every column right of C with max="16384" (column XFD)
        cols = '<cols><col min="4" max="16384" hidden="1"/></cols>'
        path = build_xlsx(tmp_path / "cols.xlsx", [{"name": "S", "cols": cols}])
        assert load_xlsx(path).sheets[0].hidden_cols == frozenset(range(4, 16_385))

    def test_hidden_column_spans_overlap_abut_and_run_backwards(self, tmp_path):
        spans = [(9, 12), (2, 4), (3, 6), (7, 7), (15, 14), (10, 11), (20, 20), (12, 12)]
        cols = "".join(f'<col min="{a}" max="{b}" hidden="1"/>' for a, b in spans)
        cols += '<col min="30" max="31"/>'  # not hidden
        path = build_xlsx(tmp_path / "spans.xlsx", [{"name": "S", "cols": f"<cols>{cols}</cols>"}])
        # a span whose min is past its max hides nothing
        assert load_xlsx(path).sheets[0].hidden_cols == frozenset([*range(2, 8), *range(9, 13), 20])

    def test_last_cell_of_the_sheet_loads(self, tmp_path):
        rows = '<row r="1048576"><c r="XFD1048576"><v>7</v></c></row>'
        path = build_xlsx(
            tmp_path / "last.xlsx", [{"name": "S", "rows": rows, "merged": ["A1:XFD1"]}]
        )
        sheet = load_xlsx(path).sheets[0]
        assert list(sheet.cells) == [(1_048_576, 16_384)]
        assert [r.render() for r in sheet.merged_regions] == ["A1:XFD1"]

    def test_cells_under_a_merge_are_audited(self, tmp_path):
        # a merge hides its other cells as hiding does, so they are audited, and the
        # merge is a warning; README "Workbook inputs" states the rule
        rows = '<row r="2"><c r="B2"><v>1</v></c><c r="C2"><f>B2*7</f></c></row>'
        path = build_xlsx(
            tmp_path / "merge.xlsx", [{"name": "S", "rows": rows, "merged": ["B2:C3"]}]
        )
        report = analyze_workbook(load_xlsx(path), DetectionConfig())
        assert [(f.address.render(), f.kind) for f in report.findings] == [
            ("$B$2", FindingKind.DIRECT_NUMERIC_ENTRY),
            ("$C$2", FindingKind.HARD_CODED_CONSTANT),
        ]
        assert [(w.kind, w.locations) for w in report.warnings] == [
            (WarningKind.MERGED_CELLS, ("B2:C3",))
        ]

    def test_merge_over_the_whole_sheet_keeps_every_cell(self, tmp_path):
        rows = (
            '<row r="1"><c r="A1"><v>1</v></c><c r="B1"><v>2</v></c></row>'
            '<row r="3"><c r="C3"><v>3</v></c><c r="D4"><v>4</v></c></row>'
            '<row r="1048576"><c r="XFD1048576"><v>5</v></c></row>'
        )
        merged = ["A1:XFD1048576", "C3:D4"]
        path = build_xlsx(tmp_path / "all.xlsx", [{"name": "S", "rows": rows, "merged": merged}])
        sheet = load_xlsx(path).sheets[0]
        assert sorted(sheet.cells) == [(1, 1), (1, 2), (3, 3), (4, 4), (1_048_576, 16_384)]
        assert [r.render() for r in sheet.merged_regions] == merged

    def test_sheets_share_one_address_and_coords_per_reference(self, tmp_path):
        refs = ["A1", "B1", "C2", "XFD1048576"]
        rows = "".join(f'<row r="{r[1:]}"><c r="{r}"><f>1+2</f></c></row>' for r in refs[:3])
        rows += '<row r="1048576"><c r="XFD1048576"><v>7</v></c></row>'
        sheets = [{"name": f"S{i}", "rows": rows} for i in range(3)]
        workbook = load_xlsx(build_xlsx(tmp_path / "copies.xlsx", sheets))
        addresses = {id(c.address) for s in workbook.sheets for c in s.cells.values()}
        coords = {id(key) for s in workbook.sheets for key in s.cells}
        assert len(addresses) == len(coords) == len(refs)
        for sheet in workbook.sheets:
            assert all(key == cell.address[:2] for key, cell in sheet.cells.items())

    def test_repeated_cell_names_sheet_and_both_refs(self, tmp_path):
        rows = '<row r="1"><c r="A1"><f>B1*12</f><v>4</v></c><c r="a1"><v>5</v></c></row>'
        path = build_xlsx(tmp_path / "twice.xlsx", [{"name": "S", "rows": rows}])
        with pytest.raises(FormatError, match=r"sheet 'S': cells 'A1' and 'a1' are the same cell"):
            load_xlsx(path)

    @pytest.mark.parametrize(
        "raw,expected", [("1", True), ("0", False), ("true", True), ("false", False)]
    )
    def test_boolean_spellings(self, tmp_path, raw, expected):
        rows = f'<row r="1"><c r="A1" t="b"><v>{raw}</v></c></row>'
        path = build_xlsx(tmp_path / "bool.xlsx", [{"name": "S", "rows": rows}])
        assert load_xlsx(path).sheets[0].cells[(1, 1)].cached_value is expected

    def test_boolean_and_error_values(self, tmp_path):
        rows = (
            '<row r="1">'
            '<c r="A1" t="b"><v>1</v></c>'
            '<c r="B1" t="e"><v>#DIV/0!</v></c>'
            '<c r="C1" t="str"><f>CONCAT(A1)</f><v>TRUE</v></c>'
            "</row>"
        )
        path = build_xlsx(tmp_path / "types.xlsx", [{"name": "S", "rows": rows}])
        sheet = load_xlsx(path).sheets[0]
        assert sheet.cells[(1, 1)].cached_value is True
        assert sheet.cells[(1, 2)].cached_value == "#DIV/0!"
        assert sheet.cells[(1, 3)].formula_text == "=CONCAT(A1)"

    def test_date_cell_is_text_and_no_finding(self, tmp_path):
        # ECMA-376 Part 1 §18.18.11: t="d" holds an ISO 8601 date, which is no number;
        # a date stored as a serial number (t="n") stays a numeric entry
        rows = '<row r="1"><c r="A1" t="d"><v>2024-01-31T00:00:00</v></c></row>'
        workbook = load_xlsx(build_xlsx(tmp_path / "d.xlsx", [{"name": "S", "rows": rows}]))
        assert workbook.sheets[0].cells[(1, 1)].cached_value == "2024-01-31T00:00:00"
        assert analyze_workbook(workbook, DetectionConfig()).findings == ()

    def test_cells_with_one_formula_text_share_one_string(self, tmp_path):
        rows = (
            '<row r="1"><c r="A1"><f>B1*12</f></c>'
            '<c r="B1"><f t="shared" ref="B1:B3" si="0">C1*2</f></c></row>'
            '<row r="2"><c r="A2"><f>B1*12</f></c><c r="B2"><f t="shared" si="0"/></c></row>'
            '<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>'
        )
        again = '<row r="1"><c r="A1"><f>B1*12</f></c><c r="B1"><f>C1*2</f></c></row>'
        sheets = [{"name": "S", "rows": rows}, {"name": "T", "rows": again}]
        workbook = load_xlsx(build_xlsx(tmp_path / "texts.xlsx", sheets))
        texts = [c.formula_text for s in workbook.sheets for c in s.cells.values()]
        assert sorted(texts) == ["=B1*12"] * 3 + ["=C1*2"] * 4
        assert len({id(text) for text in texts}) == 2

    def test_first_fault_in_document_order_is_the_one_reported(self, tmp_path):
        bad_cell = '<row r="1"><c r="A1"><v>x</v></c></row>'
        # a merge after sheetData, and XML that breaks after the cell, are read after it
        for sheet in (
            {"rows": bad_cell, "merged": ["A1:ZZ"]},
            {"rows": bad_cell + "<row r='2'><c r='A2'><v>1</c></row>"},
        ):
            path = build_xlsx(tmp_path / "two.xlsx", [{"name": "S", **sheet}])
            with pytest.raises(FormatError, match=r"^sheet 'S': cell A1: bad number 'x'$"):
                load_xlsx(path)

    def test_r1c1_ref_mode_detected(self, tmp_path):
        # refMode is how a spreadsheet shows references; the package stores them as A1
        path = build_xlsx(tmp_path / "r1c1.xlsx", [{"name": "S"}], ref_mode_r1c1=True)
        assert load_xlsx(path).ref_style == "A1"

    def test_r1c1_ref_mode_formulas_are_audited_as_a1(self, tmp_path):
        rows = '<row r="1"><c r="A1"><f>$A$1*1.1</f></c><c r="B1"><f>Sheet2!A1*7</f></c></row>'
        sheets = [{"name": "S", "rows": rows}, {"name": "Sheet2"}]
        for r1c1 in (False, True):
            path = build_xlsx(tmp_path / f"mode{r1c1}.xlsx", sheets, ref_mode_r1c1=r1c1)
            report = analyze_workbook(load_xlsx(path), DetectionConfig())
            assert [(f.kind, [o.value for o in f.constants]) for f in report.findings] == [
                (FindingKind.HARD_CODED_CONSTANT, [1.1]),
                (FindingKind.HARD_CODED_CONSTANT, [7]),
            ]

    @pytest.mark.parametrize("raw", ["-1", "1_0", " 0 ", "+0", "\u0660", "11"])
    def test_shared_string_index_is_ascii_digits_within_the_table(self, tmp_path, raw):
        rows = f'<row r="1"><c r="A1" t="s"><v>{raw}</v></c></row>'
        strings = [f"s{n}" for n in range(11)]
        path = build_xlsx(tmp_path / "s.xlsx", [{"name": "S", "rows": rows}], shared_strings=strings)
        with pytest.raises(FormatError, match="bad shared string index"):
            load_xlsx(path)

    @pytest.mark.parametrize(
        "sheet",
        [
            {"rows": '<row r="1_0" hidden="1"><c r="A10"><v>1</v></c></row>'},
            {"rows": '<row r="+3"><c r="A3"><v>1</v></c></row>'},
            {"cols": '<cols><col min=" 2" max="3" hidden="1"/></cols>'},
            {"cols": '<cols><col min="2" max="+3" hidden="1"/></cols>'},
        ],
    )
    def test_row_and_column_indexes_are_ascii_digits(self, tmp_path, sheet):
        path = build_xlsx(tmp_path / "i.xlsx", [{"name": "S", **sheet}])
        with pytest.raises(FormatError, match="is not an index from 1 to"):
            load_xlsx(path)

    def test_cells_and_rows_without_r_follow_the_one_before(self, tmp_path):
        rows = (
            '<row r="2"><c><f>A1*7</f></c><c r="C2"><v>1</v></c><c><v>2</v></c></row>'
            '<row hidden="1"><c><v>3</v></c></row>'
            '<row><c r="B4"><v>4</v></c></row>'
        )
        sheet = load_xlsx(build_xlsx(tmp_path / "r.xlsx", [{"name": "S", "rows": rows}])).sheets[0]
        assert {coords: (c.formula_text, c.cached_value) for coords, c in sheet.cells.items()} == {
            (2, 1): ("=A1*7", None),
            (2, 3): (None, 1),
            (2, 4): (None, 2),
            (3, 1): (None, 3),
            (4, 2): (None, 4),
        }
        assert sheet.hidden_rows == {3}

    def test_cell_without_r_past_the_last_column_is_an_error(self, tmp_path):
        rows = '<row r="1"><c r="XFD1"><v>1</v></c><c><v>2</v></c></row>'
        path = build_xlsx(tmp_path / "x.xlsx", [{"name": "S", "rows": rows}])
        with pytest.raises(FormatError, match="bad cell reference 'XFE1'"):
            load_xlsx(path)

    def test_not_a_zip_raises_format_error(self, tmp_path):
        path = tmp_path / "junk.xlsx"
        path.write_bytes(b"this is not a zip")
        with pytest.raises(FormatError):
            load_xlsx(path)

    def test_messages_leave_the_path_to_the_caller(self, tmp_path):
        junk = tmp_path / "junk.xlsx"
        junk.write_bytes(b"this is not a zip")
        twice = build_xlsx(tmp_path / "twice.xlsx", [{"name": "S"}, {"name": "S"}])
        for path in (junk, twice):
            with pytest.raises(FormatError) as caught:
                load_xlsx(path)
            assert str(tmp_path) not in str(caught.value)

    def test_zip_without_workbook_part_raises(self, tmp_path):
        import zipfile

        path = tmp_path / "nopart.xlsx"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("hello.txt", "hi")
        with pytest.raises(FormatError):
            load_xlsx(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_xlsx(tmp_path / "absent.xlsx")


def test_load_holds_a_row_of_the_tree_not_the_whole(tmp_path, monkeypatch):
    """100,000 cells in one worksheet: what the load holds and then lets go is at
    most the worksheet's XML (about 16 times it when the whole tree was built)."""
    cells = "".join(f'<c r="{c}{{0}}"><v>{i}</v></c>' for i, c in enumerate("ABCDEFGHIJ"))
    rows = "".join(f'<row r="{r}">{cells.format(r)}</row>' for r in range(1, 10_001))
    path = build_xlsx(tmp_path / "big.xlsx", [{"name": "S", "rows": rows}])
    with zipfile.ZipFile(path) as archive:
        size = archive.getinfo("xl/worksheets/sheet1.xml").file_size
    # the address memo holds an entry per distinct reference until the load returns,
    # by design (README "Workbook inputs"); kept alive here, it counts as kept
    memos = []

    def kept_memo():
        memos.append(address_memo())
        return memos[-1]

    monkeypatch.setattr(xlsx, "address_memo", kept_memo)
    tracemalloc.start()
    try:
        workbook = load_xlsx(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(sheet.cells) for sheet in workbook.sheets) == 100_000
    assert peak - kept <= size, f"{peak - kept:,} bytes let go against a {size:,}-byte worksheet"
