import copy
import gc
import json
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from formula_gen import FULL_A1, FormulaGen
from sheetaudit.addresses import CellAddress
from sheetaudit.detect import DataRegion, DetectionConfig, analyze_workbook
from sheetaudit.model import (
    AuditWarning,
    Cell,
    Rectangle,
    SchemaError,
    Sheet,
    SheetVisibility,
    WarningKind,
    Workbook,
    audit_metadata,
    load_json,
    parse_range,
    workbook_from_document,
)
from sheetaudit.report import Format, render_detail
from sheetaudit.xlsx import FormatError, load_xlsx
from table3 import workbook_document
from xlsx_builder import build_xlsx


def make_cell(row, col, formula=None, value=None):
    return Cell(
        address=CellAddress(row=row, column=col), formula_text=formula, cached_value=value
    )


def make_sheet(name="S", cells=(), **kwargs):
    return Sheet(name=name, cells={c.address[:2]: c for c in cells}, **kwargs)


def workbook_to_document(workbook):
    """The JSON interchange document of a workbook; ``load_json`` reads it back."""
    sheets = []
    for sheet in workbook.sheets:
        cells = {}
        for coords in sorted(sheet.cells):
            cell = sheet.cells[coords]
            entry = {}
            if cell.formula_text is not None:
                entry["f"] = cell.formula_text
            if cell.cached_value is not None:
                entry["v"] = cell.cached_value
            cells[cell.address.render()] = entry
        sheets.append(
            {
                "name": sheet.name,
                "visibility": sheet.visibility.value,
                "cells": cells,
                "merged": [r.render() for r in sheet.merged_regions],
                "hidden_rows": sorted(sheet.hidden_rows),
                "hidden_cols": sorted(sheet.hidden_cols),
            }
        )
    return {"name": workbook.name, "ref_style": workbook.ref_style, "sheets": sheets}


def save_json(workbook, path):
    doc = workbook_to_document(workbook)
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


class TestAuditMetadata:
    def test_very_hidden_sheet_warning(self):
        workbook = Workbook(
            name="w",
            sheets=(
                Sheet(name="secret", visibility=SheetVisibility.VERY_HIDDEN),
            ),
        )
        [warning] = audit_metadata(workbook)
        assert warning == AuditWarning(WarningKind.VERY_HIDDEN_SHEET, "secret", 1)

    def test_hidden_sheet_warning(self):
        workbook = Workbook(name="w", sheets=(Sheet(name="old", visibility=SheetVisibility.HIDDEN),))
        [warning] = audit_metadata(workbook)
        assert warning == AuditWarning(WarningKind.HIDDEN_SHEET, "old", 1)

    def test_merged_region_warning(self):
        sheet = make_sheet(merged_regions=(parse_range("B2:C3"),))
        [warning] = audit_metadata(Workbook(name="w", sheets=(sheet,)))
        assert warning.kind is WarningKind.MERGED_CELLS
        assert warning.locations == ("B2:C3",)

    def test_clean_workbook_has_no_warnings(self):
        sheet = make_sheet(cells=[make_cell(1, 1, value=1)])
        assert audit_metadata(Workbook(name="w", sheets=(sheet,))) == []

    def test_hidden_rows_and_cols(self):
        sheet = make_sheet(hidden_rows=frozenset({3, 5}), hidden_cols=frozenset({2}))
        warnings = audit_metadata(Workbook(name="w", sheets=(sheet,)))
        kinds = {w.kind: w for w in warnings}
        assert kinds[WarningKind.HIDDEN_ROWS].locations == ("3", "5")
        assert kinds[WarningKind.HIDDEN_COLUMNS].locations == ("B",)


class TestJsonInterchange:
    def test_table3_document_loads(self):
        workbook = workbook_from_document(workbook_document())
        assert len(workbook.sheets) == 11
        formulas = sum(
            1
            for sheet in workbook.sheets
            for cell in sheet.cells.values()
            if cell.formula_text is not None
        )
        assert formulas == 9

    def test_save_load_round_trip(self, tmp_path):
        workbook = workbook_from_document(workbook_document())
        path = tmp_path / "wb.json"
        save_json(workbook, path)
        loaded = load_json(path)
        assert loaded.name == workbook.name
        assert loaded.ref_style == workbook.ref_style
        assert loaded.sheets == workbook.sheets

    def test_round_trip_preserves_metadata(self, tmp_path):
        sheet = Sheet(
            name="S 1",
            visibility=SheetVisibility.HIDDEN,
            cells={(2, 2): make_cell(2, 2, formula="=A1&\"x\"", value="yx")},
            merged_regions=(parse_range("D4:E9"),),
            hidden_rows=frozenset({7}),
            hidden_cols=frozenset({3}),
        )
        workbook = Workbook(name="meta", sheets=(sheet,), ref_style="R1C1")
        path = tmp_path / "meta.json"
        save_json(workbook, path)
        loaded = load_json(path)
        assert loaded.sheets == workbook.sheets
        assert loaded.ref_style == "R1C1"

    def test_round_trip_random_workbooks(self, tmp_path):
        gen = FormulaGen(seed=23, profile=FULL_A1)
        rng = gen.rng
        for i in range(10):
            cells = {}
            for _ in range(rng.randint(1, 15)):
                row, col = rng.randint(1, 40), rng.randint(1, 15)
                if rng.random() < 0.5:
                    cell = make_cell(row, col, formula=gen.formula())
                else:
                    cell = make_cell(row, col, value=rng.choice([0, 1.5, "txt", True]))
                cells[(row, col)] = cell
            workbook = Workbook(name=f"wb{i}", sheets=(Sheet(name="only", cells=cells),))
            path = tmp_path / f"wb{i}.json"
            save_json(workbook, path)
            assert load_json(path).sheets == workbook.sheets

    def test_row_zero_rejected(self):
        doc = {
            "name": "bad",
            "sheets": [{"name": "s", "cells": {"ZZZZ0": {"v": 1}}}],
        }
        with pytest.raises(SchemaError) as exc_info:
            workbook_from_document(doc)
        assert "/sheets/0/cells/ZZZZ0" in str(exc_info.value)

    def test_cell_addresses_stop_at_the_sheet_limits(self):
        def sheet_doc(**sheet):
            return {"name": "x", "sheets": [{"name": "s", **sheet}]}

        last = sheet_doc(cells={"XFD1048576": {"v": 1}}, merged=["XFC1048575:XFD1048576"])
        sheet = workbook_from_document(last).sheets[0]
        assert list(sheet.cells) == [(1_048_576, 16_384)]
        assert sheet.merged_regions == (parse_range("XFC1048575:XFD1048576"),)
        for address in ("XFE1", "A1048577", "R1048577C1", "R1C16385", "A" + "9" * 5000):
            with pytest.raises(SchemaError, match="/cells/"):
                workbook_from_document(sheet_doc(cells={address: {"v": 1}}))
            with pytest.raises(SchemaError, match="/merged/0"):
                workbook_from_document(sheet_doc(merged=[f"A1:{address}"]))

    def test_hidden_indices_stop_at_the_sheet_limits(self):
        last = {"name": "s", "hidden_cols": [16_384], "hidden_rows": [1_048_576]}
        sheet = workbook_from_document({"name": "x", "sheets": [last]}).sheets[0]
        assert (sheet.hidden_cols, sheet.hidden_rows) == ({16_384}, {1_048_576})
        for key, index in (("hidden_cols", 16_385), ("hidden_rows", 1_048_577)):
            with pytest.raises(SchemaError, match=f"/{key}/0"):
                workbook_from_document({"name": "x", "sheets": [{"name": "s", key: [index]}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            workbook_from_document({"name": "x", "sheets": [], "extra": 1})
        with pytest.raises(SchemaError):
            workbook_from_document(
                {"name": "x", "sheets": [{"name": "s", "colour": "red"}]}
            )
        with pytest.raises(SchemaError):
            workbook_from_document(
                {"name": "x", "sheets": [{"name": "s", "cells": {"A1": {"f": "=1", "q": 2}}}]}
            )

    def test_duplicate_sheet_names_rejected(self):
        doc = {"name": "x", "sheets": [{"name": "s"}, {"name": "s"}]}
        with pytest.raises(SchemaError):
            workbook_from_document(doc)

    def test_cell_without_content_rejected(self):
        # every check on one JSON cell, with the location and message it reports: each names
        # the cell by its key as spelt
        table = [
            ({}, "/sheets/0/cells/a1: cell 'a1' has neither formula nor value"),
            ({"f": None, "v": None}, "/sheets/0/cells/a1: cell 'a1' has neither formula nor value"),
            ({"f": 3}, "/sheets/0/cells/a1/f: formula must be a string"),
            ({"v": [1]}, "/sheets/0/cells/a1/v: value must be a scalar"),
            ({"v": 1e999}, "/sheets/0/cells/a1/v: value must be a finite number"),
            ({"f": "=A1", "x": 1}, "/sheets/0/cells/a1: unknown key 'x'"),
            ("A", "/sheets/0/cells/a1: cell must be an object"),
        ]
        for cell, message in table:
            doc = {"name": "x", "sheets": [{"name": "s", "cells": {"a1": cell}}]}
            with pytest.raises(SchemaError) as info:
                workbook_from_document(doc)
            assert str(info.value) == message, cell

    def test_document_and_sheet_faults_rejected(self):
        # every check on the document's and a sheet's own keys, with its location and message
        table = [
            ({"ref_style": "a1"}, "/ref_style: must be 'A1' or 'R1C1', got 'a1'"),
            ({"sheets": {}}, "/sheets: must be an array"),
            ({"sheets": ["s"]}, "/sheets/0: sheet must be an object"),
            ({"sheets": [{}]}, "/sheets/0/name: sheet name must be a nonempty string"),
            ({"sheets": [{"name": ""}]}, "/sheets/0/name: sheet name must be a nonempty string"),
            (
                {"sheets": [{"name": "s", "visibility": "shown"}]},
                "/sheets/0/visibility: unknown visibility 'shown'",
            ),
            ({"sheets": [{"name": "s", "cells": []}]}, "/sheets/0/cells: must be an object"),
            (
                {"sheets": [{"name": "s", "hidden_rows": 3}]},
                "/sheets/0/hidden_rows: must be an array of integers",
            ),
            (
                {"sheets": [{"name": "s", "hidden_cols": {}}]},
                "/sheets/0/hidden_cols: must be an array of integers",
            ),
        ]
        for fields, message in table:
            with pytest.raises(SchemaError) as info:
                workbook_from_document({"name": "x", **fields})
            assert str(info.value) == message, fields

    def test_formula_without_equals_gets_one(self):
        doc = {"name": "x", "sheets": [{"name": "s", "cells": {"A1": {"f": "A1*2"}}}]}
        cell = workbook_from_document(doc).sheets[0].cells[(1, 1)]
        assert cell.formula_text == "=A1*2"

    def test_sheets_share_one_address_and_coords_per_key(self):
        keys = ["A1", "$B$2", "c$3", "R4C4", "XFD1048576"]
        sheets = [{"name": f"S{i}", "cells": {k: {"f": "=1+2"} for k in keys}} for i in range(3)]
        workbook = workbook_from_document({"name": "x", "sheets": sheets})
        addresses = {id(c.address) for s in workbook.sheets for c in s.cells.values()}
        coords = {id(key) for s in workbook.sheets for key in s.cells}
        assert len(addresses) == len(coords) == len(keys)
        for sheet in workbook.sheets:
            assert all(key == cell.address[:2] for key, cell in sheet.cells.items())

    def test_document_is_left_as_it_was(self):
        doc = workbook_document()
        before = copy.deepcopy(doc)
        workbook_from_document(doc)
        assert doc == before

    def test_cells_with_one_formula_text_share_one_string(self, tmp_path):
        # json gives each occurrence of a text its own string; "B1*12" gains its "=" here
        cells = {"A1": {"f": "=B1*12"}, "A2": {"f": "B1*12"}, "A3": {"f": "=C1*2", "v": 4}}
        doc = {"name": "x", "sheets": [{"name": "S", "cells": cells}, {"name": "T", "cells": cells}]}
        path = tmp_path / "texts.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for workbook in (workbook_from_document(doc), load_json(path)):
            texts = [c.formula_text for s in workbook.sheets for c in s.cells.values()]
            assert sorted(texts) == ["=B1*12"] * 4 + ["=C1*2"] * 2
            assert len({id(text) for text in texts}) == 2

    def test_load_holds_one_raw_sheet_beside_the_model(self, tmp_path):
        # twelve sheets of one layout, as a model copies one block of formulas across sheets
        cells = {
            f"{'ABCDEFGH'[j % 8]}{j // 8 + 1}": {"f": f"=C{j // 8 + 2}*{j % 10}", "v": j}
            for j in range(2000)
        }
        doc = {"name": "model", "sheets": [{"name": f"S{s}", "cells": cells} for s in range(12)]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        del doc, cells
        peaks = []
        for parse in (lambda: json.loads(path.read_text(encoding="utf-8")), lambda: load_json(path)):
            tracemalloc.start()
            try:
                parse()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        document, loaded = peaks
        # the whole document beside the whole model peaked at 1.27 times the document
        assert loaded <= 1.1 * document, f"{loaded:,} bytes against {document:,}"


class TestModelInvariants:
    def test_cell_needs_formula_or_value(self):
        with pytest.raises(ValueError):
            Cell(address=CellAddress(row=1, column=1))

    def test_formula_normalized_with_equals(self):
        cell = Cell(address=CellAddress(row=1, column=1), formula_text="A1+B1")
        assert cell.formula_text == "=A1+B1"

    def test_rectangle_corner_order(self):
        with pytest.raises(ValueError):
            Rectangle(CellAddress(row=5, column=5), CellAddress(row=1, column=1))


def write_formula_grid(folder, rows, broken=False):
    """A workbook of ``rows`` numbers beside two formulas each, with a hidden sheet, a merge
    and a hidden row, as JSON and as XLSX; a ``broken`` one's last number is not a number."""
    numbers = {f"A{r}": r for r in range(1, rows + 1)}
    formulas = {}
    for r in range(1, rows + 1):
        formulas[f"B{r}"] = f"A{r}*1.5+{r}"
        formulas[f"C{r}"] = f"SUM(A$1:A{r})/12"
    cells = {key: {"v": v} for key, v in numbers.items()}
    cells.update({key: {"f": "=" + text} for key, text in formulas.items()})
    if broken:
        cells[f"A{rows}"], numbers[f"A{rows}"] = {"v": ["x"]}, "x"
    sheets = [
        {"name": "Data", "cells": cells, "merged": ["D1:E2"], "hidden_rows": [3]},
        {"name": "Notes", "visibility": "hidden", "cells": {"A1": {"v": "kept"}}},
    ]
    json_path = folder / f"grid{rows}.json"
    json_path.write_text(json.dumps({"name": "grid", "sheets": sheets}), encoding="utf-8")
    xml_rows = []
    for r in range(1, rows + 1):
        hidden = ' hidden="1"' if r == 3 else ""
        xml_rows.append(
            f'<row r="{r}"{hidden}><c r="A{r}"><v>{numbers[f"A{r}"]}</v></c>'
            f'<c r="B{r}"><f>{formulas[f"B{r}"]}</f></c>'
            f'<c r="C{r}"><f>{formulas[f"C{r}"]}</f></c></row>'
        )
    notes = '<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
    xlsx_path = build_xlsx(
        folder / f"grid{rows}.xlsx",
        [
            {"name": "Data", "rows": "".join(xml_rows), "merged": ["D1:E2"]},
            {"name": "Notes", "state": "hidden", "rows": notes},
        ],
        shared_strings=["kept"],
    )
    return json_path, xlsx_path


class TestCollectorPause:
    """The loaders and the analysis run with the cyclic collector paused, which is safe
    because nothing they build, or drop on an error, is left for it to free."""

    def test_no_collection_starts_inside_a_load_or_an_analysis(self, tmp_path):
        assert gc.isenabled()
        paths = write_formula_grid(tmp_path, 10_000)
        builders = (load_json, load_xlsx, analyze_workbook)
        bodies = {getattr(b, "__wrapped__", b).__code__: b.__name__ for b in builders}
        started_in = []

        def note(phase, info):
            # an automatic collection runs on the stack of the code whose allocation set it off
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                if frame.f_code in bodies:
                    started_in.append(bodies[frame.f_code])
                    break
                frame = frame.f_back

        gc.callbacks.append(note)
        try:
            for path, load in zip(paths, (load_json, load_xlsx)):
                workbook = load(path)
                assert gc.isenabled()
                report = analyze_workbook(workbook, DetectionConfig())
                assert gc.isenabled()
                assert report.formula_count == 20_000
        finally:
            gc.callbacks.remove(note)
        assert not started_in, Counter(started_in)

    def test_the_collector_is_restored_after_a_build_or_its_error(self, tmp_path):
        json_path, xlsx_path = write_formula_grid(tmp_path, 3)
        bad_json, bad_xlsx = write_formula_grid(tmp_path, 4, broken=True)
        (tmp_path / "broken.json").write_text("{", encoding="utf-8")
        config = DetectionConfig()
        builds = [
            lambda: analyze_workbook(load_json(json_path), config),
            lambda: analyze_workbook(load_xlsx(xlsx_path), config),
            lambda: workbook_from_document(workbook_document()),
        ]
        failures = [
            (lambda: load_json(bad_json), SchemaError),
            (lambda: load_json(tmp_path / "broken.json"), SchemaError),
            (lambda: workbook_from_document([]), SchemaError),
            (lambda: load_xlsx(bad_xlsx), FormatError),
        ]
        for was_on in (True, False):
            if not was_on:
                gc.disable()
            try:
                for build in builds:
                    build()
                    assert gc.isenabled() is was_on
                for fail, error in failures:
                    with pytest.raises(error):
                        fail()
                    assert gc.isenabled() is was_on
            finally:
                gc.enable()

    def test_threads_building_at_once_leave_the_collector_on(self, tmp_path):
        # each thread that turned the collector off turns it on again, so the last switch is on
        json_path, xlsx_path = write_formula_grid(tmp_path, 20)
        done = []

        def build(load, path):
            for _ in range(30):
                analyze_workbook(load(path), DetectionConfig())
            done.append(load)

        threads = [
            threading.Thread(target=build, args=pair)
            for pair in [(load_json, json_path), (load_xlsx, xlsx_path)] * 3
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == len(threads)
        assert gc.isenabled()

    def test_nothing_built_or_dropped_is_left_for_the_collector(self, tmp_path):
        # the premise of the pause: a parent pointer or a kept traceback would fail this
        good = write_formula_grid(tmp_path, 200)
        bad = write_formula_grid(tmp_path, 201, broken=True)
        table3 = tmp_path / "table3.json"
        table3.write_text(json.dumps(workbook_document()), encoding="utf-8")
        gc.disable()
        try:
            gc.collect()
            build_and_drop([*zip(good, (load_json, load_xlsx)), (table3, load_json)], bad)
            assert gc.collect() == 0
        finally:
            gc.enable()


def build_and_drop(loads, bad):
    config = DetectionConfig(data_regions=(DataRegion("Data", parse_range("A1:A100")),))
    for path, load in loads:
        report = analyze_workbook(load(path), config)
        for fmt in Format:
            render_detail(report, fmt)
    for path, load, error in zip(bad, (load_json, load_xlsx), (SchemaError, FormatError)):
        try:
            load(path)
        except error:
            pass
