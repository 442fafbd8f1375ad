"""One workbook, whatever the input: the XLSX and JSON loaders read it alike.

A drawn workbook model is written both as an XLSX package (through
``xlsx_builder``) and as a JSON interchange document.  ``load_xlsx`` and
``load_json`` must give the same sheets, and ``analyze_workbook`` the
same report apart from the workbook's name and location.

The model holds only what both inputs can hold.  Left out, since only
one input can hold them:

- R1C1 cell keys and ``"ref_style": "R1C1"``: JSON only, since a
  package is always read as A1;
- ``{"f": "="}``, a formula with no text after ``=``: JSON reads it as
  a formula, while XLSX reads ``<f></f>`` as no formula;
- an empty string in ``<c t="str"><v></v></c>``: XLSX reads it as no
  value, while JSON's ``"v": ""`` is an empty string.  The model spells
  an empty string as a shared or inline string, which XLSX reads as one;
- text that XML 1.0 cannot carry (the C0 controls other than tab,
  newline and carriage return, lone surrogates, U+FFFE and U+FFFF): JSON
  only.  A carriage return is written as ``&#13;``, since XML reads a
  bare one as a newline.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formula_gen import SHEET_NAMES, FormulaGen
from sheetaudit.addresses import column_to_letters
from sheetaudit.detect import DetectionConfig, analyze_workbook
from sheetaudit.model import SchemaError, load_json
from sheetaudit.xlsx import FormatError, load_xlsx
from xlsx_builder import build_xlsx

GRID = 4  # cells and merges lie in A1:D4; hidden rows and columns go one further
# a sheet's XLSX state (None: no state attribute) and its JSON visibility
VISIBILITY = {None: "visible", "visible": "visible", "hidden": "hidden", "veryHidden": "very_hidden"}


def _xml_char(c: str) -> bool:
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


TEXT = st.text(st.characters().filter(_xml_char), max_size=8)
FORMULA_BODIES = (
    st.integers(0, 2**32).map(lambda seed: FormulaGen(seed).formula()[1:])
    | TEXT.filter(bool)
)
NUMBERS = st.integers(-(10**20), 10**20) | st.floats(allow_nan=False, allow_infinity=False)
BOOLEANS = st.sampled_from(
    [("b", False, "0"), ("b", True, "1"), ("b", False, "false"), ("b", True, "true")]
)
DATES = (st.dates() | st.datetimes()).map(lambda when: ("d", when.isoformat(), None))
# each cell is (kind, content, extra): a formula body and its cached number or None,
# a number, a string and its XLSX cell type, a boolean and its <v> spelling, or a
# date as ISO 8601 text (t="d"), which JSON holds as a string
CONTENTS = (
    st.tuples(st.just("f"), FORMULA_BODIES, st.none() | NUMBERS)
    | st.tuples(st.just("n"), NUMBERS, st.none())
    | TEXT.flatmap(
        lambda text: st.tuples(
            st.just("s"),
            st.just(text),
            st.sampled_from(["s", "inlineStr", "str"] if text else ["s", "inlineStr"]),
        )
    )
    | BOOLEANS
    | DATES
)
COORDS = st.tuples(st.integers(1, GRID), st.integers(1, GRID))


def ref(row: int, column: int) -> str:
    return f"{column_to_letters(column)}{row}"


@st.composite
def merges(draw) -> str:
    (r1, c1), (r2, c2) = draw(COORDS), draw(COORDS)
    return f"{ref(min(r1, r2), min(c1, c2))}:{ref(max(r1, r2), max(c1, c2))}"


SHEETS = st.fixed_dictionaries(
    {
        "state": st.sampled_from(list(VISIBILITY)),
        "cells": st.dictionaries(COORDS, CONTENTS, max_size=8),
        "merged": st.lists(merges(), max_size=2),
        "hidden_rows": st.sets(st.integers(1, GRID + 1), max_size=2),
        "hidden_cols": st.sets(st.integers(1, GRID + 1), max_size=2),
    }
)


@st.composite
def workbooks(draw) -> list[dict]:
    names = draw(st.lists(st.sampled_from(SHEET_NAMES), min_size=1, max_size=3, unique=True))
    return [{"name": name, **draw(SHEETS)} for name in names]


def _xml_text(text: str) -> str:
    return escape(text, {"\r": "&#13;"})


def _cell_xml(at: str, content: tuple, strings: list[str]) -> str:
    kind, value, extra = content
    if kind == "f":
        cached = "" if extra is None else f"<v>{extra!r}</v>"
        return f'<c r="{at}"><f>{_xml_text(value)}</f>{cached}</c>'
    if kind == "n":
        return f'<c r="{at}"><v>{value!r}</v></c>'
    if kind == "b":
        return f'<c r="{at}" t="b"><v>{extra}</v></c>'
    if kind == "d":
        return f'<c r="{at}" t="d"><v>{value}</v></c>'
    if extra == "s":
        strings.append(_xml_text(value))
        return f'<c r="{at}" t="s"><v>{len(strings) - 1}</v></c>'
    if extra == "inlineStr":
        return f'<c r="{at}" t="inlineStr"><is><t>{_xml_text(value)}</t></is></c>'
    return f'<c r="{at}" t="str"><v>{_xml_text(value)}</v></c>'


def write_xlsx(path: Path, model) -> Path:
    strings: list[str] = []
    sheets = []
    for sheet in model:
        hidden_rows = sheet.get("hidden_rows", set())
        rows: dict[int, list[str]] = {row: [] for row in hidden_rows}
        for (row, column), content in sorted(sheet["cells"].items()):
            rows.setdefault(row, []).append(_cell_xml(ref(row, column), content, strings))
        hidden = ' hidden="1"'
        entry = {
            "name": sheet["name"],
            "rows": "".join(
                f'<row r="{row}"{hidden if row in hidden_rows else ""}>{"".join(cells)}</row>'
                for row, cells in sorted(rows.items())
            ),
            "merged": sheet.get("merged", []),
        }
        if sheet.get("state"):
            entry["state"] = sheet["state"]
        if sheet.get("hidden_cols"):
            cols = (f'<col min="{c}" max="{c}" hidden="1"/>' for c in sorted(sheet["hidden_cols"]))
            entry["cols"] = f"<cols>{''.join(cols)}</cols>"
        sheets.append(entry)
    return build_xlsx(path, sheets, strings)


def write_json(path: Path, model) -> Path:
    sheets = []
    for sheet in model:
        cells = {}
        for (row, column), (kind, value, extra) in sheet["cells"].items():
            if kind == "f":
                cells[ref(row, column)] = {"f": "=" + value, **({} if extra is None else {"v": extra})}
            else:
                cells[ref(row, column)] = {"v": value}
        sheets.append(
            {
                "name": sheet["name"],
                "visibility": VISIBILITY[sheet.get("state")],
                "cells": cells,
                "merged": sheet.get("merged", []),
                "hidden_rows": sorted(sheet.get("hidden_rows", ())),
                "hidden_cols": sorted(sheet.get("hidden_cols", ())),
            }
        )
    path.write_text(json.dumps({"name": "model", "sheets": sheets}), encoding="utf-8")
    return path


def unnamed(report):
    return dataclasses.replace(report, workbook_name="", workbook_location="")


@settings(max_examples=60, deadline=None)
@given(workbooks())
# README "Workbook inputs": a formula under a merge is audited from either input
@example([{"name": "S", "cells": {(1, 1): ("n", 1, None), (1, 2): ("f", "A1*7", None)},
           "merged": ["A1:B1"]}])
def test_both_loaders_read_one_workbook_alike(model):
    with tempfile.TemporaryDirectory() as folder:
        from_xlsx = load_xlsx(write_xlsx(Path(folder) / "model.xlsx", model))
        from_json = load_json(write_json(Path(folder) / "model.json", model))
    assert from_xlsx.sheets == from_json.sheets
    config = DetectionConfig()
    assert unnamed(analyze_workbook(from_xlsx, config)) == unnamed(analyze_workbook(from_json, config))


PAST_COLUMN = (
    "cell address 'XFE1' is outside the sheet:"
    " row must be from 1 to 1048576 and column from 1 to 16384, got row=1 column=16385"
)
# one sheet defect per row, as a JSON sheet with the pointer its fault is at and as an XLSX
# sheet, then the one fact both loaders give: the sheet builder words it, and each loader
# only puts its location in front
SHEET_DEFECTS = {
    "cell-twice": (
        {"cells": {"A1": {"v": 1}, "a1": {"v": 2}}},
        "/sheets/0/cells/a1",
        {"rows": '<row r="1"><c r="A1"><v>1</v></c><c r="a1"><v>2</v></c></row>'},
        "'a1' names cell A1 a second time",
    ),
    "cell-twice-lower-case-first": (
        {"cells": {"a1": {"v": 1}, "A1": {"v": 2}}},
        "/sheets/0/cells/A1",
        {"rows": '<row r="1"><c r="a1"><v>1</v></c><c r="A1"><v>2</v></c></row>'},
        "'A1' names cell A1 a second time",
    ),
    "bad-reference": (
        {"cells": {"A1": {"v": 1}, "XFE1": {"v": 2}}},
        "/sheets/0/cells/XFE1",
        {"rows": '<row r="1"><c r="A1"><v>1</v></c><c r="XFE1"><v>2</v></c></row>'},
        PAST_COLUMN,
    ),
    "unparseable-reference": (
        {"cells": {"ZZ": {"v": 1}}},
        "/sheets/0/cells/ZZ",
        {"rows": '<row r="1"><c r="ZZ"><v>1</v></c></row>'},
        "cannot parse cell address 'ZZ'",
    ),
    "hidden-row-past-limit": (
        {"hidden_rows": [3, 1_048_577]},
        "/sheets/0/hidden_rows/1",
        {"rows": '<row r="3" hidden="1"/><row r="1048577" hidden="1"/>'},
        "hidden row 1048577 is not an index from 1 to 1048576",
    ),
    "hidden-column-past-limit": (
        {"hidden_cols": [2, 16_385]},
        "/sheets/0/hidden_cols/1",
        {"cols": '<cols><col min="2" max="2" hidden="1"/><col min="3" max="16385" hidden="1"/>'
                 "</cols>"},
        "hidden column 16385 is not an index from 1 to 16384",
    ),
    "hidden-column-zero": (
        {"hidden_cols": [0]},
        "/sheets/0/hidden_cols/0",
        {"cols": '<cols><col min="0" max="2" hidden="1"/></cols>'},
        "hidden column 0 is not an index from 1 to 16384",
    ),
    "bad-merge": (
        {"merged": ["A1:B2", "A1:XFE1"]},
        "/sheets/0/merged/1",
        {"merged": ["A1:B2", "A1:XFE1"]},
        f"cannot parse range 'A1:XFE1': {PAST_COLUMN}",
    ),
}


@pytest.mark.parametrize("defect", SHEET_DEFECTS)
def test_both_loaders_refuse_one_sheet_defect(tmp_path, defect):
    json_sheet, pointer, xlsx_sheet, fact = SHEET_DEFECTS[defect]
    document = {"name": "model", "sheets": [{"name": "S", **json_sheet}]}
    (tmp_path / "model.json").write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SchemaError) as from_json:
        load_json(tmp_path / "model.json")
    assert str(from_json.value) == f"{pointer}: {fact}"
    with pytest.raises(FormatError) as from_xlsx:
        load_xlsx(build_xlsx(tmp_path / "model.xlsx", [{"name": "S", **xlsx_sheet}]))
    assert str(from_xlsx.value) == f"sheet 'S': {fact}"
