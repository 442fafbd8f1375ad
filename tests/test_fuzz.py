"""Property tests that run the CLI on damaged and mutated workbooks.

Each batch holds one good workbook and one mutant: an XLSX package from
``xlsx_builder`` with a member dropped, cut short or bit-flipped, or an
attribute, ``<v>`` or XML declaration changed; or a JSON workbook
document, lone surrogates included.  Whatever the mutant, ``main`` exits
0, 1 or 2, every report it writes is UTF-8 (each JSON report parses),
and the good workbook's reports are byte for byte the ones it gets
alone.  A mutated config document, likewise, never makes ``main``
raise: it is refused before any report is written, or it gives the
reports the same document gives spelt another way.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
import zipfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetaudit.cli import main
from xlsx_builder import build_xlsx

FORMATS = ["--format", "text", "--format", "csv", "--format", "json"]
GOOD = {
    "name": "good",
    "sheets": [
        {"name": "Data", "cells": {"A1": {"v": 5}}},
        {"name": "Calc", "cells": {"B1": {"f": "=Data!A1*12", "v": 60}}},
    ],
}
SHEET1 = "xl/worksheets/sheet1.xml"


def _base_members() -> dict[str, bytes]:
    """A package using every part and cell form the reader reads, by member."""
    rows = (
        '<row r="1" hidden="1"><c r="A1"><f>B1*12</f><v>24</v></c>'
        '<c r="B1" t="s"><v>0</v></c><c r="C1" t="b"><v>1</v></c></row>'
        '<row r="2"><c r="A2"><f t="shared" ref="A2:A3" si="0">$A$1*1.1</f><v>1</v></c>'
        '<c r="B2" t="e"><v>#DIV/0!</v></c></row>'
        '<row r="3"><c r="A3"><f t="shared" si="0"/><v>2</v></c>'
        '<c r="B3" t="inlineStr"><is><t>x</t></is></c><c r="C3"><f>Hidden!A1*7</f></c></row>'
    )
    sheets = [
        {
            "name": "Calc",
            "rows": rows,
            "cols": '<cols><col min="2" max="3" hidden="1"/></cols>',
            "merged": ["D1:E2"],
        },
        {"name": "Hidden", "state": "hidden", "rows": '<row r="1"><c r="A1"><v>3</v></c></row>'},
    ]
    with tempfile.TemporaryDirectory() as folder:
        path = build_xlsx(Path(folder) / "base.xlsx", sheets, ["one", "two"], ref_mode_r1c1=True)
        with zipfile.ZipFile(path) as archive:
            return {name: archive.read(name) for name in archive.namelist()}


BASE = _base_members()
# an attribute, or a <v> with its text
FIELD = re.compile(rb'[\w:]+="[^"]*"|<v>[^<]*</v>')
ODD_VALUES = st.sampled_from(
    [b"", b"0", b"-1", b"1_0", b" 0 ", b"+3", b"2", b"99999999999", b"XFE1", b"A0", b"R1C1",
     b"nan", b"1e999", b"true", "٠".encode(), b"&#xD800;", b"<"]
) | st.binary(max_size=6)
# values for each pseudo-attribute of a member's <?xml ...?> declaration
DECLARED = {
    b"encoding": st.sampled_from(
        [b"bogus", b"shift_jis", b"UTF-32", b"utf-7", b"UTF-16", b"latin-1", b"cp037", b""]
    ),
    b"version": st.sampled_from([b"1.1", b"2.0", b"x", b""]),
    b"standalone": st.sampled_from([b"no", b"maybe", b""]),
}


def declared(member: str, key: bytes, value: bytes):
    """The mutation that sets ``key`` in ``member``'s XML declaration to ``value``."""
    old = re.match(rb'<\?xml[^>]*?( %s="[^"]*")' % key, BASE[member]).group(1)
    return "replace", member, old, b" %s=\"%s\"" % (key, value)


@st.composite
def package_mutations(draw):
    """(kind, member, a, b): a member dropped, cut at fraction a, flipped at
    fraction a and bit b, or a field or declaration attribute a replaced by
    b.  Cut and flip take the whole package when member is None."""
    kind = draw(st.sampled_from(["drop", "cut", "flip", "replace", "replace", "declare"]))
    if kind in ("cut", "flip"):
        member = draw(st.sampled_from([None, *sorted(BASE)]))
        return kind, member, draw(st.floats(0, 1)), draw(st.integers(0, 7))
    member = draw(st.sampled_from(sorted(BASE)))
    if kind == "declare":
        key = draw(st.sampled_from(sorted(DECLARED)))
        return declared(member, key, draw(DECLARED[key]))
    fields = FIELD.findall(BASE[member])
    if kind == "drop" or not fields:
        return "drop", member, None, None
    old = draw(st.sampled_from(fields))
    value = draw(ODD_VALUES)
    if old.startswith(b"<v>"):
        return "replace", member, old, b"<v>" + value + b"</v>"
    # an empty replacement drops the attribute
    new = draw(st.sampled_from([b"", old.partition(b"=")[0] + b'="' + value + b'"']))
    return "replace", member, old, new


def _damage(data: bytes, kind: str, fraction: float, bit: int) -> bytes:
    at = min(int(fraction * len(data)), len(data) - 1)
    if kind == "cut":
        return data[:at]
    return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1 :]


def _package(mutation) -> bytes:
    kind, member, a, b = mutation
    members = dict(BASE)
    if kind == "drop":
        del members[member]
    elif kind == "replace":
        members[member] = members[member].replace(a, b, 1)
    elif member is not None:
        members[member] = _damage(members[member], kind, a, b)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    package = buffer.getvalue()
    return _damage(package, kind, a, b) if member is None else package


def _check_batch(folder: Path, mutant: Path) -> None:
    good = folder / "good.json"
    good.write_text(json.dumps(GOOD))
    assert main([str(good), "--out", str(folder / "solo"), *FORMATS]) == 1
    out = folder / "out"
    assert main([str(good), str(mutant), "--out", str(out), *FORMATS]) in (0, 1, 2)
    for report in out.iterdir():
        text = report.read_bytes().decode("utf-8")
        if report.suffix == ".json":
            json.loads(text)
    for report in (folder / "solo").glob("good.findings.*"):
        assert (out / report.name).read_bytes() == report.read_bytes()


@settings(max_examples=60, deadline=None)
@given(package_mutations())
@example(("replace", "xl/workbook.xml", b"", b""))  # refMode="R1C1": still read as A1
@example(("replace", SHEET1, b'<c r="B1" t="s"><v>0</v>', b'<c r="B1" t="s"><v>-1</v>'))
@example(("replace", SHEET1, b'<row r="1" hidden="1">', b'<row r="1_0" hidden="1">'))
@example(("replace", SHEET1, b'<col min="2"', b'<col min=" 2"'))
@example(("replace", SHEET1, b'<c r="A1">', b"<c>"))
@example(("cut", None, 0.0, 0))  # not a ZIP package
@example(declared(SHEET1, b"encoding", b"bogus"))  # an unknown encoding
@example(declared(SHEET1, b"encoding", b"shift_jis"))  # multi-byte encodings expat refuses
@example(declared(SHEET1, b"encoding", b"UTF-32"))
@example(declared(SHEET1, b"encoding", b"utf-7"))
def test_mutated_package(mutation):
    with tempfile.TemporaryDirectory() as folder:
        mutant = Path(folder) / "mutant.xlsx"
        mutant.write_bytes(_package(mutation))
        _check_batch(Path(folder), mutant)


SURROGATES = st.sampled_from(["\ud800", "a\udfffb", "\udcff"])
TEXTS = (
    st.text(max_size=8)
    | SURROGATES
    | st.sampled_from(["=A1*7", "=$A$1*1.1", "=Sheet2!A1*7", '="x"&1', "=(", "A1", "a1", "R1C1"])
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXTS
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3),
    max_leaves=8,
)
CELLS = st.fixed_dictionaries({}, optional={"f": TEXTS | JSON_VALUES, "v": SCALARS | JSON_VALUES})
CELL_KEYS = TEXTS | st.sampled_from(["$B$2", "XFD1048576"])
SHEETS = st.fixed_dictionaries(
    {"name": TEXTS},
    optional={
        "cells": st.dictionaries(CELL_KEYS, CELLS, max_size=4),
        "visibility": st.sampled_from(["visible", "hidden", "very_hidden"]) | JSON_VALUES,
        "merged": st.lists(st.sampled_from(["A1:B2", "A1:ZZ", "B2:A1"]) | TEXTS, max_size=2),
        "hidden_rows": st.lists(st.integers(-1, 1_048_577), max_size=3) | JSON_VALUES,
        "hidden_cols": st.lists(st.integers(-1, 16_385), max_size=3) | JSON_VALUES,
    },
)
DOCUMENTS = (
    st.fixed_dictionaries(
        {"name": TEXTS, "sheets": st.lists(SHEETS, max_size=3)},
        optional={"ref_style": st.sampled_from(["A1", "R1C1", "B2"])},
    )
    | JSON_VALUES
)
SURROGATE_DOCUMENT = {
    "name": "s\ud800",
    "sheets": [{"name": "S\udfff", "cells": {"A1": {"f": '=B1*2&"\ud800"'}}}],
}


@settings(max_examples=60, deadline=None)
@given(DOCUMENTS, st.sampled_from(["mutant.json", "mutant\udcff.json"]))
@example(SURROGATE_DOCUMENT, "mutant.json")
@example(GOOD, "mutant\udcff.json")  # a file name that is not UTF-8
def test_mutated_json_document(document, file_name):
    with tempfile.TemporaryDirectory() as folder:
        mutant = Path(folder) / file_name
        text = json.dumps(document)  # each lone surrogate as its \ud800 escape
        try:
            mutant.write_text(text)
        except (OSError, UnicodeError):  # a file system that refuses the name
            mutant = mutant.with_name("mutant.json")
            mutant.write_text(text)
        _check_batch(Path(folder), mutant)


# each key's own values first, then any JSON value
CONFIG_VALUES = {
    "ignore_constants": st.lists(st.integers() | st.floats() | st.booleans() | TEXTS, max_size=3),
    "data_regions": st.lists(
        st.fixed_dictionaries(
            {"sheet": TEXTS | st.sampled_from(["Data", "Ca*", "[", "Q1!Data"])},
            optional={"range": st.sampled_from(["A1:B2", "A1:ZZ", "B2:A1", "XFE1"]) | TEXTS},
        )
        | JSON_VALUES,
        max_size=2,
    ),
    "mode": st.sampled_from(["lexical", "heuristic", "LEXICAL"]),
    "heuristic_operators": st.sampled_from(["*/", "", "+-*/^(,", "x"]),
    "max_constants_per_cell": st.integers(-1, 3),
}
CONFIG_DOCUMENTS = (
    st.fixed_dictionaries(
        {}, optional={key: values | JSON_VALUES for key, values in CONFIG_VALUES.items()}
    )
    | st.dictionaries(TEXTS, JSON_VALUES, max_size=2)
    | JSON_VALUES
)


@settings(max_examples=60, deadline=None)
@given(
    CONFIG_DOCUMENTS.map(lambda document: json.dumps(document).encode())
    | st.binary(max_size=8)
    | st.sampled_from([b"", b"{", b"[" * 100_000, b"\xef\xbb\xbf{}"])
)
@example(json.dumps({"data_regions": [{"sheet": "\ud800"}], "max_constants_per_cell": 1}).encode())
@example(b"\xed\xa0\x80")  # a lone surrogate written as UTF-8 would be: not UTF-8 text
def test_mutated_config_document(data):
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        good = folder / "good.json"
        good.write_text(json.dumps(GOOD))
        runs = {"as-drawn": data}
        try:
            # the same document with its keys in another order, spelt another way
            document = json.loads(data.decode("utf-8"))
            runs["re-spelt"] = json.dumps(document, sort_keys=True, indent=2).encode()
        except (ValueError, RecursionError):
            pass
        codes = {}
        for run, body in runs.items():
            config = folder / f"{run}.json"
            config.write_bytes(body)
            out = folder / run
            codes[run] = main([str(good), "--config", str(config), "--out", str(out), *FORMATS])
            assert codes[run] in (0, 1, 2)
            if codes[run] == 2:  # a config is checked before any report is written
                assert not out.exists()
                continue
            for report in out.iterdir():
                text = report.read_bytes().decode("utf-8")
                if report.suffix == ".json":
                    json.loads(text)
        if len(codes) == 2:
            assert codes["as-drawn"] == codes["re-spelt"]
            if codes["as-drawn"] != 2:
                for report in (folder / "as-drawn").iterdir():
                    assert (folder / "re-spelt" / report.name).read_bytes() == report.read_bytes()
