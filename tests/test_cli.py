import json
import os
import struct
import tempfile
import tracemalloc
import zipfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetaudit import xlsx
from sheetaudit.cli import RunOptions, build_config, main
from sheetaudit.detect import (
    AnalysisReport,
    DataRegion,
    DetectionConfig,
    DetectionMode,
    analyze_workbook,
    constant_histogram,
)
from sheetaudit.model import load_json, parse_range
from sheetaudit.report import Format, render_batch_summary, render_histogram
from table3 import workbook_document
from xlsx_builder import build_xlsx


def write_fixture(path, name=None):
    doc = workbook_document(name or path.stem)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_clean(path):
    doc = {
        "name": path.stem,
        "ref_style": "A1",
        "sheets": [
            {
                "name": "Data",
                "cells": {"A1": {"v": 10}, "A2": {"v": 20}},
            },
            {"name": "Calc", "cells": {"B1": {"f": "=Data!A1+Data!A2", "v": 30}}},
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestExitCodes:
    def test_findings_exceed_default_threshold(self, tmp_path):
        write_fixture(tmp_path / "wb.json")
        code = main([str(tmp_path / "wb.json"), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_clean_workbook_exits_zero(self, tmp_path):
        write_clean(tmp_path / "clean.json")
        code = main(
            [
                str(tmp_path / "clean.json"),
                "--out",
                str(tmp_path / "out"),
                "--data-region",
                "Data",
            ]
        )
        assert code == 0

    def test_empty_glob_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path / "none" / "*.json"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no inputs matched" in capsys.readouterr().err

    def test_unreadable_workbook_exits_two(self, tmp_path):
        bad = tmp_path / "bad.xlsx"
        bad.write_bytes(b"nope")
        write_clean(tmp_path / "ok.json")
        code = main(
            [str(tmp_path / "*.xlsx"), str(tmp_path / "*.json"), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "ERROR" in summary

    def test_load_error_names_its_path_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.xlsx"
        bad.write_bytes(b"nope")
        code = main([str(bad), "--out", str(tmp_path / "out"), "--format", "json"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: not a ZIP package\n"
        [row] = json.loads((tmp_path / "out" / "summary.json").read_text())["rows"]
        assert (row["workbook_location"], row["error"]) == (str(bad), "not a ZIP package")

    def test_unreadable_input_names_its_path_once(self, tmp_path, capsys):
        (tmp_path / "x.json").mkdir()
        expected = {tmp_path / "x.json": "Is a directory"}
        try:
            (tmp_path / "gone.json").symlink_to("missing.json")
            expected[tmp_path / "gone.json"] = "No such file or directory"
        except OSError:
            pass  # the file system makes no symlinks
        out = tmp_path / "out"
        code = main([*map(str, expected), "--out", str(out), "--format", "json"])
        assert code == 2
        errors = sorted(expected.items())
        assert capsys.readouterr().err == "".join(f"error: {p}: {e}\n" for p, e in errors)
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert [(r["workbook_location"], r["error"]) for r in rows] == [
            (str(p), e) for p, e in errors
        ]

    def test_unusable_output_is_an_error_not_a_traceback(self, tmp_path, capsys):
        wb = write_fixture(tmp_path / "wb.json")
        regular = tmp_path / "afile"
        regular.write_text("")
        assert main([str(wb), "--out", str(regular)]) == 2
        assert capsys.readouterr().err == f"error: {regular}: File exists\n"
        out = tmp_path / "out"
        (out / "wb.findings.txt").mkdir(parents=True)
        assert main([str(wb), "--out", str(out), "--format", "json", "--format", "text"]) == 2
        assert capsys.readouterr().err == f"error: {out / 'wb.findings.txt'}: Is a directory\n"
        # the report written before the failure stays
        assert json.loads((out / "wb.findings.json").read_text())["kind"] == "detail"

    def test_one_file_under_several_spellings_is_audited_once(self, tmp_path, capsys):
        folder = tmp_path / "d"
        folder.mkdir()
        doc = {"name": "wb", "sheets": [{"name": "S", "cells": {"A1": {"f": "=B1*2+3+4"}}}]}
        (folder / "wb.json").write_text(json.dumps(doc))
        spellings = [folder / "wb.json", folder / ".." / "d" / "wb.json"]
        try:
            (folder / "link.json").symlink_to("wb.json")
            spellings.append(folder / "link.json")
        except OSError:
            pass
        out = tmp_path / "out"
        args = [*map(str, spellings), "--out", str(out), "--format", "json"]
        code = main([*args, "--fail-threshold", "3"])
        assert code == 0
        kept, *skipped = sorted(spellings)
        assert capsys.readouterr().err == "".join(
            f"notice: skipping {path}, the same file as {kept}\n" for path in skipped
        )
        [row] = json.loads((out / "summary.json").read_text())["rows"]
        assert (row["workbook_location"], row["hard_coding_count"]) == (str(kept), 3)
        assert [p.name for p in out.glob("*.findings.json")] == [f"{kept.stem}.findings.json"]

    def test_symlink_loop_is_an_error_row(self, tmp_path):
        write_fixture(tmp_path / "good.json")
        try:
            (tmp_path / "loop.json").symlink_to("loop.json")
        except OSError:
            pytest.skip("the file system makes no symlinks")
        out = tmp_path / "out"
        assert main([str(tmp_path / "*.json"), "--out", str(out), "--format", "json"]) == 2
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert [(r["workbook_name"], r["error"] is None) for r in rows] == [
            ("good", True),
            ("loop.json", False),
        ]

    def test_lone_surrogates_are_written_as_escapes(self, tmp_path):
        write_fixture(tmp_path / "good.json")
        # json.dumps writes each lone surrogate as its \ud800 escape
        cells = {"A1": {"f": '=B1*2&"\ud800"'}}
        doc = {"name": "s\ud800", "sheets": [{"name": "S\udfff", "cells": cells}]}
        (tmp_path / "surrogate.json").write_text(json.dumps(doc))
        try:
            # a file name that is not UTF-8 reaches Python as a lone surrogate
            write_fixture(tmp_path / os.fsdecode(b"wb\xff.json"), name="wb")
        except (OSError, UnicodeError):
            pass
        formats = ["--format", "text", "--format", "csv", "--format", "json"]
        code = main([str(tmp_path / "*.json"), "--out", str(tmp_path / "out"), *formats])
        assert code == 1
        solo = main([str(tmp_path / "good.json"), "--out", str(tmp_path / "solo"), *formats])
        assert solo == 1
        for report in (tmp_path / "out").iterdir():
            text = report.read_bytes().decode("utf-8")
            if report.suffix == ".json":
                json.loads(text)
        for report in (tmp_path / "solo").glob("good.findings.*"):
            assert (tmp_path / "out" / report.name).read_bytes() == report.read_bytes()
        detail = json.loads((tmp_path / "out" / "surrogate.findings.json").read_text())
        assert detail["workbook"]["name"] == "s\ud800"
        assert detail["findings"][0]["formula"] == '=B1*2&"\ud800"'

    def test_fail_threshold_allows_findings(self, tmp_path):
        write_fixture(tmp_path / "wb.json")
        code = main(
            [str(tmp_path / "wb.json"), "--out", str(tmp_path / "out"), "--fail-threshold", "50"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--ignore-constants", "0,x"], "error: bad --ignore-constants value '0,x'\n"),
            (["--fail-threshold", "-1"], "error: --fail-threshold must be non-negative\n"),
        ],
    )
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, flags, message):
        write_fixture(tmp_path / "wb.json")
        code = main([str(tmp_path / "wb.json"), "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text('{"unknown_key": 1}')
        write_clean(tmp_path / "ok.json")
        code = main(
            [str(tmp_path / "ok.json"), "--out", str(tmp_path / "out"), "--config", str(config)]
        )
        assert code == 2


    def test_missing_worksheet_part_is_an_error_row(self, tmp_path, capsys):
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        build_xlsx(tmp_path / "good.xlsx", [{"name": "S", "rows": rows}])
        full = build_xlsx(tmp_path / "full.xlsx", [{"name": "S", "rows": rows}])
        with zipfile.ZipFile(full) as src:
            members = {info.filename: src.read(info) for info in src.infolist()}
        full.unlink()
        sheet1, rels = "xl/worksheets/sheet1.xml", "xl/_rels/workbook.xml.rels"
        # the same package without its worksheet part, or with workbook rels
        # that name no part for the sheet's r:id
        broken = {
            "no-part.xlsx": {name: data for name, data in members.items() if name != sheet1},
            "no-relationship.xlsx": {
                **members, rels: members[rels].replace(b'Id="rId1"', b'Id="rId9"')
            },
        }
        messages = {
            "no-part.xlsx": f"sheet 'S': missing part {sheet1}",
            "no-relationship.xlsx": "sheet 'S': no worksheet part",
        }
        for package, content in broken.items():
            with zipfile.ZipFile(tmp_path / package, "w") as dst:
                for name, data in content.items():
                    dst.writestr(name, data)
        code = main(
            [str(tmp_path / "*.xlsx"), "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 2
        assert capsys.readouterr().err == "".join(
            f"error: {tmp_path / package}: {message}\n" for package, message in messages.items()
        )
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
        assert errors == {"good.xlsx": None, **messages}
        assert (tmp_path / "out" / "good.findings.json").exists()

    @pytest.mark.parametrize("damage", ["flip-deflated", "flip-stored", "truncated",
                                        "compression-method", "encrypted"])
    def test_corrupt_worksheet_member_is_an_error_row(self, tmp_path, capsys, damage):
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        build_xlsx(tmp_path / "good.xlsx", [{"name": "S", "rows": rows}])
        broken = tmp_path / "broken.xlsx"
        build_xlsx(broken, [{"name": "S", "rows": rows}])
        damage_member(broken, "xl/worksheets/sheet1.xml", damage)
        code = main(
            [str(tmp_path / "*.xlsx"), "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 2
        assert "broken.xlsx" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
        assert "xl/worksheets/sheet1.xml" in errors["broken.xlsx"]
        assert errors["good.xlsx"] is None
        assert (tmp_path / "out" / "good.findings.json").exists()

    @pytest.mark.parametrize("damage", ["zip-version", "name-not-utf8"])
    def test_central_directory_refused_at_open_is_an_error_row(self, tmp_path, capsys, damage):
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        build_xlsx(tmp_path / "good.xlsx", [{"name": "S", "rows": rows}])
        broken = build_xlsx(tmp_path / "broken.xlsx", [{"name": "S", "rows": rows}])
        data = bytearray(broken.read_bytes())
        central = data.index(b"PK\x01\x02")  # the first member's central directory header
        if damage == "zip-version":
            struct.pack_into("<H", data, central + 6, 99)  # needs version 9.9 to extract
        else:
            (flags,) = struct.unpack_from("<H", data, central + 8)
            struct.pack_into("<H", data, central + 8, flags | 0x800)  # the name is UTF-8 ...
            data[central + 46] = 0xFF  # ... but starts with a byte UTF-8 never uses
        broken.write_bytes(bytes(data))
        code = main(
            [str(tmp_path / "*.xlsx"), "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 2
        assert "broken.xlsx" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
        assert errors["broken.xlsx"]
        assert errors["good.xlsx"] is None

    def test_member_past_the_size_cap_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(xlsx, "MAX_MEMBER_BYTES", 4096)
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        build_xlsx(tmp_path / "good.xlsx", [{"name": "S", "rows": rows}])
        # about 16 KB of worksheet, or of shared strings, that deflates to a few hundred bytes
        big = "".join(f'<row r="{r}"><c r="A{r}"><v>1</v></c></row>' for r in range(1, 400))
        build_xlsx(tmp_path / "big.xlsx", [{"name": "S", "rows": big}])
        strings = [f"text {n}" for n in range(800)]
        build_xlsx(tmp_path / "strings.xlsx", [{"name": "S", "rows": rows}], strings)
        code = main(
            [str(tmp_path / "*.xlsx"), "--out", str(tmp_path / "out"), "--format", "json"]
        )
        assert code == 2
        assert "big.xlsx" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
        assert "xl/worksheets/sheet1.xml: inflates past 4,096 bytes" in errors["big.xlsx"]
        assert errors["strings.xlsx"] == "xl/sharedStrings.xml: inflates past 4,096 bytes"
        assert errors["good.xlsx"] is None
        assert (tmp_path / "out" / "good.findings.json").exists()

    def test_worksheet_declaring_an_unreadable_encoding_is_an_error_row(self, tmp_path, capsys):
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        build_xlsx(tmp_path / "good.xlsx", [{"name": "S", "rows": rows}])
        flags = ["--format", "json", "--format", "csv"]
        assert main([str(tmp_path / "good.xlsx"), "--out", str(tmp_path / "alone"), *flags]) == 1
        member = "xl/worksheets/sheet1.xml"
        # the XML parser raises LookupError for an unknown encoding, ValueError for a multi-byte one
        encodings = ["bogus", "shift_jis", "UTF-32"]
        for encoding in encodings:
            path = build_xlsx(tmp_path / f"{encoding}.xlsx", [{"name": "S", "rows": rows}])
            with zipfile.ZipFile(path) as src:
                members = {info.filename: src.read(info) for info in src.infolist()}
            declared = f'encoding="{encoding}"'.encode()
            members[member] = members[member].replace(b'encoding="UTF-8"', declared, 1)
            with zipfile.ZipFile(path, "w") as dst:
                for name, body in members.items():
                    dst.writestr(name, body)
        code = main([str(tmp_path / "*.xlsx"), "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert "bogus.xlsx" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
        assert len(errors) == len(encodings) + 1
        for encoding in encodings:
            assert f"{member}: malformed XML (" in errors[f"{encoding}.xlsx"]
        assert errors["good.xlsx"] is None
        for report in ("good.findings.csv", "good.findings.json"):
            alone = (tmp_path / "alone" / report).read_bytes()
            assert (tmp_path / "out" / report).read_bytes() == alone

    @pytest.mark.parametrize(
        "document",
        [
            {"ignore_constants": ["a"]},
            {"ignore_constants": 5},
            {"max_constants_per_cell": "3"},
            {"max_constants_per_cell": 2.5},
            {"heuristic_operators": 5},
            {"data_regions": [{"sheet": 5}]},
            {"data_regions": [{"sheet": "Data", "range": 7}]},
            {"data_regions": 5},
            # nested deeper than the JSON parser's recursion limit
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
            pytest.param({"ignore_constants": [10**400]}, id="ignore-too-large"),
            # past int()'s digit limit where the interpreter has one, too large a float if not
            pytest.param('{"ignore_constants": [%s]}' % ("1" * 5000), id="ignore-digits"),
            # a misspelt "range" must not widen the region to the whole sheet
            pytest.param({"data_regions": [{"sheet": "S", "rang": "A1:B2"}]}, id="region-typo"),
            pytest.param({"data_regions": [{"sheet": "S", "range": "garbage"}]}, id="bad-range"),
            pytest.param({"mode": 5}, id="mode-number"),
            pytest.param({"heuristic_operators": ""}, id="no-operators"),
            pytest.param({"data_regions": [{"sheet": "S", "range": "A1:XFE1"}]}, id="range-past-sheet"),
            # flags, not a document, and the whole message: a whole sheet named
            # "Q1!Data" is not guessed, and the message says how to name one
            pytest.param(
                (
                    ["--data-region", "Q1!Data"],
                    "error: config data_regions: --data-region 'Q1!Data': cannot parse range"
                    " 'Data': cannot parse cell address 'Data'; a whole sheet whose name holds"
                    ' \'!\' needs a config-file entry such as {"sheet": "Q1!Data"}\n',
                ),
                id="region-flag-sheet-with-bang",
            ),
        ],
    )
    def test_mistyped_config_value_exits_two(self, tmp_path, capsys, document):
        if isinstance(document, tuple):
            args, message = document
        else:
            config = tmp_path / "conf.json"
            config.write_text(document if isinstance(document, str) else json.dumps(document))
            args, message = ["--config", str(config)], None
        write_clean(tmp_path / "ok.json")
        code = main([str(tmp_path / "ok.json"), "--out", str(tmp_path / "out"), *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert message is None or err == message


def damage_member(path, member, damage):
    """Corrupt one member of a ZIP package in place, in the way ``damage`` names."""
    if damage in ("flip-stored", "truncated"):
        # stored uncompressed: a flipped byte fails only the CRC check, and
        # a stated size past the end of the file runs the reader out of bytes
        with zipfile.ZipFile(path) as src:
            members = [(info, src.read(info)) for info in src.infolist()]
        with zipfile.ZipFile(path, "w") as dst:
            for info, body in members:
                dst.writestr(info, body, compress_type=zipfile.ZIP_STORED)
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    body_start = info.header_offset + 30 + name_len + extra_len
    # the central directory record, which the reader trusts for sizes and flags
    central = data.rindex(member.encode()) - 46
    assert data[central : central + 4] == b"PK\x01\x02"
    if damage == "flip-deflated":
        # the first byte holds the first block's type, which becomes invalid
        data[body_start] ^= 0xFF
    elif damage == "flip-stored":
        data[body_start + info.compress_size // 2] ^= 0xFF
    elif damage == "truncated":
        struct.pack_into("<II", data, central + 20, len(data), len(data))
    elif damage == "compression-method":
        struct.pack_into("<H", data, central + 10, 99)
    elif damage == "encrypted":
        struct.pack_into("<H", data, central + 8, info.flag_bits | 0x1)
    path.write_bytes(bytes(data))


def cell_row(ref, content="<v>1</v>"):
    return {"rows": f'<row r="1"><c r="{ref}">{content}</c></row>'}


# one bad attribute or value each; every case must become an error row.
# An XLSX entry lists its sheets, each named "S" unless it says otherwise.
MALFORMED_SHEETS = {
    "merge-ref.xlsx": [{"merged": ["A1:ZZ"]}],
    "col-min.xlsx": [{"cols": '<cols><col min="x" max="2" hidden="1"/></cols>'}],
    "col-no-bounds.xlsx": [{"cols": '<cols><col hidden="1"/></cols>'}],
    "col-negative.xlsx": [{"cols": '<cols><col min="-1" max="2" hidden="1"/></cols>'}],
    "row-r.xlsx": [{"rows": '<row r="x" hidden="1"/>'}],
    "col-max.xlsx": [{"cols": '<cols><col min="1" max="16385" hidden="1"/></cols>'}],
    "row-r-max.xlsx": [{"rows": '<row r="1048577" hidden="1"/>'}],
    "cell-col-max.xlsx": [cell_row("XFE1")],
    "cell-row-max.xlsx": [cell_row("A1048577")],
    "merge-max.xlsx": [{"merged": ["A1:XFE1"]}],
    "bad-number.xlsx": [cell_row("A1", "<v>abc</v>")],
    "number-underscore.xlsx": [cell_row("A1", "<v>1_000</v>")],
    "number-spaces.xlsx": [cell_row("A1", "<v> 7 </v>")],
    "number-nan.xlsx": [cell_row("A1", "<v>nan</v>")],
    "number-inf.xlsx": [cell_row("A1", "<v>inf</v>")],
    "shared-no-master.xlsx": [cell_row("C2", '<f t="shared" si="9"/><v>42</v>')],
    "duplicate-sheets.xlsx": [{}, {}],
    # one cell twice; only the second would survive, and the 12 would go unaudited
    "duplicate-cell.xlsx": [
        {"rows": '<row r="1"><c r="A1"><f>B1*12</f><v>4</v></c><c r="a1"><v>5</v></c></row>'}
    ],
    "boolean-text.xlsx": [{"rows": '<row r="1"><c r="A1" t="b"><v>abc</v></c></row>'}],
    "boolean-two.xlsx": [{"rows": '<row r="1"><c r="A1" t="b"><v>2</v></c></row>'}],
    "shared-string-index.xlsx": [{"rows": '<row r="1"><c r="A1" t="s"><v>-1</v></c></row>'}],
}
MALFORMED_JSON = {
    "merged-not-list.json": b'{"name": "m", "sheets": [{"name": "S", "merged": 5}]}',
    "merged-entry.json": b'{"name": "m", "sheets": [{"name": "S", "merged": [5]}]}',
    "not-utf8.json": b'{"name": "\xff"}',
    "deep-nesting.json": b"[" * 100_000 + b"]" * 100_000,
    "hidden-cols-max.json": b'{"name": "m", "sheets": [{"name": "S", "hidden_cols": [20000]}]}',
    "hidden-rows-max.json": b'{"name": "m", "sheets": [{"name": "S", "hidden_rows": [2000000]}]}',
    "cell-col-max.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"XFE1": {"v": 1}}}]}',
    "cell-row-max.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A2000000": {"v": 1}}}]}',
    "cell-row-digits.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A%s": {"v": 1}}}]}'
    % (b"9" * 5000,),
    "merged-max.json": b'{"name": "m", "sheets": [{"name": "S", "merged": ["A1:XFE1"]}]}',
    # past int()'s digit limit where the interpreter has one, not a finite float if not
    "value-digits.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A1": {"v": %s}}}]}'
    % (b"9" * 5000,),
    # one cell spelt three ways; only the last spelling would survive
    "duplicate-cell-keys.json": b'{"name": "m", "sheets": [{"name": "S", "cells":'
    b' {"A1": {"f": "=B1*12"}, "a1": {"v": 5}, "R1C1": {"v": 7}}}]}',
    # json reads these as floats; a cell value must be a finite number
    "value-nan.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A1": {"v": NaN}}}]}',
    "value-inf.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A1": {"v": Infinity}}}]}',
    "value-1e999.json": b'{"name": "m", "sheets": [{"name": "S", "cells": {"A1": {"v": 1e999}}}]}',
}


@pytest.mark.parametrize("broken_name", [*MALFORMED_SHEETS, *MALFORMED_JSON])
def test_malformed_workbook_is_an_error_row(tmp_path, capsys, broken_name):
    write_fixture(tmp_path / "good.json")
    broken = tmp_path / broken_name
    if broken_name in MALFORMED_SHEETS:
        build_xlsx(broken, [{"name": "S", **sheet} for sheet in MALFORMED_SHEETS[broken_name]])
    else:
        broken.write_bytes(MALFORMED_JSON[broken_name])
    code = main([str(tmp_path / "*"), "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 2
    assert broken_name in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
    assert errors[broken_name]
    assert errors["good"] is None
    assert (tmp_path / "out" / "good.findings.json").exists()


def test_whole_document_errors_give_the_message_alone(tmp_path, capsys):
    # faults of the whole document have no location to put before the message
    messages = {
        "array.json": (b"[1]", "document must be an object"),
        "top-key.json": (b'{"name": "m", "extra": 1}', "unknown key 'extra'"),
        "invalid.json": (b"{", "not valid JSON: "),
        "deep.json": (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        "not-utf8.json": (b'{"name": "\xff"}', "not UTF-8 text: "),
    }
    for name, (content, _) in messages.items():
        (tmp_path / name).write_bytes(content)
    code = main([str(tmp_path / "*.json"), "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert f"error: {tmp_path / 'array.json'}: document must be an object" in lines
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    errors = {row["workbook_name"]: row["error"] for row in summary["rows"]}
    assert errors.keys() == messages.keys()
    for name, (_, message) in messages.items():
        assert errors[name].startswith(message)


def test_malformed_sheet_messages(tmp_path):
    # every MALFORMED_SHEETS input with the message it loads with: its sheet, then its cell
    table = {
        "merge-ref.xlsx": "sheet 'S': cannot parse range 'A1:ZZ': cannot parse cell address 'ZZ'",
        "col-min.xlsx": "sheet 'S': <col> min='x' is not an index from 1 to 16384",
        "col-no-bounds.xlsx": "sheet 'S': <col> min=None is not an index from 1 to 16384",
        "col-negative.xlsx": "sheet 'S': <col> min='-1' is not an index from 1 to 16384",
        "row-r.xlsx": "sheet 'S': <row> r='x' is not an index from 1 to 1048576",
        "col-max.xlsx": "sheet 'S': <col> max='16385' is not an index from 1 to 16384",
        "row-r-max.xlsx": "sheet 'S': <row> r='1048577' is not an index from 1 to 1048576",
        "cell-col-max.xlsx": "sheet 'S': bad cell reference 'XFE1'",
        "cell-row-max.xlsx": "sheet 'S': bad cell reference 'A1048577'",
        "merge-max.xlsx": "sheet 'S': cannot parse range 'A1:XFE1': row must be from 1 to"
        " 1048576 and column from 1 to 16384, got row=1 column=16385",
        "bad-number.xlsx": "sheet 'S': cell A1: bad number 'abc'",
        "number-underscore.xlsx": "sheet 'S': cell A1: bad number '1_000'",
        "number-spaces.xlsx": "sheet 'S': cell A1: bad number ' 7 '",
        "number-nan.xlsx": "sheet 'S': cell A1: bad number 'nan'",
        "number-inf.xlsx": "sheet 'S': cell A1: bad number 'inf'",
        "shared-no-master.xlsx": "sheet 'S': cell C2: shared formula si='9' has no master",
        "duplicate-sheets.xlsx": "duplicate sheet names in workbook 'duplicate-sheets.xlsx'",
        "duplicate-cell.xlsx": "sheet 'S': cells 'A1' and 'a1' are the same cell",
        "boolean-text.xlsx": "sheet 'S': cell A1: bad boolean 'abc'",
        "boolean-two.xlsx": "sheet 'S': cell A1: bad boolean '2'",
        "shared-string-index.xlsx": "sheet 'S': cell A1: bad shared string index '-1'",
    }
    assert list(table) == list(MALFORMED_SHEETS)
    for name, message in table.items():
        path = build_xlsx(tmp_path / name, [{"name": "S", **s} for s in MALFORMED_SHEETS[name]])
        with pytest.raises(xlsx.FormatError) as info:
            xlsx.load_xlsx(path)
        assert str(info.value) == message, name


class TestOutputs:
    def test_reports_written_per_format(self, tmp_path):
        write_fixture(tmp_path / "wb.json")
        main(
            [
                str(tmp_path / "wb.json"),
                "--out",
                str(tmp_path / "out"),
                "--format",
                "json",
                "--format",
                "csv",
                "--data-region",
                "Data",
            ]
        )
        out = tmp_path / "out"
        assert (out / "wb.findings.json").exists()
        assert (out / "wb.findings.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "constants.csv").exists()

    def test_batch_detail_identical_to_solo(self, tmp_path):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        for i in range(1, 10):
            write_fixture(batch_dir / f"student{i}.json", name=f"student{i}.xls")
        code = main(
            [
                str(batch_dir / "*.json"),
                "--out",
                str(tmp_path / "batch-out"),
                "--format",
                "json",
                "--data-region",
                "Data",
            ]
        )
        assert code == 1
        summary = json.loads((tmp_path / "batch-out" / "summary.json").read_text())
        assert [r["index"] for r in summary["rows"]] == list(range(1, 10))

        solo_code = main(
            [
                str(batch_dir / "student5.json"),
                "--out",
                str(tmp_path / "solo-out"),
                "--format",
                "json",
                "--data-region",
                "Data",
            ]
        )
        assert solo_code == 1
        batch_body = (tmp_path / "batch-out" / "student5.findings.json").read_bytes()
        solo_body = (tmp_path / "solo-out" / "student5.findings.json").read_bytes()
        assert batch_body == solo_body

    def test_idempotent_rerun(self, tmp_path):
        write_fixture(tmp_path / "wb.json")
        args = [str(tmp_path / "wb.json"), "--out", str(tmp_path / "out"), "--format", "text"]
        main(args)
        first = (tmp_path / "out" / "wb.findings.txt").read_bytes()
        main(args)
        assert (tmp_path / "out" / "wb.findings.txt").read_bytes() == first

    def test_non_workbook_files_skipped_with_notice(self, tmp_path, capsys):
        write_clean(tmp_path / "ok.json")
        (tmp_path / "notes.txt").write_text("hi")
        code = main([str(tmp_path / "*"), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "skipping non-workbook file" in capsys.readouterr().err

    def test_an_input_naming_a_file_is_that_file_even_with_glob_characters(self, tmp_path):
        def audited(run, *inputs):
            out = tmp_path / "out" / run
            main([*inputs, "--out", str(out), "--format", "json"])
            rows = json.loads((out / "summary.json").read_text())["rows"]
            return [row["workbook_location"] for row in rows]

        named = str(write_fixture(tmp_path / "model[1].json"))
        assert audited("lone", named) == [named]
        # beside a file its pattern matches, the named file is still the one audited
        matched = str(write_clean(tmp_path / "model1.json"))
        assert audited("beside", named) == [named]
        # an input that names nothing is still a pattern
        assert audited("pattern", str(tmp_path / "model[0-9].json")) == [matched]

    def test_infinite_constant_in_every_format(self, tmp_path):
        # 1e999 lexes as a constant whose value is inf
        cells = {"A1": {"f": "=A2*1e999"}, "A2": {"v": 2}}
        doc = {"name": "inf", "sheets": [{"name": "S", "cells": cells}]}
        (tmp_path / "inf.json").write_text(json.dumps(doc))
        args = [str(tmp_path / "inf.json"), "--out", str(tmp_path / "out")]
        code = main(args + ["--format", "text", "--format", "csv", "--format", "json"])
        assert code == 1
        out = tmp_path / "out"
        for ext in ("txt", "csv", "json"):
            for stem in ("inf.findings", "summary", "constants"):
                assert (out / f"{stem}.{ext}").exists()
        assert "inf" in (out / "inf.findings.txt").read_text().split("=A2*1e999")[1]
        assert "inf,1" in (out / "constants.csv").read_text()

    def test_xlsx_input(self, tmp_path):
        build_xlsx(
            tmp_path / "book.xlsx",
            [
                {
                    "name": "S",
                    "rows": '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>',
                }
            ],
        )
        code = main([str(tmp_path / "book.xlsx"), "--out", str(tmp_path / "out")])
        assert code == 1
        body = (tmp_path / "out" / "book.findings.txt").read_text()
        assert "=B1/12" in body

    def test_inputs_sharing_a_stem_get_one_report_each(self, tmp_path):
        inputs = [tmp_path / "a" / "wb.json", tmp_path / "b" / "wb.json"]
        for path in inputs:
            path.parent.mkdir()
            write_fixture(path)
        rows = '<row r="1"><c r="A1"><f>B1/12</f><v>4</v></c></row>'
        inputs.append(build_xlsx(tmp_path / "wb.xlsx", [{"name": "S", "rows": rows}]))
        out = tmp_path / "out"
        code = main([*map(str, inputs), "--out", str(out), "--format", "json", "--format", "csv"])
        assert code == 1
        locations = {}
        for name in ("wb", "wb-2", "wb-3"):
            doc = json.loads((out / f"{name}.findings.json").read_text())
            locations[name] = doc["workbook"]["location"]
            assert locations[name] in (out / f"{name}.findings.csv").read_text()
        assert locations == dict(zip(("wb", "wb-2", "wb-3"), map(str, inputs)))
        assert len(list(out.glob("*.findings.*"))) == 6

    def test_repeated_stems_compare_case_insensitively_and_skip_input_stems(self, tmp_path):
        inputs = [tmp_path / d / name for d, name in zip("abc", ["wb.json", "WB.json", "wb-2.json"])]
        for path in inputs:
            path.parent.mkdir()
            write_fixture(path)
        out = tmp_path / "out"
        main([*map(str, inputs), "--out", str(out), "--format", "json"])
        for name, path in zip(("wb", "WB-3", "wb-2"), inputs):
            doc = json.loads((out / f"{name}.findings.json").read_text())
            assert doc["workbook"]["location"] == str(path)


ALL_FORMATS = ["--format", "text", "--format", "csv", "--format", "json"]


def write_formula_workbook(path):
    """One sheet of 400 formulas, each with two constants, and 100 numeric values."""
    cells = {f"A{r}": {"f": f"=B{r}*{r % 7 + 2}+C{r}*1.5"} for r in range(1, 401)}
    cells.update({f"D{r}": {"v": r + 0.25} for r in range(1, 101)})
    path.write_text(json.dumps({"name": "wb", "sheets": [{"name": "S", "cells": cells}]}))


def batch_peak(folder, out):
    """The traced peak of one CLI run over every workbook in ``folder``."""
    tracemalloc.start()
    try:
        assert main([str(folder / "*.json"), "--out", str(out), *ALL_FORMATS]) == 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# spellings of one constant: a batch may hold each in a different workbook
_SPELLINGS = ["1", "1.0", ".5", "0.50", "5%", "0.05"]


@st.composite
def respelled_batches(draw):
    """A few workbook documents, each formula holding constants in drawn spellings,
    and where among them a workbook that fails to load goes."""
    formula = st.tuples(st.lists(st.sampled_from(_SPELLINGS), min_size=1, max_size=3), st.booleans())
    documents = []
    for n in range(draw(st.integers(2, 4))):
        cells = {}
        for r, (constants, only) in enumerate(draw(st.lists(formula, max_size=5)), start=1):
            terms = constants if only else [f"B{r}*{c}" for c in constants]
            cells[f"A{r}"] = {"f": "=" + "+".join(terms)}
            cells[f"B{r}"] = {"v": r}
        documents.append({"name": f"wb{n}", "sheets": [{"name": "S", "cells": cells}]})
    return documents, draw(st.integers(1, len(documents) - 1))


class TestBatchAggregates:
    def test_batch_holds_one_workbook_at_a_time(self, tmp_path):
        folders = {}
        for count in (3, 30):
            folders[count] = tmp_path / f"batch{count}"
            folders[count].mkdir()
            for i in range(count):
                write_formula_workbook(folders[count] / f"wb{i:02d}.json")
        batch_peak(folders[3], tmp_path / "warm")
        few, many = (batch_peak(folders[n], tmp_path / f"out{n}") for n in (3, 30))
        assert many <= 2 * few

    @settings(max_examples=30, deadline=None)
    @given(respelled_batches())
    def test_summary_and_histogram_equal_one_call_over_whole_reports(self, batch):
        documents, failed_at = batch
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp) / "in"
            folder.mkdir()
            paths = [folder / f"wb{i}.json" for i in range(len(documents) + 1)]
            paths[failed_at] = paths[failed_at].with_suffix(".xlsx")
            paths[failed_at].write_bytes(b"not a ZIP package")
            for path, document in zip(paths[:failed_at] + paths[failed_at + 1 :], documents):
                path.write_text(json.dumps(document))
            out = Path(tmp) / "out"
            assert main([str(folder / "*"), "--out", str(out), *ALL_FORMATS]) == 2

            config = build_config(RunOptions(inputs=[], output_dir=out))
            whole = [
                analyze_workbook(load_json(path), config)
                if path.suffix == ".json"
                else AnalysisReport(path.name, str(path), 0, 0, 0, 0, error="not a ZIP package")
                for path in paths
            ]
            histogram = constant_histogram(whole)
            for fmt, ext in ((Format.TEXT, "txt"), (Format.CSV, "csv"), (Format.JSON, "json")):
                expected = render_histogram(histogram, fmt).body
                assert (out / f"constants.{ext}").read_bytes() == expected
                expected = render_batch_summary(whole, fmt).body
                assert (out / f"summary.{ext}").read_bytes() == expected


# names every DetectionConfig field, each set away from its default
FULL_CONFIG = {
    "ignore_constants": [12],
    "data_regions": [{"sheet": "Data", "range": "A1:A2"}],
    "mode": "heuristic",
    "heuristic_operators": "*/",
    "max_constants_per_cell": 1,
}


def options_with_config(tmp_path, document):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(document))
    return RunOptions(inputs=[], output_dir=tmp_path / "out", config_path=path)


class TestConfig:
    def test_config_document_and_flag_override(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(
            json.dumps(
                {
                    "ignore_constants": [0, 1, 12, 200],
                    "data_regions": [{"sheet": "Data"}],
                    "mode": "lexical",
                }
            )
        )
        write_fixture(tmp_path / "wb.json")
        code = main(
            [str(tmp_path / "wb.json"), "--out", str(tmp_path / "out"), "--config", str(config)]
        )
        assert code == 0  # every fixture constant suppressed
        # flag overrides the document's ignore list
        code = main(
            [
                str(tmp_path / "wb.json"),
                "--out",
                str(tmp_path / "out2"),
                "--config",
                str(config),
                "--ignore-constants",
                "0,1",
            ]
        )
        assert code == 1

    def test_heuristic_mode_flag(self, tmp_path):
        doc = {
            "name": "h",
            "sheets": [{"name": "S", "cells": {"A1": {"f": "=B22+C3"}}}],
        }
        (tmp_path / "h.json").write_text(json.dumps(doc))
        code = main(
            [str(tmp_path / "h.json"), "--out", str(tmp_path / "out"), "--mode", "heuristic"]
        )
        assert code == 0

    def test_sheet_name_with_bang_as_data_region(self, tmp_path):
        doc = {"name": "q", "sheets": [{"name": "Q1!Data", "cells": {"B2": {"v": 5}}}]}
        (tmp_path / "q.json").write_text(json.dumps(doc))
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"data_regions": [{"sheet": "Q1!Data"}]}))
        for i, region in enumerate([["--config", str(config)], ["--data-region", "Q1!Data!B2"]]):
            out = tmp_path / f"out{i}"
            code = main([str(tmp_path / "q.json"), "--out", str(out), "--format", "json", *region])
            assert code == 0
            [finding] = json.loads((out / "q.findings.json").read_text())["findings"]
            assert finding["kind"] == "expected_input_value"

    def test_config_keys_are_the_detection_config_fields(self, tmp_path):
        assert set(FULL_CONFIG) == {f.name for f in fields(DetectionConfig)}
        for key, value in FULL_CONFIG.items():
            config = build_config(options_with_config(tmp_path, {key: value}))
            assert getattr(config, key) != getattr(DetectionConfig(), key)

    def test_config_naming_every_key(self, tmp_path):
        options = options_with_config(tmp_path, FULL_CONFIG)
        assert build_config(options) == DetectionConfig(
            ignore_constants=frozenset({12.0}),
            data_regions=(DataRegion("Data", parse_range("A1:A2")),),
            mode=DetectionMode.HEURISTIC,
            heuristic_operators=frozenset("*/"),
            max_constants_per_cell=1,
        )
        doc = {
            "name": "full",
            "sheets": [
                {"name": "Data", "cells": {"A1": {"v": 10}, "A3": {"v": 30}}},
                # lexical mode or "+" as an operator report 7, no ignore list 12, no cap 100 and 5
                {"name": "Calc", "cells": {"B1": {"f": "=Data!A1+7*12/100*5"}}},
            ],
        }
        (tmp_path / "full.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(
            [str(tmp_path / "full.json"), "--out", str(out), "--format", "json",
             "--config", str(options.config_path)]
        )
        assert code == 1
        findings = json.loads((out / "full.findings.json").read_text())["findings"]
        assert [(f["sheet"], f["cell"], f["kind"]) for f in findings] == [
            ("Data", "$A$1", "expected_input_value"),
            ("Data", "$A$3", "direct_numeric_entry"),
            ("Calc", "$B$1", "hard_coded_constant"),
        ]
        assert [c["value"] for c in findings[2]["constants"]] == [100]
