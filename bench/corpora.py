"""Seeded corpora for the benchmark, each with its own reference.

Every generator builds formula text together with what a correct audit
must report for it: the planted numeric literals in source order (with
percent folded), the finding kind, the formula text (re-based for
shared-formula followers) and the cached value.  Nothing here imports
sheetaudit, so the reference never comes from the program under test.

Cells whose formula uses a grammar form the lexer does not cover yet,
or that are shared-formula followers, carry a ``cause``.  They stay in
the corpus and count in the failure ratio; the cause only says why a
disagreement there is already known.
"""

from __future__ import annotations

import json
import random
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

HARD = "hard_coded_constant"
CONSTANT_ONLY = "constant_only_formula"
DIRECT = "direct_numeric_entry"
EXPECTED_INPUT = "expected_input_value"
CONSTANT_KINDS = (HARD, CONSTANT_ONLY)

WORKLOADS = ("desk-repeat", "unique-xlsx", "batch-cli")


@dataclass(frozen=True, slots=True)
class Expect:
    """What the detail report must say about one populated cell."""

    kind: str | None
    constants: tuple[float, ...] = ()
    formula: str | None = None
    value: object = None
    cause: str | None = None


@dataclass
class WorkbookRef:
    name: str
    sheets: int
    cells: dict[tuple[str, str], Expect] = field(default_factory=dict)
    # (kind, sheet, count) in report order
    warnings: list[tuple[str, str, int]] = field(default_factory=list)
    formulas: int = 0

    @property
    def hard_codings(self) -> int:
        return sum(len(e.constants) for e in self.cells.values() if e.kind in CONSTANT_KINDS)

    @property
    def numeric_values(self) -> int:
        return sum(1 for e in self.cells.values() if e.kind in (DIRECT, EXPECTED_INPUT))


@dataclass
class Corpus:
    """Generated input files plus the options every pass audits them with."""

    workload: str
    files: list[Path]
    refs: dict[str, WorkbookRef]  # by file name
    formats: list[str]
    data_regions: list[str] = field(default_factory=list)  # "SHEET[!RANGE]"
    ignore_constants: list[float] = field(default_factory=list)

    @property
    def formulas(self) -> int:
        return sum(r.formulas for r in self.refs.values())


def column_letters(column: int) -> str:
    letters = ""
    while column > 0:
        column, rem = divmod(column - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def _expect_formula(text: str, constants: list[float], constant_only: bool,
                    ignore: frozenset[float], value=None, cause=None) -> Expect:
    """Reference entry for a formula cell.

    The kind is a property of the formula; ignored values only remove
    occurrences, and a cell left with none has no finding.
    """
    surviving = tuple(c for c in constants if c not in ignore)
    if not surviving:
        return Expect(None, formula=text, value=value, cause=cause)
    kind = CONSTANT_ONLY if constant_only else HARD
    return Expect(kind, surviving, text, value, cause)


# --- desk-repeat -------------------------------------------------------

DESK_CONSTANTS = [0, 0.01, 1, 2, 3, 12, 100, 236, 1000, 1000000]


def desk_document(seed: int, total_formulas: int = 51183, sheet_count: int = 18):
    """The acceptance desk-scale workbook.

    Seed 0 gives exactly the document of acceptance criterion 8; other
    seeds permute which constant each position plants, which keeps the
    size and the share of repeated formula texts.
    """
    constants = list(DESK_CONSTANTS)
    if seed:
        random.Random(seed).shuffle(constants)
    planted: dict[float, int] = {}
    ref = WorkbookRef(name="practitioner.xls", sheets=sheet_count, formulas=total_formulas)
    per_sheet = total_formulas // sheet_count
    remainder = total_formulas - per_sheet * sheet_count
    sheets = []
    serial = 0
    for s in range(sheet_count):
        count = per_sheet + (remainder if s == 0 else 0)
        cells = {}
        sheet_name = f"Model{s + 1}"
        for j in range(count):
            row, col = j // 8 + 1, j % 8 + 1
            addr = f"{chr(ord('A') + col - 1)}{row}"
            roll = serial % 5
            if roll < 2:
                formula = f"=A{row + 1}+B{row + 1}"
                used = []
            elif roll < 4:
                c = constants[serial % len(constants)]
                formula = f"=C{row + 1}*{c}"
                used = [c]
            else:
                c1 = constants[serial % len(constants)]
                c2 = constants[(serial + 3) % len(constants)]
                formula = f"=IF(D{row + 1}>{c1},E{row + 1}/{c2},{c1})"
                used = [c1, c2, c1]
            for c in used:
                planted[float(c)] = planted.get(float(c), 0) + 1
            cells[addr] = {"f": formula}
            ref.cells[(sheet_name, addr)] = _expect_formula(
                formula, [float(c) for c in used], False, frozenset()
            )
            serial += 1
        sheets.append({"name": sheet_name, "cells": cells})
    return {"name": "practitioner.xls", "sheets": sheets}, planted, ref


def build_desk(seed: int, directory: Path) -> Corpus:
    doc, _, ref = desk_document(seed)
    path = directory / "desk.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return Corpus("desk-repeat", [path], {path.name: ref}, formats=["json"])


# --- formula grammar ---------------------------------------------------

FUNCTIONS = ["SUM", "ROUND", "MAX", "MIN", "AVERAGE", "IF", "LOG10", "ATAN2",
             "DAYS360", "INDEX", "SUMPRODUCT", "ABS"]
SHEET_PREFIXES = ["'Prod 2007'!", "'It''s 2008'!", "'Rev (v2)'!", "Data!", "FY2008!", "Q1!"]
NAMES = ["TaxRate", "Min.Stock", "opening_balance", "Rate2008"]
STRINGS = ['"Q4 2007"', '"x12"', '"7.5% VAT"', '"say ""hi"" 3"', '"2008"', '""']
ERRORS = ["#N/A", "#DIV/0!", "#REF!", "#VALUE!"]
OPERATORS = ["+", "-", "*", "/", "^", "&", "<", ">", "<=", ">=", "<>"]
INT_POOL = [0, 1, 2, 3, 12, 100, 236, 1000, 9732311]

# Reference forms outside the lexer's current grammar, by cause.  Each
# template gets (row, row2, column, ref, ref2, number) and plants only
# the number.
GRAMMAR_GAP_FORMS = {
    "row_range": "SUM({row}:{row2})*{num}",
    "row_range_absolute": "SUM(${row}:${row2})+{num}",
    "column_range": "SUM({col}:{col})*{num}+{ref}",
    "structured_ref": "SUM(Table{row}[Amount])*{num}",
    "spill_ref": "SUM({ref}#)*{num}",
    "implicit_intersection": "@{ref}:{ref2}*{num}",
    "external_ref": "[1]Sheet1!{ref}*{num}",
    "three_d_ref": "SUM(Sheet1:Sheet3!{ref})*{num}",
}


class FormulaMaker:
    """Random formulas over the full A1 grammar, with their constants.

    Every formula that plants more than a lone literal also holds a
    cell reference or a function call, so its kind is unambiguous.
    """

    def __init__(self, rng: random.Random, rows: int = 5000):
        self.rng = rng
        self.rows = rows

    def number(self, percent: bool = True) -> tuple[str, float]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            text = str(rng.choice(INT_POOL) if rng.random() < 0.5 else rng.randint(2, 99999))
        elif roll < 0.65:
            text = f"{rng.randint(0, 999)}.{rng.randint(1, 999)}"
        elif roll < 0.75:
            text = f".{rng.randint(1, 99)}"
        elif roll < 0.88:
            text = (f"{rng.randint(1, 9)}.{rng.randint(0, 9)}{rng.choice('Ee')}"
                    f"{rng.choice(['+', '-', ''])}{rng.randint(1, 9)}")
        else:
            text = str(rng.randint(1, 99)) if rng.random() < 0.5 else f"{rng.randint(0, 99)}.{rng.randint(1, 9)}"
            if percent:
                return text + "%", float(text) / 100.0
        return text, float(text)

    def ref(self) -> str:
        rng = self.rng
        return (f"{rng.choice(['', '$'])}{column_letters(rng.randint(1, 60))}"
                f"{rng.choice(['', '$'])}{rng.randint(1, self.rows)}")

    def range_ref(self) -> str:
        return f"{self.ref()}:{self.ref()}"

    def array(self) -> tuple[str, list[float]]:
        rows, values = [], []
        for _ in range(self.rng.randint(1, 2)):
            items = [self.number(percent=False) for _ in range(self.rng.randint(1, 3))]
            rows.append(",".join(t for t, _ in items))
            values.extend(v for _, v in items)
        return "{" + ";".join(rows) + "}", values

    def term(self, depth: int) -> tuple[str, list[float], bool]:
        """One operand: (text, planted constants, holds a ref or call)."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            text, value = self.number()
            return text, [value], False
        if roll < 0.55:
            return self.ref(), [], True
        if roll < 0.62:
            target = self.range_ref() if rng.random() < 0.3 else self.ref()
            return rng.choice(SHEET_PREFIXES) + target, [], True
        if roll < 0.74 and depth < 2:
            args, consts = [], []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    args.append(self.range_ref())
                else:
                    text, c, _ = self.expr(depth + 1)
                    args.append(text)
                    consts.extend(c)
            return f"{rng.choice(FUNCTIONS)}({rng.choice([', ', ',']).join(args)})", consts, True
        if roll < 0.80:
            return rng.choice(STRINGS), [], False
        if roll < 0.85:
            return rng.choice(NAMES), [], False
        if roll < 0.88:
            return rng.choice(["TRUE", "FALSE"]), [], False
        if roll < 0.90:
            return rng.choice(ERRORS), [], False
        if roll < 0.93:
            text, values = self.array()
            return text, values, False
        if roll < 0.97 and depth < 2:
            text, c, s = self.expr(depth + 1)
            return f"({text})", c, s
        text, c, s = self.term(depth + 1) if depth < 2 else (self.ref(), [], True)
        return "-" + text, c, s

    def expr(self, depth: int) -> tuple[str, list[float], bool]:
        rng = self.rng
        text, consts, structural = self.term(depth)
        for _ in range(rng.randint(0, 3 - depth if depth < 3 else 0)):
            pad = " " if rng.random() < 0.2 else ""
            t, c, s = self.term(depth)
            text = f"{text}{pad}{rng.choice(OPERATORS)}{pad}{t}"
            consts = consts + c
            structural = structural or s
        return text, consts, structural

    def formula(self) -> tuple[str, list[float], bool]:
        """(text with "=", planted constants, is constant-only)."""
        if self.rng.random() < 0.06:
            text, value = self.number()
            sign = "-" if self.rng.random() < 0.3 else ""
            return f"={sign}{text}", [value], True
        text, consts, structural = self.expr(0)
        if not structural:
            text = f"{self.ref()}{self.rng.choice(['+', '*', '&'])}{text}"
        return "=" + text, consts, False

    def grammar_gap(self, cause: str) -> tuple[str, list[float]]:
        rng = self.rng
        row = rng.randint(1, self.rows)
        num_text, value = self.number(percent=False)
        text = GRAMMAR_GAP_FORMS[cause].format(
            row=row, row2=row + rng.randint(0, 9), col=column_letters(rng.randint(1, 60)),
            ref=f"{column_letters(rng.randint(1, 60))}{row}",
            ref2=f"{column_letters(rng.randint(1, 60))}{row + rng.randint(1, 50)}",
            num=num_text,
        )
        return "=" + text, [value]


def _cached_number(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-5000, 100000)
    return round(rng.uniform(-1000, 100000), rng.randint(0, 6))


def _formula_cache(rng: random.Random) -> tuple[str | None, object]:
    """(cell type attribute, cached value) of a formula cell."""
    roll = rng.random()
    if roll < 0.85:
        return None, _cached_number(rng)
    if roll < 0.93:
        return "str", rng.choice(["n/a", "Q4 2007", "total 12"])
    if roll < 0.97:
        return "b", rng.random() < 0.5
    return "e", "#DIV/0!"


# --- SpreadsheetML writer ---------------------------------------------

_MAIN_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_REL_NS = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_PKG_REL_NS = "http://schemas.openxmlformats.org/package/2006/relationships"
_XML_DECL = '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'


@dataclass
class SheetXml:
    """One worksheet as the writer lays it out."""

    name: str
    state: str | None = None  # None, "hidden" or "veryHidden"
    rows: dict[int, list[tuple[int, str]]] = field(default_factory=dict)  # row -> (col, <c> xml)
    hidden_rows: set[int] = field(default_factory=set)
    hidden_cols: list[tuple[int, int]] = field(default_factory=list)
    merges: list[str] = field(default_factory=list)

    def put(self, row: int, col: int, xml: str) -> None:
        self.rows.setdefault(row, []).append((col, xml))


class SharedStrings:
    def __init__(self) -> None:
        self.items: list[str] = []
        self.index: dict[str, int] = {}

    def add(self, xml_item: str) -> int:
        if xml_item not in self.index:
            self.index[xml_item] = len(self.items)
            self.items.append(xml_item)
        return self.index[xml_item]


def _value_cell(addr: str, value) -> str:
    if isinstance(value, bool):
        return f'<c r="{addr}" t="b"><v>{int(value)}</v></c>'
    return f'<c r="{addr}"><v>{value!r}</v></c>'


def _formula_cell(addr: str, body_xml: str, cell_type: str | None, value) -> str:
    t = f' t="{cell_type}"' if cell_type else ""
    if cell_type == "b":
        v = str(int(value))
    elif cell_type in ("str", "e"):
        v = escape(value)
    else:
        v = repr(value)
    return f'<c r="{addr}"{t}>{body_xml}<v>{v}</v></c>'


def _worksheet_xml(sheet: SheetXml) -> str:
    parts = [_XML_DECL, f'<worksheet xmlns="{_MAIN_NS}">']
    if sheet.hidden_cols:
        parts.append("<cols>")
        parts.extend(f'<col min="{a}" max="{b}" width="9" hidden="1"/>' for a, b in sheet.hidden_cols)
        parts.append("</cols>")
    parts.append("<sheetData>")
    for row in sorted(sheet.rows):
        hidden = ' hidden="1"' if row in sheet.hidden_rows else ""
        parts.append(f'<row r="{row}"{hidden}>')
        parts.extend(xml for _, xml in sorted(sheet.rows[row]))
        parts.append("</row>")
    parts.append("</sheetData>")
    if sheet.merges:
        parts.append(f'<mergeCells count="{len(sheet.merges)}">')
        parts.extend(f'<mergeCell ref="{m}"/>' for m in sheet.merges)
        parts.append("</mergeCells>")
    parts.append("</worksheet>")
    return "".join(parts)


def write_xlsx(path: Path, sheets: list[SheetXml], shared: SharedStrings) -> None:
    """Write a package with fixed member timestamps, so a seed gives the same bytes."""
    overrides, entries, rels = [], [], []
    members: dict[str, str] = {}
    for i, sheet in enumerate(sheets, start=1):
        state = f' state="{sheet.state}"' if sheet.state else ""
        entries.append(f'<sheet name="{escape(sheet.name)}" sheetId="{i}"{state} r:id="rId{i}"/>')
        rels.append(f'<Relationship Id="rId{i}" Type="{_REL_NS}/worksheet" '
                    f'Target="worksheets/sheet{i}.xml"/>')
        overrides.append(f'<Override PartName="/xl/worksheets/sheet{i}.xml" ContentType='
                         '"application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>')
        members[f"xl/worksheets/sheet{i}.xml"] = _worksheet_xml(sheet)
    n = len(sheets) + 1
    rels.append(f'<Relationship Id="rId{n}" Type="{_REL_NS}/sharedStrings" Target="sharedStrings.xml"/>')
    overrides.append('<Override PartName="/xl/sharedStrings.xml" ContentType='
                     '"application/vnd.openxmlformats-officedocument.spreadsheetml.sharedStrings+xml"/>')
    members["[Content_Types].xml"] = (
        _XML_DECL + '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/xl/workbook.xml" ContentType='
        '"application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
        + "".join(overrides) + "</Types>")
    members["_rels/.rels"] = (
        _XML_DECL + f'<Relationships xmlns="{_PKG_REL_NS}"><Relationship Id="rId1" '
        f'Type="{_REL_NS}/officeDocument" Target="xl/workbook.xml"/></Relationships>')
    members["xl/workbook.xml"] = (
        _XML_DECL + f'<workbook xmlns="{_MAIN_NS}" xmlns:r="{_REL_NS}">'
        f'<sheets>{"".join(entries)}</sheets><calcPr calcId="191029"/></workbook>')
    members["xl/_rels/workbook.xml.rels"] = (
        _XML_DECL + f'<Relationships xmlns="{_PKG_REL_NS}">{"".join(rels)}</Relationships>')
    members["xl/sharedStrings.xml"] = (
        _XML_DECL + f'<sst xmlns="{_MAIN_NS}" count="{len(shared.items)}" '
        f'uniqueCount="{len(shared.items)}">{"".join(shared.items)}</sst>')
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name in sorted(members):
            archive.writestr(zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0)), members[name],
                             compress_type=zipfile.ZIP_DEFLATED)


# --- unique-xlsx -------------------------------------------------------

UNIQUE_SHEETS = 12
UNIQUE_ROWS = 200          # formula rows per sheet, columns A..J
UNIQUE_MERGES = 320        # merged regions per sheet
UNIQUE_REGION = "*!P1:Q1000"
SHARED_GROUPS = 6          # shared formulas per sheet, a master and 3 followers each
GRAMMAR_GAP_SHARE = 0.012
LABELS = ["Revenue 2007", "Q3 margin", "x 12", "Cost & fees", "<notes>", "Total", "FY 2008 plan"]


def build_unique(seed: int, directory: Path) -> Corpus:
    """One package, every formula text distinct, full grammar and XLSX features."""
    rng = random.Random(seed)
    maker = FormulaMaker(rng)
    shared = SharedStrings()
    seen: set[str] = set()
    ref = WorkbookRef(name="unique.xlsx", sheets=UNIQUE_SHEETS)
    sheets = []
    causes = list(GRAMMAR_GAP_FORMS)

    def fresh(make):
        while True:
            out = make()
            if out[0] not in seen:
                seen.add(out[0])
                return out

    cells = ref.cells
    for s in range(UNIQUE_SHEETS):
        name = f"Plan {s + 1:02d}" if s % 3 else f"Model{s + 1}"
        state = {4: "hidden", 9: "veryHidden"}.get(s)
        sheet = SheetXml(name=name, state=state)
        # shared-formula groups fill four-row blocks of column J
        group_rows = sorted(rng.sample(range(0, UNIQUE_ROWS // 4), SHARED_GROUPS))
        group_starts = {g * 4 + 1 for g in group_rows}
        for row in range(1, UNIQUE_ROWS + 1):
            for col in range(1, 11):
                addr = f"{column_letters(col)}{row}"
                if col == 10 and any(0 <= row - g < 4 for g in group_starts):
                    continue
                cell_type, cached = _formula_cache(rng)
                if rng.random() < GRAMMAR_GAP_SHARE:
                    cause = rng.choice(causes)
                    text, consts = fresh(lambda: maker.grammar_gap(cause))
                    only = False
                else:
                    cause = None
                    text, consts, only = fresh(maker.formula)
                sheet.put(row, col, _formula_cell(addr, f"<f>{escape(text[1:])}</f>", cell_type, cached))
                cells[(name, addr)] = _expect_formula(text, consts, only, frozenset(), cached, cause)
        for si, start in enumerate(sorted(group_starts)):
            _shared_group(rng, maker, seen, sheet, cells, name, start, si)
        # strings, booleans and numbers beside the formulas
        for r in range(1, UNIQUE_ROWS + 1):
            addr = f"K{r}"
            roll = rng.random()
            if roll < 0.6:
                label = rng.choice(LABELS)
                idx = shared.add(f"<si><t>{escape(label)} {r}</t></si>")
                sheet.put(r, 11, f'<c r="{addr}" t="s"><v>{idx}</v></c>')
                value = f"{label} {r}"
            elif roll < 0.7:
                idx = shared.add(f"<si><r><t>{r} </t></r><r><t>units</t></r></si>")
                sheet.put(r, 11, f'<c r="{addr}" t="s"><v>{idx}</v></c>')
                value = f"{r} units"
            elif roll < 0.85:
                value = f"note {r}"
                sheet.put(r, 11, f'<c r="{addr}" t="inlineStr"><is><t>{value}</t></is></c>')
            else:
                value = rng.random() < 0.5
                sheet.put(r, 11, _value_cell(addr, value))
            cells[(name, addr)] = Expect(None, value=value)
        for r in range(1, 61):
            for col, kind in ((12, DIRECT), (13, DIRECT), (16, EXPECTED_INPUT), (17, EXPECTED_INPUT)):
                addr = f"{column_letters(col)}{r}"
                value = _cached_number(rng)
                sheet.put(r, col, _value_cell(addr, value))
                cells[(name, addr)] = Expect(kind, value=value)
        # merged label bands to the right of the data: anchors hold text only
        for m in range(UNIQUE_MERGES):
            top = m + 1
            if m % 8 == 7:
                span = f"Y{top}:AA{top}"
            else:
                span = f"V{top}:W{top}"
            anchor = span.split(":")[0]
            idx = shared.add(f"<si><t>band {m}</t></si>")
            sheet.put(top, 22 if anchor.startswith("V") else 25, f'<c r="{anchor}" t="s"><v>{idx}</v></c>')
            cells[(name, anchor)] = Expect(None, value=f"band {m}")
            sheet.merges.append(span)
        sheet.hidden_rows = set(rng.sample(range(1, UNIQUE_ROWS + 1), 8))
        if s % 2 == 0:
            sheet.hidden_cols = [(12, 12)]
        sheets.append(sheet)

        if state == "hidden":
            ref.warnings.append(("hidden_sheet", name, 1))
        elif state == "veryHidden":
            ref.warnings.append(("very_hidden_sheet", name, 1))
        ref.warnings.append(("hidden_rows", name, len(sheet.hidden_rows)))
        if sheet.hidden_cols:
            ref.warnings.append(("hidden_columns", name, 1))
        ref.warnings.append(("merged_cells", name, len(sheet.merges)))

    ref.formulas = sum(1 for e in ref.cells.values() if e.formula is not None)
    path = directory / "unique.xlsx"
    write_xlsx(path, sheets, shared)
    return Corpus("unique-xlsx", [path], {path.name: ref}, formats=["json"],
                  data_regions=[UNIQUE_REGION])


def _shared_group(rng, maker, seen, sheet, cells, name, start, si):
    """A shared formula in column J: master at ``start`` and three followers.

    Followers store no text; the reference holds the master re-based by
    the row offset, which is what each follower cell computes.
    """
    while True:
        col = column_letters(rng.randint(1, 8))
        num_text, value = maker.number()
        absolute = f"${column_letters(rng.randint(11, 20))}${rng.randint(1, 9)}"
        template = f"ROUND({col}{{row}}*{num_text}+{absolute},2)"
        texts = ["=" + template.format(row=start + k + 1000) for k in range(4)]
        if not any(t in seen for t in texts):
            break
    seen.update(texts)
    for k, text in enumerate(texts):
        row = start + k
        addr = f"J{row}"
        cached = _cached_number(rng)
        if k == 0:
            body = (f'<f t="shared" ref="J{start}:J{start + 3}" si="{si}">'
                    f"{escape(text[1:])}</f>")
        else:
            body = f'<f t="shared" si="{si}"/>'
        sheet.put(row, 10, _formula_cell(addr, body, None, cached))
        cells[(name, addr)] = Expect(HARD, (value, 2.0), text, cached,
                                     "shared_follower" if k else None)


# --- batch-cli ---------------------------------------------------------

BATCH_WORKBOOKS = 120
BATCH_FORMULAS = 200       # per workbook
BATCH_IGNORE = [0.0, 1.0]
BATCH_REGION = "Data"


def build_batch(seed: int, directory: Path) -> Corpus:
    """Medium workbooks, alternately JSON and merge-free XLSX."""
    rng = random.Random(seed)
    maker = FormulaMaker(rng, rows=400)
    ignore = frozenset(BATCH_IGNORE)
    inputs = directory / "inputs"
    inputs.mkdir()
    files, refs = [], {}
    for i in range(1, BATCH_WORKBOOKS + 1):
        is_json = i % 2 == 1
        stem = f"wb{i:03d}"
        path = inputs / (stem + (".json" if is_json else ".xlsx"))
        name = f"{stem}.xls" if is_json else path.name
        ref = WorkbookRef(name=name, sheets=3, formulas=BATCH_FORMULAS)
        layout: dict[str, dict[str, tuple]] = {"Data": {}, "Calc": {}, "Notes": {}}
        for r in range(1, 31):
            value = _cached_number(rng)
            layout["Data"][f"B{r}"] = (None, value)
            ref.cells[("Data", f"B{r}")] = Expect(EXPECTED_INPUT, value=value)
        for j in range(BATCH_FORMULAS):
            sheet = "Calc" if j < 160 else "Notes"
            k = j if j < 160 else j - 160
            addr = f"{column_letters(k % 8 + 1)}{k // 8 + 1}"
            text, consts, only = maker.formula()
            cached = _cached_number(rng)
            layout[sheet][addr] = (text, cached)
            ref.cells[(sheet, addr)] = _expect_formula(text, consts, only, ignore, cached)
        for r in range(1, 11):
            value = _cached_number(rng)
            layout["Notes"][f"K{r}"] = (None, value)
            ref.cells[("Notes", f"K{r}")] = Expect(DIRECT, value=value)
            label = f"{rng.choice(LABELS)} {r}"
            layout["Notes"][f"L{r}"] = (None, label)
            ref.cells[("Notes", f"L{r}")] = Expect(None, value=label)
        if is_json:
            _write_json_workbook(path, name, layout)
        else:
            _write_xlsx_workbook(path, layout)
        files.append(path)
        refs[path.name] = ref
    return Corpus("batch-cli", files, refs, formats=["text", "csv", "json"],
                  data_regions=[BATCH_REGION], ignore_constants=list(BATCH_IGNORE))


def _write_json_workbook(path: Path, name: str, layout) -> None:
    sheets = []
    for sheet, cells in layout.items():
        out = {}
        for addr, (formula, value) in cells.items():
            entry = {}
            if formula is not None:
                entry["f"] = formula
            entry["v"] = value
            out[addr] = entry
        sheets.append({"name": sheet, "cells": out})
    path.write_text(json.dumps({"name": name, "sheets": sheets}), encoding="utf-8")


def _write_xlsx_workbook(path: Path, layout) -> None:
    shared = SharedStrings()
    sheets = []
    for name, cells in layout.items():
        sheet = SheetXml(name=name)
        for addr, (formula, value) in cells.items():
            letters = addr.rstrip("0123456789")
            col = 0
            for ch in letters:
                col = col * 26 + ord(ch) - ord("A") + 1
            row = int(addr[len(letters):])
            if formula is not None:
                xml = _formula_cell(addr, f"<f>{escape(formula[1:])}</f>", None, value)
            elif isinstance(value, str):
                xml = f'<c r="{addr}" t="s"><v>{shared.add(f"<si><t>{escape(value)}</t></si>")}</v></c>'
            else:
                xml = _value_cell(addr, value)
            sheet.put(row, col, xml)
        sheets.append(sheet)
    write_xlsx(path, sheets, shared)


BUILDERS = {"desk-repeat": build_desk, "unique-xlsx": build_unique, "batch-cli": build_batch}


def build(workload: str, seed: int, directory: Path) -> Corpus:
    return BUILDERS[workload](seed, directory)
