"""Renders analysis results into the three report shapes.

Per-workbook detail, multi-workbook summary, and the constant-value
histogram, each in text-table, CSV, and JSON encodings.  Rendering is
deterministic: identical inputs yield byte-identical bodies (no
timestamps; run metadata belongs in filenames or sidecars).  Every
document is a stream of text pieces that ``_document`` encodes; the
caller names the file.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter

from .detect import AnalysisReport, ConstantOccurrence, Finding, FindingKind
from .model import Scalar

SCHEMA_VERSION = 1


class Format(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class RenderedDocument:
    body: bytes


class EmptyBatch(ValueError):
    pass


def format_number(value: float) -> str:
    """Shortest faithful decimal rendering, no trailing-zero padding."""
    # the magnitude test comes first, so inf and nan reach repr, never int()
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(float(value))


def render_scalar(value: Scalar | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return format_number(value)
    return str(value)


def _document(pieces: Iterable[str]) -> RenderedDocument:
    """The one place report text becomes bytes, each piece as it is made.

    A lone surrogate (a JSON ``"\\ud800"`` escape, a file name that is not
    UTF-8) has no UTF-8 form, so from its piece on pieces are written with
    ``backslashreplace``: inside a JSON string, that same escape.
    """
    pieces = iter(pieces)
    out = io.BytesIO()
    try:
        out.writelines(map(str.encode, pieces))
    except UnicodeEncodeError as exc:
        out.write(exc.object.encode(errors="backslashreplace"))
        out.writelines(piece.encode(errors="backslashreplace") for piece in pieces)
    # the buffer itself, not a copy of it: nothing else holds a view of it
    return RenderedDocument(out.getvalue())


def _text_table(rows: list[tuple[str, ...]]) -> Iterator[str]:
    """Left-aligned columns two spaces apart, each as wide as its widest cell;
    each row is let go once written, so rows and body are not both held whole."""
    widths = (max(map(len, map(itemgetter(i), rows))) for i in range(len(rows[0])))
    template = "  ".join("%%-%ds" % width for width in widths)
    rows.reverse()
    while rows:
        yield (template % rows.pop()).rstrip() + "\n"


class _Echo:  # a file whose write gives its line back, so writerow returns it
    write = str


def _csv_lines(rows: Iterable[tuple[str, ...]]) -> Iterator[str]:
    return map(csv.writer(_Echo(), lineterminator="\n").writerow, rows)


# --- per-workbook detail ----------------------------------------------

_DETAIL_HEADER = ("No.", "Worksheet", "Cell", "Cell Formula", "Cell Value", "Constants", "Detail")
# the text detail lists this many constants of a finding, then "(+N more)"
_TEXT_MAX_CONSTANTS = 4


def render_detail(report: AnalysisReport, format: Format) -> RenderedDocument:
    if format is Format.JSON:
        return _document(_detail_json(report))
    r = report
    counts = (r.worksheet_count, r.formula_count, r.hard_coding_count, r.numeric_value_count)
    head = [
        ("Workbook Name", "Workbook Location", "Wks", "F'm", "Hard", "Num'c"),
        (r.workbook_name, r.workbook_location, *map(str, counts)),
    ]
    if format is Format.CSV:
        rows = chain((row + ("",) for row in head), [_DETAIL_HEADER], _detail_rows(report, False))
        return _document(_csv_lines(rows))
    return _document(_detail_text(report, head))


def _detail_rows(report: AnalysisReport, capped: bool) -> Iterator[tuple[str, ...]]:
    """A table row per finding; ``capped`` lists at most _TEXT_MAX_CONSTANTS constants."""
    for number, finding in enumerate(report.findings, start=1):
        constants = [format_number(o.value) for o in finding.constants]
        if capped and len(constants) > _TEXT_MAX_CONSTANTS:
            constants[_TEXT_MAX_CONSTANTS:] = [f"(+{len(constants) - _TEXT_MAX_CONSTANTS} more)"]
        yield (
            str(number),
            finding.sheet,
            finding.address.render(),
            finding.formula_text or "",
            render_scalar(finding.cached_value),
            " ".join(constants),
            finding.detail,
        )


def _detail_text(report: AnalysisReport, head: list[tuple[str, ...]]) -> Iterator[str]:
    yield "Hard-coding audit of workbook\n"
    yield from _text_table(head)
    yield "\n"
    # listed first: a text table needs every row to know its column widths
    rows = [_DETAIL_HEADER, *_detail_rows(report, True)]
    if len(rows) > 1:
        yield from _text_table(rows)
    else:
        yield "(no findings)\n"
    if report.warnings:
        yield "\nWarnings\n"
        for w in report.warnings:
            where = f" ({', '.join(w.locations)})" if w.locations else ""
            yield f"- {w.kind.value} on sheet {w.sheet!r}: {w.count}{where}\n"


# --- JSON -------------------------------------------------------------
#
# All three JSON documents are written straight from the results, in the
# bytes the standard library's encoder gives with ``ensure_ascii=False,
# indent=1``: with any indent it leaves its C encoder for a generator per
# container, which on a desk-scale workbook cost more than loading and
# analysing it.  Strings go through the C escaper that encoder uses, and
# each object is a ``%`` template with its keys in document order, yielded
# to ``_document`` as it is made: no list of every finding is held.


def _json_array(items: Iterable[str], closing_indent: str) -> Iterator[str]:
    """A JSON array around items already written out, piece by piece."""
    opening = "[\n"
    for item in items:
        yield opening + item
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n" + closing_indent + "]"


# the opening of a finding object up to its sheet, once per kind
_FINDING_HEADS = {
    kind: '  {\n   "kind": %s,\n   "sheet": ' % encode_basestring(kind.value)
    for kind in FindingKind
}


def _detail_json(report: AnalysisReport) -> Iterator[str]:
    q = encode_basestring
    yield (
        '{\n "schema_version": %d,\n "kind": "detail",\n'
        ' "workbook": {\n  "name": %s,\n  "location": %s\n },\n'
        ' "counts": {\n  "worksheets": %d,\n  "formulas": %d,\n'
        '  "hard_codings": %d,\n  "numeric_values": %d\n },\n "findings": '
        % (
            SCHEMA_VERSION,
            q(report.workbook_name),
            q(report.workbook_location),
            report.worksheet_count,
            report.formula_count,
            report.hard_coding_count,
            report.numeric_value_count,
        )
    )
    yield from _json_array(_findings_json(report.findings), " ")
    yield ',\n "warnings": '
    yield from _json_array(
        (
            '  {\n   "kind": %s,\n   "sheet": %s,\n   "count": %d,\n   "locations": %s\n  }'
            % (
                q(w.kind.value),
                q(w.sheet),
                w.count,
                "".join(_json_array(("    " + q(loc) for loc in w.locations), "   ")),
            )
            for w in report.warnings
        ),
        " ",
    )
    yield "\n}\n"


def _findings_json(findings: tuple[Finding, ...]) -> Iterator[str]:
    """Each finding object, written out in turn.

    Every cell classified from one formula text shares its constants
    tuple, so a finding's tail from "constants" on is written once per
    tuple and detail.  Likewise the findings of one cell key share an
    address (see ``analyze_workbook``), so its quoted text is written
    once per address.  The keys are identities, not values: equal
    tuples can render differently (1 and 1.0, 0.0 and -0.0), and the
    caller keeps every tuple and address alive, so no id is reused.  The
    memos live while the findings are written, and end with them.
    """
    q = encode_basestring
    heads = _FINDING_HEADS
    tails: dict[tuple[int, str], str] = {}
    cells: dict[int, str] = {}
    for kind, sheet, address, formula, value, constants, detail in findings:
        key = (id(constants), detail)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _finding_tail(constants, detail)
        cell = cells.get(id(address))
        if cell is None:
            cell = cells[id(address)] = q(address.render())
        yield '%s%s,\n   "cell": %s%s%s%s' % (
            heads[kind],
            q(sheet),
            cell,
            "" if formula is None else ',\n   "formula": ' + q(formula),
            ""
            if value is None
            else ',\n   "value": ' + (q(value) if isinstance(value, str) else _json_number(value)),
            tail,
        )


def _finding_tail(constants: tuple[ConstantOccurrence, ...], detail: str) -> str:
    """A finding object from its "constants" member to its closing brace."""
    text = ""
    if constants:
        # joined, not streamed through _json_array: a tail is written once per
        # distinct constants tuple, nearly once per finding when texts differ
        text = ',\n   "constants": [\n%s\n   ]' % ",\n".join(
            [
                '    {\n     "value": %s,\n     "start": %d,\n     "end": %d\n    }'
                % (_json_number(o.value), o.start, o.end)
                for o in constants
            ]
        )
    if detail:
        text += ',\n   "detail": ' + encode_basestring(detail)
    return text + "\n  }"


# how ``json`` spells the scalars whose ``repr`` is not JSON
_JSON_SPELLINGS = {
    "True": "true",
    "False": "false",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "nan": "NaN",
}


def _json_number(value: float) -> str:
    text = repr(value)
    return _JSON_SPELLINGS.get(text, text)


def _rows_json(kind: str, items: Iterable[str]) -> Iterator[str]:
    """A summary or histogram document around its rows, each written out."""
    yield '{\n "schema_version": %d,\n "kind": "%s",\n "rows": ' % (SCHEMA_VERSION, kind)
    yield from _json_array(items, " ")
    yield "\n}\n"


def report_to_document(report: AnalysisReport) -> dict:
    return json.loads(render_detail(report, Format.JSON).body)


# --- batch summary ----------------------------------------------------

_SUMMARY_HEADER = (
    "",
    "Workbook Name",
    "Workbook Location",
    "# worksheets",
    "# formulas",
    "# hard codings",
    "# numeric values",
)
_SUMMARY_JSON_ROW = (
    '  {\n   "index": %d,\n   "workbook_name": %s,\n   "workbook_location": %s,\n'
    '   "worksheet_count": %d,\n   "formula_count": %d,\n   "hard_coding_count": %d,\n'
    '   "numeric_value_count": %d,\n   "error": %s\n  }'
)


def render_batch_summary(reports: list[AnalysisReport], format: Format) -> RenderedDocument:
    """A row per report, numbered from 1.  A report with an error shows it in place of
    its counts: ``ERROR: <message>`` in CSV, its ``error`` in JSON, and in text
    ``ERROR``, with the message listed under the table."""
    if not reports:
        raise EmptyBatch("batch summary requires at least one row")
    rows = enumerate(reports, start=1)
    if format is Format.JSON:
        q = encode_basestring
        items = (
            _SUMMARY_JSON_ROW
            % (
                index,
                q(r.workbook_name),
                q(r.workbook_location),
                r.worksheet_count,
                r.formula_count,
                r.hard_coding_count,
                r.numeric_value_count,
                "null" if r.error is None else q(r.error),
            )
            for index, r in rows
        )
        return _document(_rows_json("summary", items))

    table, errors = [_SUMMARY_HEADER], []
    for index, r in rows:
        counts = (r.worksheet_count, r.formula_count, r.hard_coding_count, r.numeric_value_count)
        tail = map(str, counts)
        if r.error is not None:
            message = f"ERROR: {r.error}"
            # under a text table a message sets no column's width
            tail = (message if format is Format.CSV else "ERROR", "", "", "")
            errors.append(f"#{index}  {message}\n")
        table.append((f"#{index}", r.workbook_name, r.workbook_location, *tail))
    if format is Format.CSV:
        return _document(_csv_lines(table))
    if errors:
        errors.insert(0, "\nLoad errors\n")
    return _document(chain(["Hard-coding audit summary\n"], _text_table(table), errors))


# --- constant histogram -----------------------------------------------

_HISTOGRAM_HEADER = ("Constant Value", "Number of Occurrences")
_HISTOGRAM_JSON_ROW = '  {\n   "value": %s,\n   "count": %d\n  }'


def render_histogram(histogram: list[tuple[float, int]], format: Format) -> RenderedDocument:
    if format is Format.JSON:
        items = (_HISTOGRAM_JSON_ROW % (_json_number(v), count) for v, count in histogram)
        return _document(_rows_json("histogram", items))
    table = [_HISTOGRAM_HEADER, *((format_number(v), str(count)) for v, count in histogram)]
    return _document((_csv_lines if format is Format.CSV else _text_table)(table))
