"""Offline reader for ZIP-packaged SpreadsheetML workbooks.

Reads the workbook part (sheet list, visibility), shared strings, and
worksheet parts (cells with stored formula text and cached values,
merge lists, hidden row/column flags).  Formula text and cell
positions are stored in A1 form whatever the display's reference mode,
so a package is always read as A1.  Formulas are never recomputed;
write support is deliberately absent.
"""

from __future__ import annotations

import math
import re
import zipfile
import zlib
from collections.abc import Callable, Iterator
from contextlib import closing
from pathlib import Path
from xml.etree import ElementTree

from .addresses import MAX_COLUMNS, MAX_ROWS, AddressError, AddressMemo, address_memo
from .addresses import column_to_letters
from .model import Cell, Rectangle, Scalar, Sheet, SheetVisibility, Workbook, parse_range

_NS = {
    "main": "http://schemas.openxmlformats.org/spreadsheetml/2006/main",
    "r": "http://schemas.openxmlformats.org/officeDocument/2006/relationships",
    "rel": "http://schemas.openxmlformats.org/package/2006/relationships",
}

_VISIBILITY = {
    None: SheetVisibility.VISIBLE,
    "visible": SheetVisibility.VISIBLE,
    "hidden": SheetVisibility.HIDDEN,
    "veryHidden": SheetVisibility.VERY_HIDDEN,
}


# tags read, as Clark names: a prefixed find() sorts the namespace map per call
_C, _F, _V, _IS, _T, _SI, _ROW, _COL, _MERGE_CELL, _SHEET = (
    "{%s}%s" % (_NS["main"], tag) for tag in "c f v is t si row col mergeCell sheet".split()
)
_RELATIONSHIP = "{%s}Relationship" % _NS["rel"]
# a finite decimal or scientific <v> number, not Python's wider syntax (1_000, " 7 ", nan)
_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# a shared-string, row or column index: ASCII digits only, not int()'s wider syntax
# (-1, 1_0, " 0 "); nine digits hold every index the format allows
_INDEX_RE = re.compile(r"[0-9]{1,9}")
_BOOLEANS = {"0": False, "1": True, "false": False, "true": True}

# The most bytes one package member may inflate to.  A few kilobytes of deflated
# data can inflate to gigabytes, so a member past this is an error.  The cap bounds
# the bytes inflated; memory is bounded by a row, since each part is parsed as it
# inflates and each row is let go once its cells are read.
MAX_MEMBER_BYTES = 256 * 1024 * 1024


class FormatError(ValueError):
    """The file is not a valid SpreadsheetML package."""


def load_xlsx(path: str | Path) -> Workbook:
    """The package's workbook.  An error gets its sheet here and its cell in
    ``_read_sheet``; the helpers below raise a ``ValueError`` with the fact alone."""
    path = Path(path)
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise FormatError("not a ZIP package") from None
    with archive:
        try:
            sheet_elems = [e for e in _parse(archive, "xl/workbook.xml", 2) if e.tag == _SHEET]
        except KeyError:
            raise FormatError("missing xl/workbook.xml") from None
        rels = _read_relationships(archive)
        shared = _read_shared_strings(archive)

        sheets = []
        parse = address_memo()  # one address and coords per distinct reference, as in model
        share = {}.setdefault  # and one string per distinct formula text
        if not sheet_elems:
            raise FormatError("workbook part declares no sheets")
        for elem in sheet_elems:
            name = elem.get("name", "")
            target = rels.get(elem.get(f"{{{_NS['r']}}}id"))
            if target is None:
                raise FormatError(f"sheet {name!r}: no worksheet part")
            visibility = _VISIBILITY.get(elem.get("state"), SheetVisibility.VISIBLE)
            try:
                with closing(_parse(archive, target, 2)) as xml:  # closed if a cell fails
                    sheets.append(Sheet(name, visibility, *_read_sheet(xml, shared, parse, share)))
            except (KeyError, ValueError) as exc:  # only _parse raises a KeyError
                problem = f"missing part {target}" if isinstance(exc, KeyError) else exc
                raise FormatError(f"sheet {name!r}: {problem}") from None

    try:
        return Workbook(name=path.name, source_path=str(path), sheets=tuple(sheets))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse(archive: zipfile.ZipFile, member: str, depth: int) -> Iterator[ElementTree.Element]:
    """Each element ``depth`` levels below the member's root, given at its end, as the member
    inflates, and let go with the next.  ``KeyError`` if missing; any fault is a ``FormatError``."""
    builder = ElementTree.TreeBuilder()
    top = builder.start("", {})  # the root's parent: a handle on the tree as it grows
    parser = ElementTree.XMLParser(target=builder)
    inflated = 0
    try:
        with archive.open(member) as stream:
            while chunk := stream.read(1 << 16):
                # counted as read: the size the package states can lie
                if (inflated := inflated + len(chunk)) > MAX_MEMBER_BYTES:
                    raise FormatError(f"{member}: inflates past {MAX_MEMBER_BYTES:,} bytes")
                try:
                    parser.feed(chunk)
                finally:  # what ended before a fault in the XML is read before the fault
                    yield from _ended(top, depth + 1, False)
        parser.close()
        yield from _ended(top, depth + 1, True)
    except (FormatError, KeyError):  # KeyError is a LookupError
        raise
    # a bad CRC, a corrupt or truncated stream, an unknown compression, encryption
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError) as exc:
        raise FormatError(f"{member}: unreadable member ({str(exc) or 'truncated'})") from None
    # an XML declaration naming an unknown or a multi-byte encoding raises LookupError or ValueError
    except (ElementTree.ParseError, LookupError, ValueError) as exc:
        raise FormatError(f"{member}: malformed XML ({exc})") from None


def _ended(parent: ElementTree.Element, depth: int, done: bool) -> Iterator[ElementTree.Element]:
    """The elements ``depth`` levels below ``parent`` that have ended; the last child of an
    element that has not may still be open.  Each is let go once given."""
    whole = len(parent) if done else len(parent) - 1
    if depth == 1:
        yield from parent[:whole]
        del parent[:whole]
    else:
        for i, child in enumerate(parent):
            yield from _ended(child, depth - 1, i < whole)


def _read_relationships(archive: zipfile.ZipFile) -> dict[str, str]:
    try:
        items = _parse(archive, "xl/_rels/workbook.xml.rels", 1)
        rels = [(rel.get("Id"), rel.get("Target", "")) for rel in items if rel.tag == _RELATIONSHIP]
    except KeyError:
        return {}
    return {key: t.lstrip("/") if t.startswith("/") else "xl/" + t for key, t in rels}


def _read_shared_strings(archive: zipfile.ZipFile) -> list[str]:
    try:
        items = _parse(archive, "xl/sharedStrings.xml", 1)
        return ["".join(t.text or "" for t in si.iter(_T)) for si in items if si.tag == _SI]
    except KeyError:
        return []


def _read_sheet(
    xml: Iterator[ElementTree.Element], shared: list[str], parse: AddressMemo, share: Callable
) -> tuple[dict[tuple[int, int], Cell], tuple[Rectangle, ...], frozenset[int], frozenset[int]]:
    """A ``Sheet``'s fields after its name and visibility."""
    merged: list[Rectangle] = []
    hidden_rows = set()
    hidden_cols = set()
    # shared-formula masters, keyed by si attribute
    shared_formulas: dict[str, str] = {}
    cells: dict[tuple[int, int], Cell] = {}
    # a <row> or <c> without r (it is optional) sits one past the one before, as openpyxl reads it
    row_number = 0
    for elem in xml:  # a valid worksheet has these in sheetData, cols and mergeCells
        if elem.tag == _ROW:
            row_number = _index_attr(elem, "r", MAX_ROWS, absent=row_number + 1)
            if elem.get("hidden") in ("1", "true"):
                hidden_rows.add(row_number)
            column = 0
            for c in elem.findall(_C):
                ref = c.get("r") or f"{column_to_letters(column + 1)}{row_number}"
                try:
                    address, coords = parse(ref)
                except AddressError:
                    raise ValueError(f"bad cell reference {ref!r}") from None
                column = coords[1]
                try:
                    formula, value = _read_cell_content(c, shared, shared_formulas, share)
                except ValueError as exc:
                    raise ValueError(f"cell {ref}: {exc}") from None
                if formula is None and value is None:
                    continue
                if coords in cells:
                    earlier = cells[coords].address.render()
                    raise ValueError(f"cells {earlier!r} and {ref!r} are the same cell")
                # content is present and a formula carries its "=", so skip Cell.__new__'s checks
                cells[coords] = tuple.__new__(Cell, (address, formula, value))
        elif elem.tag == _COL and elem.get("hidden") in ("1", "true"):
            first = _index_attr(elem, "min", MAX_COLUMNS)
            last = _index_attr(elem, "max", MAX_COLUMNS)
            hidden_cols.update(range(first, last + 1))
        elif elem.tag == _MERGE_CELL and (ref := elem.get("ref")):
            merged.append(parse_range(ref))

    return cells, tuple(merged), frozenset(hidden_rows), frozenset(hidden_cols)


def _read_cell_content(
    c: ElementTree.Element, shared: list[str], shared_formulas: dict[str, str], share: Callable
) -> tuple[str | None, Scalar | None]:
    # one walk over the children; the first of each tag wins, as in find()
    children = {child.tag: child for child in reversed(c)}
    f_elem = children.get(_F)
    formula = None
    if f_elem is not None:
        body = f_elem.text or ""
        si = f_elem.get("si")
        if f_elem.get("t") == "shared":
            if body:
                shared_formulas[si] = body
            else:
                # a follower of a shared formula gets its master's text, not re-based to
                # its own cell: a known defect (ROADMAP item 2), by which 216 cells read
                # wrong on the unique-xlsx benchmark at seed 11
                body = shared_formulas.get(si)
                if body is None:
                    raise ValueError(f"shared formula si={si!r} has no master")
        if body:
            formula = "=" + body
            formula = share(formula, formula)

    value: Scalar | None = None
    cell_type = c.get("t", "n")
    if cell_type == "inlineStr":
        if (is_elem := children.get(_IS)) is not None:
            value = "".join(t.text or "" for t in is_elem.iter(_T))
    elif (v_elem := children.get(_V)) is not None and v_elem.text is not None:
        raw = v_elem.text
        if cell_type == "s":
            index = int(raw) if _INDEX_RE.fullmatch(raw) else len(shared)
            if index >= len(shared):
                raise ValueError(f"bad shared string index {raw!r}")
            value = shared[index]
        elif cell_type == "b":
            if (value := _BOOLEANS.get(raw)) is None:
                raise ValueError(f"bad boolean {raw!r}")
        elif cell_type in ("str", "e", "d"):
            value = raw
        else:
            value = _parse_number(raw)
    return formula, value


def _index_attr(elem: ElementTree.Element, key: str, limit: int, absent: int = 0) -> int:
    """A 1-based row or column index attribute, at most ``limit``; ``absent`` if missing."""
    raw = elem.get(key)
    index = absent if raw is None else int(raw) if _INDEX_RE.fullmatch(raw) else 0
    if not 1 <= index <= limit:
        tag = elem.tag.rpartition("}")[2]
        raise ValueError(f"<{tag}> {key}={raw!r} is not an index from 1 to {limit}")
    return index


def _parse_number(raw: str) -> Scalar:
    if _NUMBER_RE.fullmatch(raw) and math.isfinite(number := float(raw)):
        return int(raw) if raw.lstrip("+-").isdigit() else number
    raise ValueError(f"bad number {raw!r}")

