"""Immutable in-memory workbook model and JSON interchange format."""

from __future__ import annotations

import functools
import gc
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .addresses import (
    A1,
    MAX_COLUMNS,
    MAX_ROWS,
    R1C1,
    AddressError,
    AddressMemo,
    CellAddress,
    address_memo,
    column_to_letters,
    parse_address,
)

Scalar = Union[int, float, str, bool]
Span = tuple[int, int]  # the first and last of a run of row or column indices


def collector_paused(build: Callable) -> Callable:
    """``build`` run with the cyclic garbage collector off, and on again after if it was on.

    Safe while what a builder makes or drops holds no reference cycle (``tests/test_model.py``
    pins it), as a collection in a build would then scan new cells or findings to free nothing.
    The switch is process-wide: other threads' cyclic garbage is collected after, not lost."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():  # a caller's own pause, or an outer build's, is kept
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class SchemaError(ValueError):
    """Interchange document violates the schema; message carries a
    JSON-pointer-style location of the first violation below the root."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class SheetVisibility(Enum):
    VISIBLE = "visible"
    HIDDEN = "hidden"
    VERY_HIDDEN = "very_hidden"


@dataclass(frozen=True)
class Rectangle:
    top_left: CellAddress
    bottom_right: CellAddress

    def __post_init__(self) -> None:
        if (
            self.top_left.row > self.bottom_right.row
            or self.top_left.column > self.bottom_right.column
        ):
            raise ValueError("rectangle corners out of order")

    def contains(self, row: int, column: int) -> bool:
        return (
            self.top_left.row <= row <= self.bottom_right.row
            and self.top_left.column <= column <= self.bottom_right.column
        )

    def render(self) -> str:
        return f"{self.top_left.render()}:{self.bottom_right.render()}"


def parse_range(text: str) -> Rectangle:
    try:
        first, _, second = text.partition(":")
        if not second:
            second = first
        return Rectangle(parse_address(first), parse_address(second))
    except ValueError as exc:  # an AddressError is one
        raise ValueError(f"cannot parse range {text!r}: {exc}") from None


class _CellFields(NamedTuple):
    address: CellAddress
    formula_text: str | None = None
    cached_value: Scalar | None = None


class Cell(_CellFields):
    """A formula's text starts with ``=``; ``tuple.__new__(Cell, …)``, ``_replace`` and
    ``_make`` skip ``__new__``'s checks."""

    __slots__ = ()

    def __new__(cls, address, formula_text=None, cached_value=None):
        if formula_text is None and cached_value is None:
            raise ValueError(f"cell {address.render()} has neither formula nor value")
        if formula_text is not None and not formula_text.startswith("="):
            formula_text = "=" + formula_text
        return tuple.__new__(cls, (address, formula_text, cached_value))


@dataclass
class Sheet:
    name: str
    visibility: SheetVisibility = SheetVisibility.VISIBLE
    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)
    merged_regions: tuple[Rectangle, ...] = ()
    hidden_rows: frozenset[int] = frozenset()
    hidden_cols: frozenset[int] = frozenset()


@dataclass
class Workbook:
    name: str
    source_path: str = ""
    sheets: tuple[Sheet, ...] = ()
    ref_style: str = A1

    def __post_init__(self) -> None:
        names = [s.name for s in self.sheets]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate sheet names in workbook {self.name!r}")


class SheetError(ValueError):
    """Sheet content that ``build_sheet`` refuses.  The message is the whole fact and names
    what is at fault, so a loader only puts its location in front.  ``part`` is ``"cells"``
    and ``item`` a cell reference, or ``part`` is ``"merged"``, ``"hidden_rows"`` or
    ``"hidden_cols"`` and ``item`` a position in it."""

    def __init__(self, part: str, item: object, message: str):
        super().__init__(message)
        self.part, self.item = part, item


def build_sheet(
    name: str, visibility: SheetVisibility, cells: Iterable[tuple[str, str | None, Scalar | None]],
    hidden_rows: Iterable[Span], hidden_cols: Iterable[Span], merged: Iterable[str],
    parse: AddressMemo, share: Callable[[str, str], str],
) -> Sheet:
    """The sheet a loader read, whatever its format.

    ``cells`` gives each cell as ``(reference, formula, value)``, a formula with its ``=``.
    It is read first, so a loader may fill the other inputs as it gives the cells.  ``parse``
    is the workbook's ``address_memo``, and ``share`` a dict's ``setdefault`` that gives
    each formula text one string for the workbook.
    """
    built: dict[tuple[int, int], Cell] = {}
    keep, new = built.setdefault, tuple.__new__
    for ref, formula, value in cells:
        try:
            address, coords = parse(ref)
        except AddressError as exc:
            raise SheetError("cells", ref, str(exc)) from None
        if formula is not None:
            formula = share(formula, formula)
        cell = new(Cell, (address, formula, value))
        if keep(coords, cell) is not cell:
            at = f"{column_to_letters(coords[1])}{coords[0]}"
            raise SheetError("cells", ref, f"{ref!r} names cell {at} a second time")
        if formula is None and value is None:  # checked as Cell.__new__ would, without its call
            raise SheetError("cells", ref, f"cell {ref!r} has neither formula nor value")
    regions = []
    for i, text in enumerate(merged):
        try:
            regions.append(parse_range(text))
        except ValueError as exc:
            raise SheetError("merged", i, str(exc)) from None
    rows = _hidden(hidden_rows, "hidden_rows", MAX_ROWS)
    cols = _hidden(hidden_cols, "hidden_cols", MAX_COLUMNS)
    return Sheet(name, visibility, built, tuple(regions), rows, cols)


def _hidden(spans: Iterable[Span], part: str, limit: int) -> frozenset[int]:
    """Each index in some span, once however the spans overlap or abut."""
    spans = list(spans)
    for i, span in enumerate(spans):
        for index in span:
            if not (type(index) is int and 1 <= index <= limit):
                noun = "row" if part == "hidden_rows" else "column"
                message = f"hidden {noun} {index!r} is not an index from 1 to {limit}"
                raise SheetError(part, i, message)
    indices: list[int] = []
    end = 0  # every index in an earlier span is at most end
    for first, last in sorted(spans):
        indices.extend(range(max(first, end + 1), last + 1))
        end = max(end, last)
    return frozenset(indices)


class WarningKind(Enum):
    HIDDEN_SHEET = "hidden_sheet"
    VERY_HIDDEN_SHEET = "very_hidden_sheet"
    HIDDEN_ROWS = "hidden_rows"
    HIDDEN_COLUMNS = "hidden_columns"
    MERGED_CELLS = "merged_cells"


@dataclass(frozen=True)
class AuditWarning:
    kind: WarningKind
    sheet: str
    count: int
    locations: tuple[str, ...] = ()


def audit_metadata(workbook: Workbook) -> list[AuditWarning]:
    """Visibility and merge complications worth flagging to an auditor.

    Warnings never alter findings; they feed the report's warning
    section only.
    """
    warnings: list[AuditWarning] = []
    for sheet in workbook.sheets:
        if sheet.visibility is SheetVisibility.HIDDEN:
            warnings.append(AuditWarning(WarningKind.HIDDEN_SHEET, sheet.name, 1))
        elif sheet.visibility is SheetVisibility.VERY_HIDDEN:
            warnings.append(AuditWarning(WarningKind.VERY_HIDDEN_SHEET, sheet.name, 1))
        if sheet.hidden_rows:
            rows = tuple(str(r) for r in sorted(sheet.hidden_rows))
            warnings.append(
                AuditWarning(WarningKind.HIDDEN_ROWS, sheet.name, len(rows), rows)
            )
        if sheet.hidden_cols:
            cols = tuple(column_to_letters(c) for c in sorted(sheet.hidden_cols))
            warnings.append(
                AuditWarning(WarningKind.HIDDEN_COLUMNS, sheet.name, len(cols), cols)
            )
        if sheet.merged_regions:
            regions = tuple(r.render() for r in sheet.merged_regions)
            warnings.append(
                AuditWarning(WarningKind.MERGED_CELLS, sheet.name, len(regions), regions)
            )
    return warnings


# --- JSON interchange -------------------------------------------------

_WORKBOOK_KEYS = {"name", "ref_style", "sheets"}
_SHEET_KEYS = {"name", "visibility", "cells", "merged", "hidden_rows", "hidden_cols"}
_CELL_KEYS = {"f", "v"}
_FLOAT_MAX = sys.float_info.max


def _require_keys(obj: dict, allowed: set[str], location: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(location, f"unknown key {key!r}")


@collector_paused
def workbook_from_document(doc: object, source_path: str = "") -> Workbook:
    """The workbook a JSON interchange document describes; ``doc`` is left as it is.

    Each cell key is parsed once: every sheet that uses it shares one
    ``CellAddress`` and one ``(row, column)`` cells-dict key for it, and
    every cell with one formula text shares one string.
    """
    return _workbook(doc, source_path, iter)


def _workbook(doc: object, source_path: str, each: Callable[[list], Iterable]) -> Workbook:
    if not isinstance(doc, dict):
        raise SchemaError("", "document must be an object")
    _require_keys(doc, _WORKBOOK_KEYS, "")
    name = doc.get("name")
    if not isinstance(name, str):
        raise SchemaError("/name", "workbook name must be a string")
    ref_style = doc.get("ref_style", A1)
    if ref_style not in (A1, R1C1):
        raise SchemaError("/ref_style", f"must be 'A1' or 'R1C1', got {ref_style!r}")
    raw_sheets = doc.get("sheets", [])
    if not isinstance(raw_sheets, list):
        raise SchemaError("/sheets", "must be an array")
    parse = address_memo()
    share = {}.setdefault
    sheets = tuple(
        _sheet_from_document(raw, f"/sheets/{i}", parse, share)
        for i, raw in enumerate(each(raw_sheets))
    )
    try:
        return Workbook(name=name, source_path=source_path, sheets=sheets, ref_style=ref_style)
    except ValueError as exc:
        raise SchemaError("/sheets", str(exc)) from None


def _drained(items: list) -> Iterator:
    """The items of a list the caller owns, in order, each taken out of it as it is given."""
    items.reverse()
    while items:
        yield items.pop()


def _sheet_from_document(raw: object, location: str, parse: AddressMemo, share: Callable) -> Sheet:
    if not isinstance(raw, dict):
        raise SchemaError(location, "sheet must be an object")
    _require_keys(raw, _SHEET_KEYS, location)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{location}/name", "sheet name must be a nonempty string")
    vis_raw = raw.get("visibility", "visible")
    try:
        visibility = SheetVisibility(vis_raw)
    except ValueError:
        raise SchemaError(f"{location}/visibility", f"unknown visibility {vis_raw!r}") from None
    raw_cells = raw.get("cells", {})
    if not isinstance(raw_cells, dict):
        raise SchemaError(f"{location}/cells", "must be an object")
    merged = raw.get("merged", [])
    if not isinstance(merged, list):
        raise SchemaError(f"{location}/merged", "must be an array of range strings")
    for i, text in enumerate(merged):
        if not isinstance(text, str):
            raise SchemaError(f"{location}/merged/{i}", "range must be a string")
    rows, cols = (raw.get(key, []) for key in ("hidden_rows", "hidden_cols"))
    for key, indices in (("hidden_rows", rows), ("hidden_cols", cols)):
        if not isinstance(indices, list):
            raise SchemaError(f"{location}/{key}", "must be an array of integers")
    cells = _document_cells(raw_cells, f"{location}/cells")
    rows, cols = zip(rows, rows), zip(cols, cols)  # each index a span of one
    try:
        return build_sheet(name, visibility, cells, rows, cols, merged, parse, share)
    except SheetError as exc:
        raise SchemaError(f"{location}/{exc.part}/{exc.item}", str(exc)) from None


def _document_cells(raw_cells: dict, location: str) -> Iterator[tuple[str, object, object]]:
    """Each cell as ``(key, formula, value)``, checked as the interchange allows it."""
    for key, raw_cell in raw_cells.items():
        if not isinstance(raw_cell, dict):
            raise SchemaError(f"{location}/{key}", "cell must be an object")
        if not _CELL_KEYS.issuperset(raw_cell):
            _require_keys(raw_cell, _CELL_KEYS, f"{location}/{key}")
        formula = raw_cell.get("f")
        value = raw_cell.get("v")
        if formula is not None:
            if not isinstance(formula, str):
                raise SchemaError(f"{location}/{key}/f", "formula must be a string")
            if not formula.startswith("="):
                formula = "=" + formula
        if value is not None:
            if not isinstance(value, (int, float, str, bool)):
                raise SchemaError(f"{location}/{key}/v", "value must be a scalar")
            if isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                # json reads NaN, Infinity and 1e999; like an XLSX <v>, a cell holds a finite number
                raise SchemaError(f"{location}/{key}/v", "value must be a finite number")
        yield key, formula, value


def require_regular_file(path: str | Path) -> None:
    """An ``OSError``, "not a regular file", if ``path`` names a FIFO, a device or a socket:
    opening a FIFO waits for a writer, and reading ``/dev/zero`` never ends.  A directory
    passes, so that its open says what it is."""
    mode = os.stat(path).st_mode
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise OSError("not a regular file")


def read_json(path: str | Path) -> object:
    """The JSON document in a UTF-8 file.  ``OSError`` if it cannot be read; a
    ``SchemaError`` at the root location if it is not UTF-8 JSON that can be read."""
    require_regular_file(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError
            raise SchemaError("", f"not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"not valid JSON: {exc}") from None
        except ValueError:
            # int()'s digit limit; a process-wide setting, so it is left as it is
            raise SchemaError("", "JSON with an integer too long to read") from None
        except RecursionError:
            raise SchemaError("", "JSON nested too deeply") from None


@collector_paused
def load_json(path: str | Path) -> Workbook:
    path = Path(path)
    # each raw sheet goes once its cells are built
    return _workbook(read_json(path), str(path), _drained)

