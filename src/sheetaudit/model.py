"""Immutable in-memory workbook model and JSON interchange format."""

from __future__ import annotations

import json
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


class SchemaError(ValueError):
    """Interchange document violates the schema; message carries a
    JSON-pointer-style location of the first violation."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
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
    except (AddressError, ValueError) as exc:
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

    cells: dict[tuple[int, int], Cell] = {}
    new = tuple.__new__
    raw_cells = raw.get("cells", {})
    if not isinstance(raw_cells, dict):
        raise SchemaError(f"{location}/cells", "must be an object")
    for key, raw_cell in raw_cells.items():
        try:
            address, coords = parse(key)
        except AddressError as exc:
            raise SchemaError(f"{location}/cells/{key}", str(exc)) from None
        if not isinstance(raw_cell, dict):
            raise SchemaError(f"{location}/cells/{key}", "cell must be an object")
        if not _CELL_KEYS.issuperset(raw_cell):
            _require_keys(raw_cell, _CELL_KEYS, f"{location}/cells/{key}")
        formula = raw_cell.get("f")
        value = raw_cell.get("v")
        if formula is not None:
            if not isinstance(formula, str):
                raise SchemaError(f"{location}/cells/{key}/f", "formula must be a string")
            if not formula.startswith("="):
                formula = "=" + formula
            formula = share(formula, formula)
        if value is not None:
            if not isinstance(value, (int, float, str, bool)):
                raise SchemaError(f"{location}/cells/{key}/v", "value must be a scalar")
            if isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                # json reads NaN, Infinity and 1e999; like an XLSX <v>, a cell holds a finite number
                raise SchemaError(f"{location}/cells/{key}/v", "value must be a finite number")
        if coords in cells:
            # the keys before this one all parsed; the first with these coords filled them
            first = next(k for k in raw_cells if parse(k)[1] == coords)
            raise SchemaError(
                f"{location}/cells/{key}", f"keys {first!r} and {key!r} name the same cell"
            )
        if formula is None and value is None:
            raise SchemaError(
                f"{location}/cells/{key}", f"cell {address.render()} has neither formula nor value"
            )
        # checked above as Cell.__new__ would, so no Python-level call per cell
        cells[coords] = new(Cell, (address, formula, value))

    raw_merged = raw.get("merged", [])
    if not isinstance(raw_merged, list):
        raise SchemaError(f"{location}/merged", "must be an array of range strings")
    merged: list[Rectangle] = []
    for i, ref in enumerate(raw_merged):
        if not isinstance(ref, str):
            raise SchemaError(f"{location}/merged/{i}", "range must be a string")
        try:
            merged.append(parse_range(ref))
        except ValueError as exc:
            raise SchemaError(f"{location}/merged/{i}", str(exc)) from None

    hidden_rows = _index_set(raw.get("hidden_rows", []), f"{location}/hidden_rows", MAX_ROWS)
    hidden_cols = _index_set(raw.get("hidden_cols", []), f"{location}/hidden_cols", MAX_COLUMNS)
    return Sheet(
        name=name,
        visibility=visibility,
        cells=cells,
        merged_regions=tuple(merged),
        hidden_rows=hidden_rows,
        hidden_cols=hidden_cols,
    )


def _index_set(raw: object, location: str, limit: int) -> frozenset[int]:
    if not isinstance(raw, list):
        raise SchemaError(location, "must be an array of integers")
    out = set()
    for i, item in enumerate(raw):
        if not isinstance(item, int) or isinstance(item, bool) or not 1 <= item <= limit:
            raise SchemaError(f"{location}/{i}", f"indices must be integers from 1 to {limit}")
        out.add(item)
    return frozenset(out)


def load_json(path: str | Path) -> Workbook:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError("", "JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise SchemaError("", f"not UTF-8 text: {exc}") from None
    return _workbook(doc, str(path), _drained)  # each raw sheet goes once its cells are built

