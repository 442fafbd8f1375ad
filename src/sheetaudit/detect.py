"""Hard-coding detection over a workbook's used ranges.

Classifies every populated cell: formulas containing numeric literals
become hard-coding findings, formulas that are nothing but a literal
become constant-only findings, and non-formula numeric entries are
split into expected inputs (inside a declared data region) and direct
entries (outside all of them).  Hidden and very-hidden sheets are
analyzed like any other; hiding is exactly where hard codings evade
manual review.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fnmatch import fnmatchcase
from typing import NamedTuple

from .addresses import CellAddress
from .lexer import (
    DEFAULT_OPERATOR_SET,
    ConstantOccurrence,
    LexError,
    TokenKind,
    extract_constants,
    heuristic_scan,
    tokenize,
)
from .model import (
    AuditWarning,
    Rectangle,
    Scalar,
    Workbook,
    audit_metadata,
    collector_paused,
    parse_range,
)


class DetectionMode(Enum):
    LEXICAL = "lexical"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DataRegion:
    """Declared input area: sheet-name glob plus optional rectangle.

    An omitted rectangle means the whole sheet.
    """

    sheet_pattern: str
    rect: Rectangle | None = None

    def contains(self, sheet_name: str, row: int, column: int) -> bool:
        if not fnmatchcase(sheet_name, self.sheet_pattern):
            return False
        return self.rect is None or self.rect.contains(row, column)


# Readers of config document values, one per DetectionConfig field;
# each raises ValueError for a value of the wrong type or shape.
def _read_numbers(value: object) -> frozenset[float]:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ValueError("must be a list of numbers")
    try:
        return frozenset(float(v) for v in value)
    except OverflowError:
        raise ValueError("holds a number too large for a float") from None


def _read_regions(value: object) -> tuple[DataRegion, ...]:
    if not isinstance(value, list):
        raise ValueError("must be a list")
    regions = []
    for entry in value:
        if not (isinstance(entry, dict) and isinstance(entry.get("sheet"), str) and entry["sheet"]):
            raise ValueError("entries need a non-empty string 'sheet' key")
        unknown = sorted(entry.keys() - {"sheet", "range"})
        if unknown:
            raise ValueError(f"unknown entry key {unknown[0]!r}")
        rng = entry.get("range")
        if rng is not None and not isinstance(rng, str):
            raise ValueError("'range' must be a string")
        regions.append(DataRegion(entry["sheet"], None if rng is None else parse_range(rng)))
    return tuple(regions)


def _read_operators(value: object) -> frozenset[str]:
    if not isinstance(value, str) or not value:
        raise ValueError("must be a non-empty string of operator characters")
    return frozenset(value)


def _read_count(value: object) -> int | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError("must be an integer")
    return value


@dataclass(frozen=True)
class DetectionConfig:
    """Detection settings.

    The field names are the config document's keys, and each field's
    ``read`` metadata checks a document value and converts it.
    """

    ignore_constants: frozenset[float] = field(
        default=frozenset(), metadata={"read": _read_numbers}
    )
    data_regions: tuple[DataRegion, ...] = field(default=(), metadata={"read": _read_regions})
    mode: DetectionMode = field(default=DetectionMode.LEXICAL, metadata={"read": DetectionMode})
    heuristic_operators: frozenset[str] = field(
        default=DEFAULT_OPERATOR_SET, metadata={"read": _read_operators}
    )
    max_constants_per_cell: int | None = field(default=None, metadata={"read": _read_count})

    def __post_init__(self) -> None:
        for value in self.ignore_constants:
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError("ignore_constants must contain finite numbers")
        if self.max_constants_per_cell is not None and self.max_constants_per_cell < 1:
            raise ValueError("max_constants_per_cell must be positive")


class FindingKind(Enum):
    HARD_CODED_CONSTANT = "hard_coded_constant"
    CONSTANT_ONLY_FORMULA = "constant_only_formula"
    DIRECT_NUMERIC_ENTRY = "direct_numeric_entry"
    EXPECTED_INPUT_VALUE = "expected_input_value"
    UNPARSEABLE = "unparseable"

    # Enum's own hash is a Python-level call, made once per finding by the
    # renderer's and the histogram's lookups; members are singletons, so
    # the identity hash agrees with equality
    __hash__ = object.__hash__


CONSTANT_BEARING_KINDS = frozenset(
    {FindingKind.HARD_CODED_CONSTANT, FindingKind.CONSTANT_ONLY_FORMULA}
)


class Finding(NamedTuple):
    kind: FindingKind
    sheet: str
    address: CellAddress
    formula_text: str | None = None
    cached_value: Scalar | None = None
    constants: tuple[ConstantOccurrence, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class AnalysisReport:
    workbook_name: str
    workbook_location: str
    worksheet_count: int
    formula_count: int
    hard_coding_count: int
    numeric_value_count: int
    findings: tuple[Finding, ...] = ()
    warnings: tuple[AuditWarning, ...] = ()
    error: str | None = None  # why the workbook could not be loaded; its counts are then 0


# constant-only shape in heuristic mode, where no token stream exists
_BARE_NUMBER_RE = re.compile(
    r"^=?\s*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[Ee][+-]?[0-9]+)?\s*$"
)
# a formula holding one of these is a calculation, not a bare literal
_STRUCTURAL_KINDS = frozenset(
    {TokenKind.CELL_REF, TokenKind.RANGE_REF, TokenKind.FUNCTION_NAME}
)


# (finding kind or None, surviving constants, detail) for one formula text
Classification = tuple[FindingKind | None, tuple[ConstantOccurrence, ...], str]


def _classify_text(formula: str, config: DetectionConfig, ref_style: str) -> Classification:
    """Classify one formula text, independent of the cell that holds it.

    The result depends only on the arguments, so every cell holding the
    same text under the same config and ref style shares it.
    """
    if config.mode is DetectionMode.LEXICAL:
        try:
            tokens = tokenize(formula, ref_style)
        except LexError as exc:
            return FindingKind.UNPARSEABLE, (), str(exc)
        occurrences = extract_constants(tokens)
        constant_only = len(occurrences) == 1 and not any(
            tok.kind in _STRUCTURAL_KINDS for tok in tokens
        )
    else:
        occurrences = heuristic_scan(formula, config.heuristic_operators)
        constant_only = bool(occurrences) and _BARE_NUMBER_RE.match(formula) is not None

    surviving = [o for o in occurrences if o.value not in config.ignore_constants]
    cap = config.max_constants_per_cell
    if cap is not None:
        surviving = surviving[:cap]
    if not surviving:
        return None, (), ""
    kind = (
        FindingKind.CONSTANT_ONLY_FORMULA if constant_only else FindingKind.HARD_CODED_CONSTANT
    )
    return kind, tuple(surviving), ""


@collector_paused
def analyze_workbook(workbook: Workbook, config: DetectionConfig) -> AnalysisReport:
    """Analyze every populated cell, classifying each distinct formula text once.

    Copied-down formulas repeat the same text across rows and sheets;
    the classification of a text is computed on its first cell and
    reused for the rest of this call, where config and ref style are
    fixed.  Likewise each source address object (the loaders share one
    per cell key) gets one absolute address, memoized on its ``id``:
    the workbook keeps every source address alive for the call, so no
    id is reused.
    """
    findings: list[Finding] = []
    formula_count = hard_coding_count = numeric_value_count = 0
    classified: dict[str, Classification] = {}
    absolutes: dict[int, CellAddress] = {}
    ref_style, regions, new = workbook.ref_style, config.data_regions, tuple.__new__
    for sheet in workbook.sheets:
        name, cells = sheet.name, sheet.cells
        # the cell rule, inline: the only Python-level calls are one classification per
        # distinct text, one absolute() per address object and numeric entries' region checks
        for _, (address, formula, value) in sorted(cells.items()):
            if formula is not None:
                formula_count += 1
                result = classified.get(formula)
                if result is None:
                    result = classified[formula] = _classify_text(formula, config, ref_style)
                kind, constants, detail = result
                if kind is None:
                    continue
                hard_coding_count += len(constants)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            else:
                numeric_value_count += 1
                row, column = address.row, address.column
                if any(r.contains(name, row, column) for r in regions):
                    kind = FindingKind.EXPECTED_INPUT_VALUE
                else:
                    kind = FindingKind.DIRECT_NUMERIC_ENTRY
                constants, detail = (), ""
            absolute = absolutes.get(id(address))
            if absolute is None:
                absolute = absolutes[id(address)] = address.absolute()
            findings.append(new(Finding, (kind, name, absolute, formula, value, constants, detail)))
    return AnalysisReport(
        workbook_name=workbook.name,
        workbook_location=workbook.source_path,
        worksheet_count=len(workbook.sheets),
        formula_count=formula_count,
        hard_coding_count=hard_coding_count,
        numeric_value_count=numeric_value_count,
        findings=tuple(findings),
        warnings=tuple(audit_metadata(workbook)),
    )


def constant_histogram(reports: list[AnalysisReport]) -> list[tuple[float, int]]:
    """Occurrence counts of every detected constant, ascending by value.

    Values compare numerically, so 0.01 and .01 aggregate together.
    """
    counts: dict[float, int] = {}
    for report in reports:
        for finding in report.findings:
            if finding.kind not in CONSTANT_BEARING_KINDS:
                continue
            for occurrence in finding.constants:
                key = float(occurrence.value)
                counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())
