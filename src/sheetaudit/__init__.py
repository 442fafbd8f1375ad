"""Spreadsheet hard-coding audit: lexer, workbook model, detection, reports."""

from .addresses import A1, R1C1, CellAddress, parse_address
from .detect import (
    AnalysisReport,
    ConstantOccurrence,
    DataRegion,
    DetectionConfig,
    DetectionMode,
    Finding,
    FindingKind,
    analyze_workbook,
    constant_histogram,
)
from .lexer import (
    DEFAULT_OPERATOR_SET,
    LexError,
    Token,
    TokenKind,
    extract_constants,
    heuristic_scan,
    render,
    tokenize,
)
from .model import (
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
from .report import (
    EmptyBatch,
    Format,
    RenderedDocument,
    render_batch_summary,
    render_detail,
    render_histogram,
    report_to_document,
)
from .xlsx import FormatError, load_xlsx

__version__ = "0.1.0"
