"""Span-preserving lexer for spreadsheet formula text.

Tokens carry exact source substrings with half-open offsets, so the
token stream concatenates back to the original formula character for
character.  Numeric literals are the detection target; digits that are
part of cell references, quoted sheet names, strings, function names,
or named ranges are never emitted as numeric literals.

Two detectors live here: ``extract_constants`` walks the token stream,
and ``heuristic_scan`` is the legacy operator-then-digit character scan
kept for comparison.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .addresses import A1, R1C1


class TokenKind(Enum):
    NUMERIC_LITERAL = auto()
    STRING_LITERAL = auto()
    BOOLEAN_LITERAL = auto()
    ERROR_LITERAL = auto()
    CELL_REF = auto()
    RANGE_REF = auto()
    SHEET_QUALIFIER = auto()
    FUNCTION_NAME = auto()
    IDENTIFIER = auto()
    OPERATOR = auto()
    SEPARATOR = auto()
    OPEN_PAREN = auto()
    CLOSE_PAREN = auto()
    ARRAY_BRACE = auto()
    PERCENT_SUFFIX = auto()
    WHITESPACE = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int
    numeric_value: float | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class LexError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


# Default operator set for the legacy scan.  Comma/semicolon/paren are
# included so argument-position constants (e.g. a trailing IF branch)
# are caught; a narrower set can be passed for strict legacy behaviour.
DEFAULT_OPERATOR_SET = frozenset("=+-*/^&<>(,;")

_WS_RE = re.compile(r"\s+")
_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[Ee][+-]?[0-9]+)?")
_A1_REF_RE = re.compile(r"\$?[A-Za-z]{1,3}\$?[0-9]+")
_R1C1_REF_RE = re.compile(r"[Rr](?:\[-?[0-9]+\]|[0-9]+)?[Cc](?:\[-?[0-9]+\]|[0-9]+)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_WORD_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.$")

_ERROR_LITERALS = (
    "#GETTING_DATA",
    "#DIV/0!",
    "#VALUE!",
    "#SPILL!",
    "#CALC!",
    "#NULL!",
    "#NAME?",
    "#REF!",
    "#NUM!",
    "#N/A",
)

_TWO_CHAR_OPERATORS = ("<=", ">=", "<>")
_OPERATOR_CHARS = set("=+-*/^&<>:")


def tokenize(formula_text: str, ref_style: str = A1) -> list[Token]:
    """Lex a formula body (with or without leading "=") into tokens.

    Raises LexError with the offending offset for unterminated strings
    or characters outside the grammar; callers record such cells as
    unparseable instead of aborting the workbook.
    """
    text = formula_text
    n = len(text)
    tokens: list[Token] = []
    pos = 0

    def emit(kind: TokenKind, end: int, value: float | None = None) -> None:
        nonlocal pos
        tokens.append(Token(kind, text[pos:end], pos, end, value))
        pos = end

    while pos < n:
        ch = text[pos]

        m = _WS_RE.match(text, pos)
        if m:
            emit(TokenKind.WHITESPACE, m.end())
            continue

        if ch == '"':
            end = _scan_string(text, pos)
            emit(TokenKind.STRING_LITERAL, end)
            continue

        if ch == "'":
            end = _scan_quoted_sheet(text, pos)
            emit(TokenKind.SHEET_QUALIFIER, end)
            continue

        if ch == "#":
            for lit in _ERROR_LITERALS:
                if text.startswith(lit, pos):
                    emit(TokenKind.ERROR_LITERAL, pos + len(lit))
                    break
            else:
                raise LexError(f"unknown error literal starting {ch!r}", pos)
            continue

        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            m = _NUMBER_RE.match(text, pos)
            assert m is not None
            emit(TokenKind.NUMERIC_LITERAL, m.end(), float(m.group()))
            continue

        if ch in "{}":
            emit(TokenKind.ARRAY_BRACE, pos + 1)
            continue

        if ch == "(":
            emit(TokenKind.OPEN_PAREN, pos + 1)
            continue
        if ch == ")":
            emit(TokenKind.CLOSE_PAREN, pos + 1)
            continue
        if ch in ",;":
            emit(TokenKind.SEPARATOR, pos + 1)
            continue

        if ch == "%":
            emit(TokenKind.PERCENT_SUFFIX, pos + 1)
            prev = tokens[-2] if len(tokens) >= 2 else None
            if prev is not None and prev.kind is TokenKind.NUMERIC_LITERAL:
                tokens[-2] = prev._replace(numeric_value=prev.numeric_value / 100.0)
            continue

        if text.startswith(_TWO_CHAR_OPERATORS, pos):
            emit(TokenKind.OPERATOR, pos + 2)
            continue
        if ch in _OPERATOR_CHARS:
            emit(TokenKind.OPERATOR, pos + 1)
            continue

        if ch == "$":
            if ref_style == A1:
                ref_end = _match_ref(text, pos, ref_style)
                if ref_end is not None:
                    _emit_ref(emit, text, pos, ref_end, ref_style)
                    continue
            raise LexError("'$' does not start a cell reference", pos)

        if ch.isalpha() or ch == "_":
            ref_end = _match_ref(text, pos, ref_style)
            if ref_end is not None and not _is_call_or_sheet(text, ref_end):
                _emit_ref(emit, text, pos, ref_end, ref_style)
                continue
            m = _WORD_RE.match(text, pos)
            assert m is not None
            word = m.group()
            end = m.end()
            nxt = text[end] if end < n else ""
            if nxt == "(":
                emit(TokenKind.FUNCTION_NAME, end)
            elif nxt == "!":
                emit(TokenKind.SHEET_QUALIFIER, end + 1)
            elif word.upper() in ("TRUE", "FALSE"):
                emit(TokenKind.BOOLEAN_LITERAL, end)
            else:
                emit(TokenKind.IDENTIFIER, end)
            continue

        raise LexError(f"illegal character {ch!r}", pos)

    return tokens


def _scan_string(text: str, start: int) -> int:
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == '"':
            if i + 1 < n and text[i + 1] == '"':
                i += 2
                continue
            return i + 1
        i += 1
    raise LexError("unterminated string literal", start)


def _scan_quoted_sheet(text: str, start: int) -> int:
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == "'":
            if i + 1 < n and text[i + 1] == "'":
                i += 2
                continue
            if i + 1 < n and text[i + 1] == "!":
                return i + 2
            raise LexError("quoted sheet name not followed by '!'", start)
        i += 1
    raise LexError("unterminated quoted sheet name", start)


def _match_ref(text: str, pos: int, ref_style: str) -> int | None:
    """Return the end offset of a cell reference at pos, or None."""
    pattern = _R1C1_REF_RE if ref_style == R1C1 else _A1_REF_RE
    m = pattern.match(text, pos)
    if m is None:
        return None
    end = m.end()
    if end < len(text) and text[end] in _WORD_CHARS:
        return None
    return end


def _is_call_or_sheet(text: str, end: int) -> bool:
    return end < len(text) and text[end] in "(!"


def _emit_ref(emit, text: str, start: int, end: int, ref_style: str) -> None:
    # a colon joining two references makes a single range token
    if end < len(text) and text[end] == ":":
        second = _match_ref(text, end + 1, ref_style)
        if second is not None:
            emit(TokenKind.RANGE_REF, second)
            return
    emit(TokenKind.CELL_REF, end)


def extract_constants(tokens: list[Token]) -> list[tuple[float, tuple[int, int]]]:
    """Numeric-literal occurrences in source order, duplicates kept."""
    return [
        (tok.numeric_value, tok.span)
        for tok in tokens
        if tok.kind is TokenKind.NUMERIC_LITERAL
    ]


def render(tokens: list[Token]) -> str:
    """Reassemble the exact original formula text."""
    return "".join(tok.text for tok in tokens)


def heuristic_scan(
    formula_text: str, operator_set: frozenset[str] = DEFAULT_OPERATOR_SET
) -> list[int]:
    """Legacy character scan: offsets of digits immediately preceded by
    an operator-set character, ignoring digits inside string literals."""
    flagged: list[int] = []
    in_string = False
    prev = ""
    for i, ch in enumerate(formula_text):
        if ch == '"':
            in_string = not in_string
        elif not in_string and ch.isdigit() and prev in operator_set:
            flagged.append(i)
        prev = ch
    return flagged
