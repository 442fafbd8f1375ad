"""Span-preserving lexer for spreadsheet formula text.

Tokens carry exact source substrings with half-open offsets, so the
token stream concatenates back to the original formula character for
character.  Numeric literals are the detection target; digits that are
part of cell references, quoted sheet names, strings, function names,
or named ranges are never emitted as numeric literals.

Two detectors live here: ``extract_constants`` walks the token stream,
and ``heuristic_scan`` is the legacy operator-then-digit character scan
kept for comparison.  Both return ``ConstantOccurrence`` lists.
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


class ConstantOccurrence(NamedTuple):
    value: float
    start: int
    end: int


class LexError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


# Default operator set for the legacy scan.  Comma/semicolon/paren are
# included so argument-position constants (e.g. a trailing IF branch)
# are caught; a narrower set can be passed for strict legacy behaviour.
DEFAULT_OPERATOR_SET = frozenset("=+-*/^&<>(,;")
# the number the legacy scan reads from a flagged digit: no exponent, no leading "."
_HEURISTIC_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")

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

_REF_PATTERNS = {
    A1: r"[A-Za-z]{1,3}\$?[0-9]+",
    R1C1: r"[Rr](?:\[-?[0-9]+\]|[0-9]+)?[Cc](?:\[-?[0-9]+\]|[0-9]+)?",
}
_WORD = r"[A-Za-z_][A-Za-z0-9_.]*"
# a reference ends where none of these follows it
_REF_END = r"(?![A-Za-z0-9_.$])"


# Fault rules, each with its LexError message.  They follow every token rule,
# so one matches only where no token does.  The last matches any character:
# every position then matches some rule, and finditer never searches ahead
# past a fault.
_FAULT_RULES = (
    ("open_string", '"', "unterminated string literal"),
    ("bad_error", "#", "unknown error literal starting '#'"),
    ("bad_dollar", r"\$", "'$' does not start a cell reference"),
    ("unqualified_sheet", r"'(?=(?:[^']|'')*'(?!'))", "quoted sheet name not followed by '!'"),
    ("open_sheet", "'", "unterminated quoted sheet name"),
    ("illegal", r"[\s\S]", None),  # its message quotes the character
)
_FAULTS = {name: message for name, _, message in _FAULT_RULES}


def _grammar(ref_style: str) -> re.Pattern:
    """One rule per token kind, then the fault rules, tried in table order
    at each position.

    Each rule is a named group, so a match's ``lastgroup`` names its kind
    or its fault.
    """
    ref = _REF_PATTERNS[ref_style]

    def whole_ref(name: str) -> str:
        # The longest reference only, as an atomic group would take it:
        # the lookahead captures the match and the backreference consumes
        # exactly that, so backtracking cannot retry a shorter reference
        # (R[1]C of R[1]C[-2]R) in front of the end check.
        return f"(?=(?P<{name}>{ref}))(?P={name})"

    lead = r"\$?" if ref_style == A1 else ""
    # an unqualified reference followed by "(" or "!" is a function or sheet name
    cell = whole_ref("cell") + r"(?![A-Za-z0-9_.$(!])"
    if ref_style == A1:
        # a "$"-led reference skips that check
        cell = rf"\${whole_ref('dollar')}{_REF_END}|{cell}"
    rules = [
        (TokenKind.WHITESPACE, r"\s+"),
        # (?!") keeps backtracking from closing on the first half of a "" escape
        (TokenKind.STRING_LITERAL, r'"(?:[^"]|"")*"(?!")'),
        (TokenKind.ERROR_LITERAL, "|".join(map(re.escape, _ERROR_LITERALS))),
        (TokenKind.NUMERIC_LITERAL, r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[Ee][+-]?[0-9]+)?"),
        (TokenKind.ARRAY_BRACE, r"[{}]"),
        (TokenKind.OPEN_PAREN, r"\("),
        (TokenKind.CLOSE_PAREN, r"\)"),
        (TokenKind.SEPARATOR, r"[,;]"),
        (TokenKind.PERCENT_SUFFIX, r"%"),
        (TokenKind.OPERATOR, r"<=|>=|<>|[=+\-*/^&<>:]"),
        (TokenKind.RANGE_REF, f"{lead}{whole_ref('first')}:{lead}{whole_ref('last')}{_REF_END}"),
        (TokenKind.CELL_REF, cell),
        (TokenKind.SHEET_QUALIFIER, rf"'(?:[^']|'')*'!|{_WORD}!"),
        (TokenKind.FUNCTION_NAME, rf"{_WORD}(?=\()"),
        (TokenKind.BOOLEAN_LITERAL, r"(?ai:TRUE|FALSE)(?![A-Za-z0-9_.])"),
        (TokenKind.IDENTIFIER, _WORD),
    ]
    tokens = "|".join(f"(?P<{kind.name}>{pattern})" for kind, pattern in rules)
    faults = "|".join(f"(?P<{name}>{pattern})" for name, pattern, _ in _FAULT_RULES)
    return re.compile(f"{tokens}|{faults}")


_GRAMMARS = {style: _grammar(style) for style in (A1, R1C1)}
_KINDS = TokenKind.__members__


def tokenize(formula_text: str, ref_style: str = A1) -> list[Token]:
    """Lex a formula body (with or without leading "=") into tokens.

    Raises LexError with the offending offset for unterminated strings
    or characters outside the grammar; callers record such cells as
    unparseable instead of aborting the workbook.
    """
    text = formula_text
    tokens: list[Token] = []
    divided = None  # index of the literal the last "%" divided, or None
    for m in _GRAMMARS[R1C1 if ref_style == R1C1 else A1].finditer(text):
        kind = _KINDS.get(m.lastgroup)
        if kind is None:
            raise LexError(_FAULTS[m.lastgroup] or f"illegal character {m.group()!r}", m.start())
        start, end = m.span()
        value = None
        if kind is TokenKind.NUMERIC_LITERAL:
            value = float(m.group())
        elif kind is TokenKind.PERCENT_SUFFIX:
            # "%" is a postfix operator that repeats: each one in a run after
            # a literal divides it by 100 again, so 50%% is 0.005
            last = tokens[-1].kind if tokens else None
            if last is not TokenKind.PERCENT_SUFFIX:
                divided = len(tokens) - 1 if last is TokenKind.NUMERIC_LITERAL else None
            if divided is not None:
                literal = tokens[divided]
                tokens[divided] = literal._replace(numeric_value=literal.numeric_value / 100.0)
        # Token has no checks in __new__ to skip, so the tuple is built directly
        tokens.append(tuple.__new__(Token, (kind, text[start:end], start, end, value)))
    return tokens


def extract_constants(tokens: list[Token]) -> list[ConstantOccurrence]:
    """Numeric-literal occurrences in source order, duplicates kept."""
    new, literal = tuple.__new__, TokenKind.NUMERIC_LITERAL
    return [
        new(ConstantOccurrence, (tok.numeric_value, tok.start, tok.end))
        for tok in tokens
        if tok.kind is literal
    ]


def render(tokens: list[Token]) -> str:
    """Reassemble the exact original formula text."""
    return "".join(tok.text for tok in tokens)


def heuristic_scan(
    formula_text: str, operator_set: frozenset[str] = DEFAULT_OPERATOR_SET
) -> list[ConstantOccurrence]:
    """Legacy character scan: the number at each digit immediately preceded
    by an operator-set character, ignoring digits inside string literals."""
    flagged: list[ConstantOccurrence] = []
    in_string = False
    prev = ""
    for i, ch in enumerate(formula_text):
        if ch == '"':
            in_string = not in_string
        elif not in_string and "0" <= ch <= "9" and prev in operator_set:
            m = _HEURISTIC_NUMBER_RE.match(formula_text, i)
            flagged.append(ConstantOccurrence(float(m.group()), i, m.end()))
        prev = ch
    return flagged
