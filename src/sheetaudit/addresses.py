"""Cell addresses in A1 and R1C1 notation."""

from __future__ import annotations

import functools
import re
from typing import Callable, NamedTuple

A1 = "A1"
R1C1 = "R1C1"

# both notations, R1C1 first; an index has at most 7 digits (1,048,576),
# so a longer run never reaches int(), and re.ASCII keeps \d to 0-9
_ADDRESS_RE = re.compile(
    r"(?:[Rr](\d{1,7})[Cc](\d{1,7})|(\$?)([A-Za-z]{1,3})(\$?)(\d{1,7}))\Z", re.ASCII
)

# sheet size limits of the format (column XFD, row 1,048,576)
MAX_COLUMNS = 16_384
MAX_ROWS = 1_048_576


class AddressError(ValueError):
    """Raised when an address string cannot be parsed."""


@functools.cache
def column_to_letters(column: int) -> str:
    """Letters of a column index, memoized on use: checked columns are at most 16,384."""
    if column < 1:
        raise ValueError(f"column must be >= 1, got {column}")
    letters = ""
    n = column
    while n > 0:
        n, rem = divmod(n - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


@functools.cache
def _letters_to_column(letters: str) -> int:
    """Column index of 1 to 3 upper-case letters, so at most 18,278 keys."""
    n = 0
    for ch in letters:
        n = n * 26 + ord(ch) - ord("A") + 1
    return n


class _AddressFields(NamedTuple):
    row: int
    column: int
    col_absolute: bool = False
    row_absolute: bool = False
    style: str = A1


class CellAddress(_AddressFields):
    """Ordered and hashed as its field tuple; ``_replace``/``_make`` skip ``__new__``'s checks."""

    __slots__ = ()

    def __new__(cls, row, column, col_absolute=False, row_absolute=False, style=A1):
        if not (1 <= row <= MAX_ROWS and 1 <= column <= MAX_COLUMNS):
            raise AddressError(
                f"row must be from 1 to {MAX_ROWS} and column from 1 to {MAX_COLUMNS},"
                f" got row={row} column={column}"
            )
        if style not in (A1, R1C1):
            raise AddressError(f"unknown reference style {style!r}")
        return tuple.__new__(cls, (row, column, col_absolute, row_absolute, style))

    def render(self) -> str:
        if self.style == R1C1:
            return f"R{self.row}C{self.column}"
        return "{}{}{}{}".format(
            "$" if self.col_absolute else "",
            column_to_letters(self.column),
            "$" if self.row_absolute else "",
            self.row,
        )

    def absolute(self) -> "CellAddress":
        if self.style == R1C1 or (self.col_absolute and self.row_absolute):
            return self
        # already checked when self was built
        return tuple.__new__(CellAddress, (self.row, self.column, True, True, self.style))


def parse_address(text: str) -> CellAddress:
    """Parse a bare A1 or absolute R1C1 address (no sheet prefix)."""
    m = _ADDRESS_RE.match(text)
    if m is None:
        raise AddressError(f"cannot parse cell address {text!r}")
    r1c1_row, r1c1_column, col_dollar, letters, row_dollar, row = m.groups()
    if r1c1_row is not None:
        return CellAddress(int(r1c1_row), int(r1c1_column), False, False, R1C1)
    column = _letters_to_column(letters.upper())
    return CellAddress(int(row), column, col_dollar == "$", row_dollar == "$")


AddressMemo = Callable[[str], tuple[CellAddress, tuple[int, int]]]


def address_memo() -> AddressMemo:
    """Parses each cell key once, to an address and a ``(row, column)`` for sheets to share."""
    return functools.cache(lambda text: (address := parse_address(text), address[:2]))
