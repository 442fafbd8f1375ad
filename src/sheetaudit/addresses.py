"""Cell addresses in A1 and R1C1 notation."""

from __future__ import annotations

import re
from dataclasses import dataclass

A1 = "A1"
R1C1 = "R1C1"

# a row or column index has at most 7 digits (1,048,576); a longer run never reaches int()
_A1_RE = re.compile(r"^(\$?)([A-Za-z]{1,3})(\$?)([0-9]{1,7})$")
_R1C1_RE = re.compile(r"^[Rr]([0-9]{1,7})[Cc]([0-9]{1,7})$")

# sheet size limits of the format (column XFD, row 1,048,576)
MAX_COLUMNS = 16_384
MAX_ROWS = 1_048_576


class AddressError(ValueError):
    """Raised when an address string cannot be parsed."""


def column_to_letters(column: int) -> str:
    if column < 1:
        raise ValueError(f"column must be >= 1, got {column}")
    letters = ""
    n = column
    while n > 0:
        n, rem = divmod(n - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def letters_to_column(letters: str) -> int:
    n = 0
    for ch in letters:
        if not ch.isalpha():
            raise ValueError(f"bad column letters {letters!r}")
        n = n * 26 + (ord(ch.upper()) - ord("A") + 1)
    return n


@dataclass(frozen=True, order=True)
class CellAddress:
    row: int
    column: int
    col_absolute: bool = False
    row_absolute: bool = False
    style: str = A1

    def __post_init__(self) -> None:
        if not (1 <= self.row <= MAX_ROWS and 1 <= self.column <= MAX_COLUMNS):
            raise AddressError(
                f"row must be from 1 to {MAX_ROWS} and column from 1 to {MAX_COLUMNS},"
                f" got row={self.row} column={self.column}"
            )
        if self.style not in (A1, R1C1):
            raise AddressError(f"unknown reference style {self.style!r}")

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
        if self.style == R1C1:
            return self
        if self.col_absolute and self.row_absolute:
            return self
        return CellAddress(
            row=self.row,
            column=self.column,
            col_absolute=True,
            row_absolute=True,
            style=self.style,
        )

    def coords(self) -> tuple[int, int]:
        return (self.row, self.column)


def parse_address(text: str) -> CellAddress:
    """Parse a bare A1 or absolute R1C1 address (no sheet prefix)."""
    m = _R1C1_RE.match(text)
    if m:
        return CellAddress(row=int(m.group(1)), column=int(m.group(2)), style=R1C1)
    m = _A1_RE.match(text)
    if m:
        return CellAddress(
            row=int(m.group(4)),
            column=letters_to_column(m.group(2)),
            col_absolute=m.group(1) == "$",
            row_absolute=m.group(3) == "$",
        )
    raise AddressError(f"cannot parse cell address {text!r}")
