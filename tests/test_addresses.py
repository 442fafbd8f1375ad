"""The A1/R1C1 address codec and the address type it builds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheetaudit.addresses import (
    A1,
    MAX_COLUMNS,
    MAX_ROWS,
    R1C1,
    AddressError,
    CellAddress,
    parse_address,
)
from sheetaudit.model import SchemaError, workbook_from_document

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def reference_column(letters):
    """Bijective base 26: A=1 ... Z=26, AA=27."""
    return sum((ord(ch) - ord("A") + 1) * 26**i for i, ch in enumerate(reversed(letters.upper())))


def field_key(address):
    return (address.row, address.column, address.col_absolute, address.row_absolute, address.style)


a1_addresses = st.builds(
    CellAddress,
    st.integers(1, MAX_ROWS),
    st.integers(1, MAX_COLUMNS),
    st.booleans(),
    st.booleans(),
    st.just(A1),
)


@given(a1_addresses, st.booleans())
def test_a1_render_parse_round_trip(address, lower):
    text = address.render()
    assert parse_address(text.lower() if lower else text) == address


@given(st.integers(1, MAX_ROWS), st.integers(1, MAX_COLUMNS))
def test_r1c1_render_parse_round_trip(row, column):
    address = CellAddress(row, column, style=R1C1)
    assert parse_address(address.render()) == address
    assert parse_address(address.render().lower()) == address


@given(st.text(alphabet=LETTERS, min_size=1, max_size=3), st.integers(1, MAX_ROWS))
def test_column_is_plain_base_26(letters, row):
    expected = reference_column(letters)
    if expected > MAX_COLUMNS:
        with pytest.raises(AddressError):
            parse_address(f"{letters}{row}")
    else:
        assert parse_address(f"{letters}{row}").column == expected


small_addresses = st.builds(
    CellAddress,
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.sampled_from([A1, R1C1]),
)


@given(st.lists(small_addresses, max_size=20))
def test_order_and_hash_follow_the_fields(addresses):
    assert sorted(addresses) == sorted(addresses, key=field_key)
    for address in addresses:
        assert hash(address) == hash(field_key(address))


@given(a1_addresses)
def test_absolute_sets_both_flags(address):
    assert address.absolute() == CellAddress(address.row, address.column, True, True)
    assert type(address.absolute()) is CellAddress


@pytest.mark.parametrize(
    "text",
    [
        "XFE1",
        "A1048577",
        "R1C16385",
        "R1048577C1",
        "ZZZ1",
        "A" + "9" * 5000,
        "A0",
        "R0C1",
        "A1\n",
        "A١",  # ARABIC-INDIC DIGIT ONE
        "1A",
        "$$A1",
        "",
    ],
)
def test_bad_address_raises(text):
    with pytest.raises(AddressError):
        parse_address(text)


@pytest.mark.parametrize(
    "fields",
    [(0, 1), (1, 0), (MAX_ROWS + 1, 1), (1, MAX_COLUMNS + 1), (1, 1, False, False, "A2")],
)
def test_constructor_checks_limits_and_style(fields):
    with pytest.raises(AddressError):
        CellAddress(*fields)


def test_last_cell_of_the_sheet_parses():
    assert parse_address("XFD1048576") == CellAddress(MAX_ROWS, MAX_COLUMNS)


def test_key_on_two_sheets_loads_equal_addresses():
    doc = {
        "name": "w",
        "sheets": [
            {"name": "a", "cells": {"$B$7": {"v": 1}}},
            {"name": "b", "cells": {"$B$7": {"f": "=A1*2"}}},
        ],
    }
    first, second = (cell.address for s in workbook_from_document(doc).sheets
                     for cell in s.cells.values())
    assert first == second == CellAddress(7, 2, True, True)


def test_key_spelling_a_cell_twice_names_both_keys():
    doc = {"name": "w", "sheets": [{"name": "S", "cells": {
        "A1": {"f": "=B1*12"}, "a1": {"v": 5}, "R1C1": {"v": 7}}}]}
    with pytest.raises(SchemaError) as info:
        workbook_from_document(doc)
    assert info.value.location == "/sheets/0/cells/a1"
    assert "'A1'" in str(info.value) and "'a1'" in str(info.value)
