"""No input costs more than linear time.

Each test times an adversarial input against a benign input of the same
size, best of three, and allows the adversarial one at most 5x.  A ratio of
one size against eight times that size would not do: allocation effects
alone put this linear lexer at 10-32x on quote forms there.
"""

import time
from pathlib import Path

import pytest

from sheetaudit.addresses import MAX_COLUMNS
from sheetaudit.cli import _report_stems
from sheetaudit.lexer import LexError, tokenize
from sheetaudit.xlsx import load_xlsx
from xlsx_builder import build_xlsx

BOUND = 5.0


def best_of_3(run, arg) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def cost_ratio(run, adversarial, benign) -> float:
    return best_of_3(run, adversarial) / best_of_3(run, benign)


def lex(text: str) -> None:
    try:
        tokenize(text)
    except LexError:
        pass


# Excel's cap on formula length
LENGTH = 8_192


def padded(head: str, unit: str, tail: str = "") -> str:
    return head + unit * ((LENGTH - len(head) - len(tail)) // len(unit)) + tail


# One row per form whose rule could search far ahead and fail; a new rule adds its row.
@pytest.mark.parametrize(
    "formula",
    [
        pytest.param(padded("='", "''"), id="quote-pairs"),
        pytest.param(padded("='", "a"), id="open-quote"),
        pytest.param(padded('="', "a"), id="open-string"),
        pytest.param(padded("=", "a"), id="long-word"),
        pytest.param(padded("=", "A1+", "~"), id="references-then-bad-character"),
        pytest.param(padded("=1", "%"), id="percent-run"),
    ],
)
def test_lexing_costs_no_more_than_a_valid_formula_of_its_length(formula):
    benign = padded("=A1", "+A1")
    assert abs(len(formula) - len(benign)) <= 3
    assert cost_ratio(lex, formula, benign) <= BOUND


def test_report_names_for_inputs_sharing_one_name_cost_no_more_than_distinct_names():
    n = 2_000
    shared = [Path(f"submission{i}/model.xlsx") for i in range(n)]
    distinct = [Path(f"submission{i}/model{i}.xlsx") for i in range(n)]
    assert cost_ratio(_report_stems, shared, distinct) <= BOUND


def test_whole_width_hidden_columns_load_as_fast_as_one_column_each(tmp_path):
    n = 2_000
    whole = f'<col min="1" max="{MAX_COLUMNS}" hidden="1"/>' * n
    single = "".join(f'<col min="{i}" max="{i}" hidden="1"/>' for i in range(1, n + 1))
    paths = [
        build_xlsx(tmp_path / f"{name}.xlsx", [{"name": "S", "cols": f"<cols>{cols}</cols>"}])
        for name, cols in (("whole", whole), ("single", single))
    ]
    assert cost_ratio(load_xlsx, *paths) <= BOUND
