import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from formula_gen import FULL_A1, FULL_R1C1, ORACLE_A1, ORACLE_R1C1, FormulaGen
from oracle import digit_run_constants
import sheetaudit
from sheetaudit import detect
from sheetaudit.addresses import CellAddress, parse_address
from sheetaudit.lexer import (
    DEFAULT_OPERATOR_SET,
    ConstantOccurrence,
    LexError,
    Token,
    TokenKind,
    extract_constants,
    heuristic_scan,
    render,
    tokenize,
)


def kinds(formula, ref_style="A1"):
    return [t.kind for t in tokenize(formula, ref_style)]


def texts_of(formula, kind, ref_style="A1"):
    return [t.text for t in tokenize(formula, ref_style) if t.kind is kind]


class TestTokenize:
    def test_paper_formula_with_sheet_qualifier(self):
        tokens = tokenize("=I7*(1-Data!$C$24)")
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.OPERATOR, "="),
            (TokenKind.CELL_REF, "I7"),
            (TokenKind.OPERATOR, "*"),
            (TokenKind.OPEN_PAREN, "("),
            (TokenKind.NUMERIC_LITERAL, "1"),
            (TokenKind.OPERATOR, "-"),
            (TokenKind.SHEET_QUALIFIER, "Data!"),
            (TokenKind.CELL_REF, "$C$24"),
            (TokenKind.CLOSE_PAREN, ")"),
        ]

    def test_reference_only_formula_has_no_literals(self):
        tokens = tokenize("=B22+C3")
        assert [t.kind for t in tokens] == [
            TokenKind.OPERATOR,
            TokenKind.CELL_REF,
            TokenKind.OPERATOR,
            TokenKind.CELL_REF,
        ]

    def test_quote_state_suppresses_digit_recognition(self):
        # hand-traced character walk: every digit sits between quotes
        tokens = tokenize('="Q4 2007"&A1')
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.OPERATOR, "="),
            (TokenKind.STRING_LITERAL, '"Q4 2007"'),
            (TokenKind.OPERATOR, "&"),
            (TokenKind.CELL_REF, "A1"),
        ]
        assert extract_constants(tokens) == []

    def test_scientific_notation_is_one_literal(self):
        tokens = tokenize("=1E+5")
        literals = [t for t in tokens if t.kind is TokenKind.NUMERIC_LITERAL]
        assert [(t.text, t.numeric_value) for t in literals] == [("1E+5", 100000.0)]
        assert TokenKind.CELL_REF not in [t.kind for t in tokens]

    def test_percent_suffix_adjusts_value(self):
        tokens = tokenize("=50%")
        literal = next(t for t in tokens if t.kind is TokenKind.NUMERIC_LITERAL)
        assert literal.text == "50"
        assert literal.numeric_value == 0.5
        assert TokenKind.PERCENT_SUFFIX in [t.kind for t in tokens]

    def test_each_percent_suffix_divides_again(self):
        literal = next(t for t in tokenize("=50%%") if t.kind is TokenKind.NUMERIC_LITERAL)
        assert literal.numeric_value == 0.005
        # a run divides only the literal it follows; a run after a reference divides nothing
        assert extract_constants(tokenize("=A1%%+5%%%*2%")) == [(5e-06, 6, 7), (0.02, 11, 12)]

    @pytest.mark.parametrize("style", ["A1", "R1C1"])
    def test_percent_run_divides_in_either_style(self, style):
        assert extract_constants(tokenize("=5%%%", style)) == [(5e-06, 1, 2)]
        # one division after another: .3 / 100 / 100 is 3e-05, .3 / 1e4 is 2.9999999999999997e-05
        assert extract_constants(tokenize("=.3%%", style)) == [(3e-05, 1, 3)]

    def test_function_name_with_digits(self):
        assert texts_of("=LOG10(A1)", TokenKind.FUNCTION_NAME) == ["LOG10"]
        assert extract_constants(tokenize("=LOG10(A1)")) == []

    def test_quoted_sheet_name_with_digits(self):
        tokens = tokenize("='Prod 2007'!$C$6*2")
        assert texts_of("='Prod 2007'!$C$6*2", TokenKind.SHEET_QUALIFIER) == ["'Prod 2007'!"]
        assert [c.value for c in extract_constants(tokens)] == [2]

    def test_named_range_with_digits_is_identifier(self):
        tokens = tokenize("=Rate2008*B2")
        assert [(t.kind, t.text) for t in tokens][1] == (TokenKind.IDENTIFIER, "Rate2008")
        assert [c.value for c in extract_constants(tokens)] == []

    def test_range_reference_single_token(self):
        assert texts_of("=SUM(A1:B22)", TokenKind.RANGE_REF) == ["A1:B22"]

    def test_array_constant_literals_included(self):
        tokens = tokenize("={1,2;3.5}")
        assert [c.value for c in extract_constants(tokens)] == [1, 2, 3.5]

    def test_booleans_and_errors(self):
        tokens = tokenize("=IF(TRUE,#DIV/0!,FALSE)")
        assert TokenKind.BOOLEAN_LITERAL in [t.kind for t in tokens]
        assert texts_of("=IF(TRUE,#DIV/0!,FALSE)", TokenKind.ERROR_LITERAL) == ["#DIV/0!"]

    def test_r1c1_references(self):
        tokens = tokenize("=R[1]C[-2]+R1C1*3", "R1C1")
        assert texts_of("=R[1]C[-2]+R1C1*3", TokenKind.CELL_REF, "R1C1") == [
            "R[1]C[-2]",
            "R1C1",
        ]
        assert [c.value for c in extract_constants(tokens)] == [3]

    def test_unterminated_string_raises_with_offset(self):
        with pytest.raises(LexError) as exc_info:
            tokenize('=A1&"oops')
        assert exc_info.value.offset == 4

    def test_illegal_character_raises(self):
        with pytest.raises(LexError):
            tokenize("=A1~B2")

    @pytest.mark.parametrize(
        "formula,style,message,offset",
        [
            # a reference with "$" inside is still a function name before "("
            ("=A$1(", "A1", "'$' does not start a cell reference", 2),
            # the longest reference is taken whole, then rejected by what follows
            ("=R[1]C[-2]R", "R1C1", "illegal character '['", 2),
            ("=RC[-2][", "R1C1", "illegal character '['", 7),
            ('="ab""', "A1", "unterminated string literal", 1),
            ("='ab''", "A1", "unterminated quoted sheet name", 1),
            ("='ab'+1", "A1", "quoted sheet name not followed by '!'", 1),
            ("=#BOGUS", "A1", "unknown error literal starting '#'", 1),
            ("=$1", "R1C1", "'$' does not start a cell reference", 1),
            # non-ASCII digits and letters are outside the grammar
            ("=A2*\u00b2", "A1", "illegal character '\u00b2'", 4),
            ("=\u00dcnit*2", "A1", "illegal character '\u00dc'", 1),
        ],
    )
    def test_lex_error_message_and_offset(self, formula, style, message, offset):
        with pytest.raises(LexError) as exc_info:
            tokenize(formula, style)
        assert (exc_info.value.message, exc_info.value.offset) == (message, offset)

    def test_spans_are_contiguous_and_cover_input(self):
        formula = "=IF(F7<0, F7*Data!$E$39/12, 0)"
        tokens = tokenize(formula)
        pos = 0
        for tok in tokens:
            assert tok.start == pos
            assert tok.end > tok.start
            assert formula[tok.start : tok.end] == tok.text
            pos = tok.end
        assert pos == len(formula)


class TestTokenContract:
    def test_fields_and_default(self):
        tok = Token(TokenKind.CELL_REF, "A1", 1, 3)
        assert Token._fields == ("kind", "text", "start", "end", "numeric_value")
        assert (tok.kind, tok.text, tok.start, tok.end) == (TokenKind.CELL_REF, "A1", 1, 3)
        assert tok.numeric_value is None

    def test_immutable(self):
        tok = Token(TokenKind.NUMERIC_LITERAL, "12", 0, 2, 12.0)
        with pytest.raises(AttributeError):
            tok.numeric_value = 13.0

    def test_equality_and_hash_by_value(self):
        a = Token(TokenKind.NUMERIC_LITERAL, "12", 0, 2, 12.0)
        b = Token(TokenKind.NUMERIC_LITERAL, "12", 0, 2, 12.0)
        assert a == b and hash(a) == hash(b)
        assert a != Token(TokenKind.NUMERIC_LITERAL, "12", 0, 2, 0.12)
        assert a != Token(TokenKind.NUMERIC_LITERAL, "12", 1, 3, 12.0)

    def test_percent_fold_back_scales_value_only(self):
        number, percent = tokenize("7.5%")
        assert number == Token(TokenKind.NUMERIC_LITERAL, "7.5", 0, 3, 0.075)
        assert percent == Token(TokenKind.PERCENT_SUFFIX, "%", 3, 4)


class TestExtractConstants:
    def test_single_divisor(self):
        tokens = tokenize("=Data!$E$35/12")
        [constant] = extract_constants(tokens)
        assert constant == ConstantOccurrence(12.0, 12, 14)
        assert "=Data!$E$35/12"[constant.start : constant.end] == "12"

    def test_duplicates_in_source_order(self):
        values = [c.value for c in extract_constants(tokenize("=IF(F7<0, F7*Data!$E$39/12, 0)"))]
        assert values == [0, 12, 0]

    def test_bare_reference_yields_nothing(self):
        assert extract_constants(tokenize("=A1")) == []


class TestHeuristicScan:
    def test_digit_after_slash(self):
        # the number that starts at the flagged digit, as the legacy scan reads it
        assert heuristic_scan("=C6/12") == [ConstantOccurrence(12.0, 4, 6)]

    def test_reference_digits_never_flagged(self):
        assert heuristic_scan("=B22+C3") == []

    def test_comma_membership_decides_argument_constants(self):
        text = "=ROUND(A1,2)"
        assert [c.start for c in heuristic_scan(text)] == [text.index("2", 7)]
        assert heuristic_scan(text, frozenset("=+-*/")) == []

    def test_digits_inside_strings_ignored(self):
        assert heuristic_scan('="x"&"12"&B2') == []
        # a string left open runs to the end
        assert heuristic_scan('=A1&"x*2') == []

    def test_no_number_starts_inside_the_one_last_read(self):
        # a set holding a digit or "." (DetectionConfig refuses one) flags each number once
        assert heuristic_scan("=A1*1.5", frozenset("*.")) == [ConstantOccurrence(1.5, 4, 7)]
        assert heuristic_scan("=A1*123", frozenset("*123")) == [ConstantOccurrence(123.0, 4, 7)]

    def test_empty_operator_set_flags_nothing(self):
        assert heuristic_scan("=A1*2", frozenset()) == []

    def test_regex_special_operators_match_themselves(self):
        text = "=1-2]3^4\\5a6"
        assert heuristic_scan(text, frozenset("-]^\\")) == [
            ConstantOccurrence(float(n), text.index(n), text.index(n) + 1) for n in "2345"
        ]

    def test_both_detectors_return_the_findings_type(self):
        assert sheetaudit.ConstantOccurrence is detect.ConstantOccurrence is ConstantOccurrence
        formula = "=A1*12.5"
        lexed, scanned = extract_constants(tokenize(formula)), heuristic_scan(formula)
        assert lexed == scanned == [ConstantOccurrence(12.5, 4, 8)]
        assert {type(c) for c in lexed + scanned} == {ConstantOccurrence}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "formula",
        [
            "=I7*(1-Data!$C$24)",
            "=IF(F8<0, F8*Data!$E$39/12, 0)",
            '="a""b"&C3',
            "={1,2;3}+A1:B2%",
            "=$A1(2)",
        ],
    )
    def test_exact_identity(self, formula):
        assert render(tokenize(formula)) == formula

    @pytest.mark.parametrize(
        "profile,style",
        [(FULL_A1, "A1"), (FULL_R1C1, "R1C1")],
    )
    def test_generated_corpus(self, profile, style):
        gen = FormulaGen(seed=7, profile=profile)
        for formula in gen.corpus(300):
            assert render(tokenize(formula, style)) == formula


class TestProperties:
    def test_superset_property_on_corpus(self):
        # each heuristic occurrence starts inside some lexed literal
        gen = FormulaGen(seed=11, profile=ORACLE_A1)
        for formula in gen.corpus(400):
            lexed = extract_constants(tokenize(formula))
            for found in heuristic_scan(formula):
                assert any(c.start <= found.start < c.end for c in lexed), formula

    def test_oracle_agreement(self):
        for seed, profile, style in [(13, ORACLE_A1, "A1"), (17, ORACLE_R1C1, "R1C1")]:
            gen = FormulaGen(seed=seed, profile=profile)
            for formula in gen.corpus(400):
                assert extract_constants(tokenize(formula, style)) == digit_run_constants(
                    formula
                ), formula

    @given(st.text(), st.sampled_from(["A1", "R1C1"]))
    @example("=$A1(2)", "A1")
    @example("=A$1(", "A1")
    @example("=R[1]C[-2]R", "R1C1")
    @example("=RC[-2][", "R1C1")
    @example('="ab""', "A1")
    @example("='ab''", "A1")
    @example("=A2*\u00b2", "A1")
    @example("=\u00dcnit*2", "R1C1")
    def test_total_over_any_text(self, text, style):
        # either tokens that render back to the input, or a LexError
        try:
            tokens = tokenize(text, style)
        except LexError:
            return
        assert render(tokens) == text

    @given(st.text(alphabet=st.characters(blacklist_characters='"'), max_size=20))
    def test_string_literal_immunity(self, content):
        formula = f'="{content}"&A1'
        try:
            tokens = tokenize(formula)
        except LexError:
            pytest.skip("content not lexable outside string")
        assert extract_constants(tokens) == []

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=700),
        st.booleans(),
        st.booleans(),
    )
    def test_address_render_parse_round_trip(self, row, col, abs_c, abs_r):
        address = CellAddress(row=row, column=col, col_absolute=abs_c, row_absolute=abs_r)
        assert parse_address(address.render()) == address
