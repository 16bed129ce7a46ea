"""Unit tests for the MiniC lexer."""

import pytest

from repro.lang.lexer import LexError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_integer_literal_value(self):
        tok = tokenize("42")[0]
        assert tok.kind == "int"
        assert tok.value == 42

    def test_identifier(self):
        tok = tokenize("foo_bar1")[0]
        assert tok.kind == "ident"
        assert tok.text == "foo_bar1"

    def test_keyword_recognized(self):
        tok = tokenize("while")[0]
        assert tok.kind == "kw"

    def test_identifier_with_keyword_prefix(self):
        tok = tokenize("whiles")[0]
        assert tok.kind == "ident"

    def test_operators_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<", "=", "b"]
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("a&&b") == ["a", "&&", "b"]
        assert texts("a&b") == ["a", "&", "b"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]


class TestLiterals:
    def test_char_literal(self):
        tok = tokenize("'m'")[0]
        assert tok.kind == "char"
        assert tok.value == ord("m")

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == ord("\n")
        assert tokenize(r"'\0'")[0].value == 0

    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind == "string"
        assert tok.text == "hello world"

    def test_string_with_escapes(self):
        assert tokenize(r'"a\tb"')[0].text == "a\tb"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_bad_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == ["ident", "ident", "eof"]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == ["ident", "ident", "eof"]

    def test_block_comment_tracks_lines(self):
        toks = tokenize("/* a\nb\n*/ c")
        assert toks[0].line == 3

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as err:
            tokenize("a $ b")
        assert err.value.line == 1

    def test_error_line_number(self):
        with pytest.raises(LexError) as err:
            tokenize("ok\nok\n@")
        assert err.value.line == 3


class TestColumns:
    def test_tokens_carry_columns(self):
        from repro.lang.lexer import tokenize

        toks = tokenize("int main() { return 42; }")
        assert [(t.text, t.line, t.col) for t in toks[:3]] == [
            ("int", 1, 1), ("main", 1, 5), ("(", 1, 9)]

    def test_lex_error_carries_column(self):
        import pytest

        from repro.lang.lexer import LexError, tokenize

        with pytest.raises(LexError) as info:
            tokenize("int x @ 1;")
        assert info.value.line == 1
        assert info.value.col == 7
        assert "line 1:7" in str(info.value)


class TestCharLiteralText:
    def test_char_token_text_is_the_literal_as_written(self):
        tok = tokenize("x = 'm';")[2]
        assert (tok.kind, tok.text, tok.value, tok.col) == ("char", "'m'", ord("m"), 5)

    def test_escaped_char_token_text(self):
        tok = tokenize(r"'\n' x")[0]
        assert (tok.text, tok.value) == (r"'\n'", ord("\n"))
        assert tokenize(r"'\n' x")[1].col == 6


class TestNonAsciiDigits:
    @pytest.mark.parametrize("digit", ["²", "٣", "½"])
    def test_non_ascii_digit_is_a_lex_error(self, digit):
        with pytest.raises(LexError) as info:
            tokenize(f"int x;\nreturn {digit};")
        assert (info.value.line, info.value.col) == (2, 8)
        assert str(info.value) == f"line 2:8: non-ASCII digit {digit!r}"

    def test_non_ascii_digit_after_ascii_digits(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 12٣;")
        assert (info.value.line, info.value.col) == (1, 7)

    def test_integer_literals_are_ascii(self):
        tok = tokenize("0042")[0]
        assert (tok.kind, tok.text, tok.value) == ("int", "0042", 42)

    def test_unicode_identifiers_still_lex(self):
        assert [(t.kind, t.text) for t in tokenize("é x² _1")[:-1]] == [
            ("ident", "é"), ("ident", "x²"), ("ident", "_1")]
