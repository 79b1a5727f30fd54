"""Flat key=value parser behavior."""

import pytest

from detkit.config import ParseError, parse_kv_file

SCHEMA = {"alpha": "int", "beta": "float", "name": "str", "on": "bool", "dims": "tuple[int, ...]"}


def write(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text, encoding="utf-8")
    return p


class TestParse:
    def test_values_and_comments(self, tmp_path):
        p = write(tmp_path, "# header\nalpha = 3\nbeta = 0.5  # inline\nname = hi\non = yes\ndims = 3,5\n")
        got = parse_kv_file(p, SCHEMA)
        assert got == {"alpha": 3, "beta": 0.5, "name": "hi", "on": True, "dims": (3, 5)}

    def test_unknown_key_with_line_number(self, tmp_path):
        p = write(tmp_path, "alpha = 1\ngamma = 2\n")
        with pytest.raises(ParseError) as err:
            parse_kv_file(p, SCHEMA)
        assert err.value.line_no == 2

    def test_bad_value_with_line_number(self, tmp_path):
        p = write(tmp_path, "alpha = soup\n")
        with pytest.raises(ParseError) as err:
            parse_kv_file(p, SCHEMA)
        assert err.value.line_no == 1

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path, "alpha = 1\nalpha = 2\n")
        with pytest.raises(ParseError):
            parse_kv_file(p, SCHEMA)

    def test_missing_equals_rejected(self, tmp_path):
        p = write(tmp_path, "alpha 3\n")
        with pytest.raises(ParseError):
            parse_kv_file(p, SCHEMA)

    def test_empty_file_ok(self, tmp_path):
        assert parse_kv_file(write(tmp_path, "\n# nothing\n"), SCHEMA) == {}

    @pytest.mark.parametrize("text,line_no", [
        (b"\xffalpha = 1\n", 1),
        (b"alpha = 1\nname = caf\xe9\n", 2),
        (b"alpha = 1\r\n\r\nname = \xc3\n", 3),   # a truncated two-byte sequence
        (b"alpha = 1\rbeta = 2\rname = \x80\r", 3),  # lines ended by a bare \r
    ], ids=["first-byte", "latin-1", "crlf", "cr"])
    def test_bytes_that_are_not_utf8_raise_with_the_line_number(self, tmp_path, text, line_no):
        p = tmp_path / "c.cfg"
        p.write_bytes(text)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            parse_kv_file(p, SCHEMA)
        assert err.value.line_no == line_no

    def test_lines_split_at_crlf_and_cr(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"alpha = 3\r\nbeta = 0.5\rname = hi\n")
        assert parse_kv_file(p, SCHEMA) == {"alpha": 3, "beta": 0.5, "name": "hi"}
