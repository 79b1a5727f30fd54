"""Flat key=value configuration files.

One `key = value` per line, `#` comments, no sections, no includes.
Unknown keys are rejected with their line number; every key has a declared
parser. Booleans accept true/false/1/0/yes/no. A file that is not UTF-8 is a
parse error on the line of its first bad byte.
"""

from __future__ import annotations

import io


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(int(p) for p in parts)


# Each parser is named by the type annotation of the dataclass fields it fills.
PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
}


def parse_kv_file(path, schema: dict[str, str]) -> dict:
    """Read the file against a {key: parser-name} schema, a parser named by
    its key in PARSERS; unknown keys and unparseable values raise ParseError
    with the offending line number."""
    result: dict = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r\n or \r, as a text-mode read splits them
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(path, head.count(b"\n") + 1,
                         f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        if key in result:
            raise ParseError(path, line_no, f"duplicate key {key!r}")
        try:
            result[key] = PARSERS[schema[key]](value)
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad value for {key!r}: {exc}") from exc
    return result
