"""Shared exception types for file formats and lexicon resolution."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input in one of the line-oriented file formats."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        where = path or "<input>"
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        return _rebuild, (type(self), (self.message,),
                          {"path": self.path, "line": self.line, "column": self.column})


class CycleError(ValueError):
    """A parent chain loops back on itself."""

    def __init__(self, members: list[str], *, what: str = "class"):
        self.members = sorted(members)
        self.what = what
        super().__init__(f"cycle in {what} hierarchy: {', '.join(self.members)}")

    def __reduce__(self):
        return _rebuild, (type(self), (self.members,), {"what": self.what})


class LexiconError(ValueError):
    """A lexicon violates a structural constraint after parsing."""


def _rebuild(cls, args, kwargs):
    # exceptions with keyword-only fields pickle through here, so one raised
    # in a shard worker reaches the parent with its message intact
    return cls(*args, **kwargs)


def parse_number(kind: type, text: str, *, path: str | None, line: int):
    """`kind(text)` for int or float; a ParseError naming path and line if it fails."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", path=path, line=line) from None
