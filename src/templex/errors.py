"""Shared exception types for file formats and lexicon resolution, and the
input-file reader that reports a byte that is not UTF-8 as a ParseError."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input in a line-oriented file, or a cross-check's problem at
    a file's line; `validate` lists a "warning" one, which no run raises."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None,
                 severity: str = "error"):
        self.message = message
        self.path = path
        self.line = line
        self.severity = severity
        where = path or "<input>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        return _rebuild, (type(self), (self.message,),
                          {"path": self.path, "line": self.line, "severity": self.severity})


class CycleError(ValueError):
    """A parent chain loops back on itself."""

    def __init__(self, members: list[str], *, what: str = "class"):
        self.members = sorted(members)
        self.what = what
        super().__init__(f"cycle in {what} hierarchy: {', '.join(self.members)}")

    def __reduce__(self):
        return _rebuild, (type(self), (self.members,), {"what": self.what})


def _rebuild(cls, args, kwargs):
    # exceptions with keyword-only fields pickle through here, so one raised
    # in a shard worker reaches the parent with its message intact
    return cls(*args, **kwargs)


def raise_or_list(found: list[ParseError], problems: list | None = None) -> bool:
    """Whether a check `found` an error.  A run passes no `problems` list and
    gets the first error raised; `validate` passes one and gets every problem."""
    errors = [p for p in found if p.severity == "error"]
    if problems is not None:
        problems += found
    elif errors:
        raise errors[0]
    return bool(errors)


def parse_number(kind: type, text: str, *, path: str | None, line: int):
    """`kind(text)` for int or float; a ParseError naming path and line if it fails."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", path=path, line=line) from None


def read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; a byte sequence that is not
    UTF-8 is a ParseError at its line, counted as `str.splitlines` counts."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # a whole-file read decodes all the bytes at once, so `start` is the
        # bad byte's offset in the file; its line is the lines before it, plus one
        data = exc.object
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         path=path, line=line) from None


def format_float(x: float) -> str:
    """`x` at 6 decimals when they read back as `x`, else its shortest repr."""
    text = f"{x:.6f}"
    return text if float(text) == x else repr(x)
