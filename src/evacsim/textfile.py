"""The one way from an input file to numbered lines.

Every reader of a world, population, results or spec file reads it with
`read_text` and numbers its lines by `split_lines`: only `\\n` ends a line,
and one `\\r` before it is dropped, so CRLF reads like LF and a line number
is the one an editor shows. `str.splitlines` would also break at form
feeds, vertical tabs and other control characters. Spec files read their
records through `content_lines`, which skips blank lines and whole-line
`#` comments; `geo.parse_world` skips the same lines in its own one-pass
loop, and its oracle test holds it to this rule. The module imports
nothing of evacsim but its errors, so every reader can import it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import InputError


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file, its line ends untranslated. A file that
    cannot be read raises InputError("cannot read <what> <path>: <reason>")."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def split_lines(text: str) -> list[str]:
    """The lines of text, split at each `\\n`, each without one trailing
    `\\r`. A final `\\n` ends the last line and starts no empty one."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number from 1, stripped line) for each line of text that
    is neither blank nor a `#` comment. A `#` after a value is part of it."""
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line
