"""Escaping and entity resolution for the supported XML subset."""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import XMLSyntaxError

_PREDEFINED = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def resolve_references(
    value: str, locate: Callable[[], tuple[int, int]] | None = None
) -> str:
    """Replace predefined entity and character references in ``value``.

    Unknown entity references are an error: the paper's generator never emits
    them (Section 4.4 excludes Entities), so their presence means the input
    is outside the supported subset.  ``locate`` returns the ``(line,
    column)`` to report; it is called only to raise, so well-formed input
    never pays for a position.
    """
    if "&" not in value:
        return value
    parts: list[str] = []
    position = 0
    while True:
        amp = value.find("&", position)
        if amp < 0:
            parts.append(value[position:])
            break
        parts.append(value[position:amp])
        end = value.find(";", amp + 1)
        if end < 0:
            raise _reference_error("unterminated entity reference", locate)
        name = value[amp + 1 : end]
        if name.startswith("#"):
            digits, base = (name[2:], 16) if name[1:2] in ("x", "X") else (name[1:], 10)
            try:
                parts.append(chr(int(digits, base)))
            except ValueError as exc:
                raise _reference_error(
                    f"bad character reference &{name};", locate) from exc
        elif name in _PREDEFINED:
            parts.append(_PREDEFINED[name])
        else:
            raise _reference_error(f"unknown entity &{name};", locate)
        position = end + 1
    return "".join(parts)


def _reference_error(
    message: str, locate: Callable[[], tuple[int, int]] | None
) -> XMLSyntaxError:
    line, column = locate() if locate is not None else (0, 0)
    return XMLSyntaxError(message, line, column)
