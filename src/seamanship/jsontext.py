"""The package's JSON writer: ``json.dumps(indent=2, sort_keys=True)`` text
with the numbers printed by the C encoder."""

from __future__ import annotations

import json


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    The standard encoder drops to pure Python whenever ``indent`` is set.
    This walks the dicts (with str keys) and lists in Python and hands each
    scalar, each flat list of ints and floats and each list of such lists
    to the C encoder, re-indenting its ``", "`` and ``"], ["`` separators,
    which no number's text holds. Any other container is the standard
    encoder's text, re-indented: JSON text holds a newline only between
    elements. The pieces are joined once, without large intermediate
    strings, which left later operations in the process slower.
    """
    return "".join(_json_pieces(doc, "\n"))


def _json_pieces(doc, newline: str):
    if not isinstance(doc, (dict, list, tuple)):
        yield json.dumps(doc)
        return
    inner = newline + "  "
    if type(doc) is dict and doc and all(type(key) is str for key in doc):
        sep = "{" + inner
        for key in sorted(doc):
            yield sep + json.dumps(key) + ": "
            yield from _json_pieces(doc[key], inner)
            sep = "," + inner
        yield newline + "}"
    elif type(doc) is list and doc and set(map(type, doc)) <= {int, float}:
        yield "[" + inner
        yield json.dumps(doc)[1:-1].replace(", ", "," + inner)
        yield newline + "]"
    elif type(doc) is list and doc and all(
        type(row) is list and row and set(map(type, row)) <= {int, float} for row in doc
    ):
        # rows of numbers, such as polygon vertices, in one C call
        deeper = inner + "  "
        yield "[" + inner + "[" + deeper
        yield (
            json.dumps(doc)[2:-2]
            .replace("], [", inner + "]," + inner + "[" + deeper)
            .replace(", ", "," + deeper)
        )
        yield inner + "]" + newline + "]"
    elif type(doc) is list and doc:
        sep = "[" + inner
        for item in doc:
            yield sep
            yield from _json_pieces(item, inner)
            sep = "," + inner
        yield newline + "]"
    else:
        yield json.dumps(doc, indent=2, sort_keys=True).replace("\n", newline)
