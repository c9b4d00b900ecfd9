"""Reading and writing graph databases in the transaction text format.

The de-facto exchange format for graph-mining corpora (used by gSpan, the
AIDS benchmark dumps, and most index papers' artifacts)::

    t # <graph id>
    v <vertex id> <label>
    e <u> <v>

Edges are unlabelled in this package's model; an optional trailing edge
label token is accepted on input (and ignored with a strict=False parse) for
compatibility with files that carry bond types.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, TextIO, Tuple, Union

from ..errors import ParseError
from .model import Graph

PathLike = Union[str, Path]


def dumps(graphs: Iterable[Tuple[object, Graph]]) -> str:
    """Serialise ``(gid, graph)`` pairs to the transaction text format."""
    out = io.StringIO()
    write_graphs(out, graphs)
    return out.getvalue()


def write_graphs(stream: TextIO, graphs: Iterable[Tuple[object, Graph]]) -> None:
    """Write ``(gid, graph)`` pairs to an open text stream."""
    for gid, graph in graphs:
        stream.write(f"t # {gid}\n")
        index: Dict[int, int] = {}
        for pos, v in enumerate(graph.vertices()):
            index[v] = pos
            stream.write(f"v {pos} {graph.label(v)}\n")
        for u, v in sorted(graph.edges()):
            stream.write(f"e {index[u]} {index[v]}\n")


def save(path: PathLike, graphs: Iterable[Tuple[object, Graph]]) -> None:
    """Write a graph database file."""
    with open(path, "w", encoding="utf-8") as handle:
        write_graphs(handle, graphs)


def loads(text: str, *, strict: bool = True) -> List[Tuple[str, Graph]]:
    """Parse the transaction format from a string."""
    return list(iter_graphs(io.StringIO(text), strict=strict))


def load(path: PathLike, *, strict: bool = True) -> List[Tuple[str, Graph]]:
    """Read a graph database file into ``(gid, graph)`` pairs."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_graphs(handle, strict=strict))


def iter_graphs(stream: TextIO, *, strict: bool = True) -> Iterator[Tuple[str, Graph]]:
    """Stream ``(gid, graph)`` pairs from an open transaction-format file.

    With ``strict=False``, unknown record types and trailing edge labels are
    skipped instead of raising :class:`~repro.errors.ParseError`.
    """
    current: Graph | None = None
    current_id: str | None = None
    # Bound once per graph: the record loop below is the hot path of every
    # lazy graph load, so it splits each line once and strips it only to
    # quote it in an error.
    add_vertex = add_edge = None
    for lineno, raw in enumerate(stream, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e":
            if current is None:
                raise ParseError("edge record before any graph header", lineno)
            if len(tokens) != 3 and (strict or len(tokens) < 3):
                raise ParseError(f"malformed edge record {raw.strip()!r}", lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(
                    f"non-integer edge endpoint in {raw.strip()!r}", lineno
                ) from None
            add_edge(u, v)
        elif kind == "v":
            if current is None:
                raise ParseError("vertex record before any graph header", lineno)
            if len(tokens) < 3:
                raise ParseError(f"malformed vertex record {raw.strip()!r}", lineno)
            try:
                vid = int(tokens[1])
            except ValueError:
                raise ParseError(f"non-integer vertex id {tokens[1]!r}", lineno) from None
            add_vertex(vid, tokens[2])
        elif kind == "t":
            if current is not None:
                yield current_id, current
            # "t # <id>" or "t <id>"
            if len(tokens) >= 2 and tokens[1] == "#":
                gid = tokens[2] if len(tokens) >= 3 else None
            else:
                gid = tokens[1] if len(tokens) >= 2 else None
            if gid is None:
                raise ParseError("graph header missing id", lineno)
            current = Graph()
            current_id = gid
            add_vertex, add_edge = current.add_vertex, current.add_edge
        elif kind[0] == "#":
            continue
        elif strict:
            raise ParseError(f"unknown record type {kind!r}", lineno)
    if current is not None:
        yield current_id, current
