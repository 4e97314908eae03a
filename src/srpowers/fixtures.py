"""Named example complexes and the one input grammar of the command line.

The fixture names are part of the CLI contract.  ``five-cycle`` is the
5-cycle graph; ``example-4-10`` is the boundary of a tetrahedron with an
extra triangle glued along an edge (the square of its ideal separates
the symbolic from the ordinary power); ``example-5-4`` is the
three-4-sets complex on six vertices whose dual complex is a matroid
even though the complex is no union of 3-uniform matroids.
"""

from __future__ import annotations

import json
import os
import sys

from .complexes import (
    SimplicialComplex,
    complete_graph,
    complex_from_json,
    cycle,
    from_facets,
    join_shifted,
    path,
    simplex,
    uniform_matroid,
)
from .ideals import DeskScaleExceeded, MonomialIdeal, ideal_from_json


class MalformedInput(ValueError):
    """JSON input of the wrong shape for a complex or an ideal."""


def _five_cycle() -> SimplicialComplex:
    return cycle(5)


def _example_4_10() -> SimplicialComplex:
    return from_facets(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5)])


def _example_5_4() -> SimplicialComplex:
    return from_facets(6, [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)])


NAMED = {
    "five-cycle": _five_cycle,
    "example-4-10": _example_4_10,
    "example-5-4": _example_5_4,
}


def named_complex(name: str) -> SimplicialComplex:
    try:
        return NAMED[name]()
    except KeyError:
        raise KeyError(f"unknown named complex {name!r}") from None


def _parametric(text: str) -> SimplicialComplex | None:
    head, _, rest = text.partition(":")
    if not rest:
        return None
    try:
        args = [int(x) for x in rest.split(":")]
    except ValueError:
        return None
    if head == "uniform" and len(args) == 2:
        return uniform_matroid(args[0], args[1])
    if head == "cycle" and len(args) == 1:
        return cycle(args[0])
    if head == "path" and len(args) == 1:
        return path(args[0])
    if head == "complete" and len(args) == 1:
        return complete_graph(args[0])
    if head == "simplex" and len(args) == 1:
        return simplex(args[0])
    return None


def parse_input(text: str) -> SimplicialComplex | MonomialIdeal:
    """A complex or an ideal, read by the first form that fits: a named
    example, a parametric family, a join of parts, "-" for JSON on stdin,
    a JSON literal, or a JSON file path.  JSON with "gens" is an ideal,
    any other JSON a complex.  JSON of the wrong shape raises
    ``MalformedInput``.

    ``join:A+B+...`` joins the parts after shifting each one onto fresh
    vertex labels, so ``join:complete:3+complete:3`` lives on 6 vertices.
    """
    text = text.strip()
    if text in NAMED:
        return named_complex(text)
    para = _parametric(text)
    if para is not None:
        return para
    if text.startswith("join:"):
        return join_shifted([parse_complex_spec(p) for p in text[len("join:"):].split("+")])
    if text == "-":
        data = json.load(sys.stdin)
    elif text.startswith("{"):
        data = json.loads(text)
    elif os.path.exists(text):
        try:
            with open(text) as fh:
                data = json.load(fh)
        except OSError as exc:  # a directory, or no permission to read
            raise ValueError(f"cannot read {text!r}: {exc.strerror}") from None
    else:
        raise ValueError(f"cannot interpret input {text!r}")
    if not isinstance(data, dict) or type(data.get("n")) is not int or data["n"] < 1:
        raise MalformedInput('expected a JSON object with a positive integer "n"')
    key = "gens" if "gens" in data else "facets"
    if not isinstance(data.get(key), list) or not all(isinstance(r, list) for r in data[key]):
        raise MalformedInput(f'"{key}" must be a list of lists')
    try:
        return ideal_from_json(data) if key == "gens" else complex_from_json(data)
    except DeskScaleExceeded:
        raise
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def parse_complex_spec(text: str) -> SimplicialComplex:
    """A complex in the grammar of ``parse_input``; an ideal is refused."""
    obj = parse_input(text)
    if not isinstance(obj, SimplicialComplex):
        raise ValueError(f"{text.strip()!r} is an ideal; a complex is needed here")
    return obj
