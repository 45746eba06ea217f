"""Exact enumeration of grand knight's paths and grand zigzag knight's paths.

Four mutually cross-checking engines over the same combinatorial objects:

* counting   — big-integer dynamic programming and exhaustive generation;
* recurrences, transfer and series — generating functions: exact integer
  rows and rational band functions over poly's integer polynomials, and the
  truncated integer Laurent series (laurent) of the kernel method for the
  zigzag paths ending at altitude >= 0, built on the small kernel root of
  recurrences;
* closedforms — binomial-sum formulas;
* bijections — constructive maps to composition pairs, plus a tiling counter.

engines is the router: it decides which engine answers a count or a named
generating function.  asymptotics evaluates the growth formulas and checks
them against exact values; verification wires everything into one suite
(also exposed through the `knightpaths verify` command).
"""

from .bijections import Composition, CompositionPair
from .counting import ALL, NONNEG, CountQuery, count, count_paths, count_row, generate
from .laurent import LaurentSeries
from .paths import (
    DOWN,
    UP,
    ParseError,
    Path,
    PathConstraints,
    Step,
    parse_path,
    validate_path,
)
from .poly import RationalGF

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "NONNEG",
    "Composition",
    "CompositionPair",
    "CountQuery",
    "DOWN",
    "LaurentSeries",
    "ParseError",
    "Path",
    "PathConstraints",
    "RationalGF",
    "Step",
    "UP",
    "count",
    "count_paths",
    "count_row",
    "generate",
    "parse_path",
    "validate_path",
    "__version__",
]
