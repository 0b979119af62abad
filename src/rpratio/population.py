"""Finite-population containers, second-moment summaries and CSV.

All estimators in this package consume the same handful of population
constants: the two means, the variances on the N-1 divisor, the linear
correlation, both coefficients of variation, and the derived ratio
``c = r * cv_y / cv_x``.  They are computed once and carried around in a
frozen :class:`SummaryStats`.

The module reads CSV (load_population_csv, a strict y,x grammar) and
writes it: write_csv is the one writer of every CSV the package emits, a
population, a surface grid or a per-replication estimate dump.
"""
from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError
from .sampling import _BLOCK_BYTES, _real

__all__ = [
    "Population",
    "SummaryStats",
    "summarize",
    "load_population_csv",
    "write_csv",
]


@dataclass(frozen=True)
class Population:
    """Paired study values ``y`` and auxiliary values ``x``, one pair per unit."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        # numpy would read a list that mixes numbers and bools, such as
        # [1, True], as numbers; an array's dtype tells a bool column below.
        for column in (self.y, self.x):
            if isinstance(column, (list, tuple)) and {bool, np.bool_} & set(map(type, column)):
                raise InvalidInputError("population values must be real numbers")
        try:
            y, x = np.asarray(self.y), np.asarray(self.x)
            # Only integer and float columns: numpy's float conversion would
            # also read the strings "1" and True as 1.0.
            numeric = y.dtype.kind in "iuf" and x.dtype.kind in "iuf"
        except ValueError:  # ragged rows
            numeric = False
        if not numeric:
            raise InvalidInputError("population values must be real numbers")
        y, x = y.astype(float), x.astype(float)
        if y.ndim != 1 or x.ndim != 1:
            raise InvalidInputError("population columns must be one-dimensional")
        if len(y) != len(x):
            raise InvalidInputError(
                f"column lengths differ: {len(y)} y values vs {len(x)} x values"
            )
        if len(y) < 2:
            raise InvalidInputError("a population needs at least 2 units")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise InvalidInputError("population values must all be finite")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def size(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SummaryStats:
    """Population moments on the N-1 divisor.

    ``c`` is defined as ``r * cv_y / cv_x``; the identity
    ``c * cv_x == r * cv_y`` holds by construction.
    """

    mean_y: float
    mean_x: float
    var_y: float
    var_x: float
    cov_xy: float
    r: float
    cv_y: float
    cv_x: float
    c: float

    def __post_init__(self):
        # The first-order formulas square these; a square past the float
        # range would make Python's ** raise OverflowError.
        for name in ("mean_y", "mean_x", "cv_y", "cv_x"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise InvalidInputError(
                    f"{name} = {value!r} is too large: its square overflows double precision"
                )

    @property
    def sd_y(self) -> float:
        return math.sqrt(self.var_y)

    @property
    def sd_x(self) -> float:
        return math.sqrt(self.var_x)

    @classmethod
    def from_moments(
        cls,
        mean_y: float,
        mean_x: float,
        sd_y: float,
        sd_x: float,
        r: float,
    ) -> "SummaryStats":
        """Build a summary from published moments rather than raw data."""
        mean_y, mean_x = _real(mean_y, "mean_y"), _real(mean_x, "mean_x")
        sd_y, sd_x, r = _real(sd_y, "sd_y"), _real(sd_x, "sd_x"), _real(r, "r")
        if mean_y == 0.0 or mean_x == 0.0:
            raise InvalidInputError("means must be nonzero")
        if sd_y <= 0.0 or sd_x <= 0.0:
            raise InvalidInputError("standard deviations must be positive")
        if not -1.0 <= r <= 1.0:
            raise InvalidInputError(f"correlation {r} outside [-1, 1]")
        return cls._derive(
            mean_y, mean_x, sd_y, sd_x, sd_y * sd_y, sd_x * sd_x, r * sd_y * sd_x, r
        )

    @classmethod
    def _derive(cls, mean_y, mean_x, sd_y, sd_x, var_y, var_x, cov_xy, r):
        """The summary of these moments, with its CVs and c derived."""
        cv_y, cv_x = sd_y / mean_y, sd_x / mean_x
        if cv_x == 0.0:  # c would divide by it
            raise InvalidInputError(f"cv_x = {sd_x!r} / {mean_x!r} underflows double precision")
        return cls(mean_y, mean_x, var_y, var_x, cov_xy, r, cv_y, cv_x, r * cv_y / cv_x)


def _mean(values: np.ndarray) -> float:
    """A population column's mean; a constant column's is its value, which
    the summed mean can miss by rounding (ten 0.3s average 0.29999999999999993)."""
    return float(values[0]) if np.ptp(values) == 0.0 else float(values.mean())


def _column_moments(column: np.ndarray, name: str) -> tuple[float, np.ndarray, float]:
    """A column's mean by _mean's rule, its deviations and its variance on the
    N-1 divisor.  InvalidInputError names the column when the mean or the
    variance of its finite cells overflows a double."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _mean(column)
        dev = column - mean
        var = float(dev @ dev) / (len(column) - 1)
    for what, value in (("mean", mean), ("variance", var)):
        if not math.isfinite(value):
            raise InvalidInputError(f"the {what} of {name} overflows double precision")
    return mean, dev, var


def summarize(pop: Population) -> SummaryStats:
    """Compute :class:`SummaryStats` for a population.

    Raises InvalidInputError when either mean vanishes (the coefficients of
    variation would be undefined), or when either column is constant or its
    variance underflows.
    """
    mean_y, dy, var_y = _column_moments(pop.y, "y")
    mean_x, dx, var_x = _column_moments(pop.x, "x")
    for name, mean in (("y", mean_y), ("x", mean_x)):
        if mean == 0.0:
            raise InvalidInputError(f"population mean of {name} is zero")
    for name, column, var in (("y", pop.y, var_y), ("x", pop.x, var_x)):
        if var == 0.0 and np.ptp(column) > 0.0:
            raise InvalidInputError(f"the variance of {name} underflows double precision")
        if var == 0.0:
            raise InvalidInputError(f"{name} values are all identical")
    cov_xy = float(dy @ dx) / (pop.size - 1)
    # The product of two variances can underflow or overflow; only then is
    # it split, so that every other r keeps the bits of the one square root.
    var_product = var_y * var_x
    if sys.float_info.min <= var_product < math.inf:
        sd_product = math.sqrt(var_product)
    else:
        sd_product = math.sqrt(var_y) * math.sqrt(var_x)
    # Cauchy-Schwarz bounds |r| by 1 up to float rounding; clamp the excursion.
    r = max(-1.0, min(1.0, cov_xy / sd_product))
    return SummaryStats._derive(
        mean_y, mean_x, math.sqrt(var_y), math.sqrt(var_x), var_y, var_x, cov_xy, r
    )


# A cell: ASCII digits with an optional sign, decimal point and exponent.
# float() alone would also take surrounding whitespace, '_' separators,
# non-ASCII digits and the words inf and nan.
_CELL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# What the surrogateescape error handler makes of bytes that are not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _reject_undecodable(row: list[str], lineno: int) -> None:
    """Raise for a rejected line that holds bytes that are not UTF-8, so
    that the error names the cause rather than a cell or the header."""
    if any(_UNDECODABLE.search(cell) for cell in row):
        raise ParseError("bytes that are not valid UTF-8", line=lineno)


def load_population_csv(path) -> Population:
    """Read a two-column population file.

    The format is strict: the header line must be exactly ``y,x``, every
    following line must hold exactly two cells, each an ASCII decimal
    number such as ``2``, ``-0.5``, ``.5`` or ``1e-05`` (no whitespace, no
    ``_`` separators, no ``inf`` or ``nan``) that is finite as a double,
    and at least two data rows must be present.  The file is read as
    UTF-8.  Errors carry 1-based line numbers.
    """
    ys: list[float] = []
    xs: list[float] = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file: expected header 'y,x'", line=1)
        if header != ["y", "x"]:
            _reject_undecodable(header, 1)
            raise ParseError(
                f"expected header 'y,x', got {','.join(header)!r}", line=1
            )
        for row in reader:
            lineno = reader.line_num
            if len(row) != 2:
                _reject_undecodable(row, lineno)
                raise ParseError(
                    f"expected 2 cells, got {len(row)}", line=lineno
                )
            pair = []
            for cell in row:
                if not _CELL.fullmatch(cell):
                    _reject_undecodable(row, lineno)
                    raise ParseError(
                        f"non-numeric cell {cell!r}: expected an ASCII decimal such as -1.5e3",
                        line=lineno,
                    )
                value = float(cell)
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite cell {cell!r}", line=lineno
                    )
                pair.append(value)
            ys.append(pair[0])
            xs.append(pair[1])
    if len(ys) < 2:
        raise ParseError(f"expected at least 2 data rows, got {len(ys)}")
    return Population(y=np.array(ys), x=np.array(xs))


def _csv_texts(values) -> np.ndarray:
    """repr of each value of a float array, else str of each, as texts."""
    values = np.asarray(values)
    fmt = repr if values.dtype.kind == "f" else str
    return np.array(list(map(fmt, values.tolist())), dtype=object)


def _csv_column(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A numeric column's texts and codes: the text of each distinct value,
    keyed by the bits of the column's own dtype so that -0.0 keeps its own
    text, and each cell's index among them."""
    distinct, index = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return _csv_texts(distinct.view(column.dtype)), index


# A column fuses into the group to its left while the fused texts would
# number at most the block's rows over this.  At 1 a pair such as the
# estimate dump's (rep, label) can fuse into one text per row, which saves
# nothing and measured slower; at 4 a fused table stays well below the rows that share
# it, the region grid's (alpha, beta) and (c, indicator) pairs fuse, and
# neither the dump nor a generated population does.
_ROWS_PER_FUSED_TEXT = 4


def write_csv(fh, header: str, rows: int, columns, block) -> None:
    """Write a header line and one CSV line per row, in blocks of
    max(1, _BLOCK_BYTES // (8 * len(columns))) rows, as if of 8-byte cells.
    columns holds each column's known values, or None.  block(start, stop)
    returns one array per column for rows [start, stop): each row's index
    into the known values, else its value.  Texts are repr of a float and
    str of an integer or label, made once per known value per call and once
    per distinct value per block; repr's text of a finite float reads back
    under load_population_csv's grammar to the same value."""
    known = [None if values is None else _csv_texts(values) for values in columns]
    size = max(1, _BLOCK_BYTES // (8 * len(columns)))
    fh.write(header + "\n")
    for start in range(0, rows, size):
        parts = []
        for texts, column in zip(known, block(start, min(start + size, rows))):
            if texts is None:
                parts.append(_csv_column(column))
            else:
                # Only the texts this block reaches, which lets a column whose
                # block holds few of its values fuse with its neighbour.
                low = column.min()
                parts.append((texts[low:column.max() + 1], column - low))
        fh.write(_join_csv_columns(parts))


def _join_csv_columns(columns) -> str:
    """The CSV lines of columns given as (texts, codes) pairs: cell (i, j)
    is texts_j[codes_j[i]].  A caller that knows a column's texts passes
    them straight in; the fewer texts a column has, the more it fuses.

    Walking left to right, a column fuses into the group of columns before
    it when the group's texts times the column's, times
    _ROWS_PER_FUSED_TEXT, are at most the rows: the group's texts become
    every "group,column" pair, and each row's code becomes that of its
    pair.  The groups' texts carry the separators around them: the newline
    after the last group, and each "," on the side of the neighbouring
    group with fewer texts, so that it is attached to fewer texts.  The
    block is one join over the row-major group matrix.
    """
    rows = len(columns[0][1])
    groups = []
    for text, index in columns:
        if groups and len(groups[-1][0]) * len(text) * _ROWS_PER_FUSED_TEXT <= rows:
            texts, codes = groups[-1]
            groups[-1] = np.add.outer(texts + ",", text).ravel(), codes * len(text) + index
        else:
            groups.append((text, index))
    k = len(groups)
    heads, tails = [""] * k, [","] * (k - 1) + ["\n"]
    for j in range(k - 1):
        if len(groups[j + 1][0]) < len(groups[j][0]):
            heads[j + 1], tails[j] = ",", ""
    cells = np.empty((rows, k), dtype=object)
    for j, (text, codes) in enumerate(groups):
        if heads[j]:
            text = heads[j] + text
        if tails[j]:
            text = text + tails[j]
        cells[:, j] = text[codes]
    return "".join(cells.ravel().tolist())

