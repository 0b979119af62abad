"""Finite-population containers and second-moment summaries.

All estimators in this package consume the same handful of population
constants: the two means, the variances on the N-1 divisor, the linear
correlation, both coefficients of variation, and the derived ratio
``c = r * cv_y / cv_x``.  They are computed once and carried around in a
frozen :class:`SummaryStats`.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InvalidDesignError,
    InvalidInputError,
    ParseError,
    ZeroMeanError,
)

__all__ = [
    "Population",
    "SummaryStats",
    "SamplingDesign",
    "summarize",
    "load_population_csv",
    "format_csv_rows",
    "make_design",
]


@dataclass(frozen=True)
class Population:
    """Paired study values ``y`` and auxiliary values ``x``, one pair per unit."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
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
        y, x = y.copy(), x.copy()
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def size(self) -> int:
        return len(self.y)

    N = size


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
        moments = dict(mean_y=mean_y, mean_x=mean_x, sd_y=sd_y, sd_x=sd_x, r=r)
        for name, value in moments.items():
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
        if mean_y == 0.0 or mean_x == 0.0:
            raise ZeroMeanError("means must be nonzero")
        if sd_y <= 0.0 or sd_x <= 0.0:
            raise DegenerateVarianceError("standard deviations must be positive")
        if not -1.0 <= r <= 1.0:
            raise InvalidInputError(f"correlation {r} outside [-1, 1]")
        cv_y = sd_y / mean_y
        cv_x = sd_x / mean_x
        return cls(
            mean_y=mean_y,
            mean_x=mean_x,
            var_y=sd_y * sd_y,
            var_x=sd_x * sd_x,
            cov_xy=r * sd_y * sd_x,
            r=r,
            cv_y=cv_y,
            cv_x=cv_x,
            c=r * cv_y / cv_x,
        )


@dataclass(frozen=True)
class SamplingDesign:
    """Without-replacement design drawing n of N units."""

    n: int
    N: int

    @property
    def f(self) -> float:
        return self.n / self.N

    @property
    def fpc_rate(self) -> float:
        """(1 - f) / n, the factor multiplying every first-order moment."""
        return (1.0 - self.f) / self.n


def summarize(pop: Population) -> SummaryStats:
    """Compute :class:`SummaryStats` for a population.

    Raises ZeroMeanError when either mean vanishes (the coefficients of
    variation would be undefined) and DegenerateVarianceError when either
    column is constant.
    """
    N = pop.size
    mean_y = float(pop.y.mean())
    mean_x = float(pop.x.mean())
    if mean_y == 0.0:
        raise ZeroMeanError("population mean of y is zero")
    if mean_x == 0.0:
        raise ZeroMeanError("population mean of x is zero")
    dy = pop.y - mean_y
    dx = pop.x - mean_x
    var_y = float(dy @ dy) / (N - 1)
    var_x = float(dx @ dx) / (N - 1)
    # The mean of identical values can miss them by an ulp, leaving a
    # rounding-noise variance, so constancy is tested on the values.
    if var_y == 0.0 or np.ptp(pop.y) == 0.0:
        raise DegenerateVarianceError("y values are all identical")
    if var_x == 0.0 or np.ptp(pop.x) == 0.0:
        raise DegenerateVarianceError("x values are all identical")
    cov_xy = float(dy @ dx) / (N - 1)
    # Cauchy-Schwarz bounds |r| by 1 up to float rounding; clamp the excursion.
    r = max(-1.0, min(1.0, cov_xy / math.sqrt(var_y * var_x)))
    cv_y = math.sqrt(var_y) / mean_y
    cv_x = math.sqrt(var_x) / mean_x
    return SummaryStats(
        mean_y=mean_y,
        mean_x=mean_x,
        var_y=var_y,
        var_x=var_x,
        cov_xy=cov_xy,
        r=r,
        cv_y=cv_y,
        cv_x=cv_x,
        c=r * cv_y / cv_x,
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


def _column_text(column: np.ndarray, fmt) -> list[str]:
    """fmt applied to each distinct value of a float column once, keyed by
    bit pattern so that -0.0 keeps its own text."""
    distinct, index = np.unique(column.view(np.uint64), return_inverse=True)
    text = np.array(list(map(fmt, distinct.view(np.float64).tolist())), dtype=object)
    return text[index].tolist()


def format_csv_rows(table: np.ndarray, formats) -> str:
    """The CSV lines of a float table, each ending in a newline: cell (i, j)
    is formats[j](table[i, j]).  With repr as the format, every finite
    cell reads back under load_population_csv's grammar to the same value.
    """
    columns = [_column_text(table[:, j], fmt) for j, fmt in enumerate(formats)]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def make_design(n: int, N: int) -> SamplingDesign:
    """Validate and build a without-replacement design; requires 1 <= n < N."""
    n = int(n)
    N = int(N)
    if not 1 <= n < N:
        raise InvalidDesignError(f"need 1 <= n < N, got n={n}, N={N}")
    return SamplingDesign(n=n, N=N)
