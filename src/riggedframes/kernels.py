"""Samplers for the built-in distribution-valued maps.

A weakly measurable map assigns to each grid node x_j a distribution row;
the sampled kernel Omega[j][n] = <h_n, omega_{x_j}> is the single matrix
from which analysis, synthesis, and frame operators are all assembled.

Built-in kinds:

  dirac             point evaluations, Omega[j][n] = h_n(x_j)
  fourier           analysis returns Fourier-transform samples,
                    Omega[j][n] = (-i)^n h_n(x_j): the real dirac rows
                    times a unit-modulus column phase, stored apart
  dirac_derivative  <f, delta'_x> = -f'(x), Omega[j][n] = -h_n'(x_j)
  weighted_dirac    w(x) delta_x for a real weight expression
  bump_dirac        eta(x) delta_x with a smooth compactly supported bump,
                    normalized to peak value 1 at the midpoint
  custom            an arbitrary kernel matrix loaded from CSV

Built-in rows carry no negligible entries: every entry below NEGLIGIBLE
(2^-500) times the largest |entry| is set to exactly 0 where the rows are
made.  The default grids reach far past the Hermite bulk, where the tails
fall to 1e-200 and below, and products of two such entries inside a Gram or
a QR are subnormal, which the CPU handles on a slow path.  An entry below
the floor adds less than 2^-1000 max|entry|^2 to any Gram entry, so dropping
it moves a spectrum by rounding at most.  The floor is relative, so a map
scaled by a constant gives scaled rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .hermite import hermite_derivative_table, hermite_table
from .quadrature import QuadratureGrid
from .weights import eval_weight, expr_to_string, parse_weight

__all__ = [
    "MAP_KINDS",
    "NEGLIGIBLE",
    "MapSpec",
    "KernelMatrix",
    "dirac_map",
    "fourier_map",
    "dirac_derivative_map",
    "weighted_dirac_map",
    "bump_dirac_map",
    "custom_map",
    "bump_profile",
    "sample_kernel",
    "load_custom_kernel",
    "save_kernel_csv",
]

MAP_KINDS = ("dirac", "fourier", "dirac_derivative", "weighted_dirac", "bump_dirac", "custom")


@dataclass(frozen=True)
class MapSpec:
    """Recipe for a weakly measurable map."""

    kind: str
    weight: object = None
    bump_support: tuple = None
    custom_kernel: str = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise InvalidConfigError(f"unknown map kind {self.kind!r}; expected one of {MAP_KINDS}")
        if self.kind == "weighted_dirac" and self.weight is None:
            raise InvalidConfigError("weighted_dirac requires a weight expression")
        if self.kind == "bump_dirac":
            if self.bump_support is None:
                raise InvalidConfigError("bump_dirac requires a support interval")
            a, b = self.bump_support
            if not a < b:
                raise InvalidConfigError(f"bump support must satisfy a < b, got ({a}, {b})")
            object.__setattr__(self, "bump_support", (float(a), float(b)))
        if self.kind == "custom" and self.custom_kernel is None:
            raise InvalidConfigError("custom maps require a kernel file path")

    def describe(self):
        if self.kind == "weighted_dirac":
            return f"weighted_dirac[{expr_to_string(self.weight)}]"
        if self.kind == "bump_dirac":
            a, b = self.bump_support
            return f"bump_dirac[{a:g},{b:g}]"
        if self.kind == "custom":
            return f"custom[{self.custom_kernel}]"
        return self.kind


def dirac_map():
    return MapSpec("dirac")


def fourier_map():
    return MapSpec("fourier")


def dirac_derivative_map():
    return MapSpec("dirac_derivative")


def weighted_dirac_map(weight):
    if isinstance(weight, str):
        weight = parse_weight(weight)
    return MapSpec("weighted_dirac", weight=weight)


def bump_dirac_map(a, b):
    return MapSpec("bump_dirac", bump_support=(a, b))


def custom_map(path):
    return MapSpec("custom", custom_kernel=str(path))


def bump_profile(a, b, x):
    """The smooth bump exp(1 - 1/(1 - t^2)) on (a, b), zero outside.

    t is the affine image of x onto (-1, 1); the peak value at the midpoint
    is exactly 1, so max |eta| = 1 for bound checks.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    t = (2.0 * xa - a - b) / (b - a)
    out = np.zeros_like(xa)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class KernelMatrix:
    """Sampled kernel Omega[j][n] = <h_n, omega_{x_j}>, rows over grid nodes.

    Omega is stored as ``rows`` times an optional unit-modulus column phase,
    Omega = rows @ diag(phase).  ``rows`` are read-only, float64 when every
    imaginary part is exactly zero and complex otherwise.  Only sample_kernel
    (for fourier) and canonical_dual (for its dual) set a phase; operators
    apply it to N-vectors and N x N matrices, never to the kernel, so a
    fourier kernel is worked on in real arithmetic.  ``entries`` is Omega
    itself, formed when read (read-only, not cached) for a phased kernel.
    """

    rows: np.ndarray
    grid: QuadratureGrid
    map_spec: MapSpec = None
    phase: np.ndarray = field(default=None, kw_only=True)

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise InvalidConfigError(f"kernel entries must be 2-d, got shape {arr.shape}")
        if arr.shape[0] != self.grid.node_count:
            raise InvalidConfigError(
                f"kernel has {arr.shape[0]} rows but the grid has {self.grid.node_count} nodes"
            )
        # The dtype rule: real rows stay float64, and complex rows whose
        # imaginary parts are all exactly zero are stored real, so that every
        # operator on the kernel runs in real arithmetic.  Only truly complex
        # custom kernels stay complex.
        if np.iscomplexobj(arr) and not arr.imag.any():
            arr = arr.real
        dtype = complex if np.iscomplexobj(arr) else float
        # A read-only array is adopted as it is (sample_kernel,
        # load_custom_kernel and canonical_dual hand over arrays they just
        # made); anything a caller can still write to is copied.
        contiguous = arr.flags.c_contiguous or arr.flags.f_contiguous
        if arr.flags.writeable or arr.dtype != dtype or not contiguous:
            arr = np.array(arr, dtype=dtype)
            arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)
        if self.phase is not None:
            phase = np.array(self.phase, dtype=complex)
            if phase.shape != (arr.shape[1],) or np.abs(np.abs(phase) - 1.0).max() > 1e-12:
                raise InvalidConfigError(
                    f"kernel phase must be {arr.shape[1]} unit-modulus values, got shape {phase.shape}"
                )
            phase.setflags(write=False)
            object.__setattr__(self, "phase", phase)

    @property
    def entries(self):
        """Omega = rows @ diag(phase), read-only."""
        if self.phase is None:
            return self.rows
        entries = self.rows * self.phase
        entries.setflags(write=False)
        return entries

    @property
    def node_count(self):
        return self.rows.shape[0]

    @property
    def truncation(self):
        return self.rows.shape[1]

    @property
    def fingerprint(self):
        label = self.map_spec.describe() if self.map_spec is not None else "unspecified"
        return (
            f"{label}|N={self.truncation}|L={self.grid.half_width:.12g}"
            f"|panels={self.grid.panels}|order={self.grid.order}"
        )


def sample_kernel(spec, grid, truncation):
    """Sample a built-in map on a grid at the given truncation."""
    if truncation < 1:
        raise InvalidConfigError(f"truncation must be >= 1, got {truncation}")
    if spec.kind == "custom":
        return load_custom_kernel(spec.custom_kernel, grid, truncation)
    rows = _real_rows(spec, grid.nodes, truncation)
    rows.setflags(write=False)
    phase = (-1j) ** np.arange(truncation) if spec.kind == "fourier" else None
    return KernelMatrix(rows, grid, spec, phase=phase)


def _real_rows(spec, nodes, truncation):
    """Real kernel rows of a built-in kind: the Hermite (or derivative) table
    times the row weight, with negligible entries floored to 0.  fourier
    shares the dirac rows: its unitary (-i)^n column phase, kept apart by
    sample_kernel, commutes with every column scaling and so leaves all
    spectral diagnostics unchanged."""
    if spec.kind == "dirac_derivative":
        table = -hermite_derivative_table(truncation, nodes)
    else:
        table = hermite_table(truncation, nodes)
    if spec.kind == "weighted_dirac":
        # real weights throughout; complex weights go through custom kernels
        table *= eval_weight(spec.weight, nodes)[:, None]
    elif spec.kind == "bump_dirac":
        a, b = spec.bump_support
        table *= bump_profile(a, b, nodes)[:, None]
    _floor_negligible(table)
    return table


# Entries below this fraction of the largest |entry| are set to exactly 0.
NEGLIGIBLE = 2.0**-500
# _floor_negligible works through this many entries at a time.
_FLOOR_BLOCK = 2**15


def _floor_negligible(table):
    """Set every entry of a real table below NEGLIGIBLE * max|table| to 0, in
    place, a block of its contiguous lines at a time: the only temporaries
    are two boolean masks of one block.  Entries keep their sign bit
    (x * 0.0), so an exact -0.0 stays as it was and leaves LAPACK's
    reflector signs alone."""
    floor = NEGLIGIBLE * max(table.max(), -table.min())
    lines = table.T if table.flags.f_contiguous else table
    step = max(1, _FLOOR_BLOCK // lines.shape[1])
    for start in range(0, lines.shape[0], step):
        block = lines[start : start + step]
        small = block < floor
        small &= block > -floor
        if small.any():
            np.multiply(block, 0.0, out=block, where=small)


def save_kernel_csv(kernel, path):
    """Write kernel entries in the interchange schema: header re0,im0,...,
    one row per grid node, 17 significant digits, CRLF line ends as csv writes."""
    entries = kernel.entries if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
    cells = np.empty((entries.shape[0], 2 * entries.shape[1]))
    cells[:, 0::2] = entries.real
    cells[:, 1::2] = entries.imag
    with open(path, "w", newline="") as fh:
        np.savetxt(
            fh, cells, fmt="%.17g", delimiter=",", newline="\r\n", comments="",
            header=",".join(_csv_header(entries.shape[1])),
        )


def _csv_header(truncation):
    return [f"{part}{n}" for n in range(truncation) for part in ("re", "im")]


def load_custom_kernel(path, grid, truncation):
    """Load an M x N complex kernel from CSV and validate it against the grid.

    The data rows are parsed straight from the file opened binary, with no
    copy of its text.  np.loadtxt skips blank lines, so the lines are counted
    first in a streaming pass and a count that differs from the rows parsed
    sends the file to the rescan, which names the offending row."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise InvalidConfigError(f"{path}: empty kernel file")
        header = next(csv.reader([first]), [])
        if [h.strip() for h in header] != _csv_header(truncation):
            raise InvalidConfigError(
                f"{path}: header does not match {truncation} re/im column pairs"
            )
        # the header is read as text, whose line ends include a lone \r
        start = len(first.encode(fh.encoding))
    with open(path, "rb") as fh:
        fh.seek(start)
        count = sum(1 for _ in fh)
        fh.seek(start)
        cells = None
        if count:
            try:
                cells = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if cells is None or cells.shape != (count, 2 * truncation):
        # the fast parse failed or skipped lines: rescan cell by cell, which
        # names the first offending row and column
        cells = _scan_cells(path, truncation)
    if cells.shape[0] != grid.node_count:
        raise InvalidConfigError(
            f"{path}: {cells.shape[0]} data rows but the grid has {grid.node_count} nodes"
        )
    entries = cells.view(complex)
    entries.setflags(write=False)
    return KernelMatrix(entries, grid, custom_map(path))


def _scan_cells(path, truncation):
    with open(path, newline="") as fh:
        fh.readline()
        lines = fh.read().splitlines()
    rows = []
    for i, row in enumerate(csv.reader(lines)):
        if len(row) != 2 * truncation:
            raise InvalidConfigError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {2 * truncation}"
            )
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            bad = next(j for j, cell in enumerate(row) if not _is_float(cell))
            raise InvalidConfigError(
                f"{path}: non-numeric cell at row {i + 1}, column {bad + 1}"
            ) from None
    return np.array(rows, dtype=float).reshape(len(rows), 2 * truncation)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False
