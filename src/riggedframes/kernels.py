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

The parity rule is stated once, in _pair_split: on a mirrored grid with
an even node count a stage's S is summed from the nodes x > 0 for every
built-in map (operators._stage_operator), and a held kernel whose rows
mirror (|w(x)| == |w(-x)|) is sampled there only: the Hermite recurrence,
the row weight and the floor below run on half the nodes, and the rows at
x < 0 are written as the exact sign mirror row(-x) = s (-1)^n row(x).  The
kernel records s per node pair (KernelMatrix.signs), and every operator
pass over its rows then runs per parity class on the x > 0 half; the coarse
rank rule (operators._CoarseSVD), which serves only kernels a caller hands
over, factors every kernel in one block.  A held kernel of any other weight
is sampled on every node and worked on in one block.

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
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .hermite import _derivative_table, _hermite_recurrence
from .quadrature import QuadratureGrid
from .weights import eval_weight, parse_weight

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

    t is the affine image of x onto (-1, 1), measured from the midpoint; the
    peak value there is exactly 1, so max |eta| = 1 for bound checks.  On a
    support symmetric about 0 the midpoint is 0 and t = x / b, so the profile
    is even bit for bit.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    t = (xa - 0.5 * (a + b)) / (0.5 * (b - a))
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

    ``signs`` is set by sample_kernel alone, for a map whose rows it sampled
    mirrored: the signs of _pair_split.  Operators then take every pass over
    the rows per parity class on the x > 0 half.  Every other kernel, one
    built from rows a caller hands over included, has none and is worked on
    in one block.
    """

    rows: np.ndarray
    grid: QuadratureGrid
    map_spec: MapSpec = None
    phase: np.ndarray = field(default=None, kw_only=True)
    signs: np.ndarray = field(default=None, init=False, repr=False, compare=False)

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


def sample_kernel(spec, grid, truncation):
    """Sample a built-in map on a grid at the given truncation.  Rows that
    mirror (_pair_split's signs) are sampled at the nodes x > 0 only, into
    one Fortran-ordered buffer that takes the rows at x < 0 as their sign
    mirror."""
    if truncation < 1:
        raise InvalidConfigError(f"truncation must be >= 1, got {truncation}")
    if spec.kind == "custom":
        return load_custom_kernel(spec.custom_kernel, grid, truncation)
    nodes = grid.nodes
    weight = _row_weight(spec, nodes)
    split = _pair_split(spec, grid, truncation, weight)
    signs = None if split is None else split[2]
    start = 0 if signs is None else nodes.size // 2
    rows = np.empty((truncation, nodes.size)).T
    sampled = rows[start:]
    _fill_rows(spec, nodes[start:], None if weight is None else weight[start:], sampled)
    if start:
        column, negative = signs[:, None], rows[:start][::-1]
        np.multiply(sampled[:, 0::2], column, out=negative[:, 0::2])
        np.multiply(sampled[:, 1::2], -column, out=negative[:, 1::2])
    rows.setflags(write=False)
    kernel = KernelMatrix(rows, grid, spec, phase=_column_phase(spec, truncation))
    object.__setattr__(kernel, "signs", signs)
    return kernel


def _column_phase(spec, truncation):
    """A built-in kind's column phase: (-i)^n for fourier, else None."""
    return (-1j) ** np.arange(truncation) if spec.kind == "fourier" else None


def _row_weight(spec, nodes):
    """The real factor a built-in kind's rows carry at each node: the weight
    of weighted_dirac, the bump of bump_dirac, None for the other kinds.
    Complex weights go through custom kernels."""
    if spec.kind == "weighted_dirac":
        return eval_weight(spec.weight, nodes)
    if spec.kind == "bump_dirac":
        return bump_profile(*spec.bump_support, nodes)
    return None


def _pair_split(spec, grid, truncation, weight):
    """The one parity rule for a built-in map's rows on a grid: None, or
    (rho, q, signs) at the nodes x > 0 in grid order.

    Since h_n(-x) = (-1)^n h_n(x), a node pair (x, -x) with row weight w
    (``weight``: _row_weight at the grid's nodes, None for the kinds without
    one) adds W h_m h_n (w(x)^2 + w(-x)^2) to a same-parity entry of S and
    W h_m h_n (w(x)^2 - w(-x)^2) to an even-odd one.  So every sum over the
    rows can run on the nodes x > 0 of a mirrored grid with an even node
    count (nodes and weights mirror-symmetric bit for bit, as build_grid's
    and hermite_grid's are; an odd count puts a node at 0, which no default
    grid has) when
    N >= 2.  On any other grid, or at N = 1, the result is None and the rows
    take one block.  Otherwise:

      rho    sqrt((w(x)^2 + w(-x)^2) / 2), the row weight a stage S is
             summed with (operators._stage_operator); None without a w
      q      (w(x)^2 - w(-x)^2) / (w(x)^2 + w(-x)^2) in [-1, 1], 0 where
             both vanish, which scales the odd columns of S's even-odd
             cross block; None when 0 at every node
      signs  s per node pair with row(-x) = s (-1)^n row(x), for held rows
             (sample_kernel, KernelMatrix.signs); set exactly when q is
             None, that is |w(x)| == |w(-x)| at every node (always for
             dirac, fourier and dirac_derivative; a weight or bump even or
             odd in magnitude).  s is -1 where w's sign bit flips (the
             weight x), times -1 for dirac_derivative, whose table has
             h_n'(-x) = (-1)^(n+1) h_n'(x); read off sign bits, zeros
             mirror bit for bit too.

    rho and q are formed from the ratios to the larger magnitude, so no
    square leaves float64 range.  On a pair with |w(x)| == |w(-x)| > 0 both
    ratios are exactly +-1, so rho = |w| and q = 0 exactly (held rows keep
    the signed w, with the same S); on any other pair the smaller ratio is
    at most 1 - 2^-53, so |q| >= 2^-53."""
    nodes, weights = grid.nodes, grid.weights
    if not (
        truncation > 1
        and nodes.size % 2 == 0
        and np.array_equal(nodes, -nodes[::-1])
        and np.array_equal(weights, weights[::-1])
    ):
        return None
    start = nodes.size // 2
    signs = np.full(start, -1.0 if spec.kind == "dirac_derivative" else 1.0)
    if weight is None:
        return None, None, signs
    plus, minus = weight[start:], weight[:start][::-1]
    larger = np.maximum(np.abs(plus), np.abs(minus))
    ratios = np.divide([plus, minus], larger, out=np.zeros((2, start)), where=larger > 0) ** 2
    total = ratios.sum(axis=0)
    rho = larger * np.sqrt(total / 2.0)
    q = np.divide(ratios[0] - ratios[1], total, out=np.zeros(start), where=larger > 0)
    if q.any():
        return rho, q, None
    signs[np.signbit(plus) != np.signbit(minus)] *= -1.0
    return rho, None, signs


def _fill_rows(spec, nodes, weight, out, peak=0.0):
    """Write a built-in kind's real rows at ``nodes`` into ``out``: the
    Hermite (or derivative) table times the row weight, floored against
    ``peak`` (see _floor_negligible, whose peak is returned).  fourier
    shares the dirac rows: its unitary (-i)^n column phase, kept apart by
    sample_kernel, commutes with every column scaling and so leaves all
    spectral diagnostics unchanged."""
    if spec.kind == "dirac_derivative":
        _derivative_table(out.shape[1], nodes, out)
        np.negative(out, out=out)
    else:
        _hermite_recurrence(out.shape[1], nodes, out.T)
    if weight is not None:
        out *= weight[:, None]
    return _floor_negligible(out, peak)


# Entries below this fraction of the largest |entry| are set to exactly 0.
NEGLIGIBLE = 2.0**-500
# _floor_negligible works through this many entries at a time.
_FLOOR_BLOCK = 2**15


def _floor_negligible(table, peak=0.0):
    """Set every entry of a real table below NEGLIGIBLE * max(peak, max|table|)
    (returned) to 0 in place, a block of its lines (rows or columns, whichever
    runs along the smaller stride) at a time: the only temporaries are two
    boolean masks of one block.  Entries keep their sign bit (x * 0.0), so an
    exact -0.0 stays as it was and leaves LAPACK's reflector signs alone."""
    peak = max(peak, table.max(), -table.min())
    floor = NEGLIGIBLE * peak
    lines = table.T if table.strides[0] < table.strides[1] else table
    step = max(1, _FLOOR_BLOCK // lines.shape[1])
    for start in range(0, lines.shape[0], step):
        block = lines[start : start + step]
        small = block < floor
        small &= block > -floor
        if small.any():
            np.multiply(block, 0.0, out=block, where=small)
    return peak


def save_kernel_csv(kernel, path):
    """Write kernel entries in the interchange schema: header re0,im0,...,
    one row per grid node, 17 significant digits (%.17g), CRLF line ends as
    csv writes.  A column that holds only +0.0 (every imaginary column of a
    real kernel) is written as the literal 0 that %.17g gives it, so only
    the other columns are formatted; a column with any -0.0 keeps %.17g,
    which writes -0.  The cells are formed _WRITE_LINES rows at a time, in
    two passes (the literal columns, then the lines), so no M x 2N array of
    them, nor a phased kernel's complex entries, is ever held whole."""
    if isinstance(kernel, KernelMatrix):
        rows, phase = kernel.rows, kernel.phase
    else:
        rows, phase = np.asarray(kernel), None

    def cell_blocks():
        for start in range(0, rows.shape[0], _WRITE_LINES):
            entries = rows[start : start + _WRITE_LINES]
            entries = entries if phase is None else entries * phase
            cells = np.empty((entries.shape[0], 2 * entries.shape[1]))
            cells[:, 0::2] = entries.real
            cells[:, 1::2] = entries.imag
            yield cells

    # +0.0 is the one float whose bits are all 0
    literal = np.ones(2 * rows.shape[1], bool)
    for cells in cell_blocks():
        literal &= ~cells.view(np.int64).any(axis=0)
    line = ",".join("0" if zero else "%.17g" for zero in literal) + "\r\n"
    formatted = np.flatnonzero(~literal)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(rows.shape[1])) + "\r\n")
        for cells in cell_blocks():
            for row in cells[:, formatted]:
                fh.write(line % tuple(row.tolist()))


# save_kernel_csv forms the cells of this many rows at a time.
_WRITE_LINES = 256


def _csv_header(truncation):
    return [f"{part}{n}" for n in range(truncation) for part in ("re", "im")]


def load_custom_kernel(path, grid, truncation):
    """Load an M x N complex kernel from CSV and validate it against the grid.

    The data rows are parsed straight from the file opened binary, with no
    copy of its text, a block of lines at a time into preallocated arrays
    (_parse_entries).  np.loadtxt skips blank lines (and warns on a file of
    nothing else), so the lines are counted first in a streaming pass: a
    blank line, or a block that parses to fewer rows or other widths, sends
    the file to the rescan, which names the offending row.

    The rows of the last fast parse in the process are kept for reuse, keyed
    by the SHA-256 of the data bytes (every byte after the header line) and
    N.  The counting pass takes the digest, so a load of unchanged bytes
    reuses the same read-only rows without parsing them again, whatever the
    path or the file's times; the header and node-count checks run on every
    load.  On a miss the parse pass hashes the lines it parses, and the rows
    are kept only when that digest is the counting pass's, so bytes
    rewritten during a load are never kept under another file's key.  Rows
    from the rescan are never kept.  What is held is one kernel's rows
    (7.5 MiB at N = 256 on its default stage), and a miss pays the hash
    twice on top of the parse: about 40 ms on a 0.35-0.5 s load at N = 256
    (22 MiB of text, one Xeon core), where a hit takes 35-45 ms."""
    import hashlib  # loads OpenSSL: imported only where a kernel file is read

    global _last_parse
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
        digest, blank = hashlib.sha256(), []
        for line in fh:
            digest.update(line)
            blank.append(line.isspace())
        key = digest.digest(), truncation
        entries = fresh = None
        if blank and not any(blank):
            last = _last_parse
            if last is not None and last[0] == key:
                entries = last[1]
            else:
                # the kept rows go before a parse, so a load never holds two
                _last_parse = None
                fh.seek(start)
                parsed = hashlib.sha256()
                try:
                    entries = _parse_entries(_hashed(fh, parsed), len(blank), truncation)
                except ValueError:
                    pass
                if entries is not None and parsed.digest() == key[0]:
                    fresh = entries
    if entries is None:
        # the fast parse failed or skipped lines: rescan cell by cell, which
        # names the first offending row and column
        entries = _scan_cells(path, truncation).view(complex)
    if entries.shape[0] != grid.node_count:
        raise InvalidConfigError(
            f"{path}: {entries.shape[0]} data rows but the grid has {grid.node_count} nodes"
        )
    entries.setflags(write=False)
    if fresh is not None:
        _last_parse = key, fresh
    return KernelMatrix(entries, grid, custom_map(path))


# (key, rows) of load_custom_kernel's last fast parse, or None: the key is
# the SHA-256 of the data bytes and N, the rows read-only.
_last_parse = None


def _hashed(lines, digest):
    """``lines`` as they come, each fed to ``digest`` first."""
    for line in lines:
        digest.update(line)
        yield line


# _parse_entries reads this many data lines per np.loadtxt call.
_PARSE_LINES = 256


def _parse_entries(fh, count, truncation):
    """The entries of the ``count`` data lines ahead in ``fh``, or None when
    a block parses to fewer lines or another width.  Each block is split
    into preallocated real and imaginary arrays, the imaginary one made only
    at the first imaginary part that is not +0.0 (the float whose bits are
    all 0), so a real kernel is parsed at half the bytes of its cells.  Both
    are sized by the line count, so the heap a load leaves behind does not
    depend on how np.loadtxt would grow one output for the whole file."""
    real, imag = np.empty((count, truncation)), None
    for start in range(0, count, _PARSE_LINES):
        stop = min(start + _PARSE_LINES, count)
        cells = np.loadtxt(itertools.islice(fh, stop - start), delimiter=",", comments=None, ndmin=2)
        if cells.shape != (stop - start, 2 * truncation):
            return None
        real[start:stop] = cells[:, 0::2]
        if imag is None and cells[:, 1::2].view(np.int64).any():
            imag = np.zeros_like(real)
        if imag is not None:
            imag[start:stop] = cells[:, 1::2]
    # KernelMatrix stores rows real when every imaginary part is 0 (+0.0 or -0.0)
    if imag is None or not imag.any():
        return real
    entries = np.empty(real.shape, complex)
    entries.real, entries.imag = real, imag
    return entries


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
