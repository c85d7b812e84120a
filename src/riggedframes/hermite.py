"""Truncated Hermite model of test functions and tempered distributions.

The L2-orthonormal Hermite functions h_n form the fixed reference basis.
A test function is held as its first N coefficients; a distribution is held
as its action on the first N basis functions.  The duality pairing extends
the L2 inner product and is linear in the test-function slot and
conjugate-linear in the distribution slot, so for embedded functions
``pair(f, embed(g)) == inner_product(f, g)`` exactly.

The Schwartz topology is modeled by the number-operator seminorms
p_k(f) = (sum_n (1+n)^k |c_n|^2)^(1/2); p_0 is the plain L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "TestFunction",
    "DistributionSample",
    "hermite_eval",
    "hermite_table",
    "hermite_derivative_table",
    "derivative_coeffs",
    "fourier_coeffs",
    "inner_product",
    "seminorm",
    "pair",
    "embed",
    "dirac_sample",
    "random_test_function",
]


def hermite_eval(n, x):
    """Evaluate the L2-orthonormal Hermite function h_n at x.

    Uses the normalized three-term recurrence

        h_{n+1}(x) = x*sqrt(2/(n+1))*h_n(x) - sqrt(n/(n+1))*h_{n-1}(x)

    seeded with h_0(x) = pi^(-1/4) exp(-x^2/2).  Unlike the classical
    polynomial formula, the normalized recurrence stays in range for large
    n, and where the seed underflows it runs on a scaled mantissa (see
    _hermite_recurrence).  Accepts a scalar or an array of evaluation
    points; the values equal hermite_table's column n bit for bit.
    """
    if n < 0:
        raise ValueError(f"Hermite index must be nonnegative, got {n}")
    xa = np.asarray(x, dtype=float)
    rows = np.empty((min(n + 1, 3), xa.size))
    _hermite_recurrence(n + 1, xa.reshape(-1), rows)
    h = rows[n % len(rows)].reshape(xa.shape)
    return float(h) if h.ndim == 0 else h


def hermite_table(truncation, x):
    """Table of h_n(x_j) for n < truncation; shape (len(x), truncation).

    The recurrence fills one contiguous row per degree, so the table comes
    back Fortran-ordered (the transpose of that buffer).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((truncation, xa.size))
    _hermite_recurrence(truncation, xa, rows)
    return rows.T


# A scaled mantissa past this is brought back below 1 by a power of two.
_RESCALE = 2.0**500


def _hermite_recurrence(truncation, xa, rows):
    """Write h_n(xa) into rows[n % len(rows)] for every n < truncation: a
    buffer of ``truncation`` rows keeps the whole table, one of 3 rows the
    last values.

    Where the seed pi^(-1/4) exp(-x^2/2) is not a normal float (|x| > ~37.6)
    the recurrence runs on the mantissa m_n = h_n exp(x^2/2) 2^(-e) with a
    per-node binary exponent e instead (Bunck, BIT 49, 2009): m_0 =
    pi^(-1/4), e = 0, and once the two live mantissas pass 2^500 both are
    divided by a power of two (exactly) and e grows to match.  No step grows
    a mantissa by more than sqrt(2)|x| + 1, so checking every
    500 / log2(sqrt(2)|x| + 2) steps cannot overflow.  The rows are turned
    into h_n = m_n 2^e exp(-x^2/2) at the end, one run of rows with the same
    exponents at a time.  Every other node takes the plain recurrence, bit
    for bit.
    """
    size = len(rows)
    rows[0] = np.pi ** -0.25 * np.exp(-0.5 * xa**2)
    scaled = np.flatnonzero(rows[0] < np.finfo(float).tiny)
    if scaled.size:
        rows[0, scaled] = np.pi ** -0.25
        exponent = np.zeros(scaled.size, dtype=int)
        runs = [(0, exponent.copy())]  # (first row, exponents) of each run of rows
        every = max(1, int(500 // math.log2(math.sqrt(2.0) * np.abs(xa[scaled]).max() + 2.0)))
    if truncation > 1:
        rows[1] = np.sqrt(2.0) * xa * rows[0]
    older = np.empty(xa.size)
    # entry n - 1 of each: sqrt(2/(n+1)) and sqrt(n/(n+1)), rounded as the scalars
    lift = np.sqrt(2.0 / np.arange(2.0, truncation))
    keep = np.sqrt(np.arange(1.0, truncation - 1) / np.arange(2.0, truncation))
    for n in range(1, truncation - 1):
        # (x sqrt(2/(n+1))) h_n - sqrt(n/(n+1)) h_{n-1}, written in place:
        # the same roundings as the expression, with no temporaries
        new = rows[(n + 1) % size]
        np.multiply(xa, lift[n - 1], out=new)
        new *= rows[n % size]
        new -= np.multiply(keep[n - 1], rows[(n - 1) % size], out=older)
        if scaled.size and n % every == 0:
            live = rows[[[n % size], [(n + 1) % size]], scaled]
            peak = np.abs(live).max(axis=0)
            big = peak > _RESCALE
            if big.any():
                shift = np.frexp(peak[big])[1]
                rows[[[n % size], [(n + 1) % size]], scaled[big]] = np.ldexp(live[:, big], -shift)
                exponent[big] += shift
                runs.append((n, exponent.copy()))
    if scaled.size:
        half_square = 0.5 * xa[scaled] ** 2
        factor = np.ones(xa.size)  # times 1.0 leaves the other nodes exact
        for (start, e), (stop, _) in zip(runs, runs[1:] + [(truncation, None)]):
            factor[scaled] = np.exp(e * math.log(2.0) - half_square)
            for n in range(max(start, truncation - size), stop):  # rows still in the buffer
                rows[n % size] *= factor


def hermite_derivative_table(truncation, x):
    """Table of h_n'(x_j) for n < truncation, from the ladder relation
    h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((truncation, xa.size)).T
    _derivative_table(truncation, xa, out)
    return out


def _derivative_table(truncation, xa, out):
    """Write h_n'(xa) for n < truncation into ``out``, of shape (len(xa),
    truncation), by the ladder relation."""
    table = hermite_table(truncation + 1, xa)
    n = np.arange(truncation)
    np.multiply(-np.sqrt((n + 1) / 2.0), table[:, 1:], out=out)
    out[:, 1:] += np.sqrt(n[1:] / 2.0) * table[:, :-2]


def _frozen_complex_vector(values, what):
    arr = np.array(values, dtype=complex, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TestFunction:
    """A test function as its truncated Hermite coefficient vector.

    The L2 norm is computable from the coefficients alone (Parseval):
    ``norm()**2 == sum |c_n|^2``.
    """

    coeffs: np.ndarray

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_complex_vector(self.coeffs, "coeffs"))

    @property
    def truncation(self):
        return self.coeffs.size

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __call__(self, x):
        """Pointwise values sum_n c_n h_n(x)."""
        vals = hermite_table(self.truncation, np.atleast_1d(x)) @ self.coeffs
        return complex(vals[0]) if np.ndim(x) == 0 else vals

    @classmethod
    def basis(cls, n, truncation):
        c = np.zeros(truncation, dtype=complex)
        c[n] = 1.0
        return cls(c)

    @classmethod
    def zero(cls, truncation):
        return cls(np.zeros(truncation, dtype=complex))


@dataclass(frozen=True)
class DistributionSample:
    """A tempered distribution as its action on the first N Hermite functions.

    ``pairings[n]`` is the value the conjugate-linear functional takes on
    h_n; for an embedded test function this is exactly its coefficient
    vector, which is what makes ``pair(f, embed(g)) == inner_product(f, g)``
    hold with no conjugation surprises.
    """

    pairings: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "pairings", _frozen_complex_vector(self.pairings, "pairings")
        )

    @property
    def truncation(self):
        return self.pairings.size


def _check_same_truncation(a, b):
    if a.truncation != b.truncation:
        raise DimensionMismatchError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def inner_product(f, g):
    """<f, g>, linear in f and conjugate-linear in g."""
    _check_same_truncation(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))


def pair(f, sample):
    """Duality pairing <f, F> of a test function with a distribution.

    Extends the inner product: ``pair(f, embed(g)) == inner_product(f, g)``.
    """
    _check_same_truncation(f, sample)
    return complex(np.vdot(sample.pairings, f.coeffs))


def embed(f):
    """Embed a test function into the distribution space."""
    return DistributionSample(f.coeffs)


def dirac_sample(x, truncation):
    """The point-evaluation distribution at x: ``pair(f, dirac_sample(x, N))``
    is f(x) summed over the first N modes."""
    return DistributionSample(hermite_table(truncation, [float(x)])[0])


def derivative_coeffs(f):
    """Coefficients of f', truncated back to f's length.

    Returns ``(derivative, spill)`` where spill is the magnitude
    sqrt(N/2)*|c_{N-1}| of the dropped coefficient at index N.  Truncation
    experiments need that number in their error budgets, so it is reported
    instead of silently discarded.
    """
    c = f.coeffs
    n = np.arange(c.size)
    d = np.zeros(c.size, dtype=complex)
    d[:-1] += np.sqrt(n[1:] / 2.0) * c[1:]
    d[1:] -= np.sqrt(n[1:] / 2.0) * c[:-1]
    spill = float(np.sqrt(c.size / 2.0) * abs(c[-1]))
    return TestFunction(d), spill


def fourier_coeffs(f, inverse=False):
    """Fourier transform in coefficient space.

    The transform diagonalizes over the Hermite basis with eigenvalue
    (-i)^n, so it acts as a unimodular diagonal; ``inverse=True`` applies
    the conjugate phases.
    """
    phases = (1j if inverse else -1j) ** np.arange(f.truncation)
    return TestFunction(phases * f.coeffs)


def seminorm(f, k):
    """Number-operator seminorm p_k(f) = (sum (1+n)^k |c_n|^2)^(1/2)."""
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    n = np.arange(f.truncation)
    return float(np.sqrt(np.sum((1.0 + n) ** k * np.abs(f.coeffs) ** 2)))


def random_test_function(truncation, rng):
    """Test function with unit-Gaussian complex coefficients from ``rng``."""
    c = rng.standard_normal(truncation) + 1j * rng.standard_normal(truncation)
    return TestFunction(c)
