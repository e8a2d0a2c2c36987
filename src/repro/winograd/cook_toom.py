"""Cook-Toom construction of Winograd convolution transforms.

Winograd's minimal filtering algorithm F(m, r) computes ``m`` outputs of
a valid correlation with an ``r``-tap filter from ``n = m + r - 1``
inputs using only ``n`` general multiplications:

    y = A^T [ (G g) ⊙ (B^T d) ]

This module constructs the transform matrices for any output size ``m``,
filter size ``r`` and set of interpolation points, over exact rational
arithmetic (:class:`fractions.Fraction`), following the classical
Toom-Cook evaluation/interpolation derivation (see Lavin & Gray's
"Fast Algorithms for Convolutional Neural Networks" and Alam et al.,
"Winograd Convolution for Deep Neural Networks: Efficient Point
Selection" — reference [1] of the paper).

Derivation (also checked property-based in the test suite).  Linear
convolution of the filter polynomial ``g(x)`` (degree r-1) and a data
polynomial ``d(x)`` (degree m-1) is evaluated at ``n-1`` finite points
``a_i`` plus the point at infinity and interpolated back:

    lin_g = C · diag(G g) · E

where ``E`` (n x m) evaluates ``d``, ``G`` (n x r) evaluates ``g`` (with
the Lagrange denominators folded in), and ``C`` (n x n) interpolates.
Valid correlation is the *transpose* of linear convolution as a linear
map of the data, so

    corr_g = E^T · diag(G g) · C^T  =  A^T diag(G g) B^T

with ``A^T = E^T`` and ``B^T = C^T``.  The rows of ``B^T`` are therefore
the coefficient vectors of the Lagrange numerator polynomials
``Π_{k≠i}(x - a_k)`` and, for the infinity row, of
``M(x) = Π_k (x - a_k)``.

The paper uses NNPACK's F(6x6, 3x3): 8x8 input tiles, 3x3 filters,
6x6 outputs — i.e. the 2D nesting of F(6, 3) with the interpolation
points ``0, ±1, ±2, ±1/2`` (plus infinity), exposed here as
:data:`NNPACK_POINTS_F6X3` / :func:`f6x3_transforms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

#: Interpolation points of NNPACK's F(6x6, 3x3) kernels (plus infinity):
#: small magnitudes and exact binary fractions keep fp32 error low.
NNPACK_POINTS_F6X3: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)

#: Classic F(2, 3) points (plus infinity), for tests and small tiles.
POINTS_F2X3: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(-1))

#: Classic F(4, 3) points (plus infinity).
POINTS_F4X3: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
)


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Multiply two polynomials given as ascending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def _poly_from_roots(roots: Sequence[Fraction]) -> list[Fraction]:
    """Monic polynomial with the given roots, ascending coefficients."""
    poly = [Fraction(1)]
    for rt in roots:
        poly = _poly_mul(poly, [-rt, Fraction(1)])
    return poly


@dataclass(frozen=True)
class WinogradTransforms:
    """The three transform matrices of F(m, r), exact and as float arrays.

    Attributes:
        m: number of outputs per application (output tile size per dim).
        r: filter taps per dimension.
        points: the finite interpolation points used (infinity implied).
        AT: output (inverse) transform, shape (m, n).
        G: filter transform, shape (n, r).
        BT: input transform, shape (n, n).
    """

    m: int
    r: int
    points: tuple[Fraction, ...]
    AT_exact: tuple[tuple[Fraction, ...], ...]
    G_exact: tuple[tuple[Fraction, ...], ...]
    BT_exact: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        """Input tile size per dimension: m + r - 1."""
        return self.m + self.r - 1

    def _as_array(self, mat: tuple[tuple[Fraction, ...], ...], dtype) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in mat], dtype=dtype)

    def AT(self, dtype=np.float64) -> np.ndarray:
        return self._as_array(self.AT_exact, dtype)

    def G(self, dtype=np.float64) -> np.ndarray:
        return self._as_array(self.G_exact, dtype)

    def BT(self, dtype=np.float64) -> np.ndarray:
        return self._as_array(self.BT_exact, dtype)

    # ------------------------------------------------------------------
    def correlate_1d(self, d: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Compute the m valid correlation outputs through the transforms.

        Reference-semantics helper used by tests: ``y[i] = sum_j g[j] *
        d[i+j]``.
        """
        d = np.asarray(d, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if d.shape != (self.n,) or g.shape != (self.r,):
            raise ConfigError(
                f"F({self.m},{self.r}) expects d of length {self.n} and g of "
                f"length {self.r}, got {d.shape} and {g.shape}"
            )
        return self.AT() @ ((self.G() @ g) * (self.BT() @ d))

    def correlate_2d(self, d: np.ndarray, g: np.ndarray) -> np.ndarray:
        """2D nested form: ``Y = A^T [ (G g G^T) ⊙ (B^T d B) ] A``."""
        d = np.asarray(d, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if d.shape != (self.n, self.n) or g.shape != (self.r, self.r):
            raise ConfigError(
                f"2D F({self.m},{self.r}) expects {self.n}x{self.n} input "
                f"tile and {self.r}x{self.r} filter, got {d.shape}, {g.shape}"
            )
        AT, G, BT = self.AT(), self.G(), self.BT()
        U = G @ g @ G.T
        V = BT @ d @ BT.T
        return AT @ (U * V) @ AT.T

    def multiplication_count_2d(self) -> int:
        """General multiplications per 2D tile: n^2 (vs m^2 r^2 direct)."""
        return self.n * self.n

    def arithmetic_reduction_2d(self) -> float:
        """Direct-to-Winograd multiplication ratio, e.g. 5.0625 for F(6,3)."""
        return (self.m * self.r) ** 2 / float(self.n * self.n)


def cook_toom(m: int, r: int, points: Sequence[Fraction] | None = None) -> WinogradTransforms:
    """Construct F(m, r) transform matrices from interpolation points.

    Args:
        m: outputs per application (per dimension); must be >= 1.
        r: filter taps (per dimension); must be >= 1.
        points: ``m + r - 2`` distinct finite interpolation points (the
            point at infinity is always used in addition).  Defaults to
            the symmetric small-magnitude sets used in practice for the
            common sizes, or ``0, 1, -1, 2, -2, ...`` otherwise.

    Returns:
        A :class:`WinogradTransforms` with exact rational matrices.

    Raises:
        ConfigError: for invalid sizes or repeated points.
    """
    if m < 1 or r < 1:
        raise ConfigError(f"F(m={m}, r={r}) requires m >= 1 and r >= 1")
    n = m + r - 1
    num_finite = n - 1
    if points is None:
        points = default_points(num_finite)
    pts = tuple(Fraction(p) for p in points)
    if len(pts) != num_finite:
        raise ConfigError(
            f"F({m},{r}) needs exactly {num_finite} finite points, got {len(pts)}"
        )
    if len(set(pts)) != len(pts):
        raise ConfigError(f"interpolation points must be distinct, got {pts}")

    # Lagrange denominators N_i = prod_{k != i} (a_i - a_k).
    denoms = [
        Fraction(int(np.prod([1])))
        for _ in range(num_finite)
    ]
    for i in range(num_finite):
        prod = Fraction(1)
        for k in range(num_finite):
            if k != i:
                prod *= pts[i] - pts[k]
        denoms[i] = prod

    # G (n x r): filter evaluation with denominators folded in.
    G_rows: list[tuple[Fraction, ...]] = []
    for i in range(num_finite):
        G_rows.append(tuple(pts[i] ** j / denoms[i] for j in range(r)))
    G_rows.append(tuple(Fraction(1) if j == r - 1 else Fraction(0) for j in range(r)))

    # A^T (m x n): data evaluation transposed.
    AT_rows: list[tuple[Fraction, ...]] = []
    for j in range(m):
        row = [pts[i] ** j for i in range(num_finite)]
        row.append(Fraction(1) if j == m - 1 else Fraction(0))
        AT_rows.append(tuple(row))

    # B^T (n x n): interpolation transposed. Row i (finite) holds the
    # coefficients of prod_{k != i} (x - a_k) padded to length n; the
    # infinity row holds the coefficients of M(x) = prod_k (x - a_k).
    BT_rows: list[tuple[Fraction, ...]] = []
    for i in range(num_finite):
        numer = _poly_from_roots([pts[k] for k in range(num_finite) if k != i])
        padded = numer + [Fraction(0)] * (n - len(numer))
        BT_rows.append(tuple(padded))
    mpoly = _poly_from_roots(list(pts))
    BT_rows.append(tuple(mpoly + [Fraction(0)] * (n - len(mpoly))))

    return WinogradTransforms(
        m=m,
        r=r,
        points=pts,
        AT_exact=tuple(AT_rows),
        G_exact=tuple(G_rows),
        BT_exact=tuple(BT_rows),
    )


def default_points(num_finite: int) -> tuple[Fraction, ...]:
    """Practical interpolation point sets by count.

    Uses the community-standard sets for the common sizes (matching
    NNPACK for F(6, 3)) and a generic ``0, ±1, ±2, ±1/2, ±3, ...``
    progression beyond.
    """
    known = {
        2: POINTS_F2X3[:2],
        3: POINTS_F2X3,
        5: POINTS_F4X3,
        7: NNPACK_POINTS_F6X3,
    }
    if num_finite in known:
        return tuple(known[num_finite])
    seq: list[Fraction] = [Fraction(0)]
    k = 1
    while len(seq) < num_finite:
        for cand in (Fraction(k), Fraction(-k), Fraction(1, k + 1), Fraction(-1, k + 1)):
            if len(seq) < num_finite and cand not in seq:
                seq.append(cand)
        k += 1
    return tuple(seq[:num_finite])


@lru_cache(maxsize=None)
def f6x3_transforms() -> WinogradTransforms:
    """NNPACK's F(6x6, 3x3): 8x8 tiles, 3x3 filters, 6x6 outputs.

    Built once and cached: the transforms are immutable (frozen
    ``Fraction`` tuples; the float-array accessors build fresh arrays),
    and every Winograd phase model and kernel driver asks for them.
    """
    return cook_toom(6, 3, NNPACK_POINTS_F6X3)
