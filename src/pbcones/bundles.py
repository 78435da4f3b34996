"""Complex vector bundles over a closed oriented surface.

Only the data that survives projectivization is kept: the genus of the
base, and either an explicit multiset of line-bundle degrees (completely
decomposable bundles) or an opaque rank/degree pair for a semistable
bundle.  Over genus 0 every bundle splits into line bundles, so a
semistable bundle exists there only when the rank divides the degree
(the balanced split O(a) + ... + O(a)).

All arithmetic is exact: degrees are integers, slopes are fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

__all__ = [
    "SurfaceGenus",
    "Decomposable",
    "SemiStable",
    "BundleSpec",
    "decomposable",
    "rank",
    "degree",
    "slope",
    "twist",
    "sym_power",
    "sym_rank_degree",
    "is_semistable",
]

# Most work sym_power will do, in summands times m: each summand is the
# sum of an m-tuple.  The oracle sweeps reach 84 x 6.  Refusals leave the
# summand count unprinted: at rank 10^4 and m = 10^4 it has 6000 digits.
_MAX_SYM_SUMMANDS = 10**6


class _Record:
    """Base of the package's immutable records.  Each names its fields in
    __slots__ and sets them once, in its __init__, through _setattr.  As on
    a frozen dataclass, the fields in slot order give the equality (same
    type, equal fields), hash, repr, copy and pickle."""

    __slots__ = ()

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_setattr = object.__setattr__  # sets a record's field past _Record.__setattr__


class SurfaceGenus(_Record):
    """Genus of the closed oriented base surface."""

    __slots__ = ("g",)

    def __init__(self, g: int) -> None:
        if g < 0:
            raise ValueError(f"genus must be non-negative, got {g}")
        _setattr(self, "g", g)


class Decomposable(_Record):
    """A direct sum of line bundles, stored as a sorted degree multiset."""

    __slots__ = ("degrees", "base")

    def __init__(self, degrees: tuple[int, ...], base: SurfaceGenus) -> None:
        if not degrees:
            raise ValueError("a decomposable bundle needs at least one summand")
        _setattr(self, "degrees", tuple(sorted(degrees)))
        _setattr(self, "base", base)


class SemiStable(_Record):
    """A semistable bundle known only through its rank and degree.

    The summand structure is deliberately opaque; operations that need
    line-bundle summands reject this variant.
    """

    __slots__ = ("rank", "degree", "base")

    def __init__(self, rank: int, degree: int, base: SurfaceGenus) -> None:
        # Over positive genus one exists for every rank and degree; over
        # genus 0 only the balanced sums are semistable.
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if base.g == 0 and degree % rank:
            raise ValueError(
                "over genus 0 every bundle splits; a semistable bundle of rank "
                f"{rank} and degree {degree} does not exist"
            )
        _setattr(self, "rank", rank)
        _setattr(self, "degree", degree)
        _setattr(self, "base", base)


BundleSpec = Decomposable | SemiStable


def decomposable(*degrees: int, genus: int = 0) -> Decomposable:
    return Decomposable(tuple(degrees), SurfaceGenus(genus))


def rank(b: BundleSpec) -> int:
    if isinstance(b, Decomposable):
        return len(b.degrees)
    return b.rank


def degree(b: BundleSpec) -> int:
    if isinstance(b, Decomposable):
        return sum(b.degrees)
    return b.degree


def slope(b: BundleSpec) -> Fraction:
    """Degree divided by rank, as an exact fraction."""
    return Fraction(degree(b), rank(b))


def twist(b: BundleSpec, t: int) -> BundleSpec:
    """Tensor with a line bundle of degree t."""
    if isinstance(b, Decomposable):
        return Decomposable(tuple(a + t for a in b.degrees), b.base)
    return SemiStable(b.rank, b.degree + b.rank * t, b.base)


def _require_decomposable(b: BundleSpec, op: str) -> Decomposable:
    if not isinstance(b, Decomposable):
        raise ValueError(
            f"{op} needs explicit line-bundle summands; "
            "semistable bundles are opaque"
        )
    return b


def sym_power(b: BundleSpec, m: int) -> Decomposable:
    """m-th symmetric power of a decomposable bundle.

    The summands of s^m(L_1 + ... + L_n) are the degree-m monomials in the
    line bundles, so the degree multiset is { sum_i k_i a_i : k_i >= 0,
    sum k_i = m }, counted with multiplicity.
    """
    b = _require_decomposable(b, "sym_power")
    summands = sym_rank_degree(rank(b), degree(b), m)[0]
    if summands * m > _MAX_SYM_SUMMANDS:
        raise ValueError(f"symmetric power too large: power {m} of rank {rank(b)} sums "
                         f"more than {_MAX_SYM_SUMMANDS} terms")
    out = []
    for combo in combinations_with_replacement(b.degrees, m):
        out.append(sum(combo))
    return Decomposable(tuple(out), b.base)


def sym_rank_degree(r: int, d: int, m: int) -> tuple[int, int]:
    """Rank and degree of the m-th symmetric power of a rank-r degree-d bundle.

    rank s^m = C(m+r-1, m) and c1 scales by C(m+r-1, m-1); both follow
    from the splitting principle and hold for any bundle over a curve.
    """
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"symmetric power exponent must be an int, got {m!r}")
    if m < 1:
        raise ValueError(f"symmetric power exponent must be >= 1, got {m}")
    return math.comb(m + r - 1, m), math.comb(m + r - 1, m - 1) * d


def is_semistable(b: BundleSpec) -> bool:
    """Whether no subbundle has slope above the bundle's slope.

    A direct sum of line bundles is semistable exactly when all degrees
    agree: any summand of maximal degree is a line subbundle realizing
    the maximum, so an unbalanced sum always destabilizes.
    """
    if isinstance(b, SemiStable):
        return True
    return len(set(b.degrees)) == 1
