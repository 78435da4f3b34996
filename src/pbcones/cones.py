"""Curve cones, Kahler cones and restricted Kahler-cone ratios.

For a completely decomposable bundle the curve cone of the
projectivization is spanned by the fiber line l and the section
C_1 = a_1*l + eta of a minimal-degree summand (degree a_1), so by the
Kleiman criterion a class x*h + y*F is Kahler exactly when x > 0 and
a_1*x + y > 0.  For a semistable bundle over positive genus the Kahler
cone is the whole forward cone.

The restricted-ratio machinery answers: over the projectivization of
V + O, how small can the ratio of the restriction to the subbundle
divisor P(V) get while the ambient class stays Kahler?  The infimum is
a function of deg V, the rank and the genus only, and explicit model
bundles realize it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .bundles import (
    BundleSpec,
    Decomposable,
    SemiStable,
    SurfaceGenus,
    _Record,
    _setattr,
    degree,
    rank,
    slope,
)
from .cohomology import (
    BundleContext,
    Convention,
    CurveClass,
    DivisorClass,
    _exact,
    _half_plane,
    line_class,
    topological_residue,
)

__all__ = [
    "Exactness",
    "ConeDescription",
    "SemistablePlusLine",
    "AmbientBundle",
    "RestrictedRatioResult",
    "NoSuchClassError",
    "admissibility_bound",
    "bundle_context",
    "balanced_form",
    "plus_trivial_line",
    "kahler_cone",
    "kahler_membership",
    "kahler_cone_ratio",
    "matching_bundle",
    "restricted_ratio",
    "kahler_class_for_ratio",
    "restrict_to_divisor",
]


class NoSuchClassError(ValueError):
    """No Kahler class achieves the requested restricted ratio."""


class Exactness(str, Enum):
    EXACT = "exact"
    SUFFICIENT_ONLY = "sufficient-only"


class ConeDescription(_Record):
    """A cone cut out by x > 0 and boundary_slope * x + y > 0.

    For curve cones the extremal rays are listed; the same inequality pair
    describes the dual Kahler cone.  SUFFICIENT_ONLY marks cones where the
    inequality is known to imply membership but the exact boundary is not
    established.
    """

    __slots__ = ("rays", "exactness", "boundary_slope")

    def __init__(self, rays: tuple[CurveClass, ...], exactness: Exactness,
                 boundary_slope: Fraction) -> None:
        _setattr(self, "rays", rays)
        _setattr(self, "exactness", exactness)
        _setattr(self, "boundary_slope", boundary_slope)


class SemistablePlusLine(_Record):
    """V + O for an opaque semistable bundle V and the trivial line bundle O.

    The total space of the model triple P(V + O) when V is semistable: the
    sum is in general neither a sum of lines nor semistable, but its Kahler
    cone has a known sufficient half-plane as long as slope(V) <= 0.
    """

    __slots__ = ("semistable",)

    def __init__(self, semistable: SemiStable) -> None:
        _setattr(self, "semistable", semistable)

    @property
    def base(self) -> SurfaceGenus:
        return self.semistable.base

    @property
    def rank(self) -> int:
        return self.semistable.rank + 1

    @property
    def degree(self) -> int:
        return self.semistable.degree


AmbientBundle = Decomposable | SemistablePlusLine


def bundle_context(b: BundleSpec | SemistablePlusLine) -> BundleContext:
    return BundleContext(rank(b), degree(b), Convention.QUOTIENT, b.base)


def balanced_form(b: SemiStable) -> Decomposable:
    """The balanced line-bundle splitting of a genus-0 semistable bundle."""
    if b.base.g != 0:
        raise ValueError("balanced splitting only applies over genus 0")
    a = b.degree // b.rank
    return Decomposable((a,) * b.rank, b.base)


def plus_trivial_line(b: BundleSpec) -> AmbientBundle:
    """The bundle V + O modeling the total space of the blow-down triple."""
    if isinstance(b, Decomposable):
        return Decomposable(b.degrees + (0,), b.base)
    if b.base.g == 0:
        return Decomposable(balanced_form(b).degrees + (0,), b.base)
    return SemistablePlusLine(b)


def _kahler_slope(b: BundleSpec | SemistablePlusLine) -> tuple[int, int]:
    """The boundary slope s = p/q (q > 0) of the Kahler cone
    {x > 0, s*x + y > 0}, as the integer pair (p, q).

    Decomposable: the minimal summand degree a_1, the degree of the
    extremal section.  Semistable: the slope, which over genus 0 is the
    summand degree of the balanced splitting.  Semistable V plus O, with
    slope(V) <= 0: every quotient line bundle of every symmetric power has
    degree at least m * slope(V), so s = slope(V) bounds a half-plane of
    Kahler classes; the exact boundary is not claimed.
    """
    if isinstance(b, Decomposable):
        return min(b.degrees), 1
    if isinstance(b, SemiStable):
        return b.degree, b.rank
    v = b.semistable
    if v.degree > 0:
        raise ValueError(
            "Kahler cone unknown: the trivial summand's slope is below the "
            "semistable slope"
        )
    return v.degree, v.rank


def kahler_cone(b: BundleSpec | SemistablePlusLine) -> ConeDescription:
    """The Kahler cone of the projectivization, as an inequality pair, with
    the extremal rays of its dual curve cone where they are known.

    Decomposable: the curve cone is spanned by l and a_1*l + eta where a_1
    is the minimal summand degree.  Every m-section comes from a quotient
    line bundle of the m-th symmetric power, whose degree is at least
    m*a_1 because all symmetric-power summands have degree >= m*a_1; the
    minimal summand's section attains the bound.

    Semistable over positive genus: only the l ray is pinned down, but the
    Kahler cone is exactly the forward cone, which the description records.
    Genus-0 semistable bundles are balanced splittings and get the same
    two rays as their splitting.

    Semistable plus a line: a half-plane of Kahler classes, not the whole
    Kahler cone, marked SUFFICIENT_ONLY.
    """
    s, ctx = Fraction(*_kahler_slope(b)), bundle_context(b)
    if isinstance(b, SemistablePlusLine):
        return ConeDescription((line_class(ctx),), Exactness.SUFFICIENT_ONLY, s)
    if isinstance(b, SemiStable) and b.base.g > 0:
        return ConeDescription((line_class(ctx),), Exactness.EXACT, s)
    return ConeDescription((line_class(ctx), CurveClass(int(s), 1, ctx)), Exactness.EXACT, s)


def kahler_membership(u: DivisorClass, b: BundleSpec | SemistablePlusLine) -> bool:
    """Whether u is a Kahler class on the projectivization of b.

    Exact for decomposable bundles and for semistable bundles over
    positive genus; for semistable-plus-line sums the test is the known
    sufficient half-plane, so False may mean unknown.
    """
    ctx = u.ctx
    if ctx.convention is not Convention.QUOTIENT:
        raise ValueError("Kahler membership is computed in the quotient convention")
    if (ctx.rank, ctx.degree, ctx.genus) != (rank(b), degree(b), b.base):
        want = bundle_context(b)
        raise ValueError(
            f"class context (rank {ctx.rank}, degree {ctx.degree}, "
            f"genus {ctx.genus.g}) does not match the bundle "
            f"(rank {want.rank}, degree {want.degree}, genus {want.genus.g})"
        )
    p, q = _kahler_slope(b)  # an unknown cone raises whatever u is
    return u.x.numerator > 0 and _half_plane(u.x, u.y, p, q) > 0


def kahler_cone_ratio(b: BundleSpec) -> Fraction:
    """Infimum of the ratio over the Kahler cone (not attained).

    The ratio rewrites as n*(slope - s) + n*(s*x + y)/x, so over the cone
    s*x + y > 0 the infimum is n*(slope - s): sum(a_j - a_1) for degrees
    a_j, 0 for a semistable bundle.  A semistable-plus-line sum is
    refused: its s bounds the cone from inside only.
    """
    if isinstance(b, SemistablePlusLine):
        raise ValueError("Kahler cone ratio needs the exact cone; a semistable-plus-line "
                         "sum has a sufficient half-plane only")
    return rank(b) * (slope(b) - Fraction(*_kahler_slope(b)))


def matching_bundle(alpha: int, n: int, genus: SurfaceGenus) -> BundleSpec:
    """Model bundle V of rank n and degree alpha minimizing the restricted ratio.

    Negative alpha over positive genus: any semistable bundle works.
    Otherwise: split alpha = q*n + t with 0 <= t <= n-1 and take degrees
    q repeated n-t times and q+1 repeated t times (for alpha >= 0 this is
    the twist of a partly-trivial sum by degree q).
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if alpha < 0 and genus.g > 0:
        return SemiStable(n, alpha, genus)
    q, t = divmod(alpha, n)
    return Decomposable((q,) * (n - t) + (q + 1,) * t, genus)


def admissibility_bound(alpha: int, n: int, genus: SurfaceGenus) -> int:
    """Strict lower bound a divisor's ratio must exceed to be admissible:
    alpha over positive genus, max(alpha, alpha mod n) over genus 0."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if genus.g > 0:
        return alpha
    return max(alpha, topological_residue(alpha, n))


def _ratio_infimum(alpha: int, n: int, genus: SurfaceGenus) -> int:
    """The restricted-ratio infimum, never attained."""
    return max(0, admissibility_bound(alpha, n, genus))


class RestrictedRatioResult(_Record):
    """Infimum of restriction ratios over ambient Kahler classes on P(V + O);
    the infimum is never attained."""

    __slots__ = ("value", "achieving_bundle")

    def __init__(self, value: Fraction, achieving_bundle: BundleSpec) -> None:
        _setattr(self, "value", value)
        _setattr(self, "achieving_bundle", achieving_bundle)


def restricted_ratio(alpha: int, n: int, genus: SurfaceGenus) -> RestrictedRatioResult:
    """Least ratio on the divisor P(V), deg V = alpha, forced by an ambient
    Kahler class on P(V + O), with the matching bundle V that realizes it.

    Over positive genus the answer is max(0, alpha): for alpha < 0 a
    semistable V puts the whole forward half-plane y/x > -alpha/n in the
    ambient Kahler cone, and for alpha >= 0 the trivial summand's section
    caps the cone at y > 0, leaving restriction ratios above alpha.  Over
    genus 0 the answer is max(t, alpha) with t = alpha mod n, coming from
    the balanced-as-possible splitting.  The infimum is never attained.
    """
    value = _ratio_infimum(alpha, n, genus)
    return RestrictedRatioResult(Fraction(value), matching_bundle(alpha, n, genus))


def restrict_to_divisor(u: DivisorClass) -> DivisorClass:
    """Restrict a class on P(V + O) to the subbundle divisor P(V).

    The hyperplane class restricts to the hyperplane class, so the
    coordinates survive while the rank drops by one; the degree is
    unchanged since the dropped summand is trivial.
    """
    ctx = u.ctx
    if ctx.rank < 2:
        raise ValueError("nothing to restrict: ambient rank must be at least 2")
    return DivisorClass(u.x, u.y, BundleContext(ctx.rank - 1, ctx.degree, ctx.convention, ctx.genus))


def kahler_class_for_ratio(alpha: int, n: int, genus: SurfaceGenus,
                           rho0: Fraction | int) -> DivisorClass:
    """A Kahler class on P(V + O) whose restriction to P(V) has ratio rho0,
    for V the matching bundle of degree alpha and rank n.

    Only the class is built here: the caller builds V and its ambient
    bundle (build_matching_triple does, once each).  Solving
    alpha + n*(y/x) = rho0 with x = n * denominator(rho0) gives integer
    coordinates.  The class is Kahler exactly when rho0 exceeds the
    restricted-ratio infimum; at or below it NoSuchClassError is raised,
    since the infimum is not attained.  n < 1 and a float rho0 are
    ValueErrors.  rho0 - alpha keeps rho0's denominator, so y, its
    numerator, is numerator(rho0) - alpha*denominator(rho0).
    """
    rho0 = _exact("the target ratio", rho0)
    infimum = _ratio_infimum(alpha, n, genus)
    if rho0.numerator <= infimum * rho0.denominator:
        raise NoSuchClassError(
            f"no Kahler class restricts to ratio {rho0}: the infimum over "
            f"P(V + O) is {infimum} and is not attained"
        )
    return DivisorClass(n * rho0.denominator, rho0.numerator - alpha * rho0.denominator,
                        BundleContext(n + 1, alpha, Convention.QUOTIENT, genus))
