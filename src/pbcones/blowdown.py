"""Blow-down decisions for fibred divisors in symplectic six-manifolds.

A codimension-2 divisor fibred as a projective-space bundle with
fiberwise-tautological normal bundle is the shape produced by blowing up
a point or a surface.  Whether it can be blown back down (up to integral
deformation of the symplectic form) is decided here through exact
rational data:

  * alpha, the signed top self-intersection of the normal bundle
    ((-1)^n times the integral of c1(N)^n over the divisor); when the
    divisor comes from blowing up a surface with normal bundle N_S this
    equals -deg(N_S);
  * the restricted symplectic class, recorded in the sub convention on
    the rank-n model of degree -alpha, whose ratio rho must strictly
    exceed alpha (positive genus) or max(alpha, alpha mod n) (genus 0)
    for the divisor to be admissible;
  * for admissible data, a matching-triple certificate: a model bundle V
    of degree alpha, the ambient projectivization of V + O carrying a
    circle-invariant Kahler class whose restriction to P(V) reproduces
    the divisor's class ratio.

Dimension six adds one genuinely two-sided case: a product of two
spheres with alpha = 2 carries two rulings of normal degree -1, and the
verdict picks the ruling of smaller area, refusing to decide when both
areas agree (ratio exactly 2 on both rulings).  For class (x, y) the
areas are (x, x + y): the first ruling iff y > 0, undetermined iff
y = 0; the other ruling's class is (x + y, -y).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bundles import BundleSpec, SurfaceGenus, _Record, _setattr, degree, rank
from .cohomology import (
    BundleContext,
    Convention,
    DivisorClass,
    _exact,
    forward_ratio,
    ratio,
)
from .cones import (
    AmbientBundle,
    admissibility_bound,
    kahler_class_for_ratio,
    kahler_membership,
    matching_bundle,
    plus_trivial_line,
    restrict_to_divisor,
)

__all__ = [
    "ExceptionalDivisorData",
    "MatchingTripleCertificate",
    "BlowdownVerdict",
    "VerdictKind",
    "Ruling",
    "CertificateValidation",
    "NotAdmissibleError",
    "is_admissible",
    "build_matching_triple",
    "blowdown_verdict_dim6",
    "refibred_along_second_ruling",
    "validate_certificate",
]

Rational = Fraction | int


class NotAdmissibleError(ValueError):
    """The divisor's ratio does not clear the admissibility bound."""


class ExceptionalDivisorData(_Record):
    """A fibred divisor candidate for blowing down.

    omega_class is the class of the restricted symplectic form, in the sub
    convention on the rank-n model of degree -alpha; it must lie in the
    forward cone.  None means the divisor is a projective space over a
    point (in dimension six: a plane with normal degree -1).  base_genus,
    fiber_rank, alpha and the class ratio rho are read off the class, and
    are None over a point.  The sphere product of class (x, y) has ruling
    areas (x, x + y).
    """

    __slots__ = ("omega_class", "base_genus", "fiber_rank", "alpha", "rho")

    def __init__(self, omega_class: DivisorClass | None) -> None:
        genus = n = alpha = rho = None
        if omega_class is not None:
            ctx = omega_class.ctx
            if ctx.convention is not Convention.SUB:
                raise ValueError(f"the symplectic class must live in the sub convention, "
                                 f"got {ctx}")
            r = ratio(omega_class)
            if not r.in_forward_cone:
                raise ValueError("the restricted symplectic class must lie in the forward cone")
            genus, n, alpha, rho = ctx.genus, ctx.rank, -ctx.degree, r.value
        _setattr(self, "omega_class", omega_class)
        _setattr(self, "base_genus", genus)
        _setattr(self, "fiber_rank", n)
        _setattr(self, "alpha", alpha)
        _setattr(self, "rho", rho)

    @property
    def is_point_base(self) -> bool:
        return self.base_genus is None

    @property
    def is_double_ruling_case(self) -> bool:
        return (self.base_genus is not None and self.base_genus.g == 0
                and self.fiber_rank == 2 and self.alpha == 2)

    @classmethod
    def point(cls) -> "ExceptionalDivisorData":
        return cls(None)

    @classmethod
    def over_surface(cls, genus: int, alpha: int,
                     omega_xy: tuple[Rational, Rational] | None = None,
                     fiber_rank: int = 2,
                     ruled_areas: tuple[Rational, Rational] | None = None,
                     ) -> "ExceptionalDivisorData":
        """Surface-base divisor data from its class, or, for the sphere
        product (genus 0, alpha = 2, rank 2), from its ruling areas or both.

        With areas (a, b) the volume is 2ab, so the ratio with respect to
        the first ruling is 2b/a and the class is (a, b - a); a class given
        with the areas must have that ratio.  Areas are ints or Fractions;
        a float is refused.
        """
        given_ratio = None
        if ruled_areas is not None:
            if (genus, alpha, fiber_rank) != (0, 2, 2):
                raise ValueError("ruling areas only apply to the genus-0, alpha = 2, "
                                 "rank-2 divisor")
            a = _exact("a ruling area", ruled_areas[0])
            b = _exact("a ruling area", ruled_areas[1])
            if a.numerator <= 0 or b.numerator <= 0:
                raise ValueError("ruling areas must be positive")
            if omega_xy is None:
                omega_xy = (a, b - a)
            else:
                given_ratio = 2 * b / a
        elif omega_xy is None:
            raise ValueError("a surface-base divisor needs its class "
                             "(or, for the sphere product, its ruling areas)")
        ctx = BundleContext(fiber_rank, -alpha, Convention.SUB, SurfaceGenus(genus))
        d = cls(DivisorClass(omega_xy[0], omega_xy[1], ctx))
        if given_ratio is not None and d.rho != given_ratio:
            raise ValueError(
                f"inconsistent data: the class ratio {d.rho} must "
                f"equal 2*(second area)/(first area) = {given_ratio}"
            )
        return d

    @classmethod
    def from_ruled_areas(cls, first: Rational, second: Rational) -> "ExceptionalDivisorData":
        """Sphere-product divisor (alpha = 2) from the two ruling areas."""
        return cls.over_surface(0, 2, ruled_areas=(first, second))


def is_admissible(d: ExceptionalDivisorData) -> bool:
    """Whether the divisor's ratio strictly clears the admissibility bound."""
    if d.is_point_base:
        raise ValueError("admissibility is a surface-base notion; a plane divisor "
                         "of normal degree -1 blows down unconditionally")
    rho = d.rho
    bound = admissibility_bound(d.alpha, d.fiber_rank, d.base_genus)
    return rho.numerator > bound * rho.denominator


@dataclass(frozen=True)
class MatchingTripleCertificate:
    """Certified blow-down data: the model triple and its Kahler class.

    The triple consists of the total space P(V + O), the divisor P(V) and
    the section P(O) over the base surface, where V is the model bundle of
    degree alpha (so the divisor's normal bundles in the triple and in the
    ambient manifold are opposite).  kahler_class is circle-invariant for
    the rotation fixing P(V) and P(O), and restricts to P(V) with the same
    ratio as the divisor's symplectic class.  The match is class-level
    (weak); in complex fiber dimension one that already suffices.  The
    certificate blows down up to an integral deformation of the symplectic
    form; whether the deformation step can be dropped is an open question.
    """

    model_bundle: BundleSpec
    kahler_class: DivisorClass
    restricted_ratio: Fraction
    s1_invariant: bool = True
    weak = True

    @property
    def ambient_bundle(self) -> AmbientBundle:
        """V + O, whose projectivization carries kahler_class."""
        return plus_trivial_line(self.model_bundle)


def build_matching_triple(d: ExceptionalDivisorData) -> MatchingTripleCertificate:
    """Construct the certificate for an admissible divisor.

    The triple is built here, once: the model bundle V of degree alpha and
    rank n (matching_bundle), which determines the ambient bundle V + O, and
    the canonical integral Kahler class restricting to the divisor's exact
    ratio (kahler_class_for_ratio, which builds no bundle).
    validate_certificate checks the result independently.  Raises
    NotAdmissibleError when the ratio bound fails, and is_admissible's
    ValueError for a point-base divisor.
    """
    if not is_admissible(d):
        bound = admissibility_bound(d.alpha, d.fiber_rank, d.base_genus)
        raise NotAdmissibleError(
            f"ratio {d.rho} does not exceed the admissibility bound {bound}"
        )
    return MatchingTripleCertificate(
        model_bundle=matching_bundle(d.alpha, d.fiber_rank, d.base_genus),
        kahler_class=kahler_class_for_ratio(d.alpha, d.fiber_rank, d.base_genus, d.rho),
        restricted_ratio=d.rho,
    )


class VerdictKind(str, Enum):
    ALWAYS_BLOWDOWN = "AlwaysBlowdown"
    BLOWDOWN_UP_TO_DEFORMATION = "BlowdownUpToDeformation"
    NOT_ADMISSIBLE = "NotAdmissible"
    UNDETERMINED = "Undetermined"


class Ruling(str, Enum):
    FIRST = "first"
    SECOND = "second"


class BlowdownVerdict(_Record):
    __slots__ = ("kind", "certificate", "chosen_ruling", "reason")

    def __init__(self, kind: VerdictKind, certificate: MatchingTripleCertificate | None = None,
                 chosen_ruling: Ruling | None = None, reason: str = "") -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "certificate", certificate)
        _setattr(self, "chosen_ruling", chosen_ruling)
        _setattr(self, "reason", reason)


def refibred_along_second_ruling(d: ExceptionalDivisorData) -> ExceptionalDivisorData:
    """The same sphere-product divisor, fibred by its other ruling.

    Class (x, y) has areas (x, x + y); swapping them gives the other
    ruling's class (x + y, -y), the divisor from_ruled_areas(x + y, x).
    """
    if not d.is_double_ruling_case:
        raise ValueError("only the genus-0, alpha = 2, rank-2 divisor has two rulings")
    u = d.omega_class
    return ExceptionalDivisorData(DivisorClass(u.x + u.y, -u.y, u.ctx))


def blowdown_verdict_dim6(d: ExceptionalDivisorData) -> BlowdownVerdict:
    """Decide blowing down a four-dimensional divisor in a six-manifold.

    A plane over a point always blows down.  A ruled divisor blows down up
    to deformation exactly when admissible; the certificate is attached.
    The sphere-product alpha = 2 divisor is decided by its two ruling
    areas: the smaller-area ruling is blown down (its ratio exceeds 2),
    and equal areas leave the question undetermined because neither ruling
    clears the bound and perturbing the areas apart would need ambient
    rulings that are not cohomologous.  For class (x, y) the areas are
    (x, x + y): the first ruling iff y > 0, undetermined iff y = 0; the
    other ruling's class is (x + y, -y).
    """
    if d.is_point_base:
        return BlowdownVerdict(VerdictKind.ALWAYS_BLOWDOWN)
    if d.fiber_rank != 2:
        raise ValueError("the dimension-6 verdict needs a divisor ruled by lines "
                         "(fiber rank 2)")
    ruling, effective, reason = None, d, ""
    if d.is_double_ruling_case:
        s = d.omega_class.y.numerator  # the sign of (x + y) - x
        if s > 0:
            ruling = Ruling.FIRST
        elif s < 0:
            ruling, effective = Ruling.SECOND, refibred_along_second_ruling(d)
        else:
            return BlowdownVerdict(
                VerdictKind.UNDETERMINED,
                reason=("ratio = 2 with respect to both rulings; the criterion is "
                        "silent, and separating the areas by a perturbation would "
                        "require ambient rulings that are not cohomologous"),
            )
        reason = f"blowing down the {ruling.value} ruling (smaller area)"
    try:
        certificate = build_matching_triple(effective)
    except NotAdmissibleError as err:
        return BlowdownVerdict(VerdictKind.NOT_ADMISSIBLE, reason=str(err))
    return BlowdownVerdict(
        VerdictKind.BLOWDOWN_UP_TO_DEFORMATION,
        certificate=certificate,
        chosen_ruling=ruling,
        reason=reason,
    )


class CertificateValidation(_Record):
    __slots__ = ("failures",)

    def __init__(self, failures: tuple[str, ...]) -> None:
        _setattr(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def validate_certificate(c: MatchingTripleCertificate,
                         d: ExceptionalDivisorData) -> CertificateValidation:
    """Re-check every certificate condition against the divisor data.

    Checks: the model bundle has degree alpha and rank n, the Kahler class
    lies in the (known) Kahler cone of the ambient bundle V + O, its
    restriction to the divisor reproduces the symplectic class ratio
    exactly and matches the certificate's ratio field, and the
    circle-invariance flag is set.  Returns all failures, not just the
    first.
    """
    failures: list[str] = []
    if d.is_point_base:
        return CertificateValidation(("point-base divisors carry no matching triple",))

    if degree(c.model_bundle) != d.alpha:
        failures.append(
            f"normal degree mismatch: model bundle degree {degree(c.model_bundle)}"
            f" != alpha {d.alpha}"
        )
    if rank(c.model_bundle) != d.fiber_rank:
        failures.append(
            f"rank mismatch: model bundle rank {rank(c.model_bundle)}"
            f" != fiber rank {d.fiber_rank}"
        )

    try:
        if not kahler_membership(c.kahler_class, c.ambient_bundle):
            failures.append("Kahler class lies outside the Kahler cone of the "
                            "ambient bundle")
    except ValueError as err:
        failures.append(f"Kahler class rejected: {err}")

    try:
        actual = forward_ratio(restrict_to_divisor(c.kahler_class))
        if actual != d.rho:
            failures.append(
                f"restricted ratio mismatch: certificate restricts to {actual}, "
                f"divisor class has ratio {d.rho}"
            )
        if c.restricted_ratio != actual:
            failures.append(
                f"certificate ratio field {c.restricted_ratio} disagrees with the "
                f"actual restriction ratio {actual}"
            )
    except ValueError as err:
        failures.append(f"restriction ratio undefined: {err}")

    if not c.s1_invariant:
        failures.append("circle-invariance flag is not set")

    return CertificateValidation(tuple(failures))
