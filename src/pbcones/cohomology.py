"""Even cohomology of a projective bundle over a curve, with exact coefficients.

For a rank-n bundle E of degree d over a curve, H^even of the
projectivization is generated by the hyperplane class h and the fiber
class F with

    F * F = 0,      h^{n-1} * F = 1  (the point class),      h^n = e * h^{n-1} F,

where e depends on the convention: in the quotient convention (bundle of
one-dimensional quotients, Serre class xi) e = d, while in the sub
convention (bundle of one-dimensional subspaces, dual tautological class
tau) e = -d.  The two conventions describe the same space: P(E) equals
the sub-convention projectivization of E^*, with xi matching tau.

Degree-2 homology has the dual basis (l, eta): l the line in a fiber and
eta the unique integral class with <h, eta> = 0, <F, eta> = 1.  A class
u = x*h + y*F pairs as <u, a*l + m*eta> = a*x + m*y, and on the forward
cone {u^n > 0, <u, l> > 0} the scale-invariant ratio u^n / <u,l>^n
equals e + n*y/x, which pins down the ray of u.

Half-planes through the origin are decided on one integer, the
half-plane numerator N = p*a*d + q*c*b of x = a/b and y = c/d (b, d > 0):
p*x + q*y = N/(b*d), so N has its sign.  With (p, q) = (e, n),
u^n = x^(n-1)*N/(b*d) and the ratio e + n*y/x is N/(a*d), so u lies in
the forward cone exactly when a > 0 and N > 0.  With the boundary slope
s = p/q of a Kahler cone {x > 0, s*x + y > 0}, N decides Kahler
membership the same way.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .bundles import SurfaceGenus, _Record, _setattr

__all__ = [
    "Convention",
    "BundleContext",
    "DivisorClass",
    "CurveClass",
    "RatioValue",
    "ContextMismatchError",
    "top_power",
    "pair",
    "in_forward_cone",
    "ratio",
    "forward_ratio",
    "topological_residue",
    "topological_type",
    "convert_convention",
    "twist_class",
    "section_class",
    "line_class",
    "eta_class",
]


def _exact(what: str, value) -> Fraction:
    """value as a Fraction; a float is refused, since its binary expansion
    would stand in for the number that was meant."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"{what} must be exact (an int or a Fraction), got the float {value!r}")
    return Fraction(value)


class ContextMismatchError(ValueError):
    """Raised when classes from different bundle contexts are combined."""


class Convention(str, Enum):
    QUOTIENT = "quotient"
    SUB = "sub"


class BundleContext(_Record):
    """Rank, degree and convention of the modeling bundle, plus base genus."""

    __slots__ = ("rank", "degree", "convention", "genus")

    def __init__(self, rank: int, degree: int, convention: Convention = Convention.QUOTIENT,
                 genus: SurfaceGenus = SurfaceGenus(0)) -> None:
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        _setattr(self, "rank", rank)
        _setattr(self, "degree", degree)
        _setattr(self, "convention", convention)
        _setattr(self, "genus", genus)

    @property
    def top_coefficient(self) -> int:
        """e in the relation h^n = e * h^{n-1} F."""
        if self.convention is Convention.QUOTIENT:
            return self.degree
        return -self.degree

    @property
    def hyperplane_symbol(self) -> str:
        return "xi" if self.convention is Convention.QUOTIENT else "tau"


class DivisorClass(_Record):
    """x * (hyperplane class) + y * (fiber class) with exact coefficients."""

    __slots__ = ("x", "y", "ctx")

    def __init__(self, x: Fraction, y: Fraction, ctx: BundleContext) -> None:
        _setattr(self, "x", x if isinstance(x, Fraction) else _exact("coordinate x", x))
        _setattr(self, "y", y if isinstance(y, Fraction) else _exact("coordinate y", y))
        _setattr(self, "ctx", ctx)

    def __str__(self) -> str:
        return f"{self.x}*{self.ctx.hyperplane_symbol} + {self.y}*F"


class CurveClass(_Record):
    """l * (fiber line class) + eta * (section class) in degree-2 homology."""

    __slots__ = ("l", "eta", "ctx")

    def __init__(self, l: int, eta: int, ctx: BundleContext) -> None:
        _setattr(self, "l", l)
        _setattr(self, "eta", eta)
        _setattr(self, "ctx", ctx)

    def __str__(self) -> str:
        terms = []
        if self.l:
            terms.append("l" if self.l == 1 else "-l" if self.l == -1 else f"{self.l}l")
        if self.eta:
            sign = "" if not terms else ("+" if self.eta > 0 else "")
            mag = "eta" if self.eta == 1 else "-eta" if self.eta == -1 else f"{self.eta}eta"
            terms.append(sign + mag)
        return "".join(terms) if terms else "0"


def _check_ctx(a: BundleContext, b: BundleContext) -> None:
    if a != b:
        raise ContextMismatchError(f"mismatched bundle contexts: {a} vs {b}")


def _half_plane(x: Fraction, y: Fraction, p: int, q: int) -> int:
    """The half-plane numerator p*a*d + q*c*b of x = a/b and y = c/d."""
    return p * x.numerator * y.denominator + q * y.numerator * x.denominator


def top_power(u: DivisorClass) -> Fraction:
    """u^n integrated over the bundle, by the closed formula x^{n-1}(e*x + n*y).

    With x = a/b, y = c/d and the half-plane numerator N, u^n is
    a^{n-1}*N / (b^n*d), built as one fraction and reduced with one gcd.
    That halves the cost at the sweeps' ranks.  Past about 2,000 bits of
    b^n*d the gcd costs more than the factored x^{n-1} * N/(b*d) would
    (2-3 times at rank 1000), but only a single ring query reaches such
    sizes, and it spends far longer starting up.
    """
    ctx, x, y = u.ctx, u.x, u.y
    n = ctx.rank
    return Fraction(x.numerator ** (n - 1) * _half_plane(x, y, ctx.top_coefficient, n),
                    x.denominator ** n * y.denominator)


def pair(u: DivisorClass, z: CurveClass) -> Fraction:
    _check_ctx(u.ctx, z.ctx)
    return z.l * u.x + z.eta * u.y


def in_forward_cone(u: DivisorClass) -> bool:
    """Strict membership: u^n > 0 and <u, l> > 0."""
    ctx = u.ctx
    return u.x.numerator > 0 and _half_plane(u.x, u.y, ctx.top_coefficient, ctx.rank) > 0


class RatioValue(_Record):
    """The ratio u^n / <u,l>^n together with forward-cone membership.

    Outside the forward cone the number still identifies the ray when
    <u, l> != 0, but it is not a symplectic-size invariant there; when
    <u, l> = 0 the value is undefined and stored as None.
    """

    __slots__ = ("value", "in_forward_cone")

    def __init__(self, value: Fraction | None, in_forward_cone: bool) -> None:
        _setattr(self, "value", value)
        _setattr(self, "in_forward_cone", in_forward_cone)

    def require(self) -> Fraction:
        if not self.in_forward_cone or self.value is None:
            raise ValueError("class is not in the forward cone, ratio not applicable")
        return self.value


def ratio(u: DivisorClass) -> RatioValue:
    """Scale-invariant ray coordinate e + n*y/x, flagged when out of cone;
    x = 0 leaves the ratio undefined."""
    a = u.x.numerator
    if a == 0:
        return RatioValue(None, False)
    num = _half_plane(u.x, u.y, u.ctx.top_coefficient, u.ctx.rank)
    return RatioValue(Fraction(num, a * u.y.denominator), a > 0 and num > 0)


def forward_ratio(u: DivisorClass) -> Fraction:
    """Ratio of a class required to lie in the forward cone."""
    return ratio(u).require()


def topological_residue(w: int, n: int) -> int:
    """The residue of w in {0, ..., n-1}."""
    return w % n


def topological_type(ctx: BundleContext) -> int:
    """Residue classifying the bundle topologically among P^{n-1}-bundles.

    Twisting by a line bundle shifts the degree by multiples of the rank,
    so only e mod n survives; e is the degree in the quotient convention
    and minus the degree in the sub convention.
    """
    return topological_residue(ctx.top_coefficient, ctx.rank)


def convert_convention(u: DivisorClass) -> DivisorClass:
    """Rewrite the class for the dual bundle's convention.

    The quotient-convention projectivization of E is the sub-convention
    projectivization of E^*, with matching hyperplane classes, so the
    coordinates stay put while the convention flips and the degree negates.
    """
    ctx = u.ctx
    flipped = Convention.SUB if ctx.convention is Convention.QUOTIENT else Convention.QUOTIENT
    new_ctx = BundleContext(ctx.rank, -ctx.degree, flipped, ctx.genus)
    return DivisorClass(u.x, u.y, new_ctx)


def twist_class(u: DivisorClass, t: int) -> DivisorClass:
    """Rewrite the class after twisting the modeling bundle by degree t.

    Twisting leaves the projective bundle alone but moves the hyperplane
    class by t*F, so (x, y) becomes (x, y - t*x) over the degree d + n*t
    model.  Quotient convention only; convert first if needed.
    """
    ctx = u.ctx
    if ctx.convention is not Convention.QUOTIENT:
        raise ValueError("twist_class expects the quotient convention; convert first")
    new_ctx = BundleContext(ctx.rank, ctx.degree + ctx.rank * t, ctx.convention, ctx.genus)
    return DivisorClass(u.x, u.y - t * u.x, new_ctx)


def line_class(ctx: BundleContext) -> CurveClass:
    return CurveClass(1, 0, ctx)


def eta_class(ctx: BundleContext) -> CurveClass:
    return CurveClass(0, 1, ctx)


def section_class(quotient_line_degree: int, ctx: BundleContext) -> CurveClass:
    """Class of the section cut out by a quotient line bundle of that degree.

    A quotient line bundle M of the modeling bundle gives a section Z with
    <hyperplane, [Z]> = deg M, so [Z] = deg(M)*l + eta.
    """
    if ctx.convention is not Convention.QUOTIENT:
        raise ValueError("section classes are indexed by quotient line bundles; "
                         "use the quotient convention")
    return CurveClass(quotient_line_degree, 1, ctx)
