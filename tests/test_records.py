"""The package's records behave as the frozen dataclasses they replace:
same repr text, equality, hash, immutability, defaults, refusals and
copy/pickle round trips.  MatchingTripleCertificate alone stays a
dataclass, because callers copy it with dataclasses.replace."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as Q

import pytest

import pbcones
from pbcones.blowdown import (
    BlowdownVerdict,
    CertificateValidation,
    ExceptionalDivisorData,
    MatchingTripleCertificate,
    VerdictKind,
    blowdown_verdict_dim6,
    validate_certificate,
)
from pbcones.bundles import Decomposable, SemiStable, SurfaceGenus, decomposable, twist
from pbcones.cohomology import (
    BundleContext,
    Convention,
    CurveClass,
    DivisorClass,
    RatioValue,
    line_class,
)
from pbcones.cones import (
    ConeDescription,
    Exactness,
    RestrictedRatioResult,
    SemistablePlusLine,
)
from pbcones.oracle import CheckLine, CheckReport

SUB_CTX = BundleContext(2, 1, Convention.SUB, SurfaceGenus(1))


def _records():
    """One instance of every record; each call builds fresh, equal ones."""
    ctx = BundleContext(2, 1, Convention.QUOTIENT, SurfaceGenus(0))
    return [
        SurfaceGenus(1),
        Decomposable((2, -1), SurfaceGenus(0)),
        SemiStable(2, 1, SurfaceGenus(1)),
        BundleContext(2, 1, Convention.SUB, SurfaceGenus(1)),
        DivisorClass(Q(1, 2), 3, ctx),
        CurveClass(1, 2, ctx),
        RatioValue(Q(3), True),
        ConeDescription((line_class(ctx),), Exactness.EXACT, Q(-1)),
        SemistablePlusLine(SemiStable(2, -2, SurfaceGenus(1))),
        RestrictedRatioResult(Q(3), decomposable(1, 2)),
        ExceptionalDivisorData(DivisorClass(1, Q(3, 5), SUB_CTX)),
        BlowdownVerdict(VerdictKind.UNDETERMINED, reason="equal areas"),
        CertificateValidation(("rank mismatch",)),
        CheckLine("ring-top-power", "0123456789ab", True, "mismatches=0"),
        CheckReport([CheckLine("ring-top-power", "0123456789ab", True, "mismatches=0")]),
    ]


RECORDS = [type(r) for r in _records()]


def test_repr_is_the_dataclass_text():
    d = ExceptionalDivisorData.over_surface(1, -1, (1, Q(3, 5)))
    assert repr(d) == (
        "ExceptionalDivisorData(omega_class=DivisorClass(x=Fraction(1, 1), y=Fraction(3, 5), "
        "ctx=BundleContext(rank=2, degree=1, convention=<Convention.SUB: 'sub'>, "
        "genus=SurfaceGenus(g=1))), base_genus=SurfaceGenus(g=1), fiber_rank=2, alpha=-1, "
        "rho=Fraction(1, 5))")
    v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(2, 1))
    assert repr(v) == (
        "BlowdownVerdict(kind=<VerdictKind.BLOWDOWN_UP_TO_DEFORMATION: "
        "'BlowdownUpToDeformation'>, certificate=MatchingTripleCertificate("
        "model_bundle=Decomposable(degrees=(1, 1), base=SurfaceGenus(g=0)), "
        "kahler_class=DivisorClass(x=Fraction(2, 1), y=Fraction(2, 1), "
        "ctx=BundleContext(rank=3, degree=2, convention=<Convention.QUOTIENT: 'quotient'>, "
        "genus=SurfaceGenus(g=0))), restricted_ratio=Fraction(4, 1), s1_invariant=True), "
        "chosen_ruling=<Ruling.SECOND: 'second'>, "
        "reason='blowing down the second ruling (smaller area)')")
    line = CheckLine("ring-top-power", "0123456789ab", True, "n=1 mismatches=0")
    assert repr(line) == ("CheckLine(name='ring-top-power', digest='0123456789ab', "
                          "passed=True, detail='n=1 mismatches=0')")


def test_equal_fields_are_equal_records_with_equal_hashes():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b and not a != b, type(a).__name__
        if isinstance(a, CheckReport):
            with pytest.raises(TypeError, match="unhashable type: 'CheckReport'"):
                hash(a)
        else:  # a frozen dataclass's hash: that of its fields' tuple
            assert hash(a) == hash(b) == hash(a.__getstate__()), type(a).__name__
            assert a.__getstate__() == tuple(getattr(a, n) for n in type(a).__slots__)
    assert SurfaceGenus(0) != SurfaceGenus(1)
    assert DivisorClass(1, 2, SUB_CTX) != DivisorClass(1, 3, SUB_CTX)


def test_another_record_type_with_the_same_values_is_not_equal():
    ctx = BundleContext(2, 1)
    # DivisorClass stores Fraction(1) and Fraction(2), which equal 1 and 2
    assert DivisorClass(1, 2, ctx) != CurveClass(1, 2, ctx)
    assert SemistablePlusLine(("a",)) != CertificateValidation(("a",))
    assert SurfaceGenus(0).__eq__(0) is NotImplemented
    assert SurfaceGenus(0) != 0


def test_records_are_immutable_and_slotted():
    for r in _records():
        name = type(r).__name__
        field = type(r).__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(r, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(r, field)
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        assert not hasattr(r, "__dict__"), name


def test_signatures_defaults_and_keywords():
    for cls in RECORDS:
        params = list(inspect.signature(cls).parameters)
        want = ["omega_class"] if cls is ExceptionalDivisorData else list(cls.__slots__)
        assert params == want, cls.__name__
    assert BundleContext(2, 1) == BundleContext(rank=2, degree=1, convention=Convention.QUOTIENT,
                                                genus=SurfaceGenus(0))
    v = BlowdownVerdict(VerdictKind.ALWAYS_BLOWDOWN)
    assert (v.certificate, v.chosen_ruling, v.reason) == (None, None, "")
    assert v == BlowdownVerdict(kind=VerdictKind.ALWAYS_BLOWDOWN, certificate=None,
                                chosen_ruling=None, reason="")
    first, second = CheckReport(), CheckReport()
    first.add("a", "k", True, "x")
    assert second.lines == [] and len(first.lines) == 1
    d = ExceptionalDivisorData(omega_class=DivisorClass(x=1, y=Q(3, 5), ctx=SUB_CTX))
    assert d == ExceptionalDivisorData.over_surface(1, -1, (1, Q(3, 5)))
    assert Decomposable(degrees=(3, -1, 2), base=SurfaceGenus(g=0)).degrees == (-1, 2, 3)


def test_refusal_messages_are_unchanged():
    cases = [
        (lambda: SurfaceGenus(-1), "genus must be non-negative, got -1"),
        (lambda: Decomposable((), SurfaceGenus(0)),
         "a decomposable bundle needs at least one summand"),
        (lambda: SemiStable(2, 1, SurfaceGenus(0)),
         "over genus 0 every bundle splits; a semistable bundle of rank 2 and degree 1 "
         "does not exist"),
        (lambda: BundleContext(0, 0), "rank must be positive, got 0"),
        (lambda: DivisorClass(0.5, 1, SUB_CTX),
         "coordinate x must be exact (an int or a Fraction), got the float 0.5"),
        (lambda: DivisorClass(1, 0.25, SUB_CTX),
         "coordinate y must be exact (an int or a Fraction), got the float 0.25"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_copy_deepcopy_and_pickle_round_trip():
    for r in _records() + [ExceptionalDivisorData.point()]:
        for clone in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
            c = clone(r)
            assert type(c) is type(r) and c == r, type(r).__name__
            if not isinstance(r, CheckReport):
                assert hash(c) == hash(r)
    report = _records()[-1]
    assert copy.deepcopy(report).lines is not report.lines


def test_the_certificate_is_the_only_dataclass():
    """The record base is private, and the certificate the one dataclass."""
    found = []
    for info in pkgutil.iter_modules(pbcones.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pbcones.{info.name}")
        assert "_Record" not in getattr(module, "__all__", ())
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and dataclasses.is_dataclass(value)
                  and value.__module__ == module.__name__]
    assert found == [MatchingTripleCertificate]
    # what the benchmark's certificate negative control does to a certificate
    d = ExceptionalDivisorData.from_ruled_areas(1, 2)
    cert = blowdown_verdict_dim6(d).certificate
    assert validate_certificate(cert, d)
    twisted = dataclasses.replace(cert, model_bundle=twist(cert.model_bundle, 1))
    assert isinstance(twisted, MatchingTripleCertificate)
    assert not validate_certificate(twisted, d)
