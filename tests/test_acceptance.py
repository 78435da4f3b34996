"""Acceptance suite: every criterion runs at its stated tolerance (exact
rational equality throughout) and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from pbcones.blowdown import (
    ExceptionalDivisorData,
    NotAdmissibleError,
    Ruling,
    VerdictKind,
    admissibility_bound,
    blowdown_verdict_dim6,
    build_matching_triple,
    is_admissible,
    refibred_along_second_ruling,
    validate_certificate,
)
from pbcones.bundles import SurfaceGenus, decomposable, degree, rank
from pbcones.oracle import cone_sweep, ring_sweep, sympow_sweep
from pbcones.cohomology import (
    BundleContext,
    Convention,
    DivisorClass,
    convert_convention,
    forward_ratio,
    pair,
    ratio,
    section_class,
    topological_residue,
    twist_class,
)
from pbcones.cones import (
    NoSuchClassError,
    kahler_class_for_ratio,
    kahler_membership,
    matching_bundle,
    plus_trivial_line,
    restrict_to_divisor,
    restricted_ratio,
)

from test_cli import GOLDENS, main

Q = Fraction
GENERA = (SurfaceGenus(0), SurfaceGenus(1), SurfaceGenus(2))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# sha256 of the full acceptance-size reports, which the sweeps must render
# byte for byte however their arithmetic is done and however many processes
# check their lines.
SYMPOW_REPORT_SHA256 = "98c5e3d5ec45ddb41696ad50ed9f25d9752a7d2dfed2986fd5f85e87b2512e02"
CONE_REPORT_SHA256 = "e786da2d432df6bfc4162912fcbf15ab0a5d01bfcffc9f5441d756149e4102f7"
RING_REPORT_SHA256 = "8beb0cdda6eaec1f360cec4279af77e15c8160e21ad6019a2cbd34de0f67bdf7"


def sha256_of(report):
    return hashlib.sha256(report.render().encode("utf-8")).hexdigest()


def divisor(genus, alpha, xy, n=2, areas=None):
    return ExceptionalDivisorData.over_surface(genus, alpha, xy, fiber_rank=n,
                                               ruled_areas=areas)


def test_ring_formula_equivalence():
    # top_power == brute-force ring oracle, 1000 random exact-rational
    # classes for every rank <= 6, |degree| <= 10 and convention; < 10 s
    with criterion("ring-formula-equivalence"):
        start = time.perf_counter()
        report = ring_sweep(seed=1, max_rank=6, max_abs_degree=10, samples=1000)
        elapsed = time.perf_counter() - start
        assert len(report.lines) == 6 * 21 * 2
        failures = [line.render() for line in report.lines if not line.passed]
        assert not failures, failures[:5]
        assert elapsed < 10.0, f"ring sweep took {elapsed:.2f}s"
        assert sha256_of(report) == RING_REPORT_SHA256


@pytest.fixture(scope="module")
def sympow_report():
    start = time.perf_counter()
    report = sympow_sweep(max_rank=4, max_abs_degree=5, max_m=6)
    return report, time.perf_counter() - start


def test_symmetric_power_formulas(sympow_report):
    # enumeration length C(m+r-1, m), degree sum C(m+r-1, m-1)*deg and the
    # m*a1 minimum, exhaustively for rank <= 4, |degrees| <= 5, m <= 6; < 10 s
    with criterion("symmetric-power-formulas"):
        report, elapsed = sympow_report
        assert len(report.lines) == 4 * 6
        failures = [line.render() for line in report.lines if not line.passed]
        assert not failures, failures[:5]
        assert elapsed < 10.0, f"sympow sweep took {elapsed:.2f}s"
        assert sha256_of(report) == SYMPOW_REPORT_SHA256


def test_decomposable_curve_cone_bound(sympow_report):
    # the sympow sweep already pins min degree = m*a1 on the full range;
    # here membership on the unit grid must pair strictly positively with
    # every enumerated multisection bound, and the boundary class pairs to
    # exactly zero with the extremal section
    with criterion("decomposable-curve-cone-bound"):
        report, _ = sympow_report
        assert report.all_passed

        grid_report = cone_sweep(max_rank=4, max_abs_degree=5)
        bad = [line.render() for line in grid_report.lines if not line.passed]
        assert not bad, bad[:5]
        assert sha256_of(grid_report) == CONE_REPORT_SHA256

        for degs in [(0, 2), (-2, -1), (-1, 0, 3), (1, 2, 2, 5)]:
            b = decomposable(*degs)
            a1 = min(degs)
            ctx = BundleContext(len(degs), sum(degs), Convention.QUOTIENT, b.base)
            c1 = section_class(a1, ctx)
            for x in (1, 2, 3, 4, 5):
                boundary = DivisorClass(x, -a1 * x, ctx)
                assert pair(boundary, c1) == 0
                assert not kahler_membership(boundary, b)


def test_ratio_invariances():
    # exact invariance under scaling, convention conversion and twisting
    # on 1000 random classes
    with criterion("ratio-invariances"):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(1, 6)
            d = rng.randint(-10, 10)
            conv = rng.choice([Convention.QUOTIENT, Convention.SUB])
            u = DivisorClass(Q(rng.randint(1, 9), rng.randint(1, 9)),
                             Q(rng.randint(-9, 9), rng.randint(1, 9)),
                             BundleContext(n, d, conv))
            lam = Q(rng.randint(1, 12), rng.randint(1, 12))
            scaled = DivisorClass(u.x * lam, u.y * lam, u.ctx)
            assert ratio(u).value == ratio(scaled).value
            assert ratio(u).value == ratio(convert_convention(u)).value
            if conv is Convention.QUOTIENT:
                t = rng.randint(-6, 6)
                assert ratio(u).value == ratio(twist_class(u, t)).value


def test_restricted_ratio_formula():
    # for alpha in [-6,6], n in {2,3,4}, g in {0,1,2}: the model bundle has
    # degree alpha; classes exist for every grid ratio strictly above the
    # bound (Kahler, restricting to exactly that ratio) and fail at the bound
    with criterion("restricted-ratio-formula"):
        deltas = (Q(1, 3), Q(1, 2), 1, Q(5, 2), 4)
        for alpha in range(-6, 7):
            for n in (2, 3, 4):
                for genus in GENERA:
                    if genus.g > 0:
                        bound = Q(max(0, alpha))
                    else:
                        bound = Q(max(topological_residue(alpha, n), alpha))
                    result = restricted_ratio(alpha, n, genus)
                    assert result.value == bound
                    v = result.achieving_bundle
                    assert degree(v) == alpha and rank(v) == n
                    assert v == matching_bundle(alpha, n, genus)
                    ambient = plus_trivial_line(v)
                    for delta in deltas:
                        rho0 = bound + delta
                        u = kahler_class_for_ratio(alpha, n, genus, rho0)
                        assert kahler_membership(u, ambient)
                        assert forward_ratio(restrict_to_divisor(u)) == rho0
                    with pytest.raises(NoSuchClassError):
                        kahler_class_for_ratio(alpha, n, genus, bound)
                    with pytest.raises(NoSuchClassError):
                        kahler_class_for_ratio(alpha, n, genus, bound - 1)


def _ratio_grid(bound):
    deltas = (Q(-5, 2), Q(-1), Q(-1, 2), Q(-1, 4), 0, Q(1, 4), Q(1, 2), 1, Q(7, 2))
    return [bound + delta for delta in deltas if bound + delta > 0]


def test_blowdown_decision_table():
    # the piecewise dimension-6 verdict over alpha in [-5,5] and a rational
    # ratio grid, plus the sphere-product special cases
    with criterion("blowdown-decision-table"):
        point = blowdown_verdict_dim6(ExceptionalDivisorData.point())
        assert point.kind is VerdictKind.ALWAYS_BLOWDOWN

        for alpha in range(-5, 6):
            for genus in GENERA:
                g = genus.g
                bound = admissibility_bound(alpha, 2, genus)
                double_ruling = (g == 0 and alpha == 2)
                for rho in _ratio_grid(Q(bound)):
                    y = (rho - alpha) / 2
                    areas = (1, rho / 2) if double_ruling else None
                    d = divisor(g, alpha, (1, y), areas=areas)
                    verdict = blowdown_verdict_dim6(d)
                    if double_ruling:
                        # exactly one ruling clears the bound unless rho = 2
                        if rho == 2:
                            assert verdict.kind is VerdictKind.UNDETERMINED
                        else:
                            assert verdict.kind is \
                                VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
                            want = Ruling.FIRST if rho > 2 else Ruling.SECOND
                            assert verdict.chosen_ruling is want
                    elif rho > bound:
                        assert verdict.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
                        assert verdict.certificate is not None
                    else:
                        assert verdict.kind is VerdictKind.NOT_ADMISSIBLE
                # alpha <= 0: forward-cone classes blow down; over genus 0
                # the ones realized by almost standard forms (ratio above
                # the topological type) are the admissible ones
                if alpha <= 0:
                    floor = 0 if g > 0 else topological_residue(alpha, 2)
                    for rho in (Q(floor) + Q(1, 4), Q(floor) + 2):
                        d = divisor(g, alpha, (1, (rho - alpha) / 2))
                        assert blowdown_verdict_dim6(d).kind is \
                            VerdictKind.BLOWDOWN_UP_TO_DEFORMATION

        # sphere product: areas (1,2) pick the first ruling with ratio 4
        v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(1, 2))
        assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
        assert v.chosen_ruling is Ruling.FIRST
        assert v.certificate.restricted_ratio == 4

        # equal areas: undetermined
        v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(1, 1))
        assert v.kind is VerdictKind.UNDETERMINED

        # swap symmetry
        for areas in [(1, 2), (Q(5, 3), Q(1, 2)), (3, 3)]:
            d1 = ExceptionalDivisorData.from_ruled_areas(*areas)
            d2 = ExceptionalDivisorData.from_ruled_areas(areas[1], areas[0])
            v1, v2 = blowdown_verdict_dim6(d1), blowdown_verdict_dim6(d2)
            assert (v1.kind is VerdictKind.UNDETERMINED) == \
                (v2.kind is VerdictKind.UNDETERMINED)
            if v1.kind is not VerdictKind.UNDETERMINED:
                assert {v1.chosen_ruling, v2.chosen_ruling} == \
                    {Ruling.FIRST, Ruling.SECOND}


def test_certificate_soundness():
    # every certificate from the sweeps validates; corrupted certificates
    # are rejected with the matching reason
    with criterion("certificate-soundness"):
        checked = 0
        for alpha in range(-6, 7):
            for n in (2, 3, 4):
                for genus in GENERA:
                    # classes exist only in the forward cone (ratio > 0)
                    floor = max(admissibility_bound(alpha, n, genus), 0)
                    for delta in (Q(1, 3), Q(1), Q(9, 2)):
                        rho = floor + delta
                        d = None
                        if genus.g == 0 and alpha == 2 and n == 2:
                            d = divisor(genus.g, alpha, (1, (rho - alpha) / 2),
                                        n=n, areas=(1, rho / 2))
                        else:
                            d = divisor(genus.g, alpha, (1, (rho - alpha) / n), n=n)
                        assert d.rho == rho
                        assert is_admissible(d)
                        cert = build_matching_triple(d)
                        assert validate_certificate(cert, d)
                        checked += 1
        assert checked == 13 * 3 * 3 * 3

        # tightness: at the bound (positive, hence a forward-cone class
        # exists with that exact ratio) the construction refuses
        for alpha, n, genus in [(-3, 2, GENERA[0]), (3, 3, GENERA[1]), (4, 2, GENERA[2])]:
            bound = admissibility_bound(alpha, n, genus)
            assert bound > 0
            d = divisor(genus.g, alpha, (1, Q(bound - alpha, n)), n=n)
            assert not is_admissible(d)
            with pytest.raises(NotAdmissibleError):
                build_matching_triple(d)

        d = divisor(0, -1, (1, Q(3, 2)))
        cert = build_matching_triple(d)
        res = validate_certificate(replace(cert, model_bundle=decomposable(0, 0)), d)
        assert not res.ok and any("normal degree mismatch" in f for f in res.failures)
        bad = DivisorClass(cert.kahler_class.x, -9, cert.kahler_class.ctx)
        res = validate_certificate(replace(cert, kahler_class=bad), d)
        assert not res.ok and any("Kahler cone" in f for f in res.failures)

        # the sphere-product second-ruling certificate validates against the
        # refibred divisor data
        d = ExceptionalDivisorData.from_ruled_areas(2, 1)
        v = blowdown_verdict_dim6(d)
        assert validate_certificate(v.certificate, refibred_along_second_ruling(d))


def test_cli_golden_outputs(capsys):
    # documented invocations reproduce their outputs byte-for-byte in JSON mode
    with criterion("cli-golden-outputs"):
        for argv, expected, code in GOLDENS:
            assert main(argv.split()) == code, argv
            out = capsys.readouterr().out
            assert out == expected + "\n", argv
