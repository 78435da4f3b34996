import hashlib
import math
import os
import random
import re
import threading
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcones import cones, oracle
from pbcones.cohomology import BundleContext, Convention, DivisorClass, top_power
from pbcones.bundles import SurfaceGenus, decomposable, sym_power
from pbcones.cones import matching_bundle, restricted_ratio
from pbcones.oracle import (
    OracleGuardError,
    brute_ring_power,
    cone_sweep,
    enumerate_sym_quotients,
    ring_sweep,
    sample_cone_check,
    sympow_sweep,
)
from test_acceptance import SYMPOW_REPORT_SHA256

Q = Fraction


def test_brute_ring_power_examples():
    for n in (1, 2, 4, 6):
        for d in (-3, 0, 5):
            ctx = BundleContext(n, d)
            assert brute_ring_power(DivisorClass(1, 0, ctx), n) == d
            # h^{n-1}F = 1 makes (h + F)^n = e + n, with e = -d in the sub
            # convention; powers below the top degree integrate to 0
            assert brute_ring_power(DivisorClass(1, 1, ctx), n) == d + n
            assert brute_ring_power(DivisorClass(1, 1, ctx), n - 1) == 0
            sub = BundleContext(n, d, Convention.SUB)
            assert brute_ring_power(DivisorClass(1, 1, sub), n) == n - d
            if n >= 2:
                assert brute_ring_power(DivisorClass(0, 1, ctx), n) == 0


def test_brute_matches_formula_on_random_classes():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 6)
        d = rng.randint(-10, 10)
        conv = rng.choice([Convention.QUOTIENT, Convention.SUB])
        u = DivisorClass(Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         BundleContext(n, d, conv))
        assert brute_ring_power(u, n) == top_power(u)


# Numerators and denominators up to 10^12, and the zero coordinate.
coordinate = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-10**12, 10**12),
                                                 st.integers(1, 10**12)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(-50, 50), st.sampled_from(list(Convention)),
       coordinate, coordinate)
@example(1, 0, Convention.QUOTIENT, Q(0), Q(0))
@example(12, -7, Convention.SUB, Q(0), Q(10**12, 3))
@example(12, 5, Convention.QUOTIENT, Q(-10**12, 10**12 - 1), Q(0))
@example(4, 3, Convention.QUOTIENT, Q(1, 2**126 + 1), Q(-5, 9))   # b^4*d of 512 bits
@example(1000, 1, Convention.QUOTIENT, Q(0), Q(1, 3))
@example(1000, 1, Convention.QUOTIENT, Q(3, 7), Q(1))
@example(1000, -3, Convention.SUB, Q(-9999, 7), Q(5, 11))
def test_top_power_matches_brute_ring_power(n, d, convention, x, y):
    u = DivisorClass(x, y, BundleContext(n, d, convention))
    e = u.ctx.top_coefficient
    assert top_power(u) == brute_ring_power(u, n) == x ** (n - 1) * (e * x + n * y)


def test_random_fraction_keeps_the_randint_stream():
    # one call of any count, an empty one included, draws what that many
    # randint pairs draw, from the same bits
    rng, twin = random.Random(7), random.Random(7)
    indices = b"".join(oracle._random_indices(rng, count) for count in (0, 1, 9_999))
    assert len(indices) == 10_000
    for i in indices:
        assert oracle._SAMPLE_FRACTIONS[i] == Q(twin.randint(-9, 9), twin.randint(1, 9))
    assert rng.getstate() == twin.getstate()


def test_ring_sweep_report_is_pinned():
    # sha256 of this report as rendered by the sweep before its sampling and
    # ring formulas were rewritten for speed; every draw and line must stay.
    report = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).render()
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == (
        "b03f11d66f6f35b503f3a3cdee873a02a8f339acacaf5c96b18f88bea6423bfd")


def test_ring_sweep_negative_control(monkeypatch):
    # A closed formula off by 10^-9 at rank 3 alone must fail exactly the
    # rank-3 lines, each on every sample.
    def off_at_rank_3(u):
        return top_power(u) + (Q(1, 10**9) if u.ctx.rank == 3 else 0)

    monkeypatch.setattr(oracle, "top_power", off_at_rank_3)
    report = ring_sweep(seed=1, max_rank=4, max_abs_degree=1, samples=5)
    assert len(report.lines) == 4 * 3 * 2
    for line in report.lines:
        rank = int(re.match(r"n=(\d+) ", line.detail).group(1))
        status = line.render().split()[3]
        if rank == 3:
            assert (status, line.passed) == ("FAIL", False), line.render()
            assert line.detail.endswith(" mismatches=5"), line.render()
        else:
            assert (status, line.passed) == ("PASS", True), line.render()
            assert line.detail.endswith(" mismatches=0"), line.render()


def test_brute_power_guard():
    with pytest.raises(OracleGuardError):
        brute_ring_power(DivisorClass(1, 1, BundleContext(2, 1)), 3)


def test_brute_ring_power_is_the_fraction_of_the_sweeps_integers():
    # The ring sweep compares top_power with the unreduced integer pair
    # (numerator, (qx*qy)**k); brute_ring_power is that pair's fraction at
    # every power k up to the rank.
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        u = DivisorClass(Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         BundleContext(n, rng.randint(-10, 10), rng.choice(list(Convention))))
        for k in range(n + 1):
            num, den = oracle._brute_ring_ints(
                u, k, oracle._point_terms(n, u.ctx.top_coefficient, k))
            assert den == (u.x.denominator * u.y.denominator) ** k
            assert brute_ring_power(u, k) == Q(num, den)


def test_brute_ring_power_is_the_full_expansion():
    # Every one of the 2^k words of (x*h + y*F)^k is kept and integrated on
    # its own.  In the top degree k = n, h^n = e*h^{n-1}F, F^2 = 0 and
    # h^{n-1}F = 1 integrate a word with j F's to e, 1 or 0 for j = 0, 1 or
    # more; a word of a lower degree integrates to 0.
    rng = random.Random(13)
    for n, e, convention in product(range(1, 7), range(-10, 11), list(Convention)):
        ctx = BundleContext(n, e if convention is Convention.QUOTIENT else -e, convention)
        assert ctx.top_coefficient == e
        for _ in range(3):
            x, y = (Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in "xy")
            for k in range(n + 1):
                full = sum(x ** word.count("h") * y ** word.count("F")
                           * {0: e, 1: 1}.get(word.count("F"), 0)
                           for word in product("hF", repeat=k)) if k == n else 0
                assert brute_ring_power(DivisorClass(x, y, ctx), k) == full, (n, e, k, x, y)


def test_the_small_sweep_builds_terms_once_per_line(monkeypatch):
    # The terms reaching the point class depend on the line's rank, e and
    # power alone: each of the 30 lines builds them once, at k = n, and hands
    # that one list to each of its 20 classes.
    built, calls = [], []
    point_terms, brute = oracle._point_terms, oracle._brute_ring_ints

    def building(n, e, k):
        built.append(((n, e, k), point_terms(n, e, k)))
        return built[-1][1]

    def checking(u, k, terms):
        calls.append((u.ctx.rank, u.ctx.top_coefficient, k, terms is built[-1][1]))
        return brute(u, k, terms)

    monkeypatch.setattr(oracle, "_point_terms", building)
    monkeypatch.setattr(oracle, "_brute_ring_ints", checking)
    assert ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).all_passed
    lines = [(n, d if convention is Convention.QUOTIENT else -d, n) for n in range(1, 4)
             for d in range(-2, 3) for convention in (Convention.QUOTIENT, Convention.SUB)]
    assert [args for args, _ in built] == lines
    assert calls == [(*args, True) for args in lines for _ in range(20)]


def test_enumerate_sym_quotients_examples():
    assert enumerate_sym_quotients(decomposable(0, 2), 2) == [0, 2, 4]
    b = decomposable(-2, 1, 1)
    for m in range(1, 6):
        enum = enumerate_sym_quotients(b, m)
        assert len(enum) == math.comb(m + 2, m)
        assert min(enum) == -2 * m
        assert enum == sorted(sym_power(b, m).degrees)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6), st.integers(1, 8))
@example([-3, 0, 0, 2, 5, 9], 8)
@example([7], 1)
def test_enumerate_sym_quotients_matches_exponent_product(degrees, m):
    # every exponent vector (k_1..k_r) in 0..m with sum m, taken one by one
    b = decomposable(*degrees)
    brute = sorted(sum(k * a for k, a in zip(ks, b.degrees))
                   for ks in product(range(m + 1), repeat=len(b.degrees)) if sum(ks) == m)
    assert enumerate_sym_quotients(b, m) == brute


def test_enumerate_guards():
    with pytest.raises(OracleGuardError):
        enumerate_sym_quotients(decomposable(*range(7)), 2)
    with pytest.raises(OracleGuardError):
        enumerate_sym_quotients(decomposable(0, 1), 9)


def test_sweep_bundle_count_guard():
    # Rank 6 with degrees up to 8 walks C(23, 6) - 1 = 100946 bundles, just
    # past the 10^5 cap; up to 1000 it would be about 9.0e16.  The guard
    # must refuse both before enumerating anything.
    for max_abs_degree in (8, 1000):
        with pytest.raises(OracleGuardError, match="exceeds 100000 bundles"):
            sympow_sweep(max_rank=6, max_abs_degree=max_abs_degree, max_m=1)
        with pytest.raises(OracleGuardError, match="exceeds 100000 bundles"):
            cone_sweep(max_rank=6, max_abs_degree=max_abs_degree)
    with pytest.raises(OracleGuardError):
        cone_sweep(max_rank=6, max_abs_degree=-1)


def test_sweep_summand_degree_guard(monkeypatch):
    # Rank 6, degrees up to 7 and powers up to 8: 54,263 bundles, under the
    # bundle cap, but 132,939,688 enumerated summand degrees, past the 10^6
    # cap (the acceptance sweeps enumerate 142,230 and 234,795).  The guard
    # refuses before any enumeration.
    def enumerated(*args):
        raise AssertionError("the sweep enumerated before its size guard")

    monkeypatch.setattr(oracle, "enumerate_sym_quotients", enumerated)
    with pytest.raises(OracleGuardError, match="enumerates 132939688 summand degrees"):
        sympow_sweep(max_rank=6, max_abs_degree=7, max_m=8)
    with pytest.raises(OracleGuardError, match="more than 1000000"):
        cone_sweep(max_rank=6, max_abs_degree=7, max_m=8)
    with pytest.raises(OracleGuardError, match="summand degrees"):
        cone_sweep(max_rank=2, max_abs_degree=3, max_m=10**4)


def test_ring_sweep_class_count_guard():
    # 6 ranks x 21 degrees x 2 conventions x 3969 samples = 1,000,188
    # classes, just past the 10^6 cap (the acceptance run samples 252,000);
    # the guard refuses before sampling anything.
    for sizes in (dict(samples=3969), dict(max_abs_degree=100000, samples=50),
                  dict(samples=100000)):
        with pytest.raises(OracleGuardError, match="more than 1000000"):
            ring_sweep(**sizes)
    with pytest.raises(OracleGuardError):
        ring_sweep(max_rank=0)


@pytest.mark.parametrize("sweep, sizes", [
    (ring_sweep, dict(max_rank=0)),
    (ring_sweep, dict(max_abs_degree=-1)),
    (ring_sweep, dict(samples=0)),
    (sympow_sweep, dict(max_rank=0)),
    (sympow_sweep, dict(max_abs_degree=-1)),
    (sympow_sweep, dict(max_m=0)),
    (cone_sweep, dict(max_rank=0)),
    (cone_sweep, dict(max_abs_degree=-1)),
    (cone_sweep, dict(max_m=0)),
    (ring_sweep, dict(samples=1.5)),
    (ring_sweep, dict(max_rank=2.0)),
    (sympow_sweep, dict(max_m=2.0)),
    (cone_sweep, dict(max_abs_degree=True)),
    (sympow_sweep, dict(max_rank=True)),
])
def test_sweeps_refuse_sizes_below_their_least(sweep, sizes):
    # Each size one below its least value would leave the sweep nothing to
    # check, and an empty report would read as all passed.  A size that is
    # not an int, or is a bool, is refused as well, not met by a TypeError
    # or an answer.
    with pytest.raises(OracleGuardError, match="sweep needs") as refused:
        sweep(**sizes)
    assert refused.value.size == next(iter(sizes))


def test_sample_cone_check_clean():
    report = sample_cone_check(decomposable(0, 2))
    assert report.all_passed
    line = report.lines[0].render()
    assert re.match(r"^CHECK cone-positivity [0-9a-f]{12} PASS ", line)
    assert "violations=0" in line


def test_sample_cone_check_negative_control(monkeypatch):
    # closing the membership inequality admits boundary classes which pair
    # to zero with the extremal section
    def closed_membership(u, b):
        return u.x > 0 and min(b.degrees) * u.x + u.y >= 0

    monkeypatch.setattr(oracle, "kahler_membership", closed_membership)
    report = sample_cone_check(decomposable(0, 2))
    assert not report.all_passed
    assert "FAIL" in report.render()


def test_sample_cone_check_refused_class_negative_control(monkeypatch):
    # a Kahler slope one below the least degree refuses the classes with
    # -a1*x < y <= (1 - a1)*x, which pair positively with the extremal
    # section and the fiber line alike; only a1 = -5 leaves none on the grid
    monkeypatch.setattr(cones, "_kahler_slope", lambda b: (min(b.degrees) - 1, 1))
    report = sample_cone_check(decomposable(0, 2))
    assert not report.all_passed
    assert report.lines[0].detail.endswith(
        " first=(1,1) is refused but pairs positively with every curve"), report.render()
    assert sample_cone_check(decomposable(-5, 2)).all_passed
    report = cone_sweep(2, 2)
    assert len(report.lines) == 5 + 15
    assert not any(line.passed for line in report.lines), report.render()


def test_sympow_sweep_negative_control(monkeypatch):
    # a symmetric power whose top summand is one too high must fail every line
    def top_off_by_one(b, m):
        degrees = sym_power(b, m).degrees
        return decomposable(*degrees[:-1], degrees[-1] + 1)

    monkeypatch.setattr(oracle, "sym_power", top_off_by_one)
    report = sympow_sweep(max_rank=2, max_abs_degree=1, max_m=2)
    assert not report.all_passed
    assert len(report.lines) == 4
    for line in report.lines:
        assert not line.passed, line.render()
        assert " bad=" in line.detail and " first=degrees=[" in line.detail, line.render()


def test_ring_sweep_small():
    report = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20)
    assert report.all_passed
    # one line per (rank, degree, convention)
    assert len(report.lines) == 3 * 5 * 2
    assert all("seed=1" in line.detail for line in report.lines)


def test_sympow_sweep_small():
    report = sympow_sweep(max_rank=3, max_abs_degree=2, max_m=3)
    assert report.all_passed
    assert len(report.lines) == 9


def test_cone_sweep_small():
    report = cone_sweep(max_rank=2, max_abs_degree=2)
    assert report.all_passed


def test_reports_are_deterministic():
    a = ring_sweep(seed=5, max_rank=2, max_abs_degree=1, samples=10).render()
    b = ring_sweep(seed=5, max_rank=2, max_abs_degree=1, samples=10).render()
    assert a == b


def test_restricted_ratio_matches_enumerated_infimum():
    # Independent of the cones module: for V = O(a_1) + ... + O(a_n) over
    # P^1 with a_1 <= ... <= a_n, the Kleiman criterion on P(V + O) puts the
    # restriction ratios of ambient Kahler classes on P(V) above
    # alpha - n*min(a_1, 0).  The restricted-ratio infimum is the least of
    # these over every V of degree alpha.
    g0 = SurfaceGenus(0)
    for n in range(1, 5):
        infima: dict[int, dict[tuple[int, ...], int]] = {}
        for degrees in combinations_with_replacement(range(-8, 9), n):
            alpha = sum(degrees)
            if -6 <= alpha <= 6:
                infima.setdefault(alpha, {})[degrees] = alpha - n * min(degrees[0], 0)
        for alpha in range(-6, 7):
            least = min(infima[alpha].values())
            assert restricted_ratio(alpha, n, g0).value == least, (alpha, n)
            model = matching_bundle(alpha, n, g0).degrees
            assert infima[alpha][model] == least, (alpha, n, model)


def _force_shares(monkeypatch) -> list:
    """Split every sweep into three shares, two of them forked, whatever its
    size and the host's CPU count; returns the forks made."""
    forks, fork = [], os.fork
    monkeypatch.setattr(oracle, "_FORK_MIN_CASES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweeps_in_shares_render_the_same_bytes(monkeypatch):
    cone = cone_sweep(2, 2).render()
    forks = _force_shares(monkeypatch)
    ring = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).render()
    assert hashlib.sha256(ring.encode("utf-8")).hexdigest() == (
        "b03f11d66f6f35b503f3a3cdee873a02a8f339acacaf5c96b18f88bea6423bfd")
    assert cone_sweep(2, 2).render() == cone
    assert len(forks) == 4
    _assert_no_child_left()


def test_ring_shares_check_the_classes_of_their_lines(monkeypatch):
    # Mark the first i % 7 + 1 classes of line i, from the one-process draw,
    # and make the brute power off by one on the marked classes alone: a
    # share that checked another line's classes, or a line that took another
    # line's count, would show other mismatch counts.
    drawn = {}
    brute = oracle._brute_ring_ints

    def recording(u, k, terms):
        drawn.setdefault(u.ctx, []).append((u.x, u.y))
        return brute(u, k, terms)

    def off_by_one_if_marked(u, k, terms):
        num, den = brute(u, k, terms)
        return num + den * ((u.x, u.y) in marked[u.ctx]), den

    monkeypatch.setattr(oracle, "_brute_ring_ints", recording)
    sizes = dict(seed=4, max_rank=3, max_abs_degree=2, samples=7)
    ring_sweep(**sizes)
    marked = {ctx: set(xys[:i % 7 + 1]) for i, (ctx, xys) in enumerate(drawn.items())}
    assert len(marked) == 3 * 5 * 2
    monkeypatch.setattr(oracle, "_brute_ring_ints", off_by_one_if_marked)
    alone = ring_sweep(**sizes)
    forks = _force_shares(monkeypatch)
    shared = ring_sweep(**sizes)
    assert len(forks) == 2
    assert shared.render() == alone.render()
    want = [sum(xy in marked[ctx] for xy in xys) for ctx, xys in drawn.items()]
    counts = [int(line.detail.rsplit("mismatches=", 1)[1]) for line in shared.lines]
    assert counts == want and len(set(counts)) == 7
    _assert_no_child_left()


def test_ring_sweep_negative_control_in_shares(monkeypatch):
    forks = _force_shares(monkeypatch)
    test_ring_sweep_negative_control(monkeypatch)
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_share_that_fails_in_its_child_fails_the_sweep(monkeypatch, capfd):
    parent = os.getpid()

    def raises_in_a_child(b, max_m):
        if os.getpid() != parent:
            raise ZeroDivisionError("in a child")
        return sample_cone_check(b, max_m)

    _force_shares(monkeypatch)
    monkeypatch.setattr(oracle, "sample_cone_check", raises_in_a_child)
    with pytest.raises(RuntimeError, match=r"^cone_sweep share 1 of 3 exited with code 1$"):
        cone_sweep(2, 2)
    assert "ZeroDivisionError: in a child" in capfd.readouterr().err
    _assert_no_child_left()


def test_a_share_that_fails_here_ends_the_children(monkeypatch):
    # each child would sleep for a minute; the sweep must end them and raise
    # the calling process's own error at once
    parent = os.getpid()

    def raises_here(u, k, terms):
        if os.getpid() == parent:
            raise ZeroDivisionError("in the calling process")
        time.sleep(60)
        raise ZeroDivisionError("in a child")

    _force_shares(monkeypatch)
    monkeypatch.setattr(oracle, "_brute_ring_ints", raises_here)
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="in the calling process"):
        ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def _fork_refused():
    raise AssertionError("the sweep forked")


def test_one_usable_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(oracle, "_FORK_MIN_CASES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _fork_refused)
    assert ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).all_passed
    assert cone_sweep(2, 2).all_passed
    assert sympow_sweep(3, 2, 3).all_passed


def test_a_running_thread_stops_the_fork(monkeypatch):
    _force_shares(monkeypatch)
    monkeypatch.setattr(os, "fork", _fork_refused)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).all_passed
        assert cone_sweep(2, 2).all_passed
        assert sympow_sweep(3, 2, 3).all_passed
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _drawn_classes_digest(monkeypatch, out) -> str:
    """sha256 of the classes ring_sweep(seed=1, max_rank=3, max_abs_degree=2,
    samples=20) checks, one "n d convention x y" row each, in line order.
    Each process writes the classes it checks to its own file in out."""
    out.mkdir()
    brute = oracle._brute_ring_ints

    def recording(u, k, terms):
        with open(out / str(os.getpid()), "a", encoding="utf-8") as rows:
            rows.write(f"{u.ctx.rank} {u.ctx.degree} {u.ctx.convention.value} {u.x} {u.y}\n")
        return brute(u, k, terms)

    monkeypatch.setattr(oracle, "_brute_ring_ints", recording)
    ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20)
    lines = {}
    for path in out.iterdir():
        for row in path.read_text(encoding="utf-8").splitlines(keepends=True):
            n, d, convention, _ = row.split(" ", 3)
            lines.setdefault((int(n), int(d), convention), []).append(row)
    assert len(lines) == 3 * 5 * 2 and {len(rows) for rows in lines.values()} == {20}
    text = "".join(row for line in sorted(lines) for row in lines[line])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ring_sweep_drawn_classes_are_pinned(monkeypatch, tmp_path):
    # sha256 of the classes the sweep checked before each class was drawn
    # once in the calling process; one process and three shares alike
    alone = _drawn_classes_digest(monkeypatch, tmp_path / "alone")
    forks = _force_shares(monkeypatch)
    shared = _drawn_classes_digest(monkeypatch, tmp_path / "shared")
    assert len(forks) == 2
    assert alone == shared == (
        "154fbdd413827f99d2f3f7d73ad554e66b9e4c1f625bf6f8d7cd2cadd7028150")
    _assert_no_child_left()


def test_no_child_draws_a_class(monkeypatch):
    parent, indices = os.getpid(), oracle._random_indices

    def in_the_parent(rng, count):
        if os.getpid() != parent:
            raise AssertionError("a child drew a class")
        return indices(rng, count)

    monkeypatch.setattr(oracle, "_random_indices", in_the_parent)
    forks = _force_shares(monkeypatch)
    ring = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).render()
    assert hashlib.sha256(ring.encode("utf-8")).hexdigest() == (
        "b03f11d66f6f35b503f3a3cdee873a02a8f339acacaf5c96b18f88bea6423bfd")
    assert len(forks) == 2
    _assert_no_child_left()


def test_sympow_shares_render_the_one_process_bytes(monkeypatch):
    alone = sympow_sweep(4, 5, 6).render()
    forks = _force_shares(monkeypatch)
    shared = sympow_sweep(4, 5, 6).render()
    assert len(forks) == 2
    assert shared == alone
    assert hashlib.sha256(shared.encode("utf-8")).hexdigest() == SYMPOW_REPORT_SHA256
    _assert_no_child_left()


def test_sympow_shares_check_the_bundles_of_their_lines(monkeypatch):
    # Mark a different run of bundles at each (rank, power) and make the
    # symmetric power wrong there alone: each line must count its own
    # marked bundles and name the first of them, in one process and in
    # three shares alike.
    marked = {(r, m): list(combinations_with_replacement(range(-2, 3), r))[r * m::r + m]
              for r, m in product(range(1, 4), repeat=2)}
    wrong = {(ds, m) for (r, m), bundles in marked.items() for ds in bundles}

    def wrong_where_marked(b, m):
        power = sym_power(b, m)
        if (b.degrees, m) not in wrong:
            return power
        return decomposable(*power.degrees[:-1], power.degrees[-1] + 1)

    monkeypatch.setattr(oracle, "sym_power", wrong_where_marked)
    alone = sympow_sweep(3, 2, 3)
    forks = _force_shares(monkeypatch)
    shared = sympow_sweep(3, 2, 3)
    assert len(forks) == 2
    assert shared.render() == alone.render()
    want = [f"r={r} m={m} bundles={math.comb(r + 4, r)} bad={len(bundles)} "
            f"first=degrees={list(bundles[0])}" for (r, m), bundles in marked.items()]
    assert [line.detail for line in shared.lines] == want
    assert not any(line.passed for line in shared.lines)
    assert len({len(bundles) for bundles in marked.values()}) == 6
    assert len({bundles[0] for bundles in marked.values()}) == 9
    _assert_no_child_left()


def test_a_sympow_share_that_fails_in_its_child_fails_the_sweep(monkeypatch, capfd):
    parent = os.getpid()

    def raises_in_a_child(b, m):
        if os.getpid() != parent:
            raise ZeroDivisionError("in a child")
        return sym_power(b, m)

    _force_shares(monkeypatch)
    monkeypatch.setattr(oracle, "sym_power", raises_in_a_child)
    with pytest.raises(RuntimeError, match=r"^sympow_sweep share 1 of 3 exited with code 1$"):
        sympow_sweep(3, 2, 3)
    assert "ZeroDivisionError: in a child" in capfd.readouterr().err
    _assert_no_child_left()
