"""verdict-stream: an in-process, closed-loop stream of blow-down jobs.

One op is one job: build the divisor data, take the verdict (fiber rank
2 through ``blowdown_verdict_dim6``, ranks 3 to 5 through
``is_admissible`` and ``build_matching_triple``) and validate every
certificate against the divisor it certifies.  The expected answer of
every job is computed here from the paper's rule, without calling the
library's own threshold: a ruled divisor with ratio rho is admissible
iff rho > alpha (genus > 0) or rho > max(alpha, alpha mod n) (genus 0);
a sphere product blows down its smaller-area ruling and is undecided
when the two areas agree; a plane over a point always blows down.

The mix is an assumption, not measured traffic: no trace of real use
exists.  Every share is uniform over the cases the paper's verdict
rule tells apart:

- the job's branch is uniform over the five branches the property report
  counts: point, sphere product, admissible, not admissible, and
  rejected outside the forward cone;
- a sphere product is uniform over its three verdicts: first ruling,
  second ruling, and undetermined (equal areas);
- a ruled job's (alpha, rank, genus) context is uniform over every alpha
  in -5..5 (so alpha mod n takes every residue of every rank), rank 2 to
  5 and genus 0 to 2, less the sphere product; a not-admissible job
  draws only from contexts whose bound is positive, since no class in
  the forward cone lies at or below a bound of 0 or less;
- a rejected job is uniform over its two causes: x <= 0, or ratio <= 0.

Every job draws a fresh rational class, so contexts repeat and classes
do not.
"""

from __future__ import annotations

import dataclasses
import random
import time
from array import array
from fractions import Fraction

from pbcones import blowdown as bd
from pbcones.bundles import twist

from common import Digest, Outcome, TracedRun, Windows, peak_rss_mb, weighted_percentile

TAIL_Q = 99
CHUNK = 2048            # jobs generated per untimed refill
TRACED_JOBS = 16384
WARMUP_JOBS = 512

BRANCHES = ("point", "sphere_product", "admissible", "not_admissible", "rejected")


def paper_bound(alpha: int, n: int, genus: int) -> int:
    return alpha if genus > 0 else max(alpha, alpha % n)


# Every (alpha, rank, genus) context a ruled job can use.  The genus-0,
# rank-2, alpha-2 divisor is the sphere product, drawn from its two ruling
# areas instead.
CONTEXTS = tuple((a, n, g) for a in range(-5, 6) for n in range(2, 6) for g in range(3)
                 if (a, n, g) != (2, 2, 0))
# The contexts with a positive bound, the only ones a class in the forward
# cone can fail.
BOUNDED = tuple(i for i, (a, n, g) in enumerate(CONTEXTS) if paper_bound(a, n, g) > 0)


class Generator:
    """Seeded job source; the same seed yields the same job sequence."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _positive(self, top: int) -> Fraction:
        return Fraction(self.rng.randint(1, top), self.rng.randint(1, 9))

    def job(self) -> tuple:
        rng = self.rng
        branch = rng.choice(BRANCHES)
        if branch == "point":
            return ("point",)
        if branch == "sphere_product":
            small = self._positive(40)
            large = small + self._positive(40)
            x, y = rng.choice(((small, large), (large, small), (small, small)))
            return ("sphere", x, y)
        ctx = rng.choice(BOUNDED) if branch == "not_admissible" else rng.randrange(len(CONTEXTS))
        alpha, n, g = CONTEXTS[ctx]
        bound = paper_bound(alpha, n, g)
        x = self._positive(30)
        if branch == "admissible":
            rho = max(bound, 0) + Fraction(rng.randint(1, 40), rng.randint(1, 8))
        elif branch == "not_admissible":
            rho = bound * Fraction(rng.randint(1, 8), 8)
        elif rng.random() < 0.5:  # rejected: ratio at or below 0
            rho = -Fraction(rng.randint(0, 20), rng.randint(1, 8))
        else:  # rejected: x at or below 0
            rho = max(bound, 0) + Fraction(rng.randint(1, 40), rng.randint(1, 8))
            x = -x
        return ("ruled", ctx, x, (rho - alpha) * x / n, rho)

    def chunk(self, size: int) -> list[tuple]:
        return [self.job() for _ in range(size)]


def _cert_record(cert) -> str:
    v = cert.model_bundle
    bundle = list(v.degrees) if hasattr(v, "degrees") else [v.rank, v.degree]
    k = cert.kahler_class
    return f"{bundle}:{k.x},{k.y}:{cert.restricted_ratio}"


class Stream:
    """Executes and checks jobs.  The ``verdict`` negative control expects a
    wrong verdict on every 7th job; the ``certificate`` one gives every 5th
    certificate a model bundle of the wrong degree, which passes every
    check of this benchmark except validate_certificate."""

    def __init__(self, gen: Generator, negative: str | None = None) -> None:
        self.gen = gen
        self.negative = negative
        self.index = 0
        self.branches = {b: 0 for b in BRANCHES}
        self.seen_contexts: set[int] = set()
        self.repeats = 0
        self.operand_bits: dict[int, int] = {}
        self.tracer = None

    def _corrupt(self, cert):
        if self.negative == "certificate" and self.index % 5 == 0:
            return dataclasses.replace(cert, model_bundle=twist(cert.model_bundle, 1))
        return cert

    def execute(self, job: tuple):
        """The timed part of one op: library calls only."""
        kind = job[0]
        if kind == "point":
            return ("point", bd.blowdown_verdict_dim6(bd.ExceptionalDivisorData.point()))
        if kind == "sphere":
            _, x, y = job
            d = bd.ExceptionalDivisorData.from_ruled_areas(x, y)
            verdict = bd.blowdown_verdict_dim6(d)
            check = None
            if verdict.certificate is not None:
                target = d if x < y else bd.ExceptionalDivisorData.from_ruled_areas(y, x)
                cert = self._corrupt(verdict.certificate)
                check = (cert, bd.validate_certificate(cert, target))
            return ("sphere_product", verdict, check)
        _, ctx, x, y, _rho = job
        alpha, n, g = CONTEXTS[ctx]
        try:
            d = bd.ExceptionalDivisorData.over_surface(g, alpha, (x, y), fiber_rank=n)
        except ValueError as err:
            return ("rejected", err)
        if n == 2:
            verdict = bd.blowdown_verdict_dim6(d)
            check = None
            if verdict.certificate is not None:
                cert = self._corrupt(verdict.certificate)
                check = (cert, bd.validate_certificate(cert, d))
            return ("ruled2", verdict, check)
        admissible = bd.is_admissible(d)
        try:
            cert = self._corrupt(bd.build_matching_triple(d))
        except bd.NotAdmissibleError as err:
            return ("ruledn", admissible, err, None)
        return ("ruledn", admissible, None, (cert, bd.validate_certificate(cert, d)))

    def check(self, job: tuple, result, out: Outcome, digest: Digest | None) -> None:
        """Compare one job's result with the paper's rule and record it."""
        i = self.index
        flip = self.negative == "verdict" and i % 7 == 0
        kind = job[0]
        record = ""
        if kind == "point":
            verdict = result[1]
            self.branches["point"] += 1
            want = "AlwaysBlowdown" if not flip else "NotAdmissible"
            ok = verdict.kind.value == want and verdict.certificate is None
            record = verdict.kind.value
        elif kind == "sphere":
            _, x, y = job
            _, verdict, check = result
            self.branches["sphere_product"] += 1
            self._operand(x, y)
            if x == y:
                want = ("Undetermined", None, None)
            else:
                want = ("BlowdownUpToDeformation", "first" if x < y else "second",
                        2 * y / x if x < y else 2 * x / y)
            if flip:
                want = ("NotAdmissible", None, None)
            ruling = verdict.chosen_ruling.value if verdict.chosen_ruling else None
            got = (verdict.kind.value, ruling,
                   check[0].restricted_ratio if check else None)
            ok = got == want and (check is None or bool(check[1]))
            record = f"{got}:{_cert_record(check[0]) if check else ''}"
        else:
            _, ctx, x, y, rho = job
            alpha, n, g = CONTEXTS[ctx]
            self._operand(x, y)
            if ctx in self.seen_contexts:
                self.repeats += 1
            self.seen_contexts.add(ctx)
            if x <= 0 or rho <= 0:
                branch = "rejected"
            elif rho > paper_bound(alpha, n, g):
                branch = "admissible"
            else:
                branch = "not_admissible"
            self.branches[branch] += 1
            want = branch
            if flip:
                want = {"rejected": "admissible", "admissible": "not_admissible",
                        "not_admissible": "admissible"}[branch]
            ok, record = self._check_ruled(want, rho, result)
        if not ok:
            out.fail(f"verdict-stream job {i} {job!r}: got {record}")
        if digest is not None:
            digest.add(f"{i}:{record}")
        self.index += 1

    @staticmethod
    def _check_ruled(want: str, rho: Fraction, result) -> tuple[bool, str]:
        tag = result[0]
        if tag == "rejected":
            return want == "rejected", "rejected"
        if tag == "ruled2":
            _, verdict, check = result
            expected_kind = {"admissible": "BlowdownUpToDeformation",
                             "not_admissible": "NotAdmissible"}.get(want)
            ok = (verdict.kind.value == expected_kind and verdict.chosen_ruling is None
                  and (check is not None) == (want == "admissible"))
            if check is not None:
                ok = ok and check[0].restricted_ratio == rho and bool(check[1])
            return ok, f"{verdict.kind.value}:{_cert_record(check[0]) if check else ''}"
        _, admissible, refusal, check = result
        if want == "admissible":
            ok = (admissible and refusal is None and check is not None
                  and check[0].restricted_ratio == rho and bool(check[1]))
        else:
            ok = want == "not_admissible" and not admissible and refusal is not None
        return ok, f"{admissible}:{_cert_record(check[0]) if check else 'refused'}"

    def _operand(self, x: Fraction, y: Fraction) -> None:
        bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length(),
                   abs(y.numerator).bit_length(), y.denominator.bit_length())
        self.operand_bits[bits] = self.operand_bits.get(bits, 0) + 1

    def run_chunk(self, jobs: list[tuple], out: Outcome, latencies: array | None,
                  digest: Digest | None) -> float:
        """Run jobs one after another, appending each job's latency to
        ``latencies``; returns the wall time spent in them."""
        now = time.perf_counter
        busy = 0.0
        for job in jobs:
            if self.tracer is not None:
                self.tracer.op_id = self.index
            start = now()
            try:
                result = self.execute(job)
            except Exception as err:  # any other exception is a failed op
                busy += now() - start
                out.fail(f"verdict-stream job {self.index} {job!r} raised {err!r}")
                self.index += 1
                continue
            elapsed = now() - start
            busy += elapsed
            if latencies is not None:
                latencies.append(elapsed)
            self.check(job, result, out, digest)
        out.attempted += len(jobs)
        return busy


@dataclasses.dataclass
class State:
    seed: int
    tiny: bool
    negative: str | None
    gen: Generator
    first_chunk: list[tuple]


def setup(seed: int, tiny: bool, negative: str | None) -> State:
    gen = Generator(seed)
    first = gen.chunk(256 if tiny else CHUNK)
    warm = Stream(Generator(seed + 1))
    warm.run_chunk(warm.gen.chunk(64 if tiny else WARMUP_JOBS), Outcome(), None, None)
    return State(seed, tiny, negative, gen, first)


def _properties(stream: Stream, out: Outcome) -> None:
    total = stream.index or 1
    shares = " ".join(f"{b}={stream.branches[b] / total:.4f}" for b in BRANCHES)
    ruled = sum(stream.branches[b] for b in ("admissible", "not_admissible", "rejected"))
    bits = list(stream.operand_bits.items()) or [(0, 1)]
    out.lines += [
        f"verdict-stream branch shares over {stream.index} jobs: {shares}",
        f"verdict-stream context reuse: {stream.repeats / (ruled or 1):.4f} of ruled jobs "
        f"repeat an earlier (alpha, rank, genus) context; {len(stream.seen_contexts)} distinct",
        f"verdict-stream operand size (max bits of x, y numerators/denominators): "
        f"median {weighted_percentile(bits, 50)} max {max(bits)[0]}",
    ]


def measure(state: State, seconds: float, out: Outcome) -> None:
    """Runs chunks of jobs until ``seconds`` of timed work; latency
    percentiles are taken per window of one chunk (see common.Windows)."""
    gen = state.gen
    stream = Stream(gen, state.negative)
    digest = Digest()
    busy = 0.0
    windows = Windows(CHUNK, (50, TAIL_Q))
    jobs = state.first_chunk
    first = True
    while first or busy < seconds:
        latencies = array("d")
        busy += stream.run_chunk(jobs, out, latencies, digest if first else None)
        if first:
            out.lines.append(f"verdict-stream digest of the first {len(jobs)} "
                             f"jobs: {digest.hexdigest()}")
            first = False
        windows.extend(latencies)
        jobs = gen.chunk(CHUNK)
    rss = peak_rss_mb()
    _properties(stream, out)
    out.lines.append(f"verdict-stream: {stream.index} timed jobs in {busy:.3f} s; "
                     f"latencies are the {windows.describe()}")
    out.metric("ops_per_s", stream.index / busy, "op/s")
    out.metric("op_ms_p50", windows.latency(50) * 1000.0, "ms")
    out.metric("op_ms_tail", windows.latency(TAIL_Q) * 1000.0, "ms")
    out.metric("peak_rss_mb", rss, "MB")


def traced(state: State, out: Outcome, tracer) -> TracedRun:
    """Runs each block of jobs untraced, then traced, so that both sides of
    the overhead see the same host conditions."""
    jobs = Generator(state.seed).chunk(256 if state.tiny else TRACED_JOBS)
    plain = Stream(Generator(state.seed), state.negative)
    stream = Stream(Generator(state.seed), state.negative)
    stream.tracer = tracer
    untraced = traced_wall = 0.0
    for i in range(0, len(jobs), CHUNK):
        block = jobs[i:i + CHUNK]
        untraced += plain.run_chunk(block, Outcome(), None, None)
        with tracer:
            traced_wall += stream.run_chunk(block, out, None, None)
    _properties(stream, out)
    return TracedRun(len(jobs), traced_wall / untraced - 1.0)
