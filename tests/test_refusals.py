"""Library refusals that no other test reaches: each guard raises a
ValueError with its own text."""

import pytest

from pbcones.bundles import SurfaceGenus, decomposable, sym_rank_degree
from pbcones.cohomology import BundleContext, DivisorClass
from pbcones.cones import matching_bundle, restrict_to_divisor
from pbcones.oracle import brute_ring_power, enumerate_sym_quotients, sample_cone_check

RANK_2 = DivisorClass(1, 1, BundleContext(2, 1))


@pytest.mark.parametrize("call, refusal", [
    (lambda: sym_rank_degree(0, 1, 2), "rank must be positive, got 0"),
    (lambda: matching_bundle(1, 0, SurfaceGenus(0)), "rank must be positive, got 0"),
    (lambda: restrict_to_divisor(DivisorClass(1, 0, BundleContext(1, 0))),
     "nothing to restrict: ambient rank must be at least 2"),
    (lambda: enumerate_sym_quotients(decomposable(0, 1), 0),
     "symmetric power exponent must be >= 1, got 0"),
    *((lambda k=k: brute_ring_power(RANK_2, k),
       f"brute ring power needs an int k from 0 to the rank (2), got {k!r}")
      for k in (-1, 3, 2.0, True)),
    *((lambda m=m: sample_cone_check(decomposable(1, 2), m),
       f"cone check needs an int max_m >= 1, got {m!r}") for m in (0, -1, 2.0, True)),
], ids=["sym_rank_degree", "matching_bundle", "restrict_to_divisor",
        "enumerate_sym_quotients", "brute_ring_power_k=-1", "brute_ring_power_k=3",
        "brute_ring_power_k=2.0", "brute_ring_power_k=True", "sample_cone_check_max_m=0",
        "sample_cone_check_max_m=-1", "sample_cone_check_max_m=2.0",
        "sample_cone_check_max_m=True"])
def test_guard_refuses_with_its_text(call, refusal):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == refusal
