"""Library refusals that no other test reaches: each guard raises a
ValueError with its own text."""

import pytest

from pbcones.bundles import SurfaceGenus, decomposable, sym_rank_degree
from pbcones.cohomology import BundleContext, DivisorClass
from pbcones.cones import matching_bundle, restrict_to_divisor
from pbcones.oracle import enumerate_sym_quotients


@pytest.mark.parametrize("call, refusal", [
    (lambda: sym_rank_degree(0, 1, 2), "rank must be positive, got 0"),
    (lambda: matching_bundle(1, 0, SurfaceGenus(0)), "rank must be positive, got 0"),
    (lambda: restrict_to_divisor(DivisorClass(1, 0, BundleContext(1, 0))),
     "nothing to restrict: ambient rank must be at least 2"),
    (lambda: enumerate_sym_quotients(decomposable(0, 1), 0),
     "symmetric power exponent must be >= 1, got 0"),
], ids=["sym_rank_degree", "matching_bundle", "restrict_to_divisor",
        "enumerate_sym_quotients"])
def test_guard_refuses_with_its_text(call, refusal):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == refusal
