"""Far-out inputs to the public entry points: each is refused within a
small CPU-time cap and before any large allocation, and the refusal
writes every number in bounded form.  A size past a budget raises
OutOfRegimeError; a cube past MAX_BITS coordinates, which no budget
covers, raises the ValueError that Subcube raises for it."""

import time
import tracemalloc

import pytest

from hypercube_codes.codes import Code, weight_class_code
from hypercube_codes.cube import max_subcube_count, verify_hitting
from hypercube_codes.errors import OutOfRegimeError
from hypercube_codes.extremal import basis_subset_bounds, max_basis_subsets
from hypercube_codes.geometry import enumerate_subcubes, free_sets_colex
from hypercube_codes.gf2 import GF2Matrix, code_from_parity_check, count_nonsingular_submatrices
from hypercube_codes.hypergraph import (augmented_complete, complete, lagrangian,
                                        linear_independence_hypergraph)

HUGE = 10**5000  # past Python's 4,300-digit limit on writing an int out

# CPU seconds per refusal: each row takes under 1 ms on a 2-vCPU x86-64
# VM, and the cap leaves room for a slow host.  Forming the subcube
# total at n = 10^9 would take 125 MB, which the allocation cap catches.
CAP_S = 0.25
CAP_BYTES = 1 << 20


@pytest.mark.parametrize("call, error, shown", [
    (lambda: lagrangian(complete(2, 3), restarts=HUGE), OutOfRegimeError,
     "at least 2^16609 restarts"),
    (lambda: augmented_complete(2, HUGE, 3), OutOfRegimeError, "on at least 2^16609 vertices"),
    (lambda: linear_independence_hypergraph(1, HUGE), OutOfRegimeError, "k=at least 2^16609"),
    (lambda: max_basis_subsets(HUGE, HUGE), OutOfRegimeError, "k=at least 2^16609"),
    (lambda: next(enumerate_subcubes(20000, 1)), OutOfRegimeError, "at least 2^19999 subcubes"),
    (lambda: next(enumerate_subcubes(HUGE, 1)), OutOfRegimeError,
     "at least 2^(at least 2^16609) subcubes"),
    (lambda: next(enumerate_subcubes(10**9, 1)), OutOfRegimeError, "at least 2^999999999 subcubes"),
    (lambda: next(enumerate_subcubes(80, 8, budget=-HUGE)), OutOfRegimeError,
     "the budget at most -2^16609"),
    # one subcube, within any budget: the coordinates are refused before
    # range(n) is listed, a set of 10^9 ints
    (lambda: next(enumerate_subcubes(10**9, 10**9)), ValueError, "n must be in [0, 64]"),
    (lambda: next(free_sets_colex(HUGE, 1)), ValueError, "n must be in [0, 64]"),
    (lambda: verify_hitting(Code(64, [0]), 1), OutOfRegimeError,
     "at least 2^69 subcubes exceed the budget 100000000"),
    (lambda: max_subcube_count(Code(64, [0]), 1), OutOfRegimeError,
     "at least 2^69 subcubes exceed the budget 100000000"),
    (lambda: verify_hitting(Code(20, [0]), 5, budget=-HUGE), OutOfRegimeError,
     "the budget at most -2^16609"),
    (lambda: max_subcube_count(Code(20, [0]), 5, budget=-HUGE), OutOfRegimeError,
     "the budget at most -2^16609"),
    (lambda: weight_class_code(40, 2, 0), OutOfRegimeError, "enumerated for n <= 24"),
    (lambda: count_nonsingular_submatrices(GF2Matrix.from_rows(64, [0] * 32)),
     OutOfRegimeError, "C(64, 32) column subsets exceed the subset budget"),
    (lambda: code_from_parity_check(GF2Matrix.from_rows(64, [(1 << 64) - 1])),
     OutOfRegimeError, "the code has 2^63 words"),
    (lambda: basis_subset_bounds(HUGE, HUGE), OutOfRegimeError, "k=at least 2^16609"),
], ids=["lagrangian-restarts", "augmented_complete", "linear_independence_hypergraph",
        "max_basis_subsets", "enumerate_subcubes-n20000", "enumerate_subcubes-huge",
        "enumerate_subcubes-n1e9", "enumerate_subcubes-negative-budget",
        "enumerate_subcubes-whole-cube-n1e9", "free_sets_colex-huge",
        "verify_hitting-n64", "max_subcube_count-n64", "verify_hitting-negative-budget",
        "max_subcube_count-negative-budget", "weight_class_code-n40",
        "count_nonsingular_submatrices-32x64", "code_from_parity_check-1x64",
        "basis_subset_bounds-huge"])
def test_huge_inputs_are_refused_at_once(call, error, shown):
    tracemalloc.start()
    start = time.process_time()
    try:
        with pytest.raises(error) as refused:
            call()
        assert time.process_time() - start < CAP_S
        assert tracemalloc.get_traced_memory()[1] < CAP_BYTES
    finally:
        tracemalloc.stop()
    message = str(refused.value)
    assert shown in message
    assert len(message) < 200
