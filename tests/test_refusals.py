"""Library refusals of a caller's value: each keeps its typed error and its
message whatever the value, an int past Python's digit limit included, and
leaves that limit as it is."""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from conetower import (
    BOUNDARY_QUADRIC, Chart, MultiPoly, PerturbationParams, TransitionMatrix, build_tower,
    cone_unbounded_witness, h0_window, local_model_fibers, normal_bundle_sequence, real_slice_bound,
    sample_real_slice, search_perturbation, tower_center, verify_boundary_cover,
)
from conetower.errors import DigitLimitError, ValidationError, VariableMismatchError
from conetower.quadric import control_cover_certificate

HUGE = 10**5000
TOWER = build_tower(1)
CHART = Chart("M", ("z1", "z2", "z3", "z4"))
PARAMS = PerturbationParams(1, 2, 1)

# entry point: (call, error, one small bad value, the message it is refused with)
REFUSALS = {
    "build_tower": (build_tower, ValidationError, 0, "tower depth must be a positive integer, got 0"),
    "Tower.level": (TOWER.level, ValidationError, 2, "tower level must be an integer in 0..1, got 2"),
    "tower_center": (
        lambda j: tower_center(CHART, j), ValidationError, -1,
        "tower level must be a non-negative integer, got -1",
    ),
    "PerturbationParams.k": (
        lambda k: PerturbationParams(k, 2, 1), ValidationError, 0, "k must be a positive integer, got 0",
    ),
    # N = 2 is refused for k = 2 and for a huge k, which the message quotes
    "PerturbationParams.N": (
        lambda k: PerturbationParams(k, 2, 1), ValidationError, 2,
        "N must be an integer exceeding k=2, got 2",
    ),
    "search_perturbation.k": (search_perturbation, ValidationError, 0, "k must be a positive integer, got 0"),
    "search_perturbation.n_max": (
        lambda n: search_perturbation(1, n), ValidationError, 1, "n_max must be an integer exceeding k, got 1",
    ),
    "cone_unbounded_witness": (
        lambda k: cone_unbounded_witness(k, 1), ValidationError, 0, "k must be a positive integer, got 0",
    ),
    "normal_bundle_sequence": (normal_bundle_sequence, ValidationError, 0, "k must be a positive integer, got 0"),
    "local_model_fibers": (
        local_model_fibers, ValidationError, 0, "the local model needs a positive integer, got 0",
    ),
    "h0_window": (
        lambda w: h0_window(TransitionMatrix.from_strings([["z^2", "0"], ["0", "1"]]), w),
        ValidationError, 0, "window must be a positive integer, got 0",
    ),
    "verify_boundary_cover": (
        lambda n: verify_boundary_cover(TOWER, n, 0), ValidationError, 0,
        "trials must be a positive integer, got 0",
    ),
    "control_cover_certificate": (
        lambda n: control_cover_certificate(n, 0), ValidationError, 0,
        "trials must be a positive integer, got 0",
    ),
    "sample_real_slice": (
        lambda n: sample_real_slice(PARAMS, n, 0), ValidationError, 0, "count must be a positive integer, got 0",
    ),
    "QuadricSplit": (
        lambda h: replace(BOUNDARY_QUADRIC, homogenizer=h), ValidationError, 4,
        "a split's homogenizer is an index 0..3, got 4",
    ),
    "MultiPoly": (
        lambda e: MultiPoly(("x",), {(e,): 1}), ValidationError, -1,
        "exponents must be non-negative ints, got (-1,)",
    ),
    "Chart.var": (
        CHART.var, VariableMismatchError, "w", "unknown variable 'w' for ('z1', 'z2', 'z3', 'z4')",
    ),
    "verify_boundary_cover.seed": (
        lambda s: verify_boundary_cover(TOWER, 1, s), ValidationError, None, "seed must be an integer, got None",
    ),
    "sample_real_slice.seed": (
        lambda s: sample_real_slice(PARAMS, 1, s), ValidationError, 1.5, "seed must be an integer, got 1.5",
    ),
}

# the sign of the out-of-range int past the digit limit, per entry point
HUGE_SIGN = {
    "build_tower": -1, "Tower.level": 1, "tower_center": -1, "PerturbationParams.k": -1,
    "PerturbationParams.N": 1, "search_perturbation.k": -1, "search_perturbation.n_max": -1,
    "cone_unbounded_witness": -1, "normal_bundle_sequence": -1, "local_model_fibers": -1, "h0_window": -1,
    "verify_boundary_cover": -1, "control_cover_certificate": -1, "sample_real_slice": -1,
    "QuadricSplit": 1, "MultiPoly": -1, "Chart.var": 1,
}

# the others also refuse True and 1.5 with the small value's message; here
# True or 1.5 is a k, and refused as one
NO_BOOL_OR_FLOAT = {"PerturbationParams.N"}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_small_bad_values_keep_their_messages(name):
    call, error, small, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call(small)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, value",
    [(name, sign * HUGE) for name, sign in sorted(HUGE_SIGN.items())]
    + [(name, v) for name in sorted(HUGE_SIGN) if name not in NO_BOOL_OR_FLOAT for v in (True, 1.5)],
    ids=lambda v: v if isinstance(v, str) else "huge" if isinstance(v, int) and abs(v) == HUGE else repr(v),
)
def test_refusal_is_typed_whatever_the_value(name, value):
    call, error, small, message = REFUSALS[name]
    limit = sys.get_int_max_str_digits()
    # the text before the value; a MultiPoly refusal quotes the whole exponent vector
    prefix = message[: message.index(repr(small))].removesuffix("(")
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).startswith(prefix)
    if not isinstance(value, int) or abs(value) != HUGE:
        assert str(info.value) == message.replace(repr(small), repr(value), 1)
    assert sys.get_int_max_str_digits() == limit


def test_real_slice_strings_and_params_print_past_the_digit_limit_as_typed_errors():
    # at the 640-digit limit R4 = 10^650 has 651 digits and eps a 1301-digit denominator
    params = PerturbationParams(1, 2, Fraction(1, 10**1300))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for call in (params.as_dict, lambda: sample_real_slice(params, 2, 0), lambda: real_slice_bound(params)):
            with pytest.raises(DigitLimitError, match="more than 640 digits, too many to print"):
                call()
    finally:
        sys.set_int_max_str_digits(limit)
    assert sample_real_slice(params, 2, 0)["R4"] == "1" + "0" * 650
