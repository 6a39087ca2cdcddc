"""One argument rule for every public function that takes a number.

An argument that is not a real number (a str, None, a complex, a list, a
bool) raises :class:`InvalidParameterError`; a real one outside its range
(NaN and +inf included) raises the function's documented error.  Both
messages name the argument as ``name=value``.  Each row below states one
argument's range by a value just outside it and one just inside it.

A rate that overflows double precision raises :class:`DomainError` naming
the channel, in every public function that returns rates.

The row kernels are the exception: they take floats or numpy arrays by
duck typing and run once per row, so they check nothing, and a non-number
raises ``TypeError``.
"""

import math
import sys

import pytest

from gicap import (
    ChannelParams,
    DomainError,
    GdofParams,
    InterferenceTag,
    InvalidParameterError,
    InvalidSplitError,
    PowerSplit,
    alpha,
    asymptotic_tightness_check,
    baseline_gdof,
    class_outer,
    d_sym,
    differential_rates,
    finite_snr_convergence,
    from_physical,
    hk_region,
    kramer_bound,
    kramer_gap,
    linear_to_db,
    mixed_outer,
    new_sum_bound,
    one_sided_sum_capacity,
    recommended_split,
    regime1_gap,
    regime1_rate,
    regime2_rate,
    regime2_window,
    strong_capacity,
    symmetric_bounds,
    symmetric_capacity_strong,
    symmetric_gdof_region,
    symmetric_hk_rate,
    symmetric_regime,
    weak_outer,
)
from gicap.bounds import outer_args
from gicap.hk import hk_args, recommended_levels
from gicap.region import log2_rows, sigfig

TINY = 5e-324  # the least positive float
NON_REALS = ["3", None, 1j, [1.0], True]
X = object()  # marks the argument under test

# a regime-2 channel (alpha = 0.6) and the lower edge of its gamma window
R2_SNR, R2_INR = 1e6, 1e6**0.6
R2_GAMMA_LOW = regime2_window(alpha(R2_SNR, R2_INR))[0]


def up(x):
    return math.nextafter(x, math.inf)


def rule(function, args, name, outside, inside, error=DomainError):
    """Argument ``name`` of ``function(*args)``, at the ``X`` in ``args``.

    ``inside`` is None where the other arguments' relational rule rejects
    every value at the boundary."""

    def call(x):
        return function(*[x if a is X else a for a in args])

    return pytest.param(call, name, error, outside, inside, id=f"{function.__name__}-{name}")


def tightness_snr(snr):
    """:func:`asymptotic_tightness_check` with ``snr`` as the first of two SNRs."""
    return asymptotic_tightness_check(0.3, [snr, 1e6])


IPE = InvalidParameterError
RULES = [
    # channel
    rule(linear_to_db, [X], "x", 0.0, TINY),
    *(
        rule(ChannelParams, [X if k == i else 1.0 for k in range(4)], name, -TINY, 0.0, IPE)
        for i, name in enumerate(("snr1", "snr2", "inr1", "inr2"))
    ),
    *(
        rule(from_physical, [X if k == i else 0.0 for k in range(6)] + [1.0], name, -TINY, 0.0, IPE)
        for i, name in enumerate(("g11", "g12", "g21", "g22", "p1", "p2"))
    ),
    rule(from_physical, [0.0] * 6 + [X], "n0", 0.0, TINY, IPE),
    rule(alpha, [X, 5.0], "snr", 1.0, up(1.0)),
    rule(alpha, [10.0, X], "inr", 0.0, TINY),
    rule(symmetric_regime, [X, 5.0], "snr", 1.0, up(1.0)),
    rule(symmetric_regime, [10.0, X], "inr", -TINY, 0.0),
    # hk
    rule(PowerSplit, [X, 0.0], "inr_p2", -TINY, 0.0, InvalidSplitError),
    rule(PowerSplit, [0.0, X], "inr_p1", -TINY, 0.0, InvalidSplitError),
    *(
        r
        for function in (symmetric_hk_rate, regime1_rate, regime1_gap, symmetric_bounds)
        for r in (rule(function, [X, 5.0], "snr", 0.0, TINY),
                  rule(function, [10.0, X], "inr", -TINY, 0.0))
    ),
    rule(regime2_window, [X], "alpha", 0.5, up(0.5)),
    rule(regime2_rate, [X, R2_INR, 0.75], "snr", 1.0, None),
    rule(regime2_rate, [R2_SNR, X, 0.75], "inr", 0.0, None),
    rule(regime2_rate, [R2_SNR, R2_INR, X], "gamma", R2_GAMMA_LOW, up(R2_GAMMA_LOW)),
    rule(differential_rates, [X, 100.0, 10.0], "z", -TINY, 0.0),
    rule(differential_rates, [0.1, X, 10.0], "snr1", -TINY, 0.0),
    rule(differential_rates, [0.1, 100.0, X], "inr2", -TINY, 0.0),
    # bounds
    rule(one_sided_sum_capacity, [X, 10.0, 0.0], "snr1", -TINY, TINY),
    rule(one_sided_sum_capacity, [10.0, X, 0.0], "snr2", -TINY, 0.0),
    rule(one_sided_sum_capacity, [10.0, 10.0, X], "inr2", -TINY, 0.0),
    rule(symmetric_capacity_strong, [X, 100.0], "snr", -TINY, 0.0),
    rule(symmetric_capacity_strong, [10.0, X], "inr", -math.inf, sys.float_info.max),
    rule(kramer_bound, [X, 10.0], "snr", -TINY, None),
    rule(kramer_bound, [100.0, X], "inr", 0.0, TINY),
    # gdof
    rule(GdofParams, [X, 1.0, 1.0], "alpha1", 0.0, TINY),
    rule(GdofParams, [1.0, X, 1.0], "alpha2", -TINY, 0.0),
    rule(GdofParams, [1.0, 1.0, X], "alpha3", -TINY, 0.0),
    rule(d_sym, [X], "alpha", -TINY, 0.0),
    rule(symmetric_gdof_region, [X], "alpha", -TINY, 0.0),
    rule(baseline_gdof, [X, "orthogonalize"], "alpha", -TINY, 0.0),
    rule(finite_snr_convergence, [X, 0.5], "snr", 2.0, up(2.0)),
    rule(finite_snr_convergence, [100.0, X], "alpha", -TINY, 0.0),
    # gap
    rule(kramer_gap, [X, 10.0], "snr", -TINY, None),
    rule(kramer_gap, [100.0, X], "inr", math.nextafter(1.0, 0.0), 1.0),
    rule(asymptotic_tightness_check, [X, [10.0, 100.0]], "alpha", 0.0, TINY),
    rule(tightness_snr, [X], "snr", 1.0, up(1.0)),
]


@pytest.mark.parametrize("value", NON_REALS, ids=repr)
@pytest.mark.parametrize("call, name, error, outside, inside", RULES)
def test_non_real_is_an_invalid_parameter(call, name, error, outside, inside, value):
    with pytest.raises(InvalidParameterError) as excinfo:
        call(value)
    assert f"{name}={value!r}" in str(excinfo.value)


@pytest.mark.parametrize("call, name, error, outside, inside", RULES)
def test_out_of_range_raises_the_documented_error(call, name, error, outside, inside):
    for value in (math.nan, math.inf, outside):
        with pytest.raises(error) as excinfo:
            call(value)
        assert f"{name}={value!r}" in str(excinfo.value)


@pytest.mark.parametrize(
    "call, name, error, outside, inside", [r for r in RULES if r.values[-1] is not None]
)
def test_just_inside_the_range_returns(call, name, error, outside, inside):
    assert call(inside) is not None


# weak, mixed and strong channels whose 1 + SNR + INR overflows
WEAK_OVERFLOW = ChannelParams(1.7e308, 1.7e308, 1e308, 1e308)
MIXED_OVERFLOW = ChannelParams(1.7e308, 1e308, 1.7e308, 1e308)
STRONG_OVERFLOW = ChannelParams(1e308, 1e308, 1e308, 1e308)
TIGHTNESS_INR = 1e308**1.0001


OVERFLOWS = {
    "symmetric_capacity_strong": (lambda: symmetric_capacity_strong(1e308, 1e308), STRONG_OVERFLOW),
    "new_sum_bound": (
        lambda: new_sum_bound(ChannelParams(0, 1e308, 0, 1e308)), ChannelParams(0, 1e308, 0, 1e308)
    ),
    "finite_snr_convergence": (lambda: finite_snr_convergence(1e308, 1.0), STRONG_OVERFLOW),
    "asymptotic_tightness_check": (
        lambda: asymptotic_tightness_check(1.0001, [1e308]),
        ChannelParams(1e308, 1e308, TIGHTNESS_INR, TIGHTNESS_INR),
    ),
    "symmetric_hk_rate": (lambda: symmetric_hk_rate(1.7e308, 1e308), WEAK_OVERFLOW),
    "hk_region": (
        lambda: hk_region(WEAK_OVERFLOW, recommended_split(WEAK_OVERFLOW)), WEAK_OVERFLOW
    ),
    "weak_outer": (lambda: weak_outer(WEAK_OVERFLOW), WEAK_OVERFLOW),
    "mixed_outer": (lambda: mixed_outer(MIXED_OVERFLOW), MIXED_OVERFLOW),
    "strong_capacity": (lambda: strong_capacity(STRONG_OVERFLOW), STRONG_OVERFLOW),
    "class_outer": (lambda: class_outer(STRONG_OVERFLOW, InterferenceTag.STRONG), STRONG_OVERFLOW),
}


@pytest.mark.parametrize("call, channel", OVERFLOWS.values(), ids=list(OVERFLOWS))
def test_overflowed_rate_raises_domain_error_naming_the_channel(call, channel):
    with pytest.raises(DomainError) as excinfo:
        call()
    message = str(excinfo.value)
    assert "overflow" in message
    assert str(channel) in message


UNCHECKED_ROW_KERNELS = [
    pytest.param(lambda: sigfig("3"), id="sigfig"),
    pytest.param(lambda: log2_rows([("3",)]), id="log2_rows"),
    pytest.param(lambda: hk_args("3", 1.0, 1.0, 1.0, 0.0, 0.0), id="hk_args"),
    pytest.param(lambda: recommended_levels(False, False, "3", 1.0), id="recommended_levels"),
    pytest.param(lambda: outer_args("3", 1.0, 1.0, 1.0, InterferenceTag.WEAK), id="outer_args"),
]


@pytest.mark.parametrize("call", UNCHECKED_ROW_KERNELS)
def test_row_kernel_raises_type_error_on_a_non_number(call):
    with pytest.raises(TypeError):
        call()
