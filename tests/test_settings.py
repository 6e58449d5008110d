"""Every constructor that takes an integer or number setting checks it with
one rule, :func:`tagrec.errors.integer` or :func:`tagrec.errors.number`: a
value it keeps is an exact int in range, or a finite float equal to the
number given, and any other value is a ValueError at construction, never a
run that fails record by record or silently runs otherwise."""

from __future__ import annotations

import math
import threading
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tagrec.backends import HashEmbedder, HttpChatRanker, RateLimiter, \
    RetryPolicy
from tagrec.errors import integer, number
from tagrec.rerank import Ordering, RerankConfig, VoteMode
from tagrec.sim import OracleKind, OracleSpec

# Values a JSON config or a library caller may pass where an integer or a
# number belongs.
POOL = [math.nan, math.inf, -math.inf, 2**70, -1, 0, 1, 64, "", "4", True,
        False, 8.9, 0.25, -0.0, None, []]

# Each constructor, the integer fields it takes, its number fields, and its
# enum fields by enum.  None of them starts a thread, opens a connection or
# sizes a pool: RateLimiter(64) makes one semaphore, and the http ranker is
# given a session.  An enum field also draws its members' string values,
# which every constructor refuses.
CONSTRUCTORS = [
    (RerankConfig, ("group_size", "iterations", "top_k", "seed"), (),
     {"ordering": Ordering, "vote_mode": VoteMode}),
    (RetryPolicy, ("max_attempts",), ("base_delay", "factor", "max_delay"),
     {}),
    (RateLimiter, ("max_in_flight",), ("min_interval",), {}),
    (HashEmbedder, ("dim",), (), {}),
    (partial(HttpChatRanker, "m", "http://api.test/v1", session=object()),
     (), ("timeout", "temperature"), {}),
    (partial(OracleSpec, kind=OracleKind.LEXICAL), ("seed",), (),
     {"kind": OracleKind}),
    (partial(OracleSpec, kind=OracleKind.NOISY, error_rate=0.5), (),
     ("error_rate",), {}),
]
ENUMS = [member for kind in (Ordering, VoteMode, OracleKind) for member in kind]


@st.composite
def calls(draw):
    """A constructor and keyword arguments drawn from the pool; a field left
    out keeps its default."""
    build, ints, numbers, enums = draw(st.sampled_from(CONSTRUCTORS))
    values = st.sampled_from(POOL)
    members = st.sampled_from(POOL + ENUMS + [e.value for e in ENUMS])
    kwargs = draw(st.fixed_dictionaries({}, optional={
        **{name: values for name in ints + numbers},
        **{name: members for name in enums}}))
    return build, ints, numbers, enums, kwargs


@settings(derandomize=True, max_examples=600, deadline=None)
@given(calls())
def test_a_constructor_keeps_exact_ints_or_raises_value_error(call):
    """Its number fields, too, are finite floats equal to what was given."""
    build, ints, numbers, enums, kwargs = call
    threads = threading.active_count()
    try:
        built = build(**kwargs)
    except ValueError:
        return
    finally:
        assert threading.active_count() == threads
    for name in ints:
        assert type(getattr(built, name)) is int
        if name in kwargs:
            assert getattr(built, name) == kwargs[name]
    for name in numbers:
        assert type(getattr(built, name)) is float
        assert math.isfinite(getattr(built, name))
        if name in kwargs:
            assert getattr(built, name) == kwargs[name]
    for name, kind in enums.items():
        assert type(getattr(built, name)) is kind


@pytest.mark.parametrize("value, low, high, message", [
    (True, None, None, "n must be an integer, got True"),
    (2.0, None, None, "n must be an integer, got 2.0"),
    ("3", None, None, "n must be an integer, got '3'"),
    (None, 1, None, "n must be an integer, got None"),
    (0, 1, None, "n must be >= 1, got 0"),
    (0, 1, 64, "n must be from 1 to 64, got 0"),
    (65, 1, 64, "n must be from 1 to 64, got 65"),
])
def test_integer_names_the_setting_it_refuses(value, low, high, message):
    with pytest.raises(ValueError) as info:
        integer("n", value, low, high)
    assert str(info.value) == message


@pytest.mark.parametrize("value, low, high", [
    (-5, None, None), (2**70, 1, None), (1, 1, 64), (64, 1, 64)])
def test_integer_returns_what_it_takes(value, low, high):
    assert integer("n", value, low, high) is value


@pytest.mark.parametrize("build, name", [
    (partial(RetryPolicy, base_delay=True), "base_delay"),
    (partial(RetryPolicy, factor=True, max_delay=True), "factor"),
    (partial(RateLimiter, min_interval=True), "min_interval"),
    (partial(HttpChatRanker, "m", "http://api.test/v1", session=object(),
             timeout=True), "timeout"),
], ids=["base_delay", "factor", "min_interval", "timeout"])
def test_a_bool_number_setting_is_refused_as_the_cli_refuses_it(build, name):
    """Each of these once built, the ranker with a ``timeout`` of True."""
    with pytest.raises(ValueError, match=f"^{name} must be a number, got True$"):
        build()


@pytest.mark.parametrize("build, name, most", [
    (lambda v: RetryPolicy(max_delay=v), "max_delay", threading.TIMEOUT_MAX),
    (lambda v: RateLimiter(max_in_flight=4, min_interval=v), "min_interval",
     threading.TIMEOUT_MAX / 4),
    (lambda v: HttpChatRanker("m", "http://api.test/v1", session=object(),
                              timeout=v), "timeout", threading.TIMEOUT_MAX),
], ids=["max_delay", "min_interval", "timeout"])
def test_a_wait_the_platform_cannot_make_is_refused(build, name, most):
    """Each of these once built with 2**70, and every call with it then
    failed, or slept, with OverflowError."""
    assert getattr(build(most), name) == most
    for value in (2**70, math.nextafter(most, math.inf)):
        with pytest.raises(ValueError, match=f"^{name} must be from 0 to "):
            build(value)


@pytest.mark.parametrize("value, low, high, message", [
    (True, None, None, "x must be a number, got True"),
    ("0.5", None, None, "x must be a number, got '0.5'"),
    (None, 0, None, "x must be a number, got None"),
    (10**400, None, None, f"x must be a number, got {10**400}"),
    (math.nan, 0, None, "x must be finite, got nan"),
    (-math.inf, None, None, "x must be finite, got -inf"),
    (-0.5, 0, None, "x must be >= 0, got -0.5"),
    (2, 0, 1, "x must be from 0 to 1, got 2"),
], ids=["bool", "text", "none", "past-every-float", "nan", "-inf", "below",
        "above"])
def test_number_names_the_setting_it_refuses(value, low, high, message):
    with pytest.raises(ValueError) as info:
        number("x", value, low, high)
    assert str(info.value) == message


@pytest.mark.parametrize("value, low, high", [
    (-5, None, None), (2**70, 1, None), (0, 0, 1), (1, 0, 1), (0.25, 0, 1)])
def test_number_returns_the_float_it_takes(value, low, high):
    got = number("x", value, low, high)
    assert type(got) is float and got == value


@pytest.mark.parametrize("kind", ["perfect", None, 0])
def test_an_oracle_kind_that_is_no_member_is_named(kind):
    """A plain string once built, and its label then raised AttributeError."""
    with pytest.raises(ValueError) as info:
        OracleSpec(kind)
    assert str(info.value) == (
        "kind must be one of ['perfect', 'noisy', 'lexical', "
        f"'position-biased', 'identity-echo'], got {kind!r}")
