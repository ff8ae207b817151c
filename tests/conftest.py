import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from permcluster import Permutation

settings.register_profile(
    "research",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("research")


def permutations_up_to(max_n: int, min_n: int = 1):
    """Strategy drawing a Permutation of any length in [min_n, max_n]."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    ).map(lambda vals: Permutation(tuple(vals)))


def assert_value_semantics(value, equal, unequal, text):
    """The behaviour every value type and report record keeps: equality and
    one hash with an equal value, inequality with an unequal value and with
    objects of other types, no attribute assignment, the given repr, and a
    pickle round trip (what `--jobs` workers send and receive) to an equal
    value of the same type."""
    assert value == equal and not value != equal and hash(value) == hash(equal)
    assert value != unequal and not value == unequal
    for foreign in (None, 0, "text", object()):
        assert value != foreign and foreign != value
    for name in ((getattr(value, "_fields", None) or value.__slots__)[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert repr(value) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value and repr(copy) == text
