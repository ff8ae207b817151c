"""The generating-tree state counter (`permcluster.states`) and its gate."""

import itertools
import random

import pytest

from permcluster import SEP, PatternSet, Permutation, count_avoiders, parse_permutation
from permcluster import enumeration, states


def ps_of(*texts) -> PatternSet:
    return PatternSet(tuple(parse_permutation(t) for t in texts))


def eligible_patterns(m):
    """Every pattern of length m that has an image `states` grows."""
    return [Permutation(t) for t in itertools.permutations(range(1, m + 1))
            if states.image(Permutation(t)) is not None]


def test_eligible_images():
    # every length-3 pattern, 12...m, and the length-4 classes of 1234,
    # 1243, 1432 and 1342; the classes of 1324, 2143 and 2413 have none
    assert [len(eligible_patterns(m)) for m in (3, 4)] == [6, 24 - 6]
    for text, image in (("1342", (2, 3, 1, 4)), ("12345", (1, 2, 3, 4, 5)), ("54321", (1, 2, 3, 4, 5)),
                        ("1243", (2, 1, 3, 4)), ("1432", (3, 2, 1, 4)), ("231", (2, 1, 3))):
        assert states.image(parse_permutation(text)) == image
    for text in ("1324", "4231", "2143", "3412", "2413", "3142", "12", "1"):
        assert states.image(parse_permutation(text)) is None


@pytest.mark.parametrize("m", [3, 4, 5])
def test_states_match_growth_for_every_eligible_pattern(m):
    # all 8 images of each eligible class are eligible patterns themselves
    for tau in eligible_patterns(m):
        ps, image = PatternSet((tau,)), states.image(tau)
        assert [states.count(n, image) for n in range(1, 9)] == \
            [enumeration.fresh_count(n, ps) for n in range(1, 9)], tau


def test_states_match_growth_for_random_length_6_patterns():
    rng = random.Random(6)
    for tau in rng.sample(eligible_patterns(6), 6):
        ps, image = PatternSet((tau,)), states.image(tau)
        assert [states.count(n, image) for n in range(1, 9)] == \
            [enumeration.fresh_count(n, ps) for n in range(1, 9)], tau


def test_state_counts_at_the_benchmark_sizes():
    assert states.count(11, (2, 3, 1, 4)) == 3475090
    assert states.count(13, (2, 3, 1, 4)) == 144640291
    assert states.count(10, (1, 2, 3, 4, 5)) == 2190688


@pytest.mark.parametrize("ps", [ps_of("1324"), ps_of("2143"), ps_of("2413"), ps_of("123", "321"), SEP,
                                PatternSet(())], ids=["1324", "2143", "2413", "123+321", "sep", "empty"])
def test_ineligible_inputs_never_reach_states(ps, monkeypatch):
    def refuse(*args):
        raise AssertionError("counted by states")

    monkeypatch.setattr(states, "count", refuse)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    for n in range(1, 8):
        assert count_avoiders(n, ps) == enumeration.fresh_count(n, ps)
    # SEP is counted by the substitution decomposition and 2413 by Bóna's
    # closed form (its Wilf class is that of 1342), each behind its own gate
    gates = {SEP: {("decomposition", SEP.key()): True}, ps_of("2413"): {("bona", "2413"): True}}
    assert enumeration._GATE == gates.get(ps, {})


def test_wrong_state_rule_fails_the_gate_and_falls_back_to_rows(monkeypatch):
    # a state rule that forgets the new partial occurrences of a state's
    # chains (1432, image 3214; 1342 is counted by Bóna's form before states)
    def forgetful(state, r, j, rises, keeps):
        child = right(state, r, j, rises, keeps)
        return (child[0], *state[1:])

    right = states._child
    monkeypatch.setattr(states, "_child", forgetful)
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert states.count(9, (3, 2, 1, 4)) != 94359
    assert count_avoiders(9, ps_of("1432")) == 94359 == enumeration.fresh_count(9, ps_of("1432"))
    assert enumeration._GATE == {("states", "1432"): False}


def test_gate_passes_once_per_pattern(monkeypatch):
    checked = []
    scalar = enumeration._scalar_count
    monkeypatch.setattr(enumeration, "_scalar_count", lambda n, ps: checked.append(n) or scalar(n, ps))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert [count_avoiders(n, ps_of("1432")) for n in (3, 4, 10, 12)] == [6, 23, 586590, 24792705]
    assert checked == list(range(1, enumeration._GATE_UPTO + 1))
    assert enumeration._GATE == {("states", "1432"): True}


def test_gate_reaches_past_the_length_of_a_long_pattern(monkeypatch):
    # for 1234567 both sides are j! for every j <= 6, so a counter that is
    # wrong from j = 7 on must be caught by the rows grown at j = 7 and 8
    right = states.count
    monkeypatch.setattr(states, "count", lambda n, t: right(n, t) + (n >= 7))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    ps = ps_of("1234567")
    assert [states.count(j, (1, 2, 3, 4, 5, 6, 7)) for j in (6, 7)] == [720, 5040]
    assert count_avoiders(9, ps) == 361302 == enumeration.fresh_count(9, ps)
    assert enumeration._GATE == {("states", "1234567"): False}


def test_a_six_pattern_is_gated_on_the_scalar_count_up_to_its_length_plus_one(monkeypatch):
    # 123456 is checked on the scalar count for j = 1..7, without growth; a
    # counter off by one at j = 7 alone fails the gate, and rows count
    checked = []
    scalar = enumeration._scalar_count
    monkeypatch.setattr(enumeration, "_scalar_count", lambda n, ps: checked.append(n) or scalar(n, ps))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    ps = ps_of("123456")
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_engine", None)
        assert count_avoiders(12, ps) == 370531683
    assert checked == list(range(1, 8)) and enumeration._GATE == {("states", "123456"): True}
    right = states.count
    monkeypatch.setattr(states, "count", lambda n, t: right(n, t) + (n == 7))
    monkeypatch.setattr(enumeration, "_MEMO", {})
    monkeypatch.setattr(enumeration, "_GATE", {})
    assert count_avoiders(8, ps) == enumeration.fresh_count(8, ps) == right(8, (1, 2, 3, 4, 5, 6))
    assert enumeration._GATE == {("states", "123456"): False}
