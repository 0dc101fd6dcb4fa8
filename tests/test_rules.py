"""Rule codes, shift/identity/totalistic constructors, update paths."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_rule
from radixca.digits import digit_of
from radixca.rules import (
    RuleSpec,
    TotalisticRuleSpec,
    code_of_rule,
    expand_totalistic,
    format_rule,
    identity_rule,
    local_update,
    neighborhood_value,
    parse_rule,
    rule_from_code,
    shift_rule,
    totalistic_from_code,
    totalistic_update,
)

RULE_110 = (0, 1, 1, 1, 0, 1, 1, 0)
RULE_232 = (0, 0, 0, 1, 0, 1, 1, 1)


def test_rule_from_code_known_vectors():
    assert rule_from_code(1, 1, 2, "110").table == RULE_110
    assert rule_from_code(1, 1, 2, "232").table == RULE_232
    assert rule_from_code(0, 1, 3, "9519").table == (0, 2, 1, 1, 0, 0, 1, 1, 1)


def test_code_round_trips():
    rng = random.Random(3)
    for l, r, p in ((1, 1, 2), (0, 1, 3), (1, 1, 3), (1, 1, 5)):
        for _ in range(20):
            rule = random_rule(rng, l, r, p)
            assert rule_from_code(l, r, p, code_of_rule(rule)) == rule
    assert rule_from_code(1, 1, 2, code_of_rule(rule_from_code(1, 1, 2, "110"))).table == RULE_110


def test_code_of_rule_examples():
    assert code_of_rule(RuleSpec(1, 1, 2, (0, 1, 0, 1, 0, 1, 0, 1))) == "170"
    assert code_of_rule(RuleSpec(1, 1, 2, (0,) * 8)) == "0"


def test_shift_rule_code_at_width_three_alphabet_five():
    # closed form: sum over n of (n mod 5) * 5^n, an 88-digit decimal
    want = sum((n % 5) * 5**n for n in range(125))
    got = code_of_rule(shift_rule(1, 1, 5, 1))
    assert got == str(want)
    assert len(got) == 88


def test_wolfram_shift_codes():
    assert [code_of_rule(shift_rule(1, 1, 2, m)) for m in (1, 2, 3)] == [
        "170",
        "204",
        "240",
    ]


def test_shift_rule_tables_are_digit_columns():
    assert shift_rule(1, 1, 5, 1).table[7] == 2  # 7 mod 5
    assert shift_rule(0, 1, 3, 2).table == tuple((n // 3) % 3 for n in range(9))
    rng = random.Random(9)
    for _ in range(50):
        l, r, p = rng.choice(((1, 1, 2), (0, 1, 3), (2, 1, 2)))
        m = rng.randrange(1, l + r + 2)
        rule = shift_rule(l, r, p, m)
        n = rng.randrange(rule.q)
        assert rule.table[n] == digit_of(p, m, n)


def test_shift_rule_rejects_bad_m():
    with pytest.raises(ValueError):
        shift_rule(1, 1, 2, 0)
    with pytest.raises(ValueError):
        shift_rule(1, 1, 2, 4)


def test_identity_rule():
    assert code_of_rule(identity_rule(1, 1, 2)) == "204"
    assert identity_rule(0, 1, 3) == shift_rule(0, 1, 3, 2)


def test_rule_code_out_of_range_names_the_bound():
    with pytest.raises(ValueError, match=r"2\^8"):
        rule_from_code(1, 1, 2, "256")
    with pytest.raises(ValueError, match=r"3\^9"):
        rule_from_code(0, 1, 3, str(3**9))


def test_rule_table_validation():
    with pytest.raises(ValueError):
        RuleSpec(1, 1, 2, (0,) * 7)  # wrong length
    with pytest.raises(ValueError):
        RuleSpec(1, 1, 2, (0, 0, 0, 0, 0, 0, 0, 2))  # entry out of range


def test_neighborhood_value_examples():
    assert neighborhood_value(3, (1, 2)) == 5  # x^i=1, x^{i-1}=2 at l=0, r=1
    assert neighborhood_value(2, (1, 1, 1)) == 7
    assert neighborhood_value(2, (1, 0, 1)) == 5


def test_neighborhood_value_digits_recover_window():
    rng = random.Random(15)
    for _ in range(100):
        l, r, p = rng.choice(((1, 1, 2), (0, 1, 3), (1, 2, 3)))
        rho = l + r + 1
        window = tuple(rng.randrange(p) for _ in range(rho))
        n = neighborhood_value(p, window)
        assert 0 <= n < p**rho
        # digit k+r+1 of n is x^{i+k}; window[j] holds k = l-j
        for j, x in enumerate(window):
            assert digit_of(p, rho - j, n) == x


def test_totalistic_from_code_and_update():
    rule = totalistic_from_code(1, 1, 2, "8")
    assert rule.table == (0, 0, 0, 1)
    assert totalistic_update(rule, (1, 1, 1)) == 1
    assert totalistic_update(rule, (1, 1, 0)) == 0
    zero_sum = totalistic_from_code(1, 1, 3, "0")
    assert totalistic_update(zero_sum, (0, 0, 0)) == 0


def test_totalistic_output_ignores_window_order():
    rng = random.Random(21)
    rule = TotalisticRuleSpec(1, 1, 3, (0, 2, 1, 0, 2, 1, 0))
    for _ in range(1000):
        window = [rng.randrange(3) for _ in range(3)]
        base = totalistic_update(rule, tuple(window))
        rng.shuffle(window)
        assert totalistic_update(rule, tuple(window)) == base


def test_expand_totalistic_agrees_with_direct_update():
    rng = random.Random(27)
    trule = TotalisticRuleSpec(1, 1, 3, tuple(rng.randrange(3) for _ in range(7)))
    rule = expand_totalistic(trule)
    for _ in range(200):
        window = tuple(rng.randrange(3) for _ in range(3))
        assert local_update(rule, window) == totalistic_update(trule, window)


def test_local_update_examples():
    r110 = rule_from_code(1, 1, 2, "110")
    assert local_update(r110, (1, 1, 1)) == 0  # a_7
    r232 = rule_from_code(1, 1, 2, "232")
    assert local_update(r232, (0, 1, 1)) == 1  # majority of the window
    ident = identity_rule(1, 1, 3)
    rng = random.Random(33)
    for _ in range(50):
        window = tuple(rng.randrange(3) for _ in range(3))
        assert local_update(ident, window) == window[1]


def test_update_paths_agree_on_every_width_three_binary_rule():
    rng = random.Random(99)
    windows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(40)]
    for code in range(256):
        rule = rule_from_code(1, 1, 2, code)
        for window in windows:
            values = {
                local_update(rule, window, path)
                for path in ("boxcar", "digit-krone", "digit-product", "wolfram-poly")
            }
            assert len(values) == 1


def test_update_paths_agree_for_wider_alphabets():
    rng = random.Random(41)
    for l, r, p in ((0, 1, 3), (1, 1, 3), (1, 1, 5)):
        for _ in range(50):
            rule = random_rule(rng, l, r, p)
            for _ in range(10):
                window = tuple(rng.randrange(p) for _ in range(rule.rho))
                a = local_update(rule, window, "boxcar")
                b = local_update(rule, window, "digit-krone")
                c = local_update(rule, window, "digit-product")
                assert a == b == c


def test_wolfram_poly_path_rejects_other_geometries():
    rule = random_rule(random.Random(1), 0, 1, 3)
    with pytest.raises(ValueError):
        local_update(rule, (0, 1), "wolfram-poly")


def test_local_update_rejects_bad_windows_and_paths():
    rule = rule_from_code(1, 1, 2, "110")
    with pytest.raises(ValueError):
        local_update(rule, (1, 1), "boxcar")
    with pytest.raises(ValueError):
        local_update(rule, (0, 2, 0), "boxcar")
    with pytest.raises(ValueError):
        local_update(rule, (0, 1, 0), "no-such-path")


def test_parse_and_format_rule():
    rule = parse_rule("0:1:3:9519")
    assert isinstance(rule, RuleSpec)
    assert rule.table == (0, 2, 1, 1, 0, 0, 1, 1, 1)
    assert format_rule(rule) == "0:1:3:9519"

    table_form = parse_rule("1:1:2:[0,1,1,1,0,1,1,0]")
    assert table_form == rule_from_code(1, 1, 2, "110")

    trule = parse_rule("1:1:2:8T")
    assert isinstance(trule, TotalisticRuleSpec)
    assert trule.table == (0, 0, 0, 1)
    assert format_rule(trule) == "1:1:2:8T"

    for bad in ("1:1:2", "a:1:2:5", "1:1:2:5:6:7:8"):
        with pytest.raises(ValueError):
            parse_rule(bad)


@st.composite
def any_rules(draw):
    l, r, p = draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from([RuleSpec, TotalisticRuleSpec]))
    rho = l + r + 1
    size = p**rho if kind is RuleSpec else rho * (p - 1) + 1
    table = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return kind(l, r, p, tuple(table))


@given(any_rules())
def test_format_rule_round_trips_through_parse_rule(rule):
    text = format_rule(rule)
    assert parse_rule(text) == rule
    assert format_rule(parse_rule(text)) == text
