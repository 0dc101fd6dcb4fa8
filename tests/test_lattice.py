"""Ring stepping, shift behavior on the lattice, rasters."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_rows, random_rule, random_state
from radixca.errors import GuardExceeded
from radixca.lattice import (
    GRID_GUARD,
    RingState,
    SpacetimeRaster,
    evolve,
    neighborhood_sequence,
    raster_from_indices,
    step,
)
from radixca.rules import (
    TotalisticRuleSpec,
    identity_rule,
    neighborhood_value,
    parse_rule,
    rule_from_code,
    shift_rule,
)


def test_step_identity_leaves_states_alone():
    rng = random.Random(1)
    ident = identity_rule(2, 1, 3)
    for _ in range(20):
        s = random_state(rng, 3, 11)
        assert step(ident, s) == s


def test_step_published_ternary_example():
    rule = rule_from_code(0, 1, 3, "9519")
    assert step(rule, RingState(3, (1, 0, 0))).sites == (1, 2, 0)


def test_step_left_shift_example():
    rule = shift_rule(1, 1, 2, 1)  # x'^i = x^{i-1}
    assert step(rule, RingState(2, (1, 0, 0, 0))).sites == (0, 1, 0, 0)


def test_step_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        step(rule_from_code(1, 1, 2, "110"), RingState(3, (0, 1, 2)))


def test_shift_rules_rotate_the_ring():
    # every shift rule realizes x^{i+m-r-1}, for rings shorter and longer
    # than the neighborhood
    rng = random.Random(2)
    geometries = [
        (l, r) for l in range(4) for r in range(4) if l + r + 1 <= 4
    ]
    for p in (2, 3, 4, 5):
        for l, r in geometries:
            rho = l + r + 1
            for m in range(1, rho + 1):
                rule = shift_rule(l, r, p, m)
                for ns in (rho, rho + 3, 17):
                    s = random_state(rng, p, ns)
                    assert step(rule, s) == s.rotated(m - r - 1)


def test_shift_recurrence():
    # shifting by m equals shifting by m-1 and then by r+2
    # (needs l >= 1 so that m = r+2 is itself a legal shift index)
    rng = random.Random(3)
    for l, r, p in ((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3)):
        rho = l + r + 1
        for m in range(2, rho + 1):
            s = random_state(rng, p, 9)
            via_m = step(shift_rule(l, r, p, m), s)
            chained = step(shift_rule(l, r, p, r + 2), step(shift_rule(l, r, p, m - 1), s))
            assert via_m == chained


def test_shifts_commute_with_any_rule():
    rng = random.Random(4)
    for l, r, p in ((1, 1, 2), (0, 1, 3), (1, 1, 3)):
        rho = l + r + 1
        for _ in range(10):
            rule = random_rule(rng, l, r, p)
            m = rng.randrange(1, rho + 1)
            shift = shift_rule(l, r, p, m)
            s = random_state(rng, p, 12)
            assert step(shift, step(rule, s)) == step(rule, step(shift, s))


def test_step_commutes_with_rotation():
    rng = random.Random(5)
    for _ in range(30):
        rule = random_rule(rng, 1, 1, 3)
        s = random_state(rng, 3, 10)
        k = rng.randrange(10)
        assert step(rule, s.rotated(k)) == step(rule, s).rotated(k)


def test_mirrored_shifts_evolve_to_mirrored_rasters():
    # left shift from an IC matches the reflection of the right shift
    # run from the reflected IC (symmetric geometries)
    rng = random.Random(6)
    for l, r, p in ((1, 1, 2), (1, 1, 5), (2, 2, 3)):
        rho = l + r + 1
        s = random_state(rng, p, 14)
        left = evolve(shift_rule(l, r, p, 1), s, 10)
        right = evolve(shift_rule(l, r, p, rho), s.reflected(), 10)
        for row_l, row_r in zip(left.rows, right.rows):
            assert row_l == tuple(reversed(row_r))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("l, r", [(l, r) for l in range(4) for r in range(4)])
def test_step_and_evolve_match_the_per_site_oracle(l, r, p):
    # ns runs from a single site, through rings shorter than the
    # neighborhood, to rings several neighborhoods long
    rng = random.Random(100 * l + 10 * r + p)
    rho = l + r + 1
    for ns in sorted({1, 2, rho - 1 or 1, rho, rho + 2, 11}):
        rule = random_rule(rng, l, r, p)
        s = random_state(rng, p, ns)
        want = oracle_rows(rule, s.sites, 4)
        assert evolve(rule, s, 4).rows == tuple(want)
        assert step(rule, s).sites == want[1]


@pytest.mark.parametrize("l, r", [(0, 1), (1, 1), (2, 0), (1, 3)])
def test_totalistic_rules_match_the_per_site_oracle(l, r):
    rng = random.Random(7 + l + r)
    rho = l + r + 1
    for ns in (1, rho - 1 or 1, rho + 3, 12):
        table = tuple(rng.randrange(3) for _ in range(2 * rho + 1))
        rule = TotalisticRuleSpec(l, r, 3, table)
        s = random_state(rng, 3, ns)
        want = oracle_rows(rule, s.sites, 5)
        assert evolve(rule, s, 5).rows == tuple(want)
        assert step(rule, s).sites == want[1]


@pytest.mark.parametrize("l, r, p, ns", [(0, 0, 300, 23), (8, 8, 2, 5), (8, 8, 2, 20)])
def test_wide_lane_rules_match_the_per_site_oracle(l, r, p, ns):
    # 300 neighborhood values need 2-byte lanes, 2^17 need 4-byte lanes
    rng = random.Random(ns)
    table = ",".join(str(rng.randrange(p)) for _ in range(p ** (l + r + 1)))
    rule = parse_rule(f"{l}:{r}:{p}:[{table}]")
    s = random_state(rng, p, ns)
    want = oracle_rows(rule, s.sites, 2)
    assert evolve(rule, s, 2).rows == tuple(want)
    assert step(rule, s).sites == want[1]


def test_neighborhood_sequence_matches_modular_windows():
    rng = random.Random(8)
    for l, r, p in ((0, 0, 5), (2, 0, 2), (0, 3, 3), (3, 2, 2), (8, 8, 2)):
        for ns in (1, 3, 19):
            s = random_state(rng, p, ns)
            windows = [
                [s.sites[(i + k) % ns] for k in range(l, -r - 1, -1)] for i in range(ns)
            ]
            want = tuple(neighborhood_value(p, w) for w in windows)
            assert neighborhood_sequence(l, r, s) == want


def test_evolve_refuses_rasters_over_the_grid_guard():
    rule = rule_from_code(1, 1, 2, "110")
    side = 4096  # 4096 * 4096 = GRID_GUARD cells
    with pytest.raises(GuardExceeded, match=str(GRID_GUARD)):
        evolve(rule, RingState.zero(2, side), side)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        evolve(rule, RingState.zero(2, side), -1)


def test_evolve_row_counts():
    rule = rule_from_code(1, 1, 2, "110")
    s = RingState(2, (1, 0, 0, 0, 0))
    assert evolve(rule, s, 0).rows == (s.sites,)
    ident = identity_rule(1, 1, 2)
    raster = evolve(ident, s, 5)
    assert raster.height == 6
    assert all(row == s.sites for row in raster.rows)


def test_majority_rule_settles_quickly_from_random_seeds():
    rule = rule_from_code(1, 1, 2, "232")
    settled = 0
    for k in range(100):
        s = RingState.random(2, 20, 5000 + k)
        rows = evolve(rule, s, 50).rows
        if any(rows[t] == rows[t + 1] for t in range(len(rows) - 1)):
            settled += 1
    assert settled >= 90


def test_neighborhood_sequence_examples():
    assert neighborhood_sequence(0, 1, RingState(3, (1, 0, 0))) == (3, 1, 0)
    assert neighborhood_sequence(1, 1, RingState(2, (0, 0, 0, 0))) == (0, 0, 0, 0)
    assert neighborhood_sequence(1, 1, RingState(2, (1, 1, 1))) == (7, 7, 7)


def test_ring_state_strings():
    s = RingState.from_string("201", 3)
    assert s.sites == (1, 0, 2)  # site 1 is the rightmost character
    assert s.to_string() == "201"
    with pytest.raises(ValueError):
        RingState.from_string("261", 3)


def test_ring_state_strings_use_letters_above_nine():
    s = RingState(12, (10, 3))
    assert s.to_string() == "3a"
    assert RingState.from_string("3a", 12) == s
    with pytest.raises(ValueError, match="radix 37"):
        RingState(37, (36,)).to_string()


@st.composite
def ring_states(draw):
    p = draw(st.integers(2, 36))
    sites = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))
    return RingState(p, tuple(sites))


@given(ring_states())
def test_ring_state_string_round_trip(s):
    assert RingState.from_string(s.to_string(), s.p) == s


def test_ring_state_constructors():
    assert RingState.zero(3, 4).sites == (0, 0, 0, 0)
    assert RingState.single_seed(2, 5, 2).sites == (0, 1, 0, 0, 0)
    assert RingState.random(2, 30, 99) == RingState.random(2, 30, 99)
    assert RingState.random(2, 30, 99) != RingState.random(2, 30, 100)
    with pytest.raises(ValueError):
        RingState(2, ())
    with pytest.raises(ValueError):
        RingState(2, (0, 2))


def test_single_site_ring_is_legal():
    rule = rule_from_code(1, 1, 2, "232")
    # a single site sees itself on both sides
    assert step(rule, RingState(2, (1,))).sites == (1,)
    assert step(rule, RingState(2, (0,))).sites == (0,)


def test_pgm_output_format():
    raster = SpacetimeRaster(2, ((0, 1), (1, 0)))
    # column order shows site 2 first
    assert raster.to_pgm() == "P2\n2 2\n255\n255 0\n0 255\n"
    ternary = SpacetimeRaster(3, ((0, 1, 2),))
    assert ternary.to_pgm() == "P2\n3 1\n255\n255 128 0\n"


def test_text_output_format():
    raster = SpacetimeRaster(3, ((0, 1, 2), (2, 2, 0)))
    assert raster.to_text() == "21.\n.22\n"
    assert SpacetimeRaster(36, ((35, 0, 10),)).to_text() == "a.z\n"
    with pytest.raises(ValueError, match="radix 37"):
        SpacetimeRaster(37, ((36, 0),)).to_text()


def test_raster_from_indices():
    raster = raster_from_indices(2, 3, [1, 4, 0])
    assert raster.rows == ((1, 0, 0), (0, 0, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        SpacetimeRaster(2, ((0, 1), (0, 1, 1)))
