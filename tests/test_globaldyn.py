"""Packed-state dynamics: tables, Gardens of Eden, attractors, shifts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_rule, random_state
from radixca.digits import digit_string_msd
from radixca.errors import GuardExceeded
from radixca.globaldyn import (
    Attractor,
    GlobalIndex,
    TransitionTable,
    attractors,
    characteristic_samples,
    characteristic_value,
    characteristic_value_direct,
    decode,
    encode,
    gardens_of_eden,
    global_ca_step,
    samples_to_csv,
    shift_group_report,
    transition_table,
)
from radixca.lattice import RingState, step
from radixca.rules import (
    RuleSpec,
    expand_totalistic,
    identity_rule,
    rule_from_code,
    shift_rule,
    totalistic_from_code,
)

PUBLISHED_IMAGE_9519_NS3 = (
    0, 7, 4, 21, 19, 19, 12, 13, 13, 11, 15, 13, 5,
    0, 1, 5, 3, 4, 10, 15, 13, 13, 9, 10, 13, 12, 13,
)
PUBLISHED_GOE_9519_NS3 = [2, 6, 8, 14, 16, 17, 18, 20, 22, 23, 24, 25, 26]


def test_encode_decode_examples_and_round_trip():
    assert encode(RingState(3, (1, 0, 0))).index == 1
    assert encode(RingState(3, (0, 0, 0))).index == 0
    assert encode(RingState(3, (1, 2, 0))).index == 7
    rng = random.Random(8)
    for _ in range(100):
        s = random_state(rng, rng.choice((2, 3, 5)), rng.randrange(1, 12))
        assert decode(encode(s)) == s
    g = GlobalIndex(3, 3, 19)
    assert decode(g).sites == (1, 0, 2)  # '201' written site 3 first
    assert g.phi == Fraction(19, 27)
    with pytest.raises(ValueError):
        GlobalIndex(3, 3, 27)


def test_characteristic_value_examples():
    rule = rule_from_code(0, 1, 3, "9519")
    assert characteristic_value(rule, GlobalIndex(3, 3, 1)).index == 7
    assert characteristic_value(rule, GlobalIndex(3, 3, 19), tau=3).index == 19
    ident = identity_rule(1, 1, 2)
    for i in range(8):
        for tau in (1, 2, 5):
            assert characteristic_value(ident, GlobalIndex(2, 3, i), tau).index == i


def test_direct_evaluation_matches_the_stepper():
    rng = random.Random(12)
    cases = [((1, 1, 2), 5), ((0, 1, 3), 5), ((1, 1, 3), 6)]
    for (l, r, p), ns in cases:
        for _ in range(17):
            rule = random_rule(rng, l, r, p)
            for index in range(p**ns):
                g = GlobalIndex(p, ns, index)
                assert (
                    characteristic_value_direct(rule, g).index
                    == characteristic_value(rule, g).index
                )


def test_multi_step_characteristic_is_iterated_single_step():
    rng = random.Random(13)
    rule = random_rule(rng, 1, 1, 2)
    for index in range(2**5):
        g = GlobalIndex(2, 5, index)
        walked = g
        for tau in range(1, 6):
            walked = characteristic_value(rule, walked)
            assert characteristic_value(rule, g, tau).index == walked.index


def test_published_transition_table():
    rule = rule_from_code(0, 1, 3, "9519")
    table = transition_table(rule, 3)
    assert table.image == PUBLISHED_IMAGE_9519_NS3


def test_transition_table_identity_and_shift():
    assert transition_table(identity_rule(1, 1, 2), 3).image == tuple(range(8))
    shifted = transition_table(shift_rule(1, 1, 2, 1), 3)
    assert sorted(shifted.image) == list(range(8))
    # cycle type equals the orbit structure of a 3-site rotation
    lengths = sorted(len(a.cycle) for a in attractors(shifted))
    assert lengths == [1, 1, 3, 3]


def test_shift_tables_have_rotation_cycle_type():
    # every shift table is a permutation whose cycle type matches the
    # site rotation it implements, built here independently
    def rotation_cycle_type(p, ns, offset):
        perm = {}
        for index in range(p**ns):
            digits = [(index // p**j) % p for j in range(ns)]
            rotated = [digits[(j + offset) % ns] for j in range(ns)]
            perm[index] = sum(d * p**j for j, d in enumerate(rotated))
        seen = set()
        lengths = []
        for v in range(p**ns):
            if v in seen:
                continue
            size = 0
            u = v
            while u not in seen:
                seen.add(u)
                u = perm[u]
                size += 1
            lengths.append(size)
        return sorted(lengths)

    for l, r, p, ns in ((1, 1, 2, 4), (0, 1, 3, 3), (1, 1, 3, 4)):
        for m in range(1, l + r + 2):
            table = transition_table(shift_rule(l, r, p, m), ns)
            assert sorted(table.image) == list(range(p**ns))
            lengths = sorted(len(a.cycle) for a in attractors(table))
            assert lengths == rotation_cycle_type(p, ns, m - r - 1)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("l, r", [(l, r) for l in range(3) for r in range(3)])
def test_transition_table_matches_two_independent_steps(l, r, p):
    # rings from one site up to one longer than the neighborhood, so that
    # windows wrapping more than once around short rings are covered
    rng = random.Random(100 * l + 10 * r + p)
    rule = random_rule(rng, l, r, p)
    for ns in range(1, l + r + 3):
        table = transition_table(rule, ns)
        for index, image in enumerate(table.image):
            g = GlobalIndex(p, ns, index)
            assert image == characteristic_value_direct(rule, g).index
            assert image == encode(step(rule, decode(g))).index


def test_totalistic_rules_tabulate_as_their_expansion():
    rule = totalistic_from_code(1, 1, 3, "1234")
    expected = transition_table(expand_totalistic(rule), 4).image
    assert transition_table(rule, 4).image == expected
    assert characteristic_value(rule, GlobalIndex(3, 4, 50)).index == expected[50]


def test_transition_table_guard():
    with pytest.raises(GuardExceeded):
        transition_table(rule_from_code(1, 1, 2, "110"), 25)


@pytest.mark.parametrize("ns", (0, -1))
def test_whole_ring_results_reject_rings_without_sites(ns):
    rule = rule_from_code(1, 1, 2, "110")
    for compute in (transition_table, samples_to_csv, characteristic_samples):
        with pytest.raises(ValueError, match=f"ring size must be >= 1, got {ns}"):
            compute(rule, ns)


def test_gardens_of_eden_published_set():
    rule = rule_from_code(0, 1, 3, "9519")
    assert gardens_of_eden(transition_table(rule, 3)) == PUBLISHED_GOE_9519_NS3


def test_gardens_of_eden_trivial_cases():
    # bijective tables have no unreachable states
    assert gardens_of_eden(transition_table(shift_rule(1, 1, 2, 1), 4)) == []
    zero = RuleSpec(1, 1, 2, (0,) * 8)
    assert gardens_of_eden(transition_table(zero, 2)) == [1, 2, 3]


def test_attractors_published_structure():
    rule = rule_from_code(0, 1, 3, "9519")
    found = attractors(transition_table(rule, 3))
    assert found[0].cycle == (0,)
    assert found[1].cycle == (5, 19, 15)  # the published 3-cycle, min first
    assert found[0].basin + found[1].basin == 27


def test_attractors_identity_rule():
    found = attractors(transition_table(identity_rule(1, 1, 2), 3))
    assert len(found) == 8
    assert all(a.basin == 1 and len(a.cycle) == 1 for a in found)


def test_attractor_basins_partition_the_state_space():
    rng = random.Random(14)
    for _ in range(10):
        rule = random_rule(rng, 1, 1, 2)
        table = transition_table(rule, 4)
        found = attractors(table)
        assert sum(a.basin for a in found) == 16
        # unreachable states never sit on a cycle
        on_cycles = {i for a in found for i in a.cycle}
        assert not on_cycles & set(gardens_of_eden(table))


def test_characteristic_samples_shapes():
    rule = rule_from_code(0, 1, 3, "9519")
    samples = characteristic_samples(rule, 3)
    assert len(samples) == 27
    assert [y for y, _ in samples] == sorted(y for y, _ in samples)
    assert samples[1] == (Fraction(1, 27), Fraction(7, 27))

    zero = RuleSpec(1, 1, 2, (0,) * 8)
    assert all(chi == 0 for _, chi in characteristic_samples(zero, 4))

    rotate = shift_rule(1, 1, 2, 1)
    images = [chi for _, chi in characteristic_samples(rotate, 4)]
    assert sorted(images) == [Fraction(i, 16) for i in range(16)]


def test_no_sampled_image_enters_the_top_ninth():
    # images of the ternary rule avoid (8/9, 1): no state containing a
    # cyclic '22' block is ever produced
    rule = rule_from_code(0, 1, 3, "9519")
    size = 3**6
    table = transition_table(rule, 6)
    for image in table.image:
        assert not Fraction(8, 9) < Fraction(image, size) < 1
        doubled = digit_string_msd(3, image, 6) * 2
        assert "22" not in doubled[:7]


def test_samples_csv_format():
    rule = rule_from_code(0, 1, 3, "9519")
    text = samples_to_csv(rule, 3)
    lines = text.splitlines()
    assert lines[0] == "y,chi"
    assert lines[1] == "0/27,0/27"
    assert lines[2] == "1/27,7/27"
    assert len(lines) == 28


def test_global_ca_step_matches_the_table():
    rng = random.Random(16)
    for (l, r, p), ns in (((1, 1, 2), 3), ((0, 1, 3), 2)):
        for _ in range(25):
            rule = random_rule(rng, l, r, p)
            table = transition_table(rule, ns)
            for index in range(p**ns):
                g = GlobalIndex(p, ns, index)
                assert global_ca_step(rule, g).index == table.image[index]


def test_global_ca_step_identity_and_geometry_check():
    ident = identity_rule(1, 1, 2)
    for i in range(8):
        assert global_ca_step(ident, GlobalIndex(2, 3, i)).index == i
    with pytest.raises(ValueError, match="rho == ns"):
        global_ca_step(ident, GlobalIndex(2, 4, 0))


def test_shift_group_axioms_hold_on_matching_rings():
    for rho, (l, r) in ((2, (0, 1)), (3, (1, 1)), (4, (2, 1))):
        for p in (2, 3, 5):
            report = shift_group_report(l, r, p)
            assert report.ns == rho
            assert report.all_passed, report.format_lines()
            assert report.order == rho
            assert report.generator is not None


def test_shift_group_trivial_and_broken_cases():
    trivial = shift_group_report(0, 0, 3)
    assert trivial.all_passed and trivial.order == 1

    broken = shift_group_report(1, 1, 2, ns=4)
    assert not broken.closure
    assert broken.identity and broken.inverses and broken.commutativity
    assert not broken.all_passed
    assert "closure: FAIL" in "\n".join(broken.format_lines())


def test_transition_table_validation():
    with pytest.raises(ValueError):
        TransitionTable(2, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        TransitionTable(2, 2, (0, 1, 2, 4))
    # Attractor is a plain record
    assert Attractor((1, 2), 5).basin == 5


@given(st.integers(2, 36).flatmap(
    lambda p: st.lists(st.integers(0, p - 1), min_size=1, max_size=30).map(
        lambda sites: RingState(p, tuple(sites)))))
def test_encode_decode_round_trip(s):
    g = encode(s)
    assert decode(g) == s
    assert encode(decode(g)) == g
    assert g.index == sum(x * s.p**i for i, x in enumerate(s.sites))
