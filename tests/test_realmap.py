"""Compiled real maps: exact stepping, orbits, bifurcations, classes."""

import math
import random
from fractions import Fraction

import pytest

from helpers import real_logistic_period
from radixca.digits import digits_lsd
from radixca.errors import DomainContractError, GuardExceeded
from radixca.globaldyn import GlobalIndex, characteristic_value
from radixca.realmap import (
    LogisticMap,
    NumericMap,
    PolynomialMap,
    asymptotic_step,
    bifurcation_csv,
    bifurcation_scan,
    classify_behavior,
    cycle_detect,
    evolve_indices,
    exact_decimal,
    identity_map,
    induced_ca_step,
    logistic_ca_step,
    orbit_report,
)
from radixca.rules import rule_from_code


def test_induced_step_examples():
    m = LogisticMap(Fraction(4, 5))
    assert induced_ca_step(m, 2, 3, 4) == 1  # chi(1/2) = 0.2, floor(8*0.2)

    ident = identity_map()
    for i in range(16):
        assert induced_ca_step(ident, 2, 4, i) == i

    full = LogisticMap(Fraction(4))
    assert induced_ca_step(full, 2, 3, 4) == 7  # chi hits 1 exactly: clamp


def test_logistic_step_examples():
    assert logistic_ca_step(Fraction(0), 2, 10, 123) == 0
    ns = 50
    got = logistic_ca_step(Fraction(4, 5), 2, ns, 2**49)
    assert got == (4 * 2**48) // 5
    with pytest.raises(ValueError):
        logistic_ca_step(Fraction(9, 2), 2, 10, 0)
    with pytest.raises(ValueError):
        LogisticMap(Fraction(-1, 2))


def test_logistic_step_equals_generic_stepper():
    rng = random.Random(3)
    for mu in (Fraction(4, 5), Fraction(16, 5), Fraction(383, 100), Fraction(4)):
        m = LogisticMap(mu)
        for ns in (3, 8, 20):
            for _ in range(50):
                i = rng.randrange(2**ns)
                assert logistic_ca_step(mu, 2, ns, i) == induced_ca_step(m, 2, ns, i)


def test_logistic_step_agrees_with_floats_while_they_are_exact():
    # valid as long as p^(2 ns) fits the double mantissa
    rng = random.Random(4)
    mu = Fraction(4, 5)
    muf = 4 / 5
    for ns in (8, 14, 20):
        size = 2**ns
        for _ in range(340):
            i = rng.randrange(size)
            y = i / size
            float_path = min(math.floor(size * (muf * y * (1 - y))), size - 1)
            assert logistic_ca_step(mu, 2, ns, i) == float_path


def test_asymptotic_step_examples():
    full = LogisticMap(Fraction(4))
    assert asymptotic_step(full, 10, 3) == 8  # chi(0.3) = 0.84
    assert asymptotic_step(full, 10, 0) == 0
    assert asymptotic_step(full, 10, 5) == 9  # chi(1/2) = 1: clamp
    with pytest.raises(ValueError):
        asymptotic_step(full, 10, 10)


def test_one_step_defect_stays_below_the_grid():
    # 0 <= chi(phi) - phi' < p^-ns before clamping, in exact arithmetic
    rng = random.Random(5)
    for mu in (Fraction(4, 5), Fraction(16, 5), Fraction(383, 100)):
        m = LogisticMap(mu)
        for ns in (10, 50):
            size = 2**ns
            for _ in range(150):
                i = rng.randrange(size)
                chi = m.value(Fraction(i, size))
                raw = (mu.numerator * i * (size - i)) // (mu.denominator * size)
                defect = chi - Fraction(raw, size)
                assert 0 <= defect < Fraction(1, size)


def test_new_digits_are_the_per_digit_floors_of_the_scaled_map():
    rng = random.Random(6)
    mu = Fraction(7, 2)
    m = LogisticMap(mu)
    for p, ns in ((2, 12), (3, 8)):
        size = p**ns
        for _ in range(60):
            i = rng.randrange(size)
            out = induced_ca_step(m, p, ns, i)
            chi = m.value(Fraction(i, size))
            got = digits_lsd(p, out, ns).digits
            for d in range(1, ns + 1):
                scale_lo = Fraction(p) ** (d - ns - 1)
                want = math.floor(chi / scale_lo) - p * math.floor(chi / (scale_lo * p))
                assert got[d - 1] == want


def test_orbits_are_eventually_periodic_within_the_state_count():
    mu = Fraction(7, 2)
    for start in range(16):
        report = cycle_detect(lambda i: logistic_ca_step(mu, 2, 4, i), start, 64)
        assert report.resolved
        assert report.transient + report.period <= 16


def test_finer_grids_track_the_real_orbit_more_closely():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    mu = Fraction(4, 5)
    muf = mpmath.mpf(mu.numerator) / mu.denominator
    real = [mpmath.mpf(1) / 2]
    for _ in range(20):
        u = real[-1]
        real.append(muf * u * (1 - u))
    worst = {}
    for ns in (10, 20, 40):
        size = 2**ns
        i = size // 2
        err = mpmath.mpf(0)
        for t in range(1, 21):
            i = logistic_ca_step(mu, 2, ns, i)
            err = max(err, abs(mpmath.mpf(i) / size - real[t]))
        worst[ns] = err
    assert worst[40] < worst[20] < worst[10]


def test_cycle_detect_constant_and_published_orbit():
    report = cycle_detect(lambda _x: 5, 9, 100)
    assert report.resolved and report.period == 1 and report.transient == 1
    report = cycle_detect(lambda _x: 5, 5, 100)
    assert report.period == 1 and report.transient == 0

    rule = rule_from_code(0, 1, 3, "9519")
    stepper = lambda i: characteristic_value(rule, GlobalIndex(3, 3, i)).index
    report = cycle_detect(stepper, 19, 1000)
    assert (report.transient, report.period) == (0, 3)
    assert set(report.cycle) == {19, 15, 5}


def test_cycle_detect_respects_its_budget():
    # a long cycle cannot be resolved with too few steps
    report = cycle_detect(lambda i: (i + 1) % 1000, 0, 50)
    assert not report.resolved
    assert report.transient is None and report.period is None


def test_cycle_states_map_to_themselves_after_one_period():
    rng = random.Random(8)
    for _ in range(10):
        mu = Fraction(rng.randrange(0, 401), 100)
        stepper = lambda i: logistic_ca_step(mu, 2, 12, i)
        report = cycle_detect(stepper, rng.randrange(2**12), 10_000)
        assert report.resolved
        for state in report.cycle:
            v = state
            for _ in range(report.period):
                v = stepper(v)
            assert v == state


def test_low_mu_runs_die_out_to_the_zero_state():
    mu = Fraction(4, 5)
    orbit = evolve_indices(lambda i: logistic_ca_step(mu, 2, 50, i), 1, 150)
    assert orbit[-1] == 0
    report = cycle_detect(lambda i: logistic_ca_step(mu, 2, 50, i), 1, 1000)
    assert report.period == 1 and report.cycle == (0,)


def test_behavior_classes_along_the_parameter_axis():
    def run(mu_txt, max_steps):
        mu = Fraction(mu_txt)
        report = cycle_detect(
            lambda i: logistic_ca_step(mu, 2, 50, i), 1, max_steps
        )
        return classify_behavior(report, 2, 50)

    assert run("0.8", 10_000) == "Class1"
    assert run("1.21", 10_000) == "Class2"
    assert run("3.7", 100_000) == "Class3-candidate"


def test_mid_mu_run_settles_on_a_nonzero_short_cycle():
    mu = Fraction(121, 100)
    report = cycle_detect(lambda i: logistic_ca_step(mu, 2, 50, i), 1, 10_000)
    assert report.resolved
    assert report.period <= 4
    assert any(state != 0 for state in report.cycle)


def test_period_two_window():
    mu = Fraction(16, 5)
    report = cycle_detect(lambda i: logistic_ca_step(mu, 2, 50, i), 1, 10_000)
    assert report.resolved and report.period == 2


def test_asymptotic_map_reproduces_real_attractor_periods():
    p = 10**6
    for mu_txt in ("3.2", "3.83"):
        mu = Fraction(mu_txt)
        m = LogisticMap(mu)
        report = cycle_detect(lambda x: asymptotic_step(m, p, x), p // 2, 100_000)
        want = real_logistic_period(float(mu))
        assert want is not None
        assert report.period == want


def test_orbit_report_includes_phi_samples():
    report = orbit_report(LogisticMap(Fraction(16, 5)), 2, 10, 1, 10_000)
    assert report.resolved
    assert len(report.samples) == len(report.cycle)
    assert all(0 <= s < 1 for s in report.samples)


def test_domain_contract_violations():
    doubler = PolynomialMap((Fraction(0), Fraction(2)))
    with pytest.raises(DomainContractError):
        induced_ca_step(doubler, 2, 4, 15)  # chi(15/16) = 15/8 > 1
    overshoot = NumericMap(lambda y: 1.1)
    with pytest.raises(DomainContractError):
        induced_ca_step(overshoot, 2, 4, 3)
    # short values print exactly, long ones rounded and marked ~
    message = r"^map value 15/8 escapes \[0,1\] at y=15/16$"
    with pytest.raises(DomainContractError, match=message):
        induced_ca_step(doubler, 2, 4, 15)
    message = r"^map value ~1\.0 escapes \[0,1\] at y=~0\.5$"
    with pytest.raises(DomainContractError, match=message):
        induced_ca_step(doubler, 2, 3000, 2**2999 + 1)
    with pytest.raises(DomainContractError, match=r"^map value ~2\^1328 "):
        induced_ca_step(PolynomialMap((Fraction(10) ** 400,)), 2, 8, 3)
    # tiny float lint is clamped, not fatal
    nearly_one = NumericMap(lambda y: 1.0 + 1e-12)
    assert induced_ca_step(nearly_one, 2, 4, 3) == 15


def test_numeric_map_agrees_with_exact_on_easy_grids():
    exact = LogisticMap(Fraction(1, 2))
    hosted = NumericMap(lambda y: 0.5 * y * (1 - y))
    for i in range(2**8):
        assert induced_ca_step(exact, 2, 8, i) == induced_ca_step(hosted, 2, 8, i)


def test_bifurcation_scan_low_mu_rows_end_at_zero():
    rows = bifurcation_scan(
        Fraction(0), Fraction(99, 100), 12, 2, 30, t_transient=80, t_sample=64
    )
    assert len(rows) == 12
    for row in rows:
        assert row.phis[-1] == 0
        assert row.period == 1
    assert all(phi == 0 for phi in rows[0].phis)  # mu = 0 row


def test_bifurcation_scan_finds_the_two_cycle():
    rows = bifurcation_scan(
        Fraction(16, 5), Fraction(16, 5), 1, 2, 50, t_transient=500, t_sample=10_000
    )
    assert rows[0].period == 2
    # samples alternate over the 2-cycle
    phis = rows[0].phis
    assert phis[0] == phis[2] and phis[1] == phis[3] and phis[0] != phis[1]


def test_bifurcation_scan_guard():
    with pytest.raises(GuardExceeded):
        bifurcation_scan(Fraction(0), Fraction(4), 10_000, 2, 50, 10_000, 10_000)


def test_exact_decimal_rendering():
    assert exact_decimal(Fraction(1, 4)) == "0.25"
    assert exact_decimal(Fraction(3, 1)) == "3"
    assert exact_decimal(Fraction(1, 1024)) == "0.0009765625"
    assert exact_decimal(Fraction(16, 5)) == "3.2"
    assert exact_decimal(Fraction(1, 3)) == "1/3"
    assert exact_decimal(Fraction(-7, 8)) == "-0.875"
    assert exact_decimal(Fraction(0)) == "0"


def test_bifurcation_csv_layout():
    rows = bifurcation_scan(
        Fraction(0), Fraction(1, 2), 3, 2, 10, t_transient=20, t_sample=50, n_samples=2
    )
    text = bifurcation_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "mu,period,phi_1,phi_2"
    assert lines[1].startswith("0,1,")
    assert len(lines) == 4
