"""Batch CLI: outputs, exit codes, byte-level determinism."""

import json
import subprocess
import sys

import pytest

PY = [sys.executable, "-m", "radixca"]


def run_cli(*args):
    return subprocess.run(
        PY + list(args), capture_output=True, text=True, timeout=120
    )


def test_shiftcode_prints_known_codes():
    out = run_cli("shiftcode", "--l", "1", "--r", "1", "--p", "2", "--m", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "170"
    out = run_cli("shiftcode", "--l", "1", "--r", "1", "--p", "2", "--m", "3")
    assert out.stdout.strip() == "240"


def test_table_emits_published_json(tmp_path):
    target = tmp_path / "t.json"
    out = run_cli("table", "--rule", "0:1:3:9519", "--ns", "3", "--out", str(target))
    assert out.returncode == 0
    doc = json.loads(target.read_text())
    assert doc["p"] == 3 and doc["Ns"] == 3
    assert doc["rule"] == "0:1:3:9519"
    assert doc["image"] == [
        0, 7, 4, 21, 19, 19, 12, 13, 13, 11, 15, 13, 5,
        0, 1, 5, 3, 4, 10, 15, 13, 13, 9, 10, 13, 12, 13,
    ]
    assert doc["gardens_of_eden"] == [2, 6, 8, 14, 16, 17, 18, 20, 22, 23, 24, 25, 26]
    assert doc["attractors"] == [
        {"basin": 15, "cycle": [0]},
        {"basin": 12, "cycle": [5, 19, 15]},
    ]


def test_evolve_pgm_and_text(tmp_path):
    pgm = tmp_path / "e.pgm"
    out = run_cli(
        "evolve", "--rule", "1:1:2:110", "--ns", "9", "--steps", "4",
        "--ic", "seed:5", "--out", str(pgm),
    )
    assert out.returncode == 0
    lines = pgm.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "9 5" and lines[2] == "255"
    assert len(lines) == 8

    art = tmp_path / "e.txt"
    out = run_cli(
        "evolve", "--rule", "1:1:2:110", "--ns", "9", "--steps", "2",
        "--ic", "digits:000010000", "--text", "--out", str(art),
    )
    assert out.returncode == 0
    assert art.read_text() == "....1....\n...11....\n..111....\n"


def test_evolve_accepts_totalistic_rules(tmp_path):
    target = tmp_path / "t.pgm"
    out = run_cli(
        "evolve", "--rule", "2:2:2:52T", "--ns", "16", "--steps", "10",
        "--ic", "random:7", "--out", str(target),
    )
    assert out.returncode == 0
    assert target.read_text().startswith("P2\n16 11\n255\n")


def test_charfn_rows(tmp_path):
    target = tmp_path / "chi.csv"
    out = run_cli("charfn", "--rule", "0:1:3:9519", "--ns", "3", "--out", str(target))
    assert out.returncode == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "y,chi"
    assert lines[1] == "0/27,0/27"
    assert lines[2] == "1/27,7/27"
    assert len(lines) == 28


def test_debruijn_dot(tmp_path):
    full = tmp_path / "g.dot"
    run_cli("debruijn", "--rule", "1:1:2:232", "--out", str(full))
    text = full.read_text()
    assert text.count("[label=") == 8 and text.count(" -> ") == 16

    masked = tmp_path / "m.dot"
    run_cli("debruijn", "--rule", "1:1:2:232", "--fixed-points", "--out", str(masked))
    assert masked.read_text().count("[label=") == 6


def test_approx_low_mu_reaches_the_zero_row(tmp_path):
    raster = tmp_path / "a.pgm"
    orbit = tmp_path / "o.json"
    out = run_cli(
        "approx", "--map", "logistic", "--mu", "0.8", "--p", "2", "--ns", "50",
        "--ic", "seed:1", "--steps", "150", "--out", str(raster),
        "--orbit-out", str(orbit),
    )
    assert out.returncode == 0
    last_row = raster.read_text().splitlines()[-1]
    assert set(last_row.split()) == {"0"}
    doc = json.loads(orbit.read_text())
    assert doc["behavior"] == "Class1"
    assert doc["cycle"] == [0] and doc["resolved"] is True


def test_bifurcate_rows(tmp_path):
    target = tmp_path / "b.csv"
    out = run_cli(
        "bifurcate", "--mu-lo", "0", "--mu-hi", "0.99", "--count", "4",
        "--p", "2", "--ns", "20", "--transient", "60", "--sample-steps", "64",
        "--samples", "3", "--out", str(target),
    )
    assert out.returncode == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "mu,period,phi_1,phi_2,phi_3"
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.endswith(",0")  # every low-mu orbit dies at phi = 0


def test_grouptest_report(tmp_path):
    out = run_cli("grouptest", "--l", "1", "--r", "1", "--p", "2")
    assert out.returncode == 0
    assert "group: PASS" in out.stdout

    out = run_cli("grouptest", "--l", "1", "--r", "1", "--p", "2", "--ns", "4")
    assert out.returncode == 0
    assert "closure: FAIL" in out.stdout


def test_usage_errors_exit_one():
    assert run_cli("evolve", "--rule", "1:1:2:110").returncode == 1  # missing args
    assert run_cli("table", "--rule", "junk", "--ns", "3", "--out", "x").returncode == 1
    assert run_cli(
        "approx", "--map", "logistic", "--mu", "4.5", "--p", "2", "--ns", "8",
        "--out", "x.pgm",
    ).returncode == 1
    out = run_cli(
        "evolve", "--rule", "1:1:2:110", "--ns", "8", "--steps", "2",
        "--ic", "random", "--out", "x.pgm",
    )
    assert out.returncode == 1  # random IC requires an explicit seed


@pytest.mark.parametrize(
    "args, code",
    [
        (("charfn", "--rule", "1:1:2:110", "--ns", "-1"), 1),
        (("table", "--rule", "1:1:2:110", "--ns", "0"), 1),
        (("bifurcate", "--mu-lo", "1", "--mu-hi", "2", "--count", "2",
          "--threads", "0"), 1),
        (("table", "--rule", "1:1:2:110", "--ns", "3", "--threads", "0"), 1),
        (("table", "--rule", "1:1:2:110", "--ns", "25"), 2),
        (("evolve", "--rule", "1:1:2:110", "--ns", "8", "--steps", "-1"), 1),
        (("approx", "--map", "poly", "--coeffs", "0,2", "--p", "2", "--ns", "4",
          "--steps", "5"), 3),
        # 10^10 raster cells, refused before the ring is built
        (("evolve", "--rule", "1:1:2:110", "--ns", "100000", "--steps", "100000",
          "--ic", "random:1"), 2),
        # exact values at ns=3000 run to thousands of digits
        (("approx", "--map", "poly", "--coeffs", "0,5", "--ns", "3000", "--steps", "3",
          "--ic", "random:3"), 3),
    ],
)
def test_bad_input_exits_with_one_line_and_no_traceback(tmp_path, args, code):
    target = tmp_path / "never.out"
    out = run_cli(*args, "--out", str(target))
    assert out.returncode == code
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert len(out.stderr) < 200, out.stderr
    assert "Traceback" not in out.stderr
    assert not target.exists()


def test_guard_exits_two_and_leaves_no_file(tmp_path):
    target = tmp_path / "never.json"
    out = run_cli("table", "--rule", "1:1:2:110", "--ns", "25", "--out", str(target))
    assert out.returncode == 2
    assert "16777216" in out.stderr
    assert not target.exists()


def test_domain_violation_exits_three(tmp_path):
    target = tmp_path / "never.pgm"
    out = run_cli(
        "approx", "--map", "poly", "--coeffs", "0,2", "--p", "2", "--ns", "4",
        "--steps", "5", "--out", str(target),
    )
    assert out.returncode == 3
    assert not target.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("table", "--rule", "0:1:3:9519", "--ns", "3"),
        ("charfn", "--rule", "1:1:2:110", "--ns", "4"),
        ("evolve", "--rule", "1:1:2:30", "--ns", "32", "--steps", "32",
         "--ic", "random:12345"),
        ("bifurcate", "--mu-lo", "1", "--mu-hi", "3.5", "--count", "6",
         "--p", "2", "--ns", "24", "--transient", "50", "--sample-steps", "128"),
    ],
)
def test_outputs_are_byte_identical_across_runs(tmp_path, args):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_are_byte_identical_across_thread_counts(tmp_path):
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    base = ("table", "--rule", "1:1:2:110", "--ns", "8")
    assert run_cli(*base, "--threads", "1", "--out", str(one)).returncode == 0
    assert run_cli(*base, "--threads", "4", "--out", str(four)).returncode == 0
    assert one.read_bytes() == four.read_bytes()

    b1 = tmp_path / "b1.csv"
    b3 = tmp_path / "b3.csv"
    scan = ("bifurcate", "--mu-lo", "0.5", "--mu-hi", "3.2", "--count", "5",
            "--p", "2", "--ns", "20", "--transient", "40", "--sample-steps", "100")
    assert run_cli(*scan, "--threads", "1", "--out", str(b1)).returncode == 0
    assert run_cli(*scan, "--threads", "3", "--out", str(b3)).returncode == 0
    assert b1.read_bytes() == b3.read_bytes()
