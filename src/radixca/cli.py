"""Batch command-line front end.

All subcommands compute their result fully in memory and only then touch
the output path, so a failed guard never leaves a partial file behind.
Exit codes: 0 success, 1 usage/value error, 2 resource guard exceeded,
3 domain-contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import debruijn as db
from . import globaldyn as gd
from . import lattice as lt
from . import realmap as rm
from . import rules as ru
from .errors import DomainContractError, GuardExceeded


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_ic(spec: str, p: int, ns: int) -> lt.RingState:
    """IC formats: zero | seed:SITE | digits:STRING | random:SEED."""
    if spec == "zero":
        return lt.RingState.zero(p, ns)
    kind, _, arg = spec.partition(":")
    if kind == "seed":
        return lt.RingState.single_seed(p, ns, int(arg) if arg else 1)
    if kind == "digits":
        state = lt.RingState.from_string(arg, p)
        if state.ns != ns:
            raise UsageError(f"digits IC has {state.ns} sites, expected {ns}")
        return state
    if kind == "random":
        if not arg:
            raise UsageError("random IC needs an explicit seed: random:SEED")
        return lt.RingState.random(p, ns, int(arg))
    raise UsageError(f"unknown IC spec {spec!r}")


def _thread_count(text: str) -> int:
    """--threads of table and bifurcate: checked, then unused (both run serially)."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def _parse_mu(text: str) -> Fraction:
    # decimal literals become exact rationals: 3.83 -> 383/100
    return Fraction(text)


def _build_map(args: argparse.Namespace) -> rm.MapSpec:
    if args.map == "logistic":
        if args.mu is None:
            raise UsageError("logistic map needs --mu")
        return rm.LogisticMap(_parse_mu(args.mu))
    if args.map == "poly":
        if not args.coeffs:
            raise UsageError("poly map needs --coeffs c0,c1,...")
        coeffs = tuple(Fraction(c) for c in args.coeffs.split(","))
        return rm.PolynomialMap(coeffs)
    raise UsageError(f"unknown map kind {args.map!r}")


def _ic_from_args(args: argparse.Namespace, p: int, ns: int) -> lt.RingState:
    if getattr(args, "seed_site", None) is not None:
        return lt.RingState.single_seed(p, ns, args.seed_site)
    return _parse_ic(args.ic, p, ns)


def _cmd_evolve(args: argparse.Namespace) -> int:
    rule = ru.parse_rule(args.rule)
    lt.check_grid(args.ns, args.steps)  # before the initial ring is built
    s0 = _ic_from_args(args, rule.p, args.ns)
    raster = lt.evolve(rule, s0, args.steps)
    text = raster.to_text() if args.text else raster.to_pgm()
    _write(args.out, text)
    return 0


def _cmd_charfn(args: argparse.Namespace) -> int:
    rule = _plain_rule(args.rule)
    _write(args.out, gd.samples_to_csv(rule, args.ns))
    return 0


def _plain_rule(text: str) -> ru.RuleSpec:
    rule = ru.parse_rule(text)
    if isinstance(rule, ru.TotalisticRuleSpec):
        return ru.expand_totalistic(rule)
    return rule


def _cmd_table(args: argparse.Namespace) -> int:
    rule = _plain_rule(args.rule)
    table = gd.transition_table(rule, args.ns)
    doc = {
        "p": rule.p,
        "Ns": args.ns,
        "rule": ru.format_rule(rule),
        "image": list(table.image),
        "gardens_of_eden": gd.gardens_of_eden(table),
        "attractors": [
            {"cycle": list(a.cycle), "basin": a.basin} for a in gd.attractors(table)
        ],
    }
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_debruijn(args: argparse.Namespace) -> int:
    rule = _plain_rule(args.rule)
    graph = (
        db.fixed_point_subgraph(rule)
        if args.fixed_points
        else db.build_colored_graph(rule)
    )
    _write(args.out, db.export_dot(graph))
    return 0


def _cmd_shiftcode(args: argparse.Namespace) -> int:
    code = ru.code_of_rule(ru.shift_rule(args.l, args.r, args.p, args.m))
    if args.out:
        _write(args.out, code + "\n")
    else:
        print(code)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    mapspec = _build_map(args)
    s0 = _ic_from_args(args, args.p, args.ns)
    start = gd.encode(s0).index
    stepper = lambda i: rm.induced_ca_step(mapspec, args.p, args.ns, i)
    indices = rm.evolve_indices(stepper, start, args.steps)
    if args.out:
        raster = lt.raster_from_indices(args.p, args.ns, indices)
        _write(args.out, raster.to_pgm())
    if args.orbit_out:
        report = rm.orbit_report(mapspec, args.p, args.ns, start, args.max_steps)
        doc = {
            "resolved": report.resolved,
            "transient": report.transient,
            "period": report.period,
            "cycle": list(report.cycle),
            "cycle_truncated": report.truncated,
            "phi_samples": [f"{s.numerator}/{s.denominator}" for s in report.samples],
            "behavior": rm.classify_behavior(report, args.p, args.ns),
        }
        _write(args.orbit_out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if not args.out and not args.orbit_out:
        print(f"final state index: {indices[-1]}")
    return 0


def _cmd_bifurcate(args: argparse.Namespace) -> int:
    rows = rm.bifurcation_scan(
        _parse_mu(args.mu_lo),
        _parse_mu(args.mu_hi),
        args.count,
        args.p,
        args.ns,
        args.transient,
        args.sample_steps,
        start=gd.encode(_parse_ic(args.ic, args.p, args.ns)).index,
        n_samples=args.samples,
    )
    _write(args.out, rm.bifurcation_csv(rows))
    return 0


def _cmd_grouptest(args: argparse.Namespace) -> int:
    report = gd.shift_group_report(args.l, args.r, args.p, args.ns)
    lines = report.format_lines()
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radixca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule_ns(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--rule", required=True, help="l:r:p:code, l:r:p:codeT or l:r:p:[a0,...]")
        p_.add_argument("--ns", type=int, required=True, help="ring size")

    p_ev = sub.add_parser("evolve", help="spacetime raster of a rule run")
    add_rule_ns(p_ev)
    p_ev.add_argument("--steps", type=int, required=True)
    p_ev.add_argument("--ic", default="seed:1", help="zero|seed:SITE|digits:STR|random:SEED")
    p_ev.add_argument("--seed-site", type=int, help="shorthand for --ic seed:SITE")
    p_ev.add_argument("--text", action="store_true", help="character art instead of PGM")
    p_ev.add_argument("--out", required=True)
    p_ev.set_defaults(fn=_cmd_evolve)

    p_ch = sub.add_parser("charfn", help="global map samples y,chi as CSV")
    add_rule_ns(p_ch)
    p_ch.add_argument("--out", required=True)
    p_ch.set_defaults(fn=_cmd_charfn)

    p_tb = sub.add_parser("table", help="global transition table as JSON")
    add_rule_ns(p_tb)
    p_tb.add_argument("--threads", type=_thread_count, default=1, help="unused: runs serially")
    p_tb.add_argument("--out", required=True)
    p_tb.set_defaults(fn=_cmd_table)

    p_db = sub.add_parser("debruijn", help="neighborhood graph as DOT")
    p_db.add_argument("--rule", required=True)
    p_db.add_argument("--fixed-points", action="store_true",
                      help="mask vertices that cannot sit in a still life")
    p_db.add_argument("--out", required=True)
    p_db.set_defaults(fn=_cmd_debruijn)

    p_sc = sub.add_parser("shiftcode", help="decimal code of a shift rule")
    p_sc.add_argument("--l", type=int, required=True)
    p_sc.add_argument("--r", type=int, required=True)
    p_sc.add_argument("--p", type=int, required=True)
    p_sc.add_argument("--m", type=int, required=True)
    p_sc.add_argument("--out")
    p_sc.set_defaults(fn=_cmd_shiftcode)

    p_ap = sub.add_parser("approx", help="run the CA induced by a real map")
    p_ap.add_argument("--map", choices=("logistic", "poly"), required=True)
    p_ap.add_argument("--mu", help="logistic parameter as an exact decimal")
    p_ap.add_argument("--coeffs", help="polynomial coefficients c0,c1,...")
    p_ap.add_argument("--p", type=int, default=2)
    p_ap.add_argument("--ns", type=int, default=50)
    p_ap.add_argument("--steps", type=int, default=150)
    p_ap.add_argument("--max-steps", type=int, default=100_000,
                      help="cycle-detection budget for --orbit-out")
    p_ap.add_argument("--ic", default="seed:1")
    p_ap.add_argument("--seed-site", type=int, help="shorthand for --ic seed:SITE")
    p_ap.add_argument("--out", help="PGM raster path")
    p_ap.add_argument("--orbit-out", help="orbit report JSON path")
    p_ap.set_defaults(fn=_cmd_approx)

    p_bf = sub.add_parser("bifurcate", help="mu sweep of the logistic CA")
    p_bf.add_argument("--mu-lo", required=True)
    p_bf.add_argument("--mu-hi", required=True)
    p_bf.add_argument("--count", type=int, required=True)
    p_bf.add_argument("--p", type=int, default=2)
    p_bf.add_argument("--ns", type=int, default=50)
    p_bf.add_argument("--transient", type=int, default=1000)
    p_bf.add_argument("--sample-steps", type=int, default=4096)
    p_bf.add_argument("--samples", type=int, default=8)
    p_bf.add_argument("--ic", default="seed:1")
    p_bf.add_argument("--threads", type=_thread_count, default=1, help="unused: runs serially")
    p_bf.add_argument("--out", required=True)
    p_bf.set_defaults(fn=_cmd_bifurcate)

    p_gt = sub.add_parser("grouptest", help="shift-operator group axioms")
    p_gt.add_argument("--l", type=int, required=True)
    p_gt.add_argument("--r", type=int, required=True)
    p_gt.add_argument("--p", type=int, required=True)
    p_gt.add_argument("--ns", type=int, default=None,
                      help="ring size (defaults to the neighborhood size)")
    p_gt.add_argument("--out")
    p_gt.set_defaults(fn=_cmd_grouptest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"resource guard exceeded: {exc}", file=sys.stderr)
        return 2
    except DomainContractError as exc:
        print(f"domain contract violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
