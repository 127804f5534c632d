"""pooltest command-line interface."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from . import design as design_mod
from . import disguise as disguise_mod
from . import sim as sim_mod
from .decode import DecoderId, decode_mask
from .errors import BudgetExceededError
from .model import Prior
from .serialize import to_dict

_FMT = "{:.12g}"
# `figure` computes one floor per step; this caps its time and output.
FIGURE_STEP_BUDGET = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FMT.format(value)
    return str(value)


def _print_report(report, as_json: bool, width: int = 0) -> None:
    """Print a report as one JSON object, or one padded line per field that is set."""
    if as_json:
        print(json.dumps(to_dict(report)))
        return
    for name, value in to_dict(report).items():
        if value is not None:
            print(f"{name:<{width}}{_fmt(value)}")


def _read_design(path: str) -> design_mod.TestDesign:
    if path == "-":
        return design_mod.parse_design(sys.stdin)
    return design_mod.load_design(path)


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, built on first use; parsing never changes it."""
    # options that several subcommands share, each declared once and attached through `parents`
    design, prior, decoder, as_json, output, seed, outcome = (
        argparse.ArgumentParser(add_help=False) for _ in range(7)
    )
    design.add_argument("--design", required=True, help="design file path, or - for stdin")
    prior.add_argument("-p", type=float, required=True, help="prevalence")
    decoder.add_argument("--decoder", choices=[d.value for d in DecoderId], required=True)
    as_json.add_argument("--json", action="store_true", help="print the report as JSON")
    output.add_argument("-o", "--output", help="output path (default stdout)")
    seed.add_argument("--seed", type=int, default=0)
    run_group = argparse.ArgumentParser(add_help=False, parents=[seed])
    run_group.add_argument("--trials", type=int, default=100_000)
    # a parent only to keep decode's required options in their listed order
    outcome.add_argument("--outcome", required=True, help="0/1 string, one bit per test")

    parser = _Parser(prog="pooltest", description="Nonadaptive group testing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a test design", parents=[seed, output])
    p_gen.add_argument("kind", choices=["individual", "bernoulli", "doubly-regular"])
    p_gen.add_argument("-n", type=int, required=True, help="item count")
    p_gen.add_argument("-T", type=int, help="test count (bernoulli)")
    p_gen.add_argument("--nu", type=float, help="inclusion probability (bernoulli)")
    p_gen.add_argument("-l", type=int, help="tests per item (doubly-regular)")
    p_gen.add_argument("-r", type=int, help="items per test (doubly-regular)")
    p_gen.set_defaults(func=_cmd_gen)

    sub.add_parser("reduce", help="strip weight-0 tests and resolve weight-1 tests",
                   parents=[design, output]).set_defaults(func=_cmd_reduce)

    p_bound = sub.add_parser("bound", help="error floor and related bounds for a prior",
                             parents=[prior, as_json])
    p_bound.add_argument("--delta", type=float)
    p_bound.add_argument("-n", type=int, help="also report the counting bound H(p)*n")
    p_bound.set_defaults(func=_cmd_bound)

    p_fig = sub.add_parser("figure", help="emit the floor curve over a prevalence grid as CSV",
                           parents=[output])
    p_fig.add_argument("--p-min", type=float, required=True)
    p_fig.add_argument("--p-max", type=float, required=True)
    p_fig.add_argument("--steps", type=int, required=True,
                       help=f"grid points, at most {FIGURE_STEP_BUDGET}")
    p_fig.set_defaults(func=_cmd_figure)

    p_dis = sub.add_parser("disguise", help="per-item disguise bounds for a design",
                           parents=[design, prior, as_json])
    p_dis.add_argument("--exact-budget", type=int, default=20, help=(
        "compute exact probabilities for items with at most this many co-items, "
        f"capped at {disguise_mod.CO_ITEM_BUDGET} (0 disables)"))
    p_dis.set_defaults(func=_cmd_disguise)

    p_dec = sub.add_parser("decode", help="decode one outcome vector",
                           parents=[design, outcome, decoder])
    p_dec.add_argument("-p", type=float, help="prior (required for map)")
    p_dec.set_defaults(func=_cmd_decode)

    sub.add_parser("exact-error", help="exact average error by enumeration",
                   parents=[design, decoder, prior]).set_defaults(func=_cmd_exact_error)
    p_sim = sub.add_parser("simulate", help="Monte Carlo average error",
                           parents=[design, decoder, prior, run_group, as_json])
    p_sim.set_defaults(func=_cmd_simulate)
    sub.add_parser("verify", help="check a design against the error floor",
                   parents=[design, prior, run_group, as_json]).set_defaults(func=_cmd_verify)
    return parser


def _cmd_gen(args) -> int:
    if args.kind == "individual":
        d = design_mod.gen_individual(args.n)
    elif args.kind == "bernoulli":
        if args.T is None or args.nu is None:
            raise ValueError("bernoulli designs need -T and --nu")
        d = design_mod.gen_bernoulli(args.n, args.T, args.nu, args.seed)
    else:
        if args.l is None or args.r is None:
            raise ValueError("doubly-regular designs need -l and -r")
        d = design_mod.gen_doubly_regular(args.n, args.l, args.r, args.seed)
    _write_text(design_mod.format_design(d), args.output)
    return 0


def _cmd_reduce(args) -> int:
    d = _read_design(args.design)
    reduced, log = design_mod.reduce_design(d)
    lines = [f"# removed empty tests: {','.join(map(str, log.removed_empty_tests))}"]
    lines.append(
        "# resolved items (item:test): "
        + ",".join(f"{i}:{t}" for i, t in log.resolved_items)
    )
    lines.append(f"# item map: {','.join(map(str, log.item_map))}")
    lines.append(f"# test map: {','.join(map(str, log.test_map))}")
    _write_text("\n".join(lines) + "\n" + design_mod.format_design(reduced), args.output)
    return 0


def _cmd_bound(args) -> int:
    prior = Prior(args.p)
    report = bounds_mod.epsilon_bound(prior)
    if args.delta is not None:
        report = replace(
            report,
            delta=args.delta,
            epsilon_delta=bounds_mod.epsilon_bound_delta(prior, args.delta),
        )
    if args.n is not None:
        report = replace(report, counting_bound=bounds_mod.counting_bound(prior, args.n))
    _print_report(report, args.json, 15)
    return 0


def _cmd_figure(args) -> int:
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    if args.steps > FIGURE_STEP_BUDGET:
        raise BudgetExceededError(f"{args.steps} steps exceed the budget of {FIGURE_STEP_BUDGET}")
    if not 0.0 < args.p_min <= args.p_max < 1.0:
        raise ValueError("need 0 < p-min <= p-max < 1")
    last = max(args.steps - 1, 1)
    grid = [args.p_min + k * (args.p_max - args.p_min) / last for k in range(args.steps)]
    # the certified scan at p runs past weight q/p before it may stop
    work = sum((1.0 - p) / p for p in grid)
    if work > bounds_mod.SCAN_CAP:
        raise BudgetExceededError(f"{work:.3g} scan weights exceed the budget of {bounds_mod.SCAN_CAP}")
    rows = ["p,L_star,w_star,epsilon"]
    for p in grid:
        report = bounds_mod.epsilon_bound(Prior(p))
        rows.append(f"{_fmt(p)},{_fmt(report.l_star)},{report.w_star},{_fmt(report.epsilon)}")
    _write_text("\n".join(rows) + "\n", args.output)
    return 0


def _cmd_disguise(args) -> int:
    d = _read_design(args.design)
    prior = Prior(args.p)
    report = disguise_mod.mean_log_bound(d, prior, exact_budget=args.exact_budget or None)
    if args.json:
        _print_report(report, True)
        return 0
    print(f"{'item':>6} {'L_i':>18} {'fkg_bound':>16} {'exact':>16}")
    for rec in report.items:
        exact = _fmt(rec.exact_prob) if rec.exact_prob is not None else "-"
        print(f"{rec.item:>6} {_fmt(rec.log_bound):>18} {_fmt(rec.fkg_bound):>16} {exact:>16}")
    print("L_bar,L_bar_by_test,scaled_min_term,min_weight_term,L_star,chain_applicable")
    chain = (report.mean_log_bound, report.mean_log_bound_by_test, report.scaled_min_term,
             report.min_weight_term, report.l_star, report.chain_applicable)
    print(",".join(map(_fmt, chain)))
    return 0


def _cmd_decode(args) -> int:
    d = _read_design(args.design)
    y = args.outcome
    if set(y) - {"0", "1"}:
        raise ValueError(f"outcome string must contain only 0/1, got {y!r}")
    prior = Prior(args.p) if args.p is not None else None
    if len(y) != d.T:
        raise ValueError(f"outcome vector has {len(y)} bits but the design has {d.T} tests")
    # character t is test t, so the string read backwards is the signature in binary
    estimate = decode_mask(d, int(y[::-1] or "0", 2), DecoderId(args.decoder), prior)
    print(",".join(map(str, design_mod._bit_positions(estimate))))
    return 0


def _cmd_exact_error(args) -> int:
    d = _read_design(args.design)
    value = sim_mod.exact_average_error(d, Prior(args.p), DecoderId(args.decoder))
    print(_fmt(value))
    return 0


def _cmd_simulate(args) -> int:
    d = _read_design(args.design)
    result = sim_mod.monte_carlo_error(
        d, Prior(args.p), DecoderId(args.decoder), args.trials, args.seed
    )
    _print_report(result, args.json, 10)
    return 0


def _cmd_verify(args) -> int:
    d = _read_design(args.design)
    report = sim_mod.verify_theorem(d, Prior(args.p), trials=args.trials, seed=args.seed)
    if args.json:
        _print_report(report, True)
    else:
        print(f"design          {report.design_summary}")
        print(f"p               {_fmt(report.p)}")
        print(f"epsilon_floor   {_fmt(report.epsilon_floor)}")
        print(f"observed_error  {_fmt(report.observed_error)} ({report.method})")
        if not report.applicable:
            print("floor           not applicable (T >= n)")
        else:
            print(f"floor_check     {'pass' if report.theorem_pass else 'FAIL'}")
        failed = [c for c in report.lemma_checks if not c.passed]
        print(
            f"disguise_checks {len(report.lemma_checks)} checked, "
            f"{len(failed)} failed, {len(report.lemma_skipped)} skipped"
        )
        for c in failed:
            print(f"  item {c.item}: exact {_fmt(c.exact)} < bound {_fmt(c.bound)}")
    violated = (report.applicable and report.theorem_pass is False) or any(
        not c.passed for c in report.lemma_checks
    )
    return 2 if violated else 0


def run(argv: list[str]) -> int:
    """Parse and dispatch; exit 0 on success, 1 on usage errors, 2 on verification failure.

    A reader that closes stdout early is no error: the rest of the output is
    dropped, and the run exits 0.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader wanted no more (``| head``), which is no error.  Point the
        # stdout descriptor at the null device, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
