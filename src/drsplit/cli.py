"""Command-line entry point.

Exit codes:
  0  success
  1  a declared check or residual fails
  2  configuration error (unknown scenario, bad values, unwritable paths)
  3  operator-contract violation (a resolvent returned an image of the
     wrong shape)
  4  numerical breakdown (the iteration produced non-finite coordinates, or
     the fixed-point search of a scenario's reference data stagnated)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NonFiniteIterateError, OperatorContractError, PossiblyInconsistentError
from .runner import REL_TOL, SLACK_TOL, check_identities, make_config, parse_config_file, run
from .scenarios import list_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsplit",
        description=(
            "Run splitting-iteration scenarios with full diagnostic traces, or "
            "sweep the operator-identity checks over the registered pair library."
        ),
    )
    parser.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    parser.add_argument("--scenario", help="scenario name (see --list)")
    parser.add_argument("--dim", type=int, help="ambient dimension (scenario permitting)")
    parser.add_argument("--x0", help="comma-separated start coordinates")
    parser.add_argument("--iters", type=int, help="maximum number of iterations")
    parser.add_argument("--tol", type=float, help="step-norm stopping tolerance")
    parser.add_argument("--seed", type=int, help="seed for randomized scenarios and sweeps")
    parser.add_argument("--out-trace", help="write the per-iteration trace CSV here")
    parser.add_argument("--out-summary", help="write the run summary JSON here")
    parser.add_argument("--config", help="flat key=value config file (flags override it)")
    parser.add_argument(
        "--check-identities",
        action="store_true",
        help="run the identity sweep over every registered operator pair",
    )
    parser.add_argument("--samples", type=int, help="samples per pair for --check-identities")
    return parser


def _print_scenarios() -> None:
    rows = list_scenarios()
    width = max(len(name) for name, _, _ in rows)
    for name, description, anchor in rows:
        print(f"{name.ljust(width)}  {description}")
        print(f"{' ' * width}  [{anchor}]")


def _print_sweep(sweep) -> None:
    print(f"identity sweep: seed={sweep.seed} samples={sweep.samples}")
    for name, rec in sorted(sweep.worst.items()):
        status = "ok" if rec.value <= REL_TOL else "FAIL"
        print(f"  {status:4s} {name:28s} worst {rec.value:.3e}  ({rec.pair}, sample {rec.sample})")
    for name, rec in sorted(sweep.slack_worst.items()):
        status = "ok" if rec.value >= -SLACK_TOL else "FAIL"
        print(f"  {status:4s} {name:28s} min slack {rec.value:.3e}  ({rec.pair}, sample {rec.sample})")
    print("PASS" if sweep.passed else "FAIL")


def _run_sweep(args) -> int:
    given = {key: getattr(args, key) for key in ("seed", "samples") if getattr(args, key) is not None}
    sweep = check_identities(**given)
    _print_sweep(sweep)
    return 0 if sweep.passed else 1


def _run_scenario(args) -> int:
    file_values = parse_config_file(args.config) if args.config else None
    config = make_config(
        file_values,
        scenario=args.scenario,
        dim=args.dim,
        x0=args.x0,
        iters=args.iters,
        tol=args.tol,
        seed=args.seed,
        out_trace=args.out_trace,
        out_summary=args.out_summary,
    )
    summary, _ = run(config)
    print(f"scenario {summary.scenario}: {summary.iterations} iterations")
    print(f"  final step norm  {summary.final_step_norm:.6e}")
    print(f"  v estimate       {np.array2string(summary.v_estimate, precision=9)}")
    print(f"  shadow limit     {np.array2string(summary.shadow_limit, precision=9)}")
    for name, c in summary.checks.items():
        print(f"  {'ok' if c.verdict else 'FAIL':4s} {name:32s} worst {c.worst_value:.3e}")
    return 0 if summary.all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        _print_scenarios()
        return 0

    if not (args.check_identities or args.scenario or args.config):
        parser.print_usage(sys.stderr)
        print("error: provide --scenario, --check-identities, or --list", file=sys.stderr)
        return 2

    try:
        return _run_sweep(args) if args.check_identities else _run_scenario(args)
    except OperatorContractError as exc:
        print(f"operator contract violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError and DimensionMismatchError are ValueErrors too
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteIterateError, PossiblyInconsistentError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
