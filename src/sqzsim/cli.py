"""Command-line front-end.

Subcommands: validate, simulate, analyze, extrapolate, calibrate.
Exit codes: 0 success, 2 domain or validation error, 3 I/O error.
Numeric stdout is printed at full precision with a `.` decimal point.
"""

import argparse
import sys
from pathlib import Path

from .budget import (
    EfficiencyBudget,
    build_report,
    electronic_efficiency,
    extrapolate_squeezing,
    fresnel_efficiency,
    report_to_json,
)
from .homodyne import write_trace_csv
from .netlist import NetlistParseError, parse
from .simulate import run_spec

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_validate(args):
    parse(Path(args.netlist).read_bytes())
    print(f"{args.netlist}: OK")
    return EXIT_OK


def cmd_simulate(args):
    spec = parse(Path(args.netlist).read_bytes())
    if not args.noiseless and args.seed is None:
        raise ValueError("--seed is required unless --noiseless is given")
    trace, report = run_spec(spec, noiseless=args.noiseless, seed=args.seed)
    write_trace_csv(trace, args.csv)
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_json(report))
    print(f"wrote {args.csv} ({trace.phases.size} points)")
    print(f"wrote {args.report}")
    print(f"raw squeezing {report.raw_sq_db!r} dB, antisqueezing {report.raw_asq_db!r} dB")
    return EXIT_OK


def _factors_from_args(args):
    named = (args.eta_fresnel, args.eta_filter, args.eta_pd, args.eta_e)
    if args.eta is not None:
        if any(v is not None for v in named):
            raise ValueError("give either --eta or the per-factor budget flags, not both")
        return {"total": args.eta}
    if any(v is None for v in named):
        raise ValueError("budget flags need --eta-fresnel, --eta-filter, --eta-pd and --eta-e")
    budget = EfficiencyBudget(
        eta_fresnel=args.eta_fresnel, eta_filter=args.eta_filter,
        eta_pd=args.eta_pd, eta_e=args.eta_e,
        eta_coupler=args.eta_coupler, eta_visibility=args.eta_visibility,
        eta_prop=args.eta_prop)
    return budget.factors()


def cmd_analyze(args):
    report = build_report(args.sq_db, args.asq_db, args.unc_db, factors=_factors_from_args(args))
    sys.stdout.write(report_to_json(report))
    return EXIT_OK


def cmd_extrapolate(args):
    print(repr(extrapolate_squeezing(args.gain, args.pump_mw, args.eta_eff)))
    return EXIT_OK


def cmd_calibrate(args):
    if args.snr_db is None and args.n_chip is None:
        raise ValueError("give --snr-db and/or --n-chip")
    if args.snr_db is not None:
        print(f"eta_e {electronic_efficiency(args.snr_db)!r}")
    if args.n_chip is not None:
        print(f"eta_fresnel {fresnel_efficiency(args.n_air, args.n_chip)!r}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sqzsim",
        description="Simulate chip squeezing netlists and analyse measured squeezing budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a netlist file")
    p.add_argument("netlist")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate a netlist to a trace CSV and report JSON")
    p.add_argument("netlist")
    p.add_argument("--csv", default="trace.csv", help="trace output path")
    p.add_argument("--report", default="report.json", help="report output path")
    p.add_argument("--seed", type=int, default=None, help="noise seed for the synthesized trace")
    p.add_argument("--noiseless", action="store_true", help="skip estimator-noise synthesis")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="loss-correct measured squeezing values")
    p.add_argument("--sq-db", type=float, required=True, help="measured squeezing, dB")
    p.add_argument("--asq-db", type=float, required=True, help="measured antisqueezing, dB")
    p.add_argument("--unc-db", type=float, default=0.05, help="measurement uncertainty, dB")
    p.add_argument("--eta", type=float, default=None, help="total measurement efficiency")
    p.add_argument("--eta-fresnel", type=float, default=None)
    p.add_argument("--eta-filter", type=float, default=None)
    p.add_argument("--eta-pd", type=float, default=None)
    p.add_argument("--eta-e", type=float, default=None)
    p.add_argument("--eta-coupler", type=float, default=1.0)
    p.add_argument("--eta-visibility", type=float, default=1.0)
    p.add_argument("--eta-prop", type=float, default=1.0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extrapolate", help="squeezing versus pump power")
    p.add_argument("--gain", type=float, required=True, help="single-pass gain, 1/sqrt(mW)")
    p.add_argument("--pump-mw", type=float, required=True)
    p.add_argument("--eta-eff", type=float, default=1.0)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("calibrate", help="compute individual chain efficiencies")
    p.add_argument("--snr-db", type=float, default=None, help="electronic SNR in dB")
    p.add_argument("--n-chip", type=float, default=None, help="chip refractive index")
    p.add_argument("--n-air", type=float, default=1.0)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None):
    """Run one subcommand; each error kind is mapped to its message and exit code here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetlistParseError as exc:
        print(f"{args.netlist}:{exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except OverflowError as exc:   # the report's purity product beyond a double
        return _fail(f"numeric overflow in the report: {exc}", EXIT_DOMAIN)
    except ValueError as exc:
        return _fail(exc, EXIT_DOMAIN)


if __name__ == "__main__":
    sys.exit(main())
