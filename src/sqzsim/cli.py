"""Command-line front-end.

Subcommands: validate, simulate, analyze, extrapolate, calibrate.
Exit codes: 0 success, 2 usage, domain or validation error, 3 I/O error.
Every failure is one `error: ...` line on stderr (a netlist parse error
names its file instead).
Arguments are read from one table, `_COMMANDS`. Flag names match exactly,
`--flag value` and `--flag=value` are the same, and the token after a flag
is always its value, so `--sq-db -2e0` reads a negative number. A repeated
flag keeps its last value, and positionals may stand among the flags.
`-h` or `--help`, alone or after a command, prints usage from the table.
Numeric stdout is printed at full precision with a `.` decimal point.
Sibling modules are bound as modules and their functions read at call
time, so a command runs only the sqzsim modules it calls. Of the commands,
only `simulate --seed` loads numpy: `simulate --noiseless` walks the
measured mode's cone over Python floats (`simulate.run_noiseless`), unless
its sweep points x (cone statements + 1) is past `simulate.FLOAT_WALK_LIMIT`.
Both routes take their model trace and report from `simulate._model`.

`run` is the process entry of `python -m sqzsim.cli` and of the `sqzsim`
script; in-process callers use `main(argv)`, which returns the exit code.
`run` flushes stdout itself, so a failed write (a full disk, a closed pipe)
is one `error:` line and exit 3 whether stdout is buffered or not, not the
interpreter's two-line message and exit 120 at shutdown. A failure whose
stderr line cannot be written exits 3 too, with nothing more printed, not
a traceback and exit 1. It then freezes
the garbage collector, so that shutdown's collections skip every object
the process made (numpy's modules, and whatever `site` imported): 7-36 ms
of a CLI process on a 2-vCPU x86-64 host. It exits through `sys.exit`, not
`os._exit`, so that atexit handlers, coverage and `python -m cProfile -m
sqzsim.cli` still run.
"""

import gc
import io
import os
import stat
import sys
import types

from . import budget, homodyne, netlist, simulate
from ._record import MISSING

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3


def _fail(message, code):
    return _stderr(f"error: {message}", code)


def _stderr(line, code):
    """Print a failure's one stderr line and return its exit code: `code`, or EXIT_IO when
    stderr cannot take the line (a full disk, a pipe its reader closed)."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)
        return EXIT_IO
    return code


def _to_devnull(stream):
    """Point a stream whose write failed at the null device. Shutdown flushes the stream
    again, and a write that fails there is a second message and exit 120; this is the
    idiom of the `signal` docs' SIGPIPE note."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _spec(path):
    """The parsed netlist file; `open` names an empty path as itself ('' rather than '.')."""
    with open(path, "rb") as fh:
        return netlist.parse(fh.read())


def cmd_validate(args):
    _spec(args.netlist)
    print(f"{args.netlist}: OK")
    return EXIT_OK


def _write_all(texts):
    """Write each path's text, every file or none.

    Every path is opened, and created if missing, before any is truncated,
    so when one cannot be opened the others keep their bytes and the files
    this run created are removed. Each is then written in place, which
    keeps an existing file's mode, owner and links and suits a device or
    a pipe; only a regular file is truncated.
    """
    files = []   # (open file, the file's path if this run created it)
    try:
        for path in texts:
            real = os.path.realpath(path)
            created = not os.path.lexists(real)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            files.append((open(fd, "w", encoding="utf-8", newline="\n"), real if created else None))
    except OSError:
        for fh, created in files:
            fh.close()
            if created:
                os.remove(created)
        raise
    for (fh, _), text in zip(files, texts.values()):
        with fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.write(text)


def _same_file(a, b):
    """Whether two paths name one file: the same resolved path, or, when both exist, one
    file reached through hard links, which `realpath` does not see."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def cmd_simulate(args):
    spec = _spec(args.netlist)
    if not args.noiseless and args.seed is None:
        raise ValueError("--seed is required unless --noiseless is given")
    if args.noiseless and args.seed is not None:
        raise ValueError("give either --seed or --noiseless, not both")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if _same_file(args.csv, args.report):
        raise ValueError(f"--csv and --report name the same file {args.report!r}")
    for flag, path in (("--csv", args.csv), ("--report", args.report)):
        if _same_file(path, args.netlist):
            raise ValueError(f"{flag} names the netlist {args.netlist!r}")
    if args.noiseless:   # up to simulate.FLOAT_WALK_LIMIT, the walk over Python floats, without numpy
        phases, variance_db, report = simulate.run_noiseless(spec)
        csv = homodyne.trace_csv(phases, variance_db)
    else:
        trace, report = simulate.run_spec(spec, noiseless=False, seed=args.seed)
        phases, csv = trace.phases, homodyne.write_trace_csv(trace, io.StringIO())
    _write_all({args.csv: csv, args.report: budget.report_to_json(report)})
    print(f"wrote {args.csv} ({len(phases)} points)")
    print(f"wrote {args.report}")
    print(f"raw squeezing {report.raw_sq_db!r} dB, antisqueezing {report.raw_asq_db!r} dB")
    return EXIT_OK


def _factors_from_args(args):
    """The budget table of `analyze`: --eta alone, or an EfficiencyBudget of the flags given."""
    fields = budget.EfficiencyBudget._fields   # one --eta-* flag per field, unset flags are None
    flags = {name: getattr(args, name) for name, _ in fields if getattr(args, name) is not None}
    if args.eta is not None:
        if flags:
            raise ValueError("give either --eta or the per-factor budget flags, not both")
        return {"total": args.eta}
    if any(default is MISSING and name not in flags for name, default in fields):
        raise ValueError("budget flags need --eta-fresnel, --eta-filter, --eta-pd and --eta-e")
    return budget.EfficiencyBudget(**flags).factors()


def cmd_analyze(args):
    report = budget.build_report(args.sq_db, args.asq_db, args.unc_db, factors=_factors_from_args(args))
    sys.stdout.write(budget.report_to_json(report))
    return EXIT_OK


def cmd_extrapolate(args):
    print(repr(budget.extrapolate_squeezing(args.gain, args.pump_mw, args.eta_eff)))
    return EXIT_OK


def cmd_calibrate(args):
    if args.snr_db is None and args.n_chip is None:
        raise ValueError("give --snr-db and/or --n-chip")
    lines = []   # every value is computed before any is printed
    if args.snr_db is not None:
        lines.append(f"eta_e {budget.electronic_efficiency(args.snr_db)!r}")
    if args.n_chip is not None:
        lines.append(f"eta_fresnel {budget.fresnel_efficiency(args.n_air, args.n_chip)!r}")
    print("\n".join(lines))
    return EXIT_OK


# command -> (handler, help, positional names, flag rows). A flag row is (attribute,
# converter or None for a switch, default or MISSING when required, help).
_COMMANDS = {
    "validate": (cmd_validate, "check a netlist file", ("netlist",), ()),
    "simulate": (cmd_simulate, "simulate a netlist to a trace CSV and report JSON", ("netlist",), (
        ("csv", str, "trace.csv", "trace output path"),
        ("report", str, "report.json", "report output path"),
        ("seed", int, None, "noise seed for the synthesized trace"),
        ("noiseless", None, False, "skip estimator-noise synthesis"))),
    "analyze": (cmd_analyze, "loss-correct measured squeezing values", (), (
        ("sq_db", float, MISSING, "measured squeezing, dB"),
        ("asq_db", float, MISSING, "measured antisqueezing, dB"),
        ("unc_db", float, 0.05, "measurement uncertainty, dB"),
        ("eta", float, None, "total measurement efficiency"))),
    "extrapolate": (cmd_extrapolate, "squeezing versus pump power", (), (
        ("gain", float, MISSING, "single-pass gain, 1/sqrt(mW)"),
        ("pump_mw", float, MISSING, "pump power, mW"),
        ("eta_eff", float, 1.0, "total detection efficiency"))),
    "calibrate": (cmd_calibrate, "compute individual chain efficiencies", (), (
        ("snr_db", float, None, "electronic SNR in dB"),
        ("n_chip", float, None, "chip refractive index"),
        ("n_air", float, 1.0, "refractive index outside the chip"))),
}
_HELP = ("-h", "--help")


def _flags(command):
    """Flag -> row for a command. analyze's rows end with one per EfficiencyBudget field,
    read only here, so that no other command runs `budget` for them."""
    rows = _COMMANDS[command][3]
    if command == "analyze":   # unset, each is None; EfficiencyBudget holds the defaults
        rows += tuple((name, float, None, "required budget factor" if default is MISSING else
                       f"optional budget factor, {default!r} if not given")
                      for name, default in budget.EfficiencyBudget._fields)
    return {"--" + row[0].replace("_", "-"): row for row in rows}


def _help(command):
    """Print the usage built from the table: the commands, or one command's arguments."""
    if command is None:
        lines = ["usage: sqzsim COMMAND ...; sqzsim COMMAND -h lists its flags",
                 *(f"  {name:<12} {row[1]}" for name, row in _COMMANDS.items())]
    else:
        _, text, positionals, _ = _COMMANDS[command]
        lines = [" ".join(["usage: sqzsim", command, *map(str.upper, positionals), "[FLAGS]"]), text]
        for flag, (_, convert, default, note) in _flags(command).items():
            if convert:   # a value flag, shown with its type
                flag += " " + convert.__name__.upper()
            if default is MISSING:
                note += " (required)"
            elif convert and default is not None:
                note += f" (default {default})"
            lines.append(f"  {flag:<24} {note}")
    print("\n".join(lines))
    return EXIT_OK


def _read(argv):
    """(handler, argument) for a command line: the command's handler and a namespace with a
    value for each of its positionals and flags, or `_help` and the command it is asked for.
    A usage error is a ValueError, so `main` prints it as one line."""
    if not argv:
        raise ValueError(f"give a command: {', '.join(_COMMANDS)} (sqzsim -h for help)")
    command, *tokens = argv
    if command in _HELP:
        return _help, None
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}: choose one of {', '.join(_COMMANDS)}")
    handler, _, positionals, _ = _COMMANDS[command]
    rows = _flags(command)
    values = {name: default for name, _, default, _ in rows.values()}
    given = []
    tokens = iter(tokens)
    for token in tokens:
        if token in _HELP:
            return _help, command
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in rows:
            raise ValueError(f"{command} has no flag {flag} (sqzsim {command} -h lists them)")
        name, convert, _, _ = rows[flag]
        if convert is None:   # a switch
            if eq:
                raise ValueError(f"{flag} takes no value")
            values[name] = True
            continue
        if not eq:   # the next token is the value, whatever it looks like
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{flag} needs a value")
        try:
            values[name] = convert(value)
        except ValueError:
            raise ValueError(f"{flag} {value!r} is not a valid {convert.__name__}") from None
    if len(given) > len(positionals):
        raise ValueError(f"unexpected argument {given[len(positionals)]!r}")
    missing = [*map(str.upper, positionals[len(given):]),
               *(flag for flag, row in rows.items() if values[row[0]] is MISSING)]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    return handler, types.SimpleNamespace(**values, **dict(zip(positionals, given)))


def main(argv=None):
    """Run one command line; each error kind is mapped to its one stderr line and exit code here."""
    try:
        handler, args = _read(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except MemoryError as exc:   # e.g. the dense state of more modes than memory holds
        return _fail("not enough memory" + (f": {exc}" if str(exc) else ""), EXIT_DOMAIN)
    except OverflowError as exc:   # the report's purity product beyond a double
        return _fail(f"numeric overflow in the report: {exc}", EXIT_DOMAIN)
    except ValueError as exc:   # usage errors included
        return _fail(exc, EXIT_DOMAIN)
    except netlist.NetlistParseError as exc:   # last: naming it loads netlist, which analyze never needs
        return _stderr(f"{args.netlist}:{exc}", EXIT_DOMAIN)


def run():
    """Run the process's command line and exit with its code (see the module docstring)."""
    code = main()
    try:
        if sys.stdout is not None:   # None when fd 1 was closed at start; print then writes nothing
            sys.stdout.flush()
    except OSError as exc:
        code = _fail(exc, EXIT_IO)
        _to_devnull(sys.stdout)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
