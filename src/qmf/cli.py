"""Command-line interface.

Subcommands:
  coeff   print one exact Fourier coefficient (optionally reduced mod M)
  verify  run a congruence-theorem sweep and emit a JSON verdict
  table   dump all box coefficients of a form as CSV or JSON

Exit codes: 0 success (verify: all checks hold), 1 verification or
reduction failure, 2 usage or precondition error (a negative --depth or
--max among them, and a size too large to hold, an OverflowError or a
MemoryError). Rationals are always printed exactly (num/den strings),
never as floats, and the same invocation always writes the same bytes.
`--mod M` reduces with exactnum.residue, the library's one reduction: a
coefficient whose denominator shares a factor with M has no residue, a
reduction failure.
Warnings go to stderr, never into the output. A reader that closes stdout
early is not an error: the output stops silently and the exit code is the
command's own (a failing verify still exits 1). `table` writes its rows in
chunks of whole lines of at most box._CHUNK_CHARS characters, one write per
chunk whatever the buffering of stdout. Each subcommand imports the
mathematics it runs when it runs: `coeff` loads no box walk and no table
writer (qmf.box), `coeff` and `table` load no verifier and no json, and
`--help`, a bare `qmf` and every usage error load no mathematics at all
(no qmf module but this one, and no fractions).
No command loads argparse: argv is read by one loop over the _COMMANDS
table, flags are spelled in full, and help is fixed text.
"""

import os
import sys

DEFAULT_DEPTH = 3
_DEPTH_WARN = 5


def _check_depth(N: int, flag: str) -> None:
    """Reject a negative depth up front, naming its flag."""
    if N < 0:
        raise ValueError(f"{flag} must be >= 0, got {N}")


def _emit(path, write) -> None:
    """Call write(fh) on a new file at path, or on stdout when path is None.
    A reader that closes stdout early (`| head`) is not an error: stdout is
    pointed at devnull, so that its flush at exit neither fails nor prints."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_coeff(args) -> int:
    from .exactnum import residue
    from .forms import form_table
    from .tmat import parse_tmatrix

    T = parse_tmatrix(args["T"])
    # the form is resolved first, so an unknown one is an error at any T;
    # off the psd cone two_det can be large, and the table answers 0 there
    table = form_table(args["form"], T.two_det() if T.is_psd() else 0)
    if not T.is_psd():
        print(
            f"warning: {T} is not positive semidefinite; coefficient is 0",
            file=sys.stderr,
        )
    a = table.coeff(T)
    line = f"{a}\n"
    mod = args["mod"]
    if mod is not None:
        r = residue(a, mod)
        if r is None:
            print(
                f"error: coefficient {a} is not integral mod {mod}",
                file=sys.stderr,
            )
            return 1
        line = f"{a} ≡ {r} (mod {mod})\n"
    _emit(None, lambda fh: fh.write(line))
    return 0


# Each theorem of `qmf verify`: the name of the congr function that sweeps
# it and the flags it needs, in that function's positional order before N.
# The function is looked up by name when the command runs, so cli loads no
# congr at start-up and a patched verifier is the one run. Its result is a
# Verdict, or a list of them.
_THEOREMS = {
    "ramanujan": ("ramanujan_verdict", ("k", "p")),
    "theta": ("verify_theta_cong", ()),
    "mod23": ("verify_mod23", ()),
    "congeis": ("verify_cong_eis", ("k",)),
    "ep1": ("verify_ep_minus_one", ("p",)),
}


def _cmd_verify(args) -> int:
    N = args["depth"]
    _check_depth(N, "--depth")
    theorem = args["theorem"]
    name, flags = _THEOREMS[theorem]
    values = [args[f] for f in flags]
    if None in values:
        needs = " and ".join("--" + f for f in flags)
        print(f"error: verify {theorem} needs {needs}", file=sys.stderr)
        return 2
    import json

    from . import congr

    verdicts = getattr(congr, name)(*values, N)
    if not isinstance(verdicts, list):
        verdicts = [verdicts]
    payload = [v.to_json() for v in verdicts]
    text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    _emit(args["out"], lambda fh: fh.write(text + "\n"))
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_table(args) -> int:
    """Write the table of a form on the box (box.table_writer); a failing
    --mod writes nothing and names its first failing index."""
    from . import box
    from .forms import form_table

    N = args["max"]
    _check_depth(N, "--max")
    counts = box.class_counts(N)
    if N >= _DEPTH_WARN:
        print(
            f"warning: depth {N} enumerates {sum(counts.values())} index "
            "matrices per form; expect long runtimes and large output",
            file=sys.stderr,
        )
    table = form_table(args["form"], 2 * N * N)
    mod = args["mod"]
    witness, write = box.table_writer(table, N, counts, args["format"], mod)
    if witness is not None:
        print(f"error: coefficient at {witness} is not integral mod {mod}", file=sys.stderr)
        return 1
    _emit(args["out"], write)
    return 0


# The help of qmf and of each subcommand, fixed text: what argparse printed
# at 80 columns. A usage error prints the usage, the text before the first
# blank line.
_HELP = """\
usage: qmf [-h] {coeff,verify,table} ...

Exact Fourier coefficients and congruences of degree-2 quaternionic modular
forms over the Hurwitz order

positional arguments:
  {coeff,verify,table}
    coeff               print one Fourier coefficient
    verify              verify a congruence theorem
    table               dump box coefficients of a form

options:
  -h, --help            show this help message and exit
"""
_COEFF_HELP = """\
usage: qmf coeff [-h] --form FORM --T T [--mod M]

options:
  -h, --help   show this help message and exit
  --form FORM  X10, X12, X14, E<k>H or G<k>H
  --T T        index matrix as n,m,a,b,c,d
  --mod M      also reduce mod M
"""
_VERIFY_HELP = """\
usage: qmf verify [-h] [--k K] [--p P] [--depth DEPTH] [--out FILE]
                  {ramanujan,theta,mod23,congeis,ep1}

positional arguments:
  {ramanujan,theta,mod23,congeis,ep1}
                        which theorem sweep to run

options:
  -h, --help            show this help message and exit
  --k K                 weight parameter
  --p P                 prime modulus parameter
  --depth DEPTH         truncation depth (default 3)
  --out FILE            write the JSON verdict here
"""
_TABLE_HELP = """\
usage: qmf table [-h] --form FORM --max MAX [--mod M] [--format {csv,json}]
                 [--out FILE]

options:
  -h, --help           show this help message and exit
  --form FORM          X10, X12, X14, E<k>H or G<k>H
  --max MAX            box depth to enumerate
  --mod M              add a residue column
  --format {csv,json}  output format
  --out FILE           write here instead of stdout
"""

# Each subcommand: its function, its help, its arguments and those it
# requires. An argument maps to its type (int, str, or the tuple of its
# choices) and its default, and its value is read into the key of its name
# without "--"; verify's theorem, the one argument with no "--", is read
# from the first token that does not start with "-". The table holds the
# functions themselves, so one rebound here, as perfbench's tracer does, is
# the one run.
_COMMANDS = {
    "coeff": (
        _cmd_coeff,
        _COEFF_HELP,
        {"--form": (str, None), "--T": (str, None), "--mod": (int, None)},
        ("--form", "--T"),
    ),
    "verify": (
        _cmd_verify,
        _VERIFY_HELP,
        {
            "theorem": (tuple(_THEOREMS), None),
            "--k": (int, None),
            "--p": (int, None),
            "--depth": (int, DEFAULT_DEPTH),
            "--out": (str, None),
        },
        ("theorem",),
    ),
    "table": (
        _cmd_table,
        _TABLE_HELP,
        {
            "--form": (str, None),
            "--max": (int, None),
            "--mod": (int, None),
            "--format": (("csv", "json"), "csv"),
            "--out": (str, None),
        },
        ("--form", "--max"),
    ),
}


def _usage_error(prog: str, help_text: str, message: str):
    """Print the usage and the error as argparse did, and exit 2."""
    usage = help_text[: help_text.index("\n\n")]
    print(usage, f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help(help_text: str):
    """Print the help and exit 0."""
    _emit(None, lambda fh: fh.write(help_text))
    raise SystemExit(0)


def _value(prog: str, help_text: str, name: str, kind, value: str):
    """value read as the argument name of type kind: int, str or a tuple of
    the choices."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _usage_error(prog, help_text, f"argument {name}: invalid int value: {value!r}")
    if kind is not str and value not in kind:
        choices = ", ".join(map(repr, kind))
        _usage_error(
            prog, help_text, f"argument {name}: invalid choice: {value!r} (choose from {choices})"
        )
    return value


def _parse(argv):
    """The function and the argument values of the command argv names.

    Tokens are read left to right as argparse read them, with no prefix
    abbreviations: -h or --help prints its help and exits 0, and the first
    invalid value exits 2; a missing required argument is reported after
    the last token, and then tokens that name no argument. A flag reads its
    value from "--flag=value" or from the next token, whatever that starts
    with. Help and usage errors raise SystemExit."""
    extras, tokens = [], iter(argv)
    for command in tokens:
        if command in ("-h", "--help"):
            _help(_HELP)
        if command[:1] != "-":
            break
        extras.append(command)
    else:
        _usage_error("qmf", _HELP, "the following arguments are required: command")
    command = _value("qmf", _HELP, "command", tuple(_COMMANDS), command)
    func, help_text, spec, required = _COMMANDS[command]
    prog = f"qmf {command}"
    values = {name.lstrip("-"): default for name, (_, default) in spec.items()}
    unread = [name for name in spec if name[0] != "-"]
    for token in tokens:
        if token in ("-h", "--help"):
            _help(help_text)
        name, eq, value = token.partition("=")
        if token[:1] != "-" and unread:
            name, value = unread.pop(0), token
        elif token[:1] != "-" or name not in spec:
            extras.append(token)
            continue
        elif not eq and (value := next(tokens, None)) is None:
            _usage_error(prog, help_text, f"argument {name}: expected one argument")
        values[name.lstrip("-")] = _value(prog, help_text, name, spec[name][0], value)
    # every required argument has the default None, and a value read is never None
    missing = [name for name in required if values[name.lstrip("-")] is None]
    if missing:
        _usage_error(prog, help_text, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error("qmf", _HELP, "unrecognized arguments: " + " ".join(extras))
    return func, values


def main(argv=None) -> int:
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # a size past any list, such as a table row to two_det 10^20,
        # refused before anything is allocated; a MemoryError has no text
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
