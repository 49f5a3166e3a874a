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
chunks of whole lines of at most _CHUNK_CHARS characters, one write per
chunk whatever the buffering of stdout. Each subcommand imports the
mathematics it runs when it runs: `coeff` and `table` load no verifier and
no json, and `--help`, a bare `qmf` and every usage error load no
mathematics at all (no qmf module but this one, and no fractions).
"""

import argparse
import os
import sys
from bisect import bisect_right
from itertools import accumulate

DEFAULT_DEPTH = 3
_DEPTH_WARN = 5
# Characters per write of `table`: a write is a system call when stdout is
# unbuffered (python -u, PYTHONUNBUFFERED), so rows are joined into chunks,
# which also bounds the output held at once. A chunk and its UTF-8 copy stay
# below glibc's 128 KiB mmap and trim thresholds, so their memory is reused
# from the heap rather than mapped or trimmed and faulted in anew per write.
_CHUNK_CHARS = 2**16


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

    T = parse_tmatrix(args.T)
    # the form is resolved first, so an unknown one is an error at any T;
    # off the psd cone two_det can be large, and the table answers 0 there
    table = form_table(args.form, T.two_det() if T.is_psd() else 0)
    if not T.is_psd():
        print(
            f"warning: {T} is not positive semidefinite; coefficient is 0",
            file=sys.stderr,
        )
    a = table.coeff(T)
    line = f"{a}\n"
    if args.mod is not None:
        r = residue(a, args.mod)
        if r is None:
            print(
                f"error: coefficient {a} is not integral mod {args.mod}",
                file=sys.stderr,
            )
            return 1
        line = f"{a} ≡ {r} (mod {args.mod})\n"
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
    N = args.depth
    _check_depth(N, "--depth")
    name, flags = _THEOREMS[args.theorem]
    values = [getattr(args, f) for f in flags]
    if None in values:
        needs = " and ".join("--" + f for f in flags)
        print(f"error: verify {args.theorem} needs {needs}", file=sys.stderr)
        return 2
    import json

    from . import congr

    verdicts = getattr(congr, name)(*values, N)
    if not isinstance(verdicts, list):
        verdicts = [verdicts]
    payload = [v.to_json() for v in verdicts]
    text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    _emit(args.out, lambda fh: fh.write(text + "\n"))
    return 0 if all(v.ok for v in verdicts) else 1


# One row of a table, split around the text "a,b,c,d" of t: the part up to
# it formats (n, m), the part after it (num, den, residue). In the JSON rows,
# entries of json.dumps(entries, indent=2), every field is a run of digits,
# commas and minus signs, so quoting it is its JSON encoding.
_CSV_ROW = ('"{},{},', '",{},{}{}\n', ",{}")
_JSON_ROW = (
    '  {{\n    "T": "{},{},',
    '",\n    "coeff": {{\n      "num": "{}",\n      "den": "{}"\n    }}{}\n  }}',
    ',\n    "residue": "{}"',
)


def _cmd_table(args) -> int:
    """Render the part of a row after t once per class and check --mod on
    every class before anything is written, so a failing --mod prints
    nothing and creates no --out file; its error names the first index in
    box order whose class fails. Then write the box a block at a time. Each
    (n, m) block of keyed_walk maps a histogram id to its row tail once and
    renders the run of each of its shapes once, as the texts "d" + tail of
    its rows. A line of the block is then P.join of its shape's rows, each
    preceded by P = the block's prefix + the line's text "a,b,c,". The
    lines are formed by C-level maps and written in chunks of whole lines
    of at most _CHUNK_CHARS characters: at most _CHUNK_CHARS // width rows,
    width the widest row the table can have, found by bisect on the running
    row count. That is one write per chunk whether or not stdout is
    buffered, with no Python frame per line or row. No TMatrix is built,
    and neither the box nor more than a chunk of output is kept."""
    from .exactnum import residue
    from .forms import form_table
    from .tmat import class_counts, iter_keyed, keyed_walk

    N = args.max
    _check_depth(N, "--max")
    counts = class_counts(N)
    if N >= _DEPTH_WARN:
        print(
            f"warning: depth {N} enumerates {sum(counts.values())} index "
            "matrices per form; expect long runtimes and large output",
            file=sys.stderr,
        )
    table = form_table(args.form, 2 * N * N)
    mod = args.mod
    if args.format == "csv":
        head = "T,num,den,residue\n" if mod is not None else "T,num,den\n"
        sep, tail = "", ""
        start, rest_fmt, residue_fmt = _CSV_ROW
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
        start, rest_fmt, residue_fmt = _JSON_ROW
    rest, bad = {}, set()
    for key in counts:
        c = table.class_coeff(key)
        column = ""
        if mod is not None:
            r = residue(c, mod)
            if r is None:
                bad.add(key)
                continue
            column = residue_fmt.format(r)
        rest[key] = rest_fmt.format(c.numerator, c.denominator, column)
    if bad:
        text = next(text for text, key in iter_keyed(N) if key in bad)
        print(f"error: coefficient at {text} is not integral mod {mod}", file=sys.stderr)
        return 1
    # the widest row the table can have: the widest prefix, the texts of a,
    # b, c and d (|x| <= 2N, each with a comma at most) and the widest tail
    width = len(sep + start.format(N, N)) + 4 * (len(str(-2 * N)) + 1)
    width += max(map(len, rest.values()))
    chunk_rows = _CHUNK_CHARS // width

    def write(fh):
        fh.write(head)
        for n, m, lines, shapes, runs, keys in keyed_walk(N):
            # only T = 0, the one row of block (0, 0), has no separator
            prefix = (sep if n or m else "") + start.format(n, m)
            tails = [key and rest[key] for key in keys]
            # P.join(rows[h]) is the rows of a line of shape h, each after
            # P = prefix + the line's text
            rows, sizes = {}, {}
            for h, (ds, ids) in runs.items():
                rows[h] = ["", *map("{}{}".format, ds, map(tails.__getitem__, ids))]
                sizes[h] = len(ds)
            # ends[i] rows precede line i; a chunk is the most whole lines
            # that hold at most chunk_rows rows, and at least one line
            ends = list(accumulate(map(sizes.__getitem__, shapes), initial=0))
            lo = 0
            while lo < len(lines):
                hi = max(bisect_right(ends, ends[lo] + chunk_rows) - 1, lo + 1)
                segments = map(
                    str.join, map(prefix.__add__, lines[lo:hi]), map(rows.__getitem__, shapes[lo:hi])
                )
                fh.write("".join(segments))
                lo = hi
        fh.write(tail)

    _emit(args.out, write)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmf",
        description=(
            "Exact Fourier coefficients and congruences of degree-2 "
            "quaternionic modular forms over the Hurwitz order"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print one Fourier coefficient")
    p_coeff.add_argument("--form", required=True, help="X10, X12, X14, E<k>H or G<k>H")
    p_coeff.add_argument(
        "--T", required=True, help="index matrix as n,m,a,b,c,d"
    )
    p_coeff.add_argument("--mod", type=int, metavar="M", help="also reduce mod M")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_verify = sub.add_parser("verify", help="verify a congruence theorem")
    p_verify.add_argument(
        "theorem",
        choices=list(_THEOREMS),
        help="which theorem sweep to run",
    )
    p_verify.add_argument("--k", type=int, help="weight parameter")
    p_verify.add_argument("--p", type=int, help="prime modulus parameter")
    p_verify.add_argument(
        "--depth", type=int, default=DEFAULT_DEPTH,
        help="truncation depth (default %(default)s)",
    )
    p_verify.add_argument("--out", metavar="FILE", help="write the JSON verdict here")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="dump box coefficients of a form")
    p_table.add_argument("--form", required=True, help="X10, X12, X14, E<k>H or G<k>H")
    p_table.add_argument(
        "--max", type=int, required=True, help="box depth to enumerate"
    )
    p_table.add_argument("--mod", type=int, metavar="M", help="add a residue column")
    p_table.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    p_table.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_table.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    # "--T v" is read as "--T=v": argparse takes an index such as
    # -1,-1,0,0,0,0, which starts with "-", for an option
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] == "--T":
            joined[-1] = f"--T={arg}"
        else:
            joined.append(arg)
    try:
        args = _parser().parse_args(joined)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
