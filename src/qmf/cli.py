"""Command-line interface.

Subcommands:
  coeff   print one exact Fourier coefficient (optionally reduced mod M)
  verify  run a congruence-theorem sweep and emit a JSON verdict
  table   dump all box coefficients of a form as CSV or JSON

Exit codes: 0 success (verify: all checks hold), 1 verification or
reduction failure, 2 usage or precondition error (a negative --depth or
--max among them). Rationals are always printed exactly (num/den strings),
never as floats, and the same invocation always writes the same bytes.
Warnings go to stderr, never into the output. A reader that closes stdout
early is not an error: the output stops silently and the exit code is the
command's own (a failing verify still exits 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import congr
from .forms import form_table
from .tmat import class_counts, iter_keyed, keyed_walk, parse_tmatrix

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


def _residue(a: Fraction, modulus: int):
    """a mod modulus in 0..modulus-1, or None when a is not integral mod it."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        inv = pow(a.denominator, -1, modulus)
    except ValueError:
        return None
    return a.numerator * inv % modulus


def _cmd_coeff(args) -> int:
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
        r = _residue(a, args.mod)
        if r is None:
            print(
                f"error: coefficient {a} is not integral mod {args.mod}",
                file=sys.stderr,
            )
            return 1
        line = f"{a} ≡ {r} (mod {args.mod})\n"
    _emit(None, lambda fh: fh.write(line))
    return 0


# Each theorem of `qmf verify`: the flags it needs and its sweep. Runners
# read congr's functions when called, so a patched verifier is the one run.
_THEOREMS = {
    "ramanujan": (("k", "p"), lambda a, N: [congr.ramanujan_verdict(a.k, a.p, N)]),
    "theta": ((), lambda a, N: congr.verify_theta_cong(N)),
    "mod23": ((), lambda a, N: [congr.verify_mod23(N)]),
    "congeis": (("k",), lambda a, N: [congr.verify_cong_eis(a.k, N)]),
    "ep1": (("p",), lambda a, N: [congr.verify_ep_minus_one(a.p, N)]),
}


def _cmd_verify(args) -> int:
    N = args.depth
    _check_depth(N, "--depth")
    flags, run = _THEOREMS[args.theorem]
    if any(getattr(args, f) is None for f in flags):
        needs = " and ".join("--" + f for f in flags)
        print(f"error: verify {args.theorem} needs {needs}", file=sys.stderr)
        return 2
    verdicts = run(args, N)
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
    box order whose class fails. Then write the box a block at a time: each
    (n, m) block of keyed_walk maps the histogram id of a ball vector to its
    row tail once, and each row is its block's prefix, the text of a vector
    in the block's slice of the ball and that tail, joined as it is written.
    No TMatrix is built, and neither the box nor a block of output is kept."""
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
        residue = ""
        if mod is not None:
            r = _residue(c, mod)
            if r is None:
                bad.add(key)
                continue
            residue = residue_fmt.format(r)
        rest[key] = rest_fmt.format(c.numerator, c.denominator, residue)
    if bad:
        n, m, t, _ = next(row for row in iter_keyed(N) if row[3] in bad)
        print(f"error: coefficient at {n},{m},{t} is not integral mod {mod}", file=sys.stderr)
        return 1

    def write(fh):
        texts, ids, blocks = keyed_walk(N)
        fh.write(head)
        for n, m, part, keys in blocks:
            # only T = 0, the one row of block (0, 0), has no separator
            prefix = (sep if n or m else "") + start.format(n, m)
            tails = [key and rest[key] for key in keys]
            fh.writelines(
                prefix + t + tails[h]
                for t, h in zip(texts[part], ids[part])
                if tails[h]
            )
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
