"""Run one qmf CLI command in this process, with its calls into qmf traced.

Usage: python3 perfbench/trace_cli.py SPANS_JSON -- <qmf arguments>

Stdout, stderr and the exit code are those of ``qmf <arguments>``; the
tracer writes nothing to either stream. Calls into the public functions of
each qmf module are recorded as spans ``[name, parent_id, start, end]`` kept
in memory, and counts are taken at the same boundaries. Both are written to
SPANS_JSON when the command ends. ``perfbench/run.py`` turns the spans into
self times (a span's duration minus the part its child spans cover).

A function bound into other namespaces by ``from .x import f`` is replaced in
every qmf module that holds it, so ``congr.x14``, ``cli.build_form`` and
``tmat.enumerate_dual`` are traced as well. Functions a later version of qmf
no longer has are skipped, so the tracer never changes what a command does.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from functools import wraps

# Span names. A span's name is the layer metric prefix its self time feeds.
MUL = "fexp.mul"
LINEAR = "fexp.linear"
CONG_MOD = "fexp.cong_mod"
JSON = "fexp.json"
LIFT = "forms.maass_lift"
NAMED = "forms.named"
ENUM_PSD = "tmat.enumerate_psd"
ENUM_DUAL = "quatlat.enumerate_dual"
BERNOULLI = "exactnum.bernoulli"
EXPRESS = "series.express_in_e4_e6"
BUILD_CHI = "congr.build_chi"
VERIFIER = "congr.verifier"
CLI = "cli"
BOOK = "trace.book"  # the tracer's own counting, kept out of every layer

LINEAR_METHODS = ("__init__", "scale", "__add__", "__sub__", "theta", "theta_chi")
NAMED_FORMS = ("build_form", "eisenstein_h", "g_h", "monomial_h", "x10", "x12", "x14")
VERIFIERS = (
    "ramanujan_verdict",
    "verify_ep_minus_one",
    "verify_theta_cong",
    "verify_mod23",
    "verify_cong_eis",
)


def mul_pairs(support1, support2, N: int) -> int:
    """Inner-loop iterations of the block product kernel, computed from supports.

    The kernel groups each operand's support by diagonal (n, m) and visits
    every pair of entries from two blocks whose diagonals sum inside the
    depth-N box, so the count is the sum of |B1|*|B2| over those block pairs.
    """
    blocks1 = Counter((T.n, T.m) for T in support1)
    blocks2 = Counter((T.n, T.m) for T in support2)
    return sum(
        c1 * c2
        for (n1, m1), c1 in blocks1.items()
        for (n2, m2), c2 in blocks2.items()
        if n1 + n2 <= N and m1 + m2 <= N
    )


class Tracer:
    """In-memory spans with parent ids, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open_span(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, parent, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def close_span(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn recording a span per call; after(result, args) runs as BOOK."""

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(rec)
            if after is not None:
                book = self.open_span(BOOK)
                try:
                    after(result, args)
                finally:
                    self.close_span(book)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _qmf_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "qmf" or name.startswith("qmf.")
    ]


def _rebind(orig, new) -> None:
    """Replace orig by new in every qmf namespace, including dicts of tuples."""
    for mod in _qmf_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if isinstance(v, tuple) and any(x is orig for x in v):
                        val[k] = tuple(new if x is orig else x for x in v)


def _patch_function(tracer: Tracer, module, attr: str, name: str, after=None):
    orig = getattr(module, attr, None)
    if orig is None:
        return None
    _rebind(orig, tracer.wrap(name, orig, after))
    return orig


def install(tracer: Tracer, cli) -> dict:
    """Wrap qmf's public functions; returns the originals that hold caches."""
    from qmf import congr, exactnum, fexp, forms, quatlat, series, tmat

    counts = tracer.counts
    FE = fexp.FourierExpansion
    orig_enum = tmat.enumerate_psd

    def count_mul(result, args):
        other = args[1]
        if isinstance(other, FE) and isinstance(result, FE):
            counts["fexp.mul.pairs"] += mul_pairs(
                args[0].support(), other.support(), result.N
            )
            counts["fexp.mul.out_support"] += len(result.support())

    def count_checked(result, args):
        counts["fexp.cong_mod.checked"] += result.checked

    def count_lift(result, args):
        counts["forms.lift_indices"] += len(orig_enum(result.N))

    def count_verdicts(result, args):
        verdicts = result if isinstance(result, list) else [result]
        for v in verdicts:
            counts["congr.checked"] += v.checked
            counts["congr.witnesses"] += len(v.witnesses)

    for attr in LINEAR_METHODS:
        if attr in vars(FE):
            setattr(FE, attr, tracer.wrap(LINEAR, vars(FE)[attr]))
    if "__mul__" in vars(FE):
        mul = tracer.wrap(MUL, vars(FE)["__mul__"], count_mul)
        FE.__mul__ = FE.__rmul__ = mul
    if "to_json_entries" in vars(FE):
        FE.to_json_entries = tracer.wrap(JSON, vars(FE)["to_json_entries"])
    if "from_json_entries" in vars(FE):
        func = vars(FE)["from_json_entries"].__func__
        FE.from_json_entries = classmethod(tracer.wrap(JSON, func))

    _patch_function(tracer, fexp, "cong_mod", CONG_MOD, count_checked)
    _patch_function(tracer, forms, "maass_lift", LIFT, count_lift)
    named = {a: _patch_function(tracer, forms, a, NAMED) for a in NAMED_FORMS}
    _patch_function(tracer, tmat, "enumerate_psd", ENUM_PSD)
    _patch_function(tracer, quatlat, "enumerate_dual", ENUM_DUAL)
    _patch_function(tracer, exactnum, "bernoulli", BERNOULLI)
    _patch_function(tracer, series, "express_in_e4_e6", EXPRESS)
    _patch_function(tracer, congr, "build_chi", BUILD_CHI)
    for attr in VERIFIERS:
        _patch_function(tracer, congr, attr, VERIFIER, count_verdicts)
    for attr in ("_cmd_coeff", "_cmd_verify", "_cmd_table", "_load_form"):
        _patch_function(tracer, cli, attr, CLI)
    if hasattr(cli, "json"):
        cli.json = _CacheJson(tracer, cli.json)

    named["divisors"] = getattr(exactnum, "divisors", None)
    return {a: f for a, f in named.items() if hasattr(f, "cache_info")}


class _CacheJson:
    """Stand-in for the json module inside qmf.cli.

    The CLI reads its form cache with json.load and writes it with json.dump;
    each read is a cache hit, each write follows a miss. Bytes are the file
    sizes, taken from the open file handles.
    """

    def __init__(self, tracer: Tracer, json_module):
        self._tracer = tracer
        self._json = json_module

    def __getattr__(self, attr):
        return getattr(self._json, attr)

    def load(self, fh, *args, **kwargs):
        rec = self._tracer.open_span(CLI)
        try:
            data = self._json.load(fh, *args, **kwargs)
        finally:
            self._tracer.close_span(rec)
        self._count("hits", "bytes_read", fh)
        return data

    def dump(self, obj, fh, *args, **kwargs):
        rec = self._tracer.open_span(CLI)
        try:
            self._json.dump(obj, fh, *args, **kwargs)
            fh.flush()
        finally:
            self._tracer.close_span(rec)
        self._count("misses", "bytes_written", fh)

    def _count(self, event: str, bytes_key: str, fh) -> None:
        counts = self._tracer.counts
        counts[f"cli.cache.{event}"] += 1
        counts[f"cli.cache.{bytes_key}"] += os.fstat(fh.fileno()).st_size


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: trace_cli.py SPANS_JSON -- <qmf arguments>", file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import qmf.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    cached = install(tracer, cli)
    code = tracer.wrap(CLI, cli.main)(argv)
    sys.stdout.flush()
    for attr, fn in cached.items():
        info = fn.cache_info()
        layer = "exactnum.divisors" if attr == "divisors" else "forms.lru"
        tracer.counts[f"{layer}.hits"] += info.hits
        tracer.counts[f"{layer}.misses"] += info.misses
    tracer.dump(spans_path, {"import_s": import_s, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
