"""Benchmark of the qmf command-line interface.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs as its own process, one at a time (a closed loop with one
client: the next command starts when the previous one has exited). A pass is
one run of a workload's command list; passes repeat until --seconds is used.

Workloads (why each was chosen is in BENCHMARK.json):

  verify-sweep   verify ramanujan --k 14 --p 691 --depth 4
  lift-table     table --form G10H --max 5 (CSV) and
                 table --form G12H --max 5 --format json --mod 691
  point-queries  40 coeff commands drawn from --seed: five per form over
                 X10/X12/X14/E4H/E6H/G10H/G12H/G16H, T uniform over the
                 depth-3 box, --mod on 12 of them. QMF_CACHE is a fresh
                 directory per pass, so the first query of each form builds
                 and writes the cache and the rest read it.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s (a pass's summed command times, median over passes), query_p50_s and
query_p75_s (percentiles over the workload's commands of each command's
median latency; on point-queries these are the coeff queries), peak_rss_mb (largest child peak
RSS, from wait4) and setup_s (median spawn-to-exit time of ``qmf --help``,
which does no mathematical work). Every timing is calibrated to a fixed
machine speed (see Calibrator); the raw times are in the details line.
With --trace 1, each command runs untraced and then traced
(perfbench/trace_cli.py) and the last line reports the per-layer metrics.
The line before the last holds provenance, per-pass figures, raw samples,
sample counts and computed sizes.

Outputs are checked off the clock against perfbench/reference.json and, for
point queries, against closed forms and the box-product oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_CLI = HERE / "trace_cli.py"

# Runs `qmf` exactly as the installed console script does (qmf.cli:main).
LAUNCH = "import sys; from qmf.cli import main; sys.exit(main())"

QUERY_FORMS = ("X10", "X12", "X14", "E4H", "E6H", "G10H", "G12H", "G16H")
QUERY_DEPTH = 3
QUERIES_PER_FORM = 5
QUERIES_WITH_MOD = 12
# No coefficient of a query form at depth 3 has one of these in its denominator.
QUERY_MODULI = (23, 691, 3617, 10007)

SETUP_PROBES_PER_SLOT = 3  # before the first pass and after each pass
RUN_DEADLINE_S = 160.0  # every run, checks included, must end within 180 s


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    depth: int
    kind: str  # "verify" | "table" | "coeff" | "help"
    form: str = ""
    T: str = ""
    mod: int | None = None


@dataclass
class Result:
    cmd: Command
    code: int
    seconds: float
    norm_seconds: float  # seconds scaled to the calibration speed, see Calibrator
    calib: tuple
    maxrss_kb: int
    stdout_bytes: int
    sha256: str
    text: str  # stdout when short, else ""
    stderr: str
    rows: int
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- inputs


def box_indices(N: int) -> list[tuple[int, ...]]:
    """Index matrices (n, m, a, b, c, d) with n, m <= N, psd, in (n, m, t) order.

    (a, b, c, d) are the coordinates of 2t: integers with even sum. For
    n*m > 0 psd means a^2+b^2+c^2+d^2 <= 4nm; for n*m = 0 it forces t = 0.
    """
    out = []
    for n in range(N + 1):
        for m in range(N + 1):
            if n == 0 or m == 0:
                out.append((n, m, 0, 0, 0, 0))
                continue
            R = 4 * n * m
            ra = isqrt(R)
            for a in range(-ra, ra + 1):
                rb = isqrt(R - a * a)
                for b in range(-rb, rb + 1):
                    rc = isqrt(R - a * a - b * b)
                    for c in range(-rc, rc + 1):
                        rd = isqrt(R - a * a - b * b - c * c)
                        for d in range(-rd, rd + 1):
                            if (a + b + c + d) % 2 == 0:
                                out.append((n, m, a, b, c, d))
    return out


def generate_queries(seed: int) -> list[Command]:
    """The point-queries command list for a seed; the same seed, the same list."""
    rng = random.Random(seed)
    box = box_indices(QUERY_DEPTH)
    picks = [(form, rng.choice(box)) for form in QUERY_FORMS for _ in range(QUERIES_PER_FORM)]
    rng.shuffle(picks)
    with_mod = set(rng.sample(range(len(picks)), QUERIES_WITH_MOD))
    out = []
    for i, (form, idx) in enumerate(picks):
        T = ",".join(map(str, idx))
        mod = rng.choice(QUERY_MODULI) if i in with_mod else None
        argv = ("coeff", "--form", form, "--T", T)
        if mod is not None:
            argv += ("--mod", str(mod))
        out.append(Command(argv, QUERY_DEPTH, "coeff", form, T, mod))
    return out


def workload_commands(name: str, seed: int) -> list[Command]:
    if name == "verify-sweep":
        return [Command(("verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "4"), 4, "verify")]
    if name == "lift-table":
        return [
            Command(("table", "--form", "G10H", "--max", "5"), 5, "table"),
            Command(("table", "--form", "G12H", "--max", "5", "--format", "json", "--mod", "691"), 5, "table"),
        ]
    if name == "point-queries":
        return generate_queries(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-sweep", "lift-table", "point-queries")
HELP = Command(("--help",), 0, "help")

# ---------------------------------------------------------------- processes


CALIB_REF_S = 0.010


def _calib_operand(rng: random.Random) -> list:
    return [
        (tuple(rng.randrange(-3, 4) for _ in range(4)), rng.randrange(1, 10**12))
        for _ in range(150)
    ]


_CALIB_RNG = random.Random(0)
_CALIB_A, _CALIB_B = _calib_operand(_CALIB_RNG), _calib_operand(_CALIB_RNG)


def _calib_work() -> int:
    """A sparse product on fixed synthetic data: tuple keys, dict updates, big ints."""
    acc: dict = {}
    for (a1, b1, c1, d1), v1 in _CALIB_A:
        for (a2, b2, c2, d2), v2 in _CALIB_B:
            key = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
            prev = acc.get(key)
            acc[key] = v1 * v2 if prev is None else prev + v1 * v2
    return len(acc)


class Calibrator:
    """How fast this machine runs Python right now.

    A fixed loop shaped like qmf's product kernel is timed in this
    process between commands, never while a command runs, repeatedly for a
    tenth of the previous command's time (at least three times). A command's
    latency scaled by CALIB_REF_S over the mean loop time just before and
    just after it is its latency at the speed where the loop takes
    CALIB_REF_S. This cancels most of the changes of host speed a shared
    machine shows over seconds and minutes, which move every command alike.
    """

    def __init__(self):
        self.last = self.measure(0.0)

    def measure(self, budget_s: float) -> float:
        times = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            _calib_work()
            times.append(time.perf_counter() - t0)
        self.last = statistics.fmean(times)
        return self.last


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def spawn(
    cmd: Command, work: Path, env: dict, deadline: float, calib: Calibrator, spans: Path | None = None
) -> Result:
    """Run one CLI command to completion; time it and take its rusage."""
    out_path, err_path = work / "stdout", work / "stderr"
    if spans is None:
        argv = [sys.executable, "-c", LAUNCH, *cmd.argv]
    else:
        argv = [sys.executable, str(TRACE_CLI), str(spans), "--", *cmd.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    before = calib.last
    after = calib.measure(seconds / 10)
    norm_seconds = seconds * CALIB_REF_S * 2 / (before + after)
    data = out_path.read_bytes()
    rows = 0
    if cmd.kind == "table":  # JSON tables are lists of {"T": ...} objects
        rows = data.count(b'"T": ') if data.startswith(b"[") else data.count(b"\n") - 1
    res = Result(
        cmd=cmd,
        code=proc.returncode,
        seconds=seconds,
        norm_seconds=norm_seconds,
        calib=(before, after),
        maxrss_kb=usage.ru_maxrss,
        stdout_bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
        text=data.decode("utf-8", "replace") if len(data) < 65536 else "",
        stderr=err_path.read_text("utf-8", "replace")[:4096],
        rows=rows,
    )
    if spans is not None:
        if spans.exists():
            res.trace = json.loads(spans.read_text("utf-8"))
            spans.unlink()
        else:
            res.problems.append("traced command wrote no spans")
    return res


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QMF_CACHE", None)
    return env


def run_pass(
    cmds: list[Command], work: Path, deadline: float, calib: Calibrator, traced: bool
) -> tuple[list[Result], list[Result]]:
    """One pass over a workload's commands.

    Returns (untraced results, traced results). When traced, each command
    runs untraced and then traced, back to back, so that the two timings
    of a command share the machine's state; each stream has its own
    QMF_CACHE directory, so both see the same cache hits and misses.
    """
    streams = (("plain", False), ("traced", True)) if traced else (("plain", False),)
    envs = {}
    for name, _ in streams:
        env = envs[name] = child_env()
        if any(c.kind == "coeff" for c in cmds):
            cache = work / f"cache-{name}"
            shutil.rmtree(cache, ignore_errors=True)
            env["QMF_CACHE"] = str(cache)
    out: dict[str, list[Result]] = {name: [] for name, _ in streams}
    for i, cmd in enumerate(cmds):
        for name, with_spans in streams:
            spans = work / f"spans{i}.json" if with_spans else None
            out[name].append(spawn(cmd, work, envs[name], deadline, calib, spans))
    for name, _ in streams:
        shutil.rmtree(work / f"cache-{name}", ignore_errors=True)
    return out["plain"], out.get("traced", [])


def pass_wall(results: list[Result], raw: bool = False) -> float:
    return sum(r.seconds if raw else r.norm_seconds for r in results)


# ---------------------------------------------------------------- checks


def _sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _two_det(idx) -> int:
    n, m, a, b, c, d = idx
    return 2 * n * m - (a * a + b * b + c * c + d * d) // 2


def _content(idx) -> int:
    n, m, a, b, c, d = idx
    g = gcd(n, m, a, b, c, d)
    return max(e for e in range(1, g + 1) if g % e == 0 and (a + b + c + d) // e % 2 == 0)


class Oracle:
    """Expected coefficients for point queries, computed in this process."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from qmf.forms import build_form, x14_closed
        from qmf.tmat import parse_tmatrix

        self._build, self._x14_closed, self._parse = build_form, x14_closed, parse_tmatrix
        self._forms = {}

    def coeff(self, form: str, T: str) -> Fraction:
        idx = tuple(int(x) for x in T.split(","))
        td = _two_det(idx)
        if form == "X14" and td > 0:
            return Fraction(self._x14_closed(self._parse(T)))
        g = re.fullmatch(r"G(\d+)H", form)
        if g and td > 0 and _content(idx) == 1:
            k = int(g.group(1))
            quarter = _sigma(k - 3, td // 4) if td % 4 == 0 else 0
            return Fraction(_sigma(k - 3, td) - 2 ** (k - 2) * quarter)
        if form not in self._forms:
            self._forms[form] = self._build(form, QUERY_DEPTH)
        return self._forms[form].coeff(self._parse(T))


def check(res: Result, reference: dict, oracle: Oracle | None) -> None:
    """Append to res.problems every way the command's output is wrong."""
    cmd, problems = res.cmd, res.problems
    if res.code != 0:
        problems.append(f"exit code {res.code}: {res.stderr.strip()[:200]}")
        return
    if cmd.kind == "help":
        if not res.text.startswith("usage: qmf"):
            problems.append("--help printed no usage line")
    elif cmd.kind == "verify":
        ref = reference["verify"][" ".join(cmd.argv)]
        try:
            verdict = json.loads(res.text)
        except json.JSONDecodeError:
            problems.append("verdict is not JSON")
            return
        if verdict.get("status") != "holds" or verdict.get("checked") != ref["checked"]:
            problems.append(f"verdict {verdict.get('status')}/{verdict.get('checked')}, expected holds/{ref['checked']}")
    elif cmd.kind == "table":
        ref = reference["table"][" ".join(cmd.argv)]
        if res.sha256 != ref["sha256"] or res.rows != ref["rows"]:
            problems.append(f"table sha256/rows {res.sha256[:12]}/{res.rows} differ from reference")
    elif cmd.kind == "coeff":
        want = oracle.coeff(cmd.form, cmd.T)
        line = res.text.strip()
        expected = str(want)
        if cmd.mod is not None:
            r = want.numerator * pow(want.denominator, -1, cmd.mod) % cmd.mod
            expected = f"{want} ≡ {r} (mod {cmd.mod})"
        if line != expected:
            problems.append(f"coeff {cmd.form} {cmd.T}: got {line!r}, expected {expected!r}")


# ---------------------------------------------------------------- metrics


def command_percentiles(passes: list[list[Result]], raw: bool = False) -> tuple[float, float]:
    """(p50, p75) over a workload's commands of each command's median latency.

    A command's latency is its median over the passes; the percentiles
    interpolate inside those per-command figures.
    """
    per_cmd = [
        statistics.median(r.seconds if raw else r.norm_seconds for r in runs)
        for runs in zip(*passes)
    ]
    if len(per_cmd) < 2:
        return per_cmd[0], per_cmd[0]
    q = statistics.quantiles(per_cmd, n=4, method="inclusive")
    return q[1], q[2]


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, total self seconds]. Self = duration - children."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return out


_WARN_RE = re.compile(r"roughly (\d+) index matrices")


def layer_metrics(results: list[Result]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    imports = []
    for res in results:
        if res.trace is None:
            continue
        speed = res.norm_seconds / res.seconds  # calibrate spans like latencies
        for name, (calls, secs) in self_times(res.trace["spans"]).items():
            acc = selfs.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs * speed
        for name, n in res.trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        imports.append(res.trace["import_s"] * speed)

    def calls(name):
        return selfs.get(name, [0, 0.0])[0]

    def self_s(name):
        return selfs.get(name, [0, 0.0])[1]

    warned = [int(m.group(1)) for r in results for m in _WARN_RE.finditer(r.stderr)]
    return {
        "fexp.mul.calls": calls("fexp.mul"),
        "fexp.mul.self_s": self_s("fexp.mul"),
        "fexp.mul.pairs": counts.get("fexp.mul.pairs", 0),
        "fexp.mul.out_support": counts.get("fexp.mul.out_support", 0),
        "fexp.linear.calls": calls("fexp.linear"),
        "fexp.linear.self_s": self_s("fexp.linear"),
        "fexp.cong_mod.self_s": self_s("fexp.cong_mod"),
        "fexp.cong_mod.checked": counts.get("fexp.cong_mod.checked", 0),
        "fexp.json.self_s": self_s("fexp.json"),
        "forms.maass_lift.calls": calls("forms.maass_lift"),
        "forms.maass_lift.self_s": self_s("forms.maass_lift"),
        "forms.lift_indices": counts.get("forms.lift_indices", 0),
        "forms.named.self_s": self_s("forms.named"),
        "forms.lru.hits": counts.get("forms.lru.hits", 0),
        "forms.lru.misses": counts.get("forms.lru.misses", 0),
        "tmat.enumerate_psd.calls": calls("tmat.enumerate_psd"),
        "tmat.enumerate_psd.self_s": self_s("tmat.enumerate_psd"),
        "tmat.box_indices": box_size(max(r.cmd.depth for r in results)),
        "quatlat.enumerate_dual.self_s": self_s("quatlat.enumerate_dual"),
        "exactnum.divisors.hits": counts.get("exactnum.divisors.hits", 0),
        "exactnum.divisors.misses": counts.get("exactnum.divisors.misses", 0),
        "exactnum.bernoulli.self_s": self_s("exactnum.bernoulli"),
        "series.express_in_e4_e6.self_s": self_s("series.express_in_e4_e6"),
        "congr.build_chi.self_s": self_s("congr.build_chi"),
        "congr.verifier.self_s": self_s("congr.verifier"),
        "congr.checked": counts.get("congr.checked", 0),
        "congr.witnesses": counts.get("congr.witnesses", 0),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in results),
        "cli.depth_warning_indices": max(warned, default=0),
        "cli.cache.hits": counts.get("cli.cache.hits", 0),
        "cli.cache.misses": counts.get("cli.cache.misses", 0),
        "cli.cache.bytes_read": counts.get("cli.cache.bytes_read", 0),
        "cli.cache.bytes_written": counts.get("cli.cache.bytes_written", 0),
        "trace.book_s": self_s("trace.book"),
    }


@cache
def box_size(N: int) -> int:
    """The true number of indices in the depth-N box."""
    return len(box_indices(N))


# ---------------------------------------------------------------- provenance


def provenance(args) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- one run


CACHE_COUNTS = ("cli.cache.hits", "cli.cache.misses", "cli.cache.bytes_read", "cli.cache.bytes_written")


def measure(args, work: Path) -> tuple[dict, dict, list[Result]]:
    """Run the workload; returns (metrics with units, details, all results)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    cmds = workload_commands(args.workload, args.seed)
    env = child_env()
    calib = Calibrator()
    passes: list[list[Result]] = []
    traced_passes: list[list[Result]] = []
    probes: list[Result] = []

    def probe(n: int) -> None:
        probes.extend(spawn(HELP, work, env, deadline, calib) for _ in range(n))

    if not args.trace:
        probe(1 + SETUP_PROBES_PER_SLOT)  # the first one fills the bytecode caches
    loop_start = time.monotonic()
    while True:
        plain, traced = run_pass(cmds, work, deadline, calib, traced=bool(args.trace))
        passes.append(plain)
        if args.trace:
            traced_passes.append(traced)
            for a, b in zip(plain, traced):
                if a.sha256 != b.sha256:
                    b.problems.append(f"traced stdout differs: {' '.join(a.cmd.argv)}")
        else:
            probe(SETUP_PROBES_PER_SLOT)
        elapsed = time.monotonic() - loop_start
        step = elapsed / len(passes)
        if elapsed + step > args.seconds or time.monotonic() + step > deadline:
            break
    results = probes + [r for p in passes + traced_passes for r in p]

    reference = json.loads(REFERENCE.read_text("utf-8"))
    oracle = Oracle() if any(c.kind == "coeff" for c in cmds) else None
    for res in results:
        check(res, reference, oracle)

    walls = [pass_wall(p) for p in passes]
    setup = [r.norm_seconds for r in probes[1:]]
    details = {
        "passes": len(passes),
        "commands_per_pass": len(cmds),
        "pass_wall_s": walls,
        "raw_pass_wall_s": [pass_wall(p, raw=True) for p in passes],
        "raw_query_p50_p75_s": command_percentiles(passes, raw=True),
        # [kind, raw seconds, calibration loop seconds before, after]
        "samples": [[r.cmd.kind, r.seconds, *r.calib] for r in results],
        "raw_setup_s": statistics.median(r.seconds for r in probes[1:]) if probes else None,
        "query_commands": len(cmds),
        "query_samples": len(cmds) * len(passes),
        "setup_samples": len(setup),
        "box_sizes": [
            {"depth": d, "true_indices": box_size(d), "cli_warning_estimate": 52 * d**4 // 2}
            for d in sorted({c.depth for c in cmds})
        ],
    }
    if not args.trace:
        p50, p75 = command_percentiles(passes)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_s": {"value": p50, "unit": "s"},
            "query_p75_s": {"value": p75, "unit": "s"},
            "peak_rss_mb": {"value": max(r.maxrss_kb for r in results) / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        return metrics, details, results

    per_pass = [layer_metrics(p) for p in traced_passes]
    metrics = {
        name: {"value": statistics.median(pp[name] for pp in per_pass), "unit": _unit(name)}
        for name in per_pass[0]
    }
    traced_walls = [pass_wall(p) for p in traced_passes]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(walls),
        "unit": "s",
    }
    details["traced_pass_wall_s"] = traced_walls
    details["per_query_cache"] = [
        {"argv": " ".join(r.cmd.argv), **{k: r.trace["counts"].get(k, 0) for k in CACHE_COUNTS}}
        for r in traced_passes[0]
        if r.cmd.kind == "coeff" and r.trace
    ]
    return metrics, details, results


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark the qmf CLI on one workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmf" / "cli.py").is_file():
        print(f"error: no qmf sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, details, results = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failures = [p for r in results for p in r.problems]
    failed = sum(1 for r in results if r.problems)
    details["fail_frac"] = failed / len(results)
    details["failures"] = failures[:20]
    print(json.dumps({"provenance": provenance(args), "details": details}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
