"""Steadiness check for the benchmark: is one set of runs steady, and do two agree?

Usage (from the root of a checkout):

    python3 perfbench/steady.py run --out SET.json [--workload W ...] [--seeds 1-10]
    python3 perfbench/steady.py compare FIRST.json [SECOND.json]

``run`` runs perfbench/run.py once per workload and seed, one run at a time,
with --seconds from BENCHMARK.json and tracing off, and stores every run's
end-to-end metrics. ``compare`` reads BENCHMARK.json for the bounds. For each
workload and end-to-end metric it takes the spread of a set, the distance
between the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, and requires it to be within the metric's bound
(setup_s is exempt). Given a second set, it also requires every metric's
median, setup_s included, to be no worse than the first set's by more than
the bound. It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
EXEMPT_FROM_SPREAD = ("setup_s",)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first: list[float], second: list[float], better: str) -> float:
    """How much worse the second median is than the first, as a share of it."""
    m1, m2 = statistics.median(first), statistics.median(second)
    change = (m2 - m1) / m1
    return change if better == "lower" else -change


def check_sets(spec: dict, first: dict, second: dict | None = None) -> list[str]:
    """Problems found; each set maps workload -> metric -> list of values."""
    problems = []
    sets = [("first", first)] + ([("second", second)] if second is not None else [])
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for label, runs in sets:
                values = runs.get(wl["name"], {}).get(name, [])
                if len(values) < 2:
                    problems.append(f"{wl['name']} {name}: {label} set has {len(values)} values")
                    continue
                s = spread(values)
                if name not in EXEMPT_FROM_SPREAD and s > bound:
                    problems.append(f"{wl['name']} {name}: {label} spread {s:.3f} > bound {bound}")
            if second is not None:
                v1 = first.get(wl["name"], {}).get(name, [])
                v2 = second.get(wl["name"], {}).get(name, [])
                if v1 and v2:
                    w = worsening(v1, v2, metric["better"])
                    if w > bound:
                        problems.append(f"{wl['name']} {name}: second median worse by {w:.3f} > bound {bound}")
    return problems


def load_set(path: Path) -> dict:
    """workload -> metric -> values, from a file written by ``run``."""
    data = json.loads(path.read_text("utf-8"))
    out: dict = {}
    for wl, runs in data["runs"].items():
        for run in runs:
            for name, m in run["metrics"].items():
                out.setdefault(wl, {}).setdefault(name, []).append(m["value"])
    return out


def report(spec: dict, runs: dict) -> None:
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = runs.get(wl["name"], {}).get(metric["name"], [])
            if len(values) >= 2:
                print(
                    f"{wl['name']:14} {metric['name']:12} median {statistics.median(values):.4f} "
                    f"{metric['unit']:3} spread {spread(values):.3f} "
                    f"(bound {metric['bound']}, a third {metric['bound'] / 3:.3f}) n={len(values)}"
                )


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args, spec: dict) -> int:
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = {"runs": {}}
    for wl in workloads:
        for seed in parse_seeds(args.seeds):
            argv = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["record"] = json.loads(lines[-2]) if len(lines) > 1 else None
            out["runs"].setdefault(wl, []).append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{wl} seed {seed}: correct={result['correct']} {values}", flush=True)
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n", "utf-8")
    report(spec, load_set(Path(args.out)))
    return 0


def cmd_compare(args, spec: dict) -> int:
    first = load_set(Path(args.first))
    second = load_set(Path(args.second)) if args.second else None
    report(spec, first)
    if second is not None:
        report(spec, second)
    problems = check_sets(spec, first, second)
    for p in problems:
        print("FAIL", p)
    print("steady" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark over seeds")
    r.add_argument("--out", required=True)
    r.add_argument("--workload", action="append")
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare", help="check one set, or two sets against each other")
    c.add_argument("first")
    c.add_argument("second", nargs="?")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text("utf-8"))
    return cmd_run(args, spec) if args.cmd == "run" else cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
