"""Steadiness and comparison of benchmark runs.

    python3 bench/steady.py run --runs 5 --out steady.json
    python3 bench/steady.py report steady.json
    python3 bench/steady.py compare parent.json change.json

``run`` makes two sets of runs of the same code, every run a fresh
``run.py`` process with its own seed, one workload at a time, and
alternates which set goes first.  It prints, per workload and
end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median) of all runs, and whether the
spread and the shift between the two sets' medians stay within the
bound BENCHMARK.json fixes.  ``compare`` applies the same bounds to two
result files, e.g. one made at a parent commit and one at a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import _machine  # noqa: E402

# End-to-end figures run.py prints but BENCHMARK.json leaves without a
# bound: they follow the host's drifting speed, and their spread over
# ten runs reached 0.30 (formulas_per_s) and 0.32 (pass_s.p50), above
# the largest bound allowed.
UNBOUNDED = [{"name": "formulas_per_s", "better": "higher", "bound": None},
             {"name": "pass_s.p50", "better": "lower", "bound": None},
             {"name": "pass_s.tail", "better": "lower", "bound": None}]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list[float]) -> float:
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _worse_share(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base`` (negative: better)."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_work" / workload / "result.json").read_text(encoding="utf-8"))
    return {"result": result, "end_to_end": detail["end_to_end"], "tail": detail["tail"],
            "check": detail["check"], "pass_s": detail["pass_s"],
            "reference_s": detail["reference_s"], "setup_samples_s": detail["setup_samples_s"]}


def cmd_run(args) -> int:
    declared = _declared()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    runs = []
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for set_name in order:
            seed = args.seed + i + (args.runs if set_name == "B" else 0)
            for workload in workloads:
                record = _one_run(workload, seed, args.seconds)
                record.update(set=set_name, workload=workload, seed=seed)
                runs.append(record)
                values = {k: round(v["value"], 6) for k, v in record["result"]["metrics"].items()}
                print(f"set {set_name} {workload} seed {seed}: correct={record['result']['correct']} "
                      f"{values}", flush=True)
    doc = {"machine": _machine(), "seconds": args.seconds, "benchmark": declared, "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return _report(doc)


def _values(doc: dict, workload: str, metric: str, set_name: str | None = None) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in doc["runs"]
            if r["workload"] == workload and (set_name is None or r["set"] == set_name)]


def _report(doc: dict) -> int:
    machine = doc["machine"]
    print(f"machine: nproc {machine['nproc']}, Python {machine['python']}, {machine['cpu']}; "
          f"{doc['seconds']} s per run")
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in doc["runs"]):
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['result']['correct'] for r in runs)}")
        ok &= all(r["result"]["correct"] for r in runs)
        for metric in doc["benchmark"]["end_to_end"] + UNBOUNDED:
            name, bound = metric["name"], metric["bound"]
            bounded = bound is not None
            sets = {}
            for set_name in ("A", "B"):
                values = _values(doc, workload, name, set_name)
                if values:
                    sets[set_name] = _quartiles(values)
            spread = _spread(_values(doc, workload, name))
            line = f"  {name:16s} " + "  ".join(
                f"{s}: {q2:.6g} [{q1:.6g}, {q3:.6g}]" for s, (q1, q2, q3) in sets.items())
            verdict = []
            if name != "setup_s":
                verdict.append(f"spread {spread:.3f}" + (
                    "" if not bounded else " > bound" if spread > bound
                    else " > bound/3" if spread > bound / 3 else ""))
                ok &= not bounded or spread <= bound
            if len(sets) == 2:
                shift = _worse_share(sets["A"][1], sets["B"][1], metric["better"])
                verdict.append(f"B vs A {shift:+.3f}" + (" > bound" if bounded and shift > bound else ""))
                ok &= not bounded or shift <= bound
            print(f"{line}  {'; '.join(verdict)} ({f'bound {bound}' if bounded else 'no bound'})")
        causes: dict[str, int] = {}
        for r in runs:
            for cause, count in r["check"]["causes"].items():
                causes[cause] = causes.get(cause, 0) + count
        if causes:
            print(f"  failing cells by cause over all runs: {causes}")
    print("\nsteady within bounds" if ok else "\nNOT within bounds")
    return 0 if ok else 1


def cmd_report(args) -> int:
    return _report(json.loads(Path(args.file).read_text(encoding="utf-8")))


def cmd_compare(args) -> int:
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    print(f"base:   {base['machine']}\nchange: {change['machine']}")
    regressions = 0
    for workload in dict.fromkeys(r["workload"] for r in base["runs"]):
        print(f"\n{workload}")
        for metric in base["benchmark"]["end_to_end"] + UNBOUNDED:
            name, bound = metric["name"], metric["bound"]
            before, after = _values(base, workload, name), _values(change, workload, name)
            if not before or not after:
                continue
            b, a = _quartiles(before), _quartiles(after)
            shift = _worse_share(b[1], a[1], metric["better"])
            if bound is None:
                verdict = "no bound, reported only"
            elif shift > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif name != "setup_s" and _spread(before) > bound:
                verdict = "unresolved (base spread above bound)"
            elif -shift > _spread(before):
                verdict = "better by more than the base spread"
            else:
                verdict = f"within bound {bound}"
            print(f"  {name:16s} {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] -> "
                  f"{a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]  worse by {shift:+.3f}: {verdict}")
    return 1 if regressions else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Steadiness and comparison of benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="two sets of runs of the same code")
    run.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    run.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    run.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    run.add_argument("--workloads", help="comma-separated; default: all")
    run.add_argument("--out", required=True, help="results file to write")
    report = sub.add_parser("report", help="print a results file")
    report.add_argument("file")
    compare = sub.add_parser("compare", help="compare two results files against the bounds")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = _declared()["run_seconds"]
        return cmd_run(args)
    return cmd_report(args) if args.command == "report" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
