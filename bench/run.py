"""sheetaudit benchmark: one seeded workload, end to end or traced by layer.

    python3 bench/run.py --workload desk-repeat --seed 1 --seconds 55 --trace 0

Builds the workload's corpus and reference from ``--seed``, runs the
passes in a fresh interpreter (``worker.py``, which also times the
program's import and configuration in another fresh interpreter after
each pass: ``setup_s``), checks the first pass's outputs against the
reference and every later pass's digest against the first, and prints
the metrics.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Run from the repository root; sheetaudit is imported from ``src/``.
Scratch files go to ``.bench_work/<workload>/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import zipfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import corpora  # noqa: E402
from check import Tally, check_batch, check_detail_json  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT = 170

# Import of sheetaudit plus the configuration every pass uses, timed
# inside a fresh interpreter; the interpreter's own start is excluded.
# The worker runs it between passes.
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from pathlib import Path
import sheetaudit
from sheetaudit.cli import RunOptions, build_config
build_config(RunOptions(inputs=[], output_dir=Path("."), data_regions={regions!r} or None,
                        ignore_constants={ignore!r} or None))
print(time.perf_counter() - t0)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _input_bytes(path: Path) -> int:
    """Bytes the loader parses: the JSON text, or every XML part of a package."""
    if path.suffix == ".xlsx":
        with zipfile.ZipFile(path) as archive:
            return sum(i.file_size for i in archive.infolist() if i.filename.endswith(".xml"))
    return path.stat().st_size


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten passes beyond it: (value, percentile, beyond).

    With fewer than eleven passes no percentile qualifies; the fastest
    pass is reported and ``beyond`` says how many passes lie past it.
    """
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(layers: list[dict], traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics: the median over traced passes of each per-pass figure."""
    def per_pass(fn) -> float:
        return _median([fn(rec) for rec in layers])

    def self_s(*names):
        return lambda rec: sum(rec["self_s"].get(n, 0.0) for n in names)

    def calls(name):
        return lambda rec: rec["calls"].get(name, 0)

    def rate(amount, *names):
        def fn(rec):
            seconds = sum(rec["self_s"].get(n, 0.0) for n in names)
            return amount(rec) / seconds if seconds > 0 else 0.0
        return fn

    render = ("report.text", "report.csv", "report.json", "report.summary", "report.histogram")
    loads = ("xlsx.load", "model.load_json")
    table = {
        "lexer.tokenize_s": (per_pass(self_s("lexer.tokenize")), "s"),
        "lexer.calls": (per_pass(calls("lexer.tokenize")), "count"),
        "lexer.tokens": (per_pass(lambda r: r["tokens"]), "count"),
        "lexer.formulas_per_s": (per_pass(rate(lambda r: r["calls"].get("lexer.tokenize", 0),
                                               "lexer.tokenize")), "1/s"),
        "lexer.extract_s": (per_pass(self_s("lexer.extract")), "s"),
        "lexer.distinct_ratio": (per_pass(lambda r: r["distinct_texts"] / r["calls"]["lexer.tokenize"]
                                          if r["calls"].get("lexer.tokenize") else 0.0), "ratio"),
        "detect.classify_s": (per_pass(self_s("detect.analyze")), "s"),
        "detect.findings": (per_pass(lambda r: r["findings"]), "count"),
        "detect.constants": (per_pass(lambda r: r["constants"]), "count"),
        "detect.unparseable": (per_pass(lambda r: r["unparseable"]), "count"),
        "detect.histogram_s": (per_pass(self_s("detect.histogram")), "s"),
        "load.s": (per_pass(self_s(*loads)), "s"),
        "load.mb_per_s": (per_pass(rate(lambda r: (r["xlsx.load.bytes"] + r["model.load_json.bytes"])
                                        / 1e6, *loads)), "MB/s"),
        "xlsx.load_s": (per_pass(self_s("xlsx.load")), "s"),
        "xlsx.xml_mb_per_s": (per_pass(rate(lambda r: r["xlsx.load.bytes"] / 1e6, "xlsx.load")), "MB/s"),
        "xlsx.cells": (per_pass(lambda r: r["xlsx_cells"]), "count"),
        "xlsx.merges": (per_pass(lambda r: r["xlsx_merges"]), "count"),
        "model.load_json_s": (per_pass(self_s("model.load_json")), "s"),
        "model.json_mb_per_s": (per_pass(rate(lambda r: r["model.load_json.bytes"] / 1e6,
                                              "model.load_json")), "MB/s"),
        "model.audit_metadata_s": (per_pass(self_s("model.audit_metadata")), "s"),
        "report.text_s": (per_pass(self_s("report.text")), "s"),
        "report.csv_s": (per_pass(self_s("report.csv")), "s"),
        "report.json_s": (per_pass(self_s("report.json")), "s"),
        "report.summary_s": (per_pass(self_s("report.summary")), "s"),
        "report.histogram_s": (per_pass(self_s("report.histogram")), "s"),
        "report.s": (per_pass(self_s(*render)), "s"),
        "report.bytes": (per_pass(lambda r: r["report_bytes"]), "B"),
        "report.mb_per_s": (per_pass(rate(lambda r: r["report_bytes"] / 1e6, *render)), "MB/s"),
        "cli.self_s": (per_pass(self_s("cli.main")), "s"),
        "cli.files": (per_pass(lambda r: r["files"]), "count"),
        "trace.pass_s": (_median(traced), "s"),
        "trace.overhead_s": (_median(traced) - _median(untraced), "s"),
        # the share of traced pass time that some layer's self time covers;
        # the rest is the benchmark's own code between the calls
        "trace.attributed_share": (per_pass(lambda r: sum(r["self_s"].values()) / r["pass_s"]),
                                   "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def _check(corpus: corpora.Corpus, work: Path, first: dict) -> Tally:
    tally = Tally()
    if corpus.workload == "batch-cli":
        check_batch(corpus, work / "out" / "pass0", first["exit"], tally)
    else:
        (ref,) = corpus.refs.values()
        path = work / "check" / "json"
        check_detail_json(path.read_bytes() if path.is_file() else None, ref, tally)
    return tally


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "cpu": model}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sheetaudit" / "__init__.py").is_file():
        print(f"error: no sheetaudit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("corpus", "check", "out"):
        (work / sub).mkdir(parents=True)
    corpus = corpora.build(args.workload, args.seed, work / "corpus")
    files = [str(p) for p in corpus.files]
    spec = {
        "workload": args.workload,
        "src": str(SRC),
        "mode": "cli" if args.workload == "batch-cli" else "single",
        "loader": "json" if files[0].endswith(".json") else "xlsx",
        "inputs": files,
        "formats": corpus.formats,
        "data_regions": corpus.data_regions,
        "ignore_constants": corpus.ignore_constants,
        "cli_args": [str(work / "corpus" / "inputs" / "*")]
        + [a for fmt in corpus.formats for a in ("--format", fmt)]
        + [a for region in corpus.data_regions for a in ("--data-region", region)]
        + ["--ignore-constants", ",".join(repr(v) for v in corpus.ignore_constants)],
        "input_bytes": {str(p): _input_bytes(p) for p in corpus.files},
        "check_dir": str(work / "check"),
        "out_root": str(work / "out"),
        "probe": None if args.trace else _PROBE.format(
            src=str(SRC), regions=corpus.data_regions, ignore=corpus.ignore_constants),
        "trace_file": str(work / "spans.json"),
        "result_file": str(work / "worker.json"),
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(work / "spec.json"),
         str(args.seconds), str(args.trace)],
        env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT, check=True,
    )
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    passes, setup = result["passes"], result["setup_s"]
    tally = _check(corpus, work, passes[0])

    workbooks = len(corpus.files)
    attempted = workbooks * len(passes)
    failed = workbooks * sum(1 for p in passes if p["error"] is not None)
    digests = {p["digest"] for p in passes}
    exits = {p["exit"] for p in passes}
    if len(digests) != 1:
        tally.problem(f"pass outputs differ: {len(digests)} distinct digests over {len(passes)} passes")
    if len(exits) != 1:
        tally.problem(f"exit codes differ between passes: {sorted(map(str, exits))}")
    correct = failed == 0 and tally.unexplained == 0

    timed = passes[1:]
    untraced = [p["s"] for p in timed if not p["traced"]]
    traced = [p["s"] for p in timed if p["traced"]]
    reference = [p["reference_s"] for p in timed if not p["traced"]]
    tail, tail_pct, beyond = _tail(untraced) if untraced else (0.0, 0.0, 0)
    end_to_end = {
        # formulas audited in the time the reference job took beside each
        # pass: the host's drifting speed divides out
        "formulas_per_ref": {"value": corpus.formulas * sum(reference) / sum(untraced) if untraced
                             else 0.0, "unit": "1/ref"},
        "formulas_per_s": {"value": corpus.formulas * len(untraced) / sum(untraced) if untraced else 0.0,
                           "unit": "1/s"},
        "pass_s.p50": {"value": _median(untraced), "unit": "s"},
        "pass_s.tail": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "ok_ratio": {"value": 1.0 - tally.fail_ratio, "unit": "ratio"},
    }
    layers = _layer_metrics(result["layers"], traced, untraced) if args.trace else {}

    print(f"sheetaudit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"input: {workbooks} workbook(s), {corpus.formulas} formulas per pass; "
          f"{len(untraced)} untraced and {len(traced)} traced timed passes after one warm-up pass")
    shown = dict(layers) if args.trace else dict(end_to_end)
    shown["fail_ratio"] = {"value": tally.fail_ratio, "unit": "ratio"}
    for name, metric in shown.items():
        print(f"  {name:24s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  pass_s.tail is p{tail_pct:.0f} of {len(untraced)} passes, {beyond} beyond it; "
              f"setup_s is the median of {len(setup)} fresh interpreters, one after each pass; "
              f"the reference job took {_median(reference):.4g} s (median)")
    print(f"  checked {tally.checked} cells, {tally.failed} disagree "
          f"({', '.join(f'{k} {v}' for k, v in sorted(tally.failed_by_cause.items())) or 'none'})")
    for problem in tally.problems:
        print(f"  problem: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": _machine(), "formulas_per_pass": corpus.formulas, "workbooks": workbooks,
        "end_to_end": end_to_end, "per_layer": layers,
        "pass_s": untraced, "traced_pass_s": traced, "reference_s": reference,
        "tail": {"percentile": tail_pct, "passes": len(untraced), "beyond": beyond},
        "setup_samples_s": setup,
        "check": {"checked": tally.checked, "failed": tally.failed, "fail_ratio": tally.fail_ratio,
                  "causes": dict(tally.failed_by_cause), "problems": tally.problems},
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work / "corpus", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)

    selected = _selected_metrics(args.trace, end_to_end, layers)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": selected}))
    return 0


def _selected_metrics(trace: int, end_to_end: dict, layers: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    source = layers if trace else end_to_end
    return {name: source[name] for name in names}


if __name__ == "__main__":
    sys.exit(main())
