"""Runs one workload's passes in a fresh interpreter.

Started by ``run.py`` with a spec file it wrote.  The first pass warms
the interpreter and leaves its outputs for the reference check; every
later pass is timed and digested, and all digests must match the first.
With tracing on, traced and untraced passes alternate so that the
tracing overhead is measured within one process.

The process imports sheetaudit from the spec's source directory and
nothing from the reference, so its peak RSS is the audit's own.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

MIN_TIMED_PASSES = 3
MAX_SECONDS = 120.0

# The reference job: a fixed pure-Python loop, timed before every pass.
# The shared host's speed drifts by up to 2x over minutes; the loop's
# time follows that drift, and no sheetaudit code runs in it.  It
# tracked the passes' drift better than jobs of regex scans, dict counts
# and JSON, or of parsing in C, whose own times varied more.
_REFERENCE_STEPS = 1_000_000


def _setup_probe(code: str) -> float:
    """Seconds a fresh interpreter reports for importing sheetaudit and building the config."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.split()[-1])


def _reference_s() -> float:
    """Seconds the reference job takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(_REFERENCE_STEPS):
        total += i * 7 % 13
    return time.perf_counter() - t0


def _digest(outputs: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, body in outputs:
        h.update(name.encode() + b"\0" + len(body).to_bytes(8, "little") + body)
    return h.hexdigest()


class Workload:
    """The calls one pass makes, through names a traced pass can rebind."""

    def __init__(self, spec: dict) -> None:
        from sheetaudit import cli, detect, model, report, xlsx

        self.spec = spec
        self.cli_mode = spec["mode"] == "cli"
        self.load = model.load_json if spec["loader"] == "json" else xlsx.load_xlsx
        self.analyze = detect.analyze_workbook
        self.render = report.render_detail
        self.main = cli.main
        self.formats = [report.Format(f) for f in spec["formats"]]
        options = cli.RunOptions(
            inputs=[], output_dir=Path("."),
            data_regions=spec["data_regions"] or None,
            ignore_constants=spec["ignore_constants"] or None,
        )
        self.config = cli.build_config(options)
        self.out_root = Path(spec["out_root"])

    def run(self, pass_id: int) -> tuple[list[tuple[str, bytes]], int | None]:
        """One pass; returns the rendered outputs and the CLI exit code."""
        if self.cli_mode:
            out = self.out_root / f"pass{pass_id}"
            code = self.main(self.spec["cli_args"] + ["--out", str(out)])
            return [], code
        workbook = self.load(self.spec["inputs"][0])
        analysis = self.analyze(workbook, self.config)
        return [(fmt.value, self.render(analysis, fmt).body) for fmt in self.formats], None

    def collect(self, pass_id: int, outputs, keep: bool) -> list[tuple[str, bytes]]:
        """Outputs of a finished pass; CLI output directories are read back from disk."""
        if not self.cli_mode:
            return outputs
        out = self.out_root / f"pass{pass_id}"
        files = [(p.name, p.read_bytes()) for p in sorted(out.iterdir())] if out.is_dir() else []
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return files


def _bindings(work: Workload):
    """(owner, attribute, span name, note) for every call a traced pass wraps."""
    from sheetaudit import cli, detect
    from spans import note_load, note_rendered, note_report, note_tokens, render_span_name

    loader = "model.load_json" if work.spec["loader"] == "json" else "xlsx.load"
    bindings = [
        (detect, "tokenize", "lexer.tokenize", note_tokens),
        (detect, "extract_constants", "lexer.extract", None),
        (detect, "audit_metadata", "model.audit_metadata", None),
    ]
    if work.cli_mode:
        bindings += [
            (cli, "load_json", "model.load_json", note_load),
            (cli, "load_xlsx", "xlsx.load", note_load),
            (cli, "analyze_workbook", "detect.analyze", note_report),
            (cli, "render_detail", render_span_name, note_rendered),
            (cli, "constant_histogram", "detect.histogram", None),
            (cli, "render_batch_summary", "report.summary", note_rendered),
            (cli, "render_histogram", "report.histogram", note_rendered),
            (work, "main", "cli.main", None),
        ]
    else:
        bindings += [
            (work, "load", loader, note_load),
            (work, "analyze", "detect.analyze", note_report),
            (work, "render", render_span_name, note_rendered),
        ]
    return bindings


def _layer_record(tracer, work: Workload, files: list, input_bytes: dict) -> dict:
    """Per-pass layer self times and counts, taken after the pass ended."""
    self_s, calls = tracer.self_times()
    record = {"self_s": self_s, "calls": calls, "tokens": tracer.tokens,
              "distinct_texts": len(tracer.texts), "report_bytes": tracer.rendered_bytes,
              "files": len(files) if work.cli_mode else 0}
    findings = constants = unparseable = 0
    for analysis in tracer.reports:
        findings += len(analysis.findings)
        for f in analysis.findings:
            unparseable += f.kind.value == "unparseable"
            constants += len(f.constants)
    record.update(findings=findings, constants=constants, unparseable=unparseable)
    cells = merges = 0
    for name, workbook in tracer.workbooks:
        if name == "xlsx.load":
            cells += sum(len(s.cells) for s in workbook.sheets)
            merges += sum(len(s.merged_regions) for s in workbook.sheets)
    record.update(xlsx_cells=cells, xlsx_merges=merges)
    for key in ("xlsx.load", "model.load_json"):
        record[key + ".bytes"] = sum(input_bytes[str(p)] for n, p in tracer.loaded if n == key)
    return record


def main() -> int:
    spec_path, seconds, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import sheetaudit

    if not Path(sheetaudit.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"worker: imported sheetaudit from {sheetaudit.__file__}", file=sys.stderr)
        return 2

    work = Workload(spec)
    tracer = rebinding = None
    if traced:
        from spans import Rebinding, Tracer

        tracer = Tracer()
        rebinding = Rebinding(tracer, _bindings(work))

    passes, layers, setup = [], [], []
    # the warm-up pass counts against the run's seconds; a pass starts
    # only when about half of a typical pass still fits
    started = time.perf_counter()
    deadline = started + seconds
    pass_id = 0
    while True:
        if pass_id > 1:
            now = time.perf_counter()
            typical = statistics.median(p["s"] for p in passes[1:])
            enough = pass_id - 1 >= MIN_TIMED_PASSES
            if (enough and now + typical / 2 > deadline) or now - started > MAX_SECONDS:
                break
        is_traced = traced and pass_id % 2 == 1
        gc.collect()
        reference = _reference_s()
        if is_traced:
            tracer.begin_pass(pass_id)
            rebinding.install()
        error = None
        t0 = time.perf_counter()
        try:
            outputs, code = work.run(pass_id)
        except Exception:  # recorded as a failed audit, then the run stops
            outputs, code = [], None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if is_traced:
            rebinding.remove()
        files = work.collect(pass_id, outputs, keep=pass_id == 0)
        if pass_id == 0 and not work.cli_mode:
            for name, body in files:
                (Path(spec["check_dir"]) / name).write_bytes(body)
        passes.append({"s": elapsed, "reference_s": reference, "traced": is_traced,
                       "exit": code, "error": error,
                       "digest": _digest(files) if error is None else None})
        if is_traced and error is None:
            layers.append(_layer_record(tracer, work, files, spec["input_bytes"]) | {"pass_s": elapsed})
            tracer.release()
        if error is not None:
            print(error, file=sys.stderr)
            break
        # one set-up sample after each pass spreads them over the run;
        # the one after the warm-up only warms the file cache
        if spec["probe"] is not None:
            sample = _setup_probe(spec["probe"])
            if pass_id > 0:
                setup.append(sample)
        pass_id += 1

    result = {
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    if tracer is not None:
        tracer.write(Path(spec["trace_file"]))
    Path(spec["result_file"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
