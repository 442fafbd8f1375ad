"""Batch command-line front end.

Expands input patterns, audits every matched workbook, writes the
per-workbook detail reports plus one batch summary and one aggregate
constant histogram, and exits linter-style: 0 clean, 1 when hard
codings exceed the threshold, 2 on load failures, bad options or a
report that cannot be written.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .detect import (
    AnalysisReport,
    DetectionConfig,
    DetectionMode,
    analyze_workbook,
    constant_histogram,
)
from .model import SchemaError, load_json, parse_range, read_json
from .report import Format, render_batch_summary, render_detail, render_histogram
from .xlsx import FormatError, load_xlsx

_WORKBOOK_SUFFIXES = {".xlsx", ".xlsm", ".json"}
_EXTENSIONS = {Format.TEXT: "txt", Format.CSV: "csv", Format.JSON: "json"}  # of every report


@dataclass
class RunOptions:
    inputs: list[str]
    output_dir: Path
    formats: list[Format] = field(default_factory=lambda: [Format.TEXT])
    config_path: Path | None = None
    fail_threshold: int = 0
    mode: DetectionMode | None = None
    ignore_constants: list[float] | None = None
    data_regions: list[str] | None = None


class OptionsError(ValueError):
    pass


def _region_document(text: str) -> dict:
    """``SHEET[!RANGE]`` as a config ``data_regions`` entry; a range never holds ``!``."""
    sheet, sep, rng = text.rpartition("!")
    if not sep:
        return {"sheet": text}
    # not read as a whole sheet instead: a mistyped range would then match no sheet
    try:
        parse_range(rng)
    except ValueError as exc:
        raise OptionsError(
            f"config data_regions: --data-region {text!r}: {exc}; a whole sheet whose"
            f" name holds '!' needs a config-file entry such as {json.dumps({'sheet': text})}"
        ) from None
    return {"sheet": sheet, "range": rng}


def _load_config_document(path: Path) -> dict:
    try:
        doc = read_json(path)
    except OSError as exc:
        raise OptionsError(f"config {path} cannot be read: {exc}") from None
    except SchemaError as exc:  # "not valid JSON: …", "JSON nested too deeply", …
        raise OptionsError(f"config {path} is {exc}") from None
    if not isinstance(doc, dict):
        raise OptionsError(f"config {path} must be a JSON object")
    return doc


def build_config(options: RunOptions) -> DetectionConfig:
    """The config document with the flags laid over it, key by key.

    The keys are ``DetectionConfig``'s field names; each value, from the
    file or a flag, goes through its field's reader.
    """
    doc = _load_config_document(options.config_path) if options.config_path else {}
    if options.mode is not None:
        doc["mode"] = options.mode.value
    if options.ignore_constants is not None:
        doc["ignore_constants"] = options.ignore_constants
    if options.data_regions is not None:
        doc["data_regions"] = [_region_document(text) for text in options.data_regions]
    readers = {f.name: f.metadata["read"] for f in fields(DetectionConfig)}
    settings = {}
    for key, value in doc.items():
        if key not in readers:  # only the file can name one
            raise OptionsError(f"config {options.config_path}: unknown key {key!r}")
        try:
            settings[key] = readers[key](value)
        except ValueError as exc:
            raise OptionsError(f"config {key}: {exc}") from None
    try:
        return DetectionConfig(**settings)
    except ValueError as exc:
        raise OptionsError(f"config {exc}") from None


def _expand_inputs(patterns: list[str]) -> list[Path]:
    """The matched workbooks in sorted order, each file once under its first spelling."""
    matched: list[str] = []
    for pattern in patterns:
        # a name that exists is that path, even with glob characters in it; only others expand
        matched += [pattern] if os.path.lexists(pattern) else glob.glob(pattern, recursive=True)
    workbooks: dict[object, Path] = {}
    for path in sorted(set(map(Path, matched))):
        if path.suffix.lower() not in _WORKBOOK_SUFFIXES:
            print(f"notice: skipping non-workbook file {path}", file=sys.stderr)
            continue
        # a file is its device and inode, whatever path, link or symlink names it
        try:
            status = path.stat()
            key = (status.st_dev, status.st_ino)
        except OSError:  # a dangling link or a symlink loop; loading it reports the error
            key = path
        if key in workbooks:
            print(f"notice: skipping {path}, the same file as {workbooks[key]}", file=sys.stderr)
            continue
        workbooks[key] = path
    return list(workbooks.values())


def _report_stems(paths: list[Path]) -> list[str]:
    """Each input's detail-report stem: its own, or if an earlier input has it (in any case,
    as a case-insensitive file system compares), ``<stem>-<n>`` for the least free n >= 2."""
    inputs = {path.stem.casefold() for path in paths}
    used: set[str] = set()
    # the n each case-folded stem last took: used only grows, so no lesser n is free again
    last: dict[str, int] = {}
    stems = []
    for path in paths:
        folded = path.stem.casefold()
        n = last.get(folded, 0) + 1
        stem = path.stem if n == 1 else f"{path.stem}-{n}"
        while stem.casefold() in used or (n > 1 and stem.casefold() in inputs):
            n += 1
            stem = f"{path.stem}-{n}"
        last[folded] = n
        used.add(stem.casefold())
        stems.append(stem)
    return stems


def _load_workbook(path: Path):
    if path.suffix.lower() == ".json":
        return load_json(path)
    return load_xlsx(path)


def run(options: RunOptions) -> int:
    try:
        config = build_config(options)
    except OptionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not options.inputs or not options.formats:
        print("error: need at least one input pattern and one format", file=sys.stderr)
        return 2

    paths = _expand_inputs(options.inputs)
    if not paths:
        print("error: no inputs matched", file=sys.stderr)
        return 2

    out = options.output_dir
    reports: list[AnalysisReport] = []  # counts only: each workbook's findings end with its loop
    histogram: Counter[float] = Counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, stem in zip(paths, _report_stems(paths)):
            try:
                workbook = _load_workbook(path)
            except (OSError, FormatError, SchemaError) as exc:
                # an OSError's text repeats the path: "[Errno 21] Is a directory: 'x.json'"
                error = getattr(exc, "strerror", None) or str(exc)
                print(f"error: {path}: {error}", file=sys.stderr)
                reports.append(AnalysisReport(path.name, str(path), 0, 0, 0, 0, error=error))
                continue
            report = analyze_workbook(workbook, config)
            for fmt in options.formats:
                body = render_detail(report, fmt).body
                (out / f"{stem}.findings.{_EXTENSIONS[fmt]}").write_bytes(body)
            # an equal value keeps its first key, as in one call over the whole batch
            histogram.update(dict(constant_histogram([report])))
            reports.append(replace(report, findings=(), warnings=()))
            del workbook, report, body  # before the next load

        counts = sorted(histogram.items())
        for fmt in options.formats:
            ext = _EXTENSIONS[fmt]
            (out / f"summary.{ext}").write_bytes(render_batch_summary(reports, fmt).body)
            (out / f"constants.{ext}").write_bytes(render_histogram(counts, fmt).body)
    except OSError as exc:  # the output directory or a report file; what is written stays
        print(f"error: {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    if any(r.error is not None for r in reports):
        return 2
    total_hard_codings = sum(r.hard_coding_count for r in reports)
    return 1 if total_hard_codings > options.fail_threshold else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetaudit",
        description="Audit spreadsheet workbooks for hard-coded constants "
        "in formulas and stray numeric entries.",
    )
    parser.add_argument("inputs", nargs="+", help="workbook paths or glob patterns")
    parser.add_argument("--out", default="sheetaudit-reports", help="output directory")
    parser.add_argument(
        "--format",
        action="append",
        choices=[f.value for f in Format],
        help="report format, repeatable (default: text)",
    )
    parser.add_argument("--config", help="JSON detection-config document")
    parser.add_argument("--mode", choices=[m.value for m in DetectionMode])
    parser.add_argument(
        "--ignore-constants",
        help="comma-separated constant values to suppress (e.g. '0,1')",
    )
    parser.add_argument(
        "--data-region",
        action="append",
        metavar="SHEET[!RANGE]",
        help="declared input area, repeatable; sheet part is a glob",
    )
    parser.add_argument("--fail-threshold", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    ignore = None
    if args.ignore_constants is not None:
        try:
            ignore = [float(v) for v in args.ignore_constants.split(",") if v.strip()]
        except ValueError:
            print(f"error: bad --ignore-constants value {args.ignore_constants!r}", file=sys.stderr)
            return 2
    if args.fail_threshold < 0:
        print("error: --fail-threshold must be non-negative", file=sys.stderr)
        return 2
    options = RunOptions(
        inputs=args.inputs,
        output_dir=Path(args.out),
        formats=[Format(f) for f in (args.format or ["text"])],
        config_path=Path(args.config) if args.config else None,
        fail_threshold=args.fail_threshold,
        mode=DetectionMode(args.mode) if args.mode else None,
        ignore_constants=ignore,
        data_regions=args.data_region,
    )
    return run(options)


if __name__ == "__main__":
    sys.exit(main())
