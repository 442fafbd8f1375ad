"""Spans around the calls into each sheetaudit layer.

The program is not edited: a traced pass rebinds the public names that
``sheetaudit.detect`` and ``sheetaudit.cli`` import (and the
benchmark's own call sites) to wrappers that record one span per call.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    """Span store: (name, start_ns, end_ns, parent index, pass id) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.pass_start = 0
        # per-pass observations, taken outside any timed region when possible
        self.tokens = 0
        self.texts: set[str] = set()
        self.loaded: list[tuple[str, object]] = []  # (span name, path)
        self.workbooks: list[object] = []
        self.reports: list[object] = []
        self.rendered_bytes = 0

    def wrap(self, fn, name, note=None):
        """Wrapper recording a span per call; ``name`` may depend on the arguments.

        ``note`` sees every call, with ``None`` as the result of one that
        raised: a formula the lexer rejects still counts as lexed text.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.pass_id)
                if note is not None:
                    note(self, span_name, args, result)

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.pass_start = len(self.spans)
        self.release()

    def release(self) -> None:
        """Drop the pass's observations, so later passes do not carry its objects."""
        self.tokens = 0
        self.texts = set()
        self.loaded = []
        self.workbooks = []
        self.reports = []
        self.rendered_bytes = 0

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name, for the current pass.

        A span's self time is its duration minus that of its children.
        """
        own: dict[str, int] = {}
        calls: dict[str, int] = {}
        names = {}
        for index in range(self.pass_start, len(self.spans)):
            name, start, end, parent, _ = self.spans[index]
            names[index] = name
            own[name] = own.get(name, 0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= self.pass_start:
                parent_name = names[parent]
                own[parent_name] = own.get(parent_name, 0) - (end - start)
        return {k: v / 1e9 for k, v in own.items()}, calls

    def write(self, path: Path) -> None:
        """All spans as {"names": [...], "spans": [[name, start, end, parent, pass], ...]}."""
        names: dict[str, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "pass"], "spans": [')
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                idx = names.setdefault(name, len(names))
                fh.write(f'{"," if i else ""}\n[{idx},{start},{end},{parent},{pass_id}]')
            fh.write('],\n"names": ' + json.dumps(list(names)) + "}\n")


class Rebinding:
    """Swaps module attributes for traced wrappers and back."""

    def __init__(self, tracer: Tracer, bindings) -> None:
        self.swaps = []
        for owner, attr, name, note in bindings:
            original = getattr(owner, attr)
            self.swaps.append((owner, attr, original, tracer.wrap(original, name, note)))

    def install(self) -> None:
        for owner, attr, _, traced in self.swaps:
            setattr(owner, attr, traced)

    def remove(self) -> None:
        for owner, attr, original, _ in self.swaps:
            setattr(owner, attr, original)


def note_tokens(tracer: Tracer, _name, args, tokens) -> None:
    tracer.texts.add(args[0])
    if tokens is not None:
        tracer.tokens += len(tokens)


def note_load(tracer: Tracer, name, args, workbook) -> None:
    if workbook is not None:
        tracer.loaded.append((name, args[0]))
        tracer.workbooks.append((name, workbook))


def note_report(tracer: Tracer, _name, _args, report) -> None:
    if report is not None:
        tracer.reports.append(report)


def note_rendered(tracer: Tracer, _name, _args, document) -> None:
    if document is not None:
        tracer.rendered_bytes += len(document.body)


def render_span_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs["format"]
    return "report." + fmt.value
