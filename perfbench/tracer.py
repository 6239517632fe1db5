"""Per-layer spans, recorded around calls into the package's public functions.

`Tracer.install` replaces each function named in TARGETS, in every module of
the package that binds it, with a wrapper that records a span (name, start,
end, parent span, item) and, for some layers, counts read off the result.
`uninstall` restores the originals. Private functions are never wrapped:
the exact certificate's time is derived as the self time that
`contextual_fraction` keeps after its no-disturbance, incidence, program and
simplex children. A target the package no longer has is skipped, and its
metrics read 0.

Spans stay in memory; `dump` writes them out once the run has ended.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable


def _incidence_counts(args, kwargs, result) -> dict:
    return {
        "rows": len(result.rows),
        "cols": len(result.assignments),
        "nnz": int((result.matrix != 0).sum()),
    }


def _parse_counts(args, kwargs, result) -> dict:
    text = args[0] if args else kwargs.get("text", "")
    return {"bytes": len(text.encode("utf-8"))}


def _witness_counts(args, kwargs, result) -> dict:
    return {"size": len(result.witness)}


def _sections_counts(args, kwargs, result) -> dict:
    return {"count": len(result)}


def _liar_counts(args, kwargs, result) -> dict:
    return {} if result is None else {"steps": len(result.steps)}


# module -> public functions wrapped, with an optional counter on the result
TARGETS: dict[str, dict[str, Callable | None]] = {
    "cli": {"run": None},
    "scnformat": {"parse_file": _parse_counts},
    "scenario": {
        "realize": None,
        "snap_to_rationals": None,
        "support_of": None,
        "no_disturbance": None,
    },
    "logic": {
        "classify": None,
        "global_sections": _sections_counts,
        "liar_cycles": _liar_counts,
    },
    "builders": {"certain_implications": None},
    "metacontext": {"check_claims": None, "compare_cuts": None},
    "ncpoly": {
        "contextual_fraction": _witness_counts,
        "incidence": _incidence_counts,
        "ncf_program": None,
        "simplex": None,
    },
    "report": {
        "model_report": None,
        "chain_report": None,
        "render_text": None,
        "render_json": None,
    },
}

# children of contextual_fraction whose time is not certificate time
CERTIFICATE_EXCLUDES = frozenset(
    {"scenario.no_disturbance", "ncpoly.incidence", "ncpoly.ncf_program", "ncpoly.simplex"}
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: dict[str, str] = {
    "ncpoly.contextual_fraction_s": "s",
    "ncpoly.incidence_s": "s",
    "ncpoly.ncf_program_s": "s",
    "ncpoly.simplex_s": "s",
    "ncpoly.certificate_s": "s",
    "ncpoly.incidence.calls": "count",
    "ncpoly.incidence.rows": "count",
    "ncpoly.incidence.cols": "count",
    "ncpoly.incidence.nnz": "count",
    "ncpoly.witness.size": "count",
    "logic.classify_s": "s",
    "logic.global_sections_s": "s",
    "logic.global_sections.count": "count",
    "logic.liar_cycles_s": "s",
    "logic.liar_cycles.calls": "count",
    "logic.liar_cycle.steps": "count",
    "builders.certain_implications_s": "s",
    "scenario.realize_s": "s",
    "scenario.snap_to_rationals_s": "s",
    "scenario.support_of_s": "s",
    "scenario.no_disturbance_s": "s",
    "metacontext.check_claims_s": "s",
    "metacontext.compare_cuts_s": "s",
    "scnformat.parse_file_s": "s",
    "scnformat.input_bytes": "bytes",
    "report.model_report_s": "s",
    "report.chain_report_s": "s",
    "report.render_text_s": "s",
    "report.render_json_s": "s",
    "cli.run_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counts")

    def __init__(self, name: str, parent: int, item: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.item = item
        self.counts: dict | None = None


class Tracer:
    def __init__(self, package: str = "contextuality"):
        self.package = package
        self.spans: list[Span] = []
        self.items = 0
        self.scales: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_item(self) -> None:
        self.items += 1

    def scale_item(self, factor: float) -> None:
        """Scale the spans of the current item by `factor`, the correction to
        the reference speed measured around that call; items never scaled
        count 1."""
        self.scales.append(factor)

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for short, funcs in TARGETS.items():
            home = sys.modules.get(f"{self.package}.{short}")
            if home is None:
                continue
            for fname, counter in funcs.items():
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.items - 1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, TypeError):
                    pass  # the result no longer has the shape counted here
            return result

        return wrapper

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics: times (scaled, see `scale_item`) and call
        counts per traced item, sizes per call. The caller fills in
        `trace.overhead_s` and `error_rate`."""
        items = max(self.items, 1)
        scales = self.scales + [1.0] * (self.items - len(self.scales))
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, list[float]] = {}
        certificate = 0.0
        for s in self.spans:
            d = (s.end - s.start) * scales[s.item]
            total[s.name] = total.get(s.name, 0.0) + d
            calls[s.name] = calls.get(s.name, 0) + 1
            for k, v in (s.counts or {}).items():
                counts.setdefault(f"{s.name}.{k}", []).append(v)
            if s.name == "ncpoly.contextual_fraction":
                certificate += d
            elif (
                s.name in CERTIFICATE_EXCLUDES
                and s.parent >= 0
                and self.spans[s.parent].name == "ncpoly.contextual_fraction"
            ):
                certificate -= d

        def mean(key: str) -> float:
            values = counts.get(key, [])
            return sum(values) / len(values) if values else 0.0

        out = {}
        for metric, unit in PER_LAYER_UNITS.items():
            if unit == "s" and metric.endswith("_s"):
                out[metric] = total.get(metric[:-2], 0.0) / items
        out["ncpoly.certificate_s"] = certificate / items
        out["ncpoly.incidence.calls"] = calls.get("ncpoly.incidence", 0) / items
        out["ncpoly.incidence.rows"] = mean("ncpoly.incidence.rows")
        out["ncpoly.incidence.cols"] = mean("ncpoly.incidence.cols")
        out["ncpoly.incidence.nnz"] = mean("ncpoly.incidence.nnz")
        out["ncpoly.witness.size"] = mean("ncpoly.contextual_fraction.size")
        out["logic.global_sections.count"] = mean("logic.global_sections.count")
        out["logic.liar_cycles.calls"] = calls.get("logic.liar_cycles", 0) / items
        out["logic.liar_cycle.steps"] = mean("logic.liar_cycles.steps")
        out["scnformat.input_bytes"] = (
            sum(counts.get("scnformat.parse_file.bytes", [])) / items
        )
        return out

    def dump(self, path: Path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.item, s.counts] for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"items": self.items, "spans": rows}), encoding="utf-8")
