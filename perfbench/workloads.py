"""Seeded workloads. Each item is one CLI invocation or one model analysis,
with the answer known in closed form.

The seed picks variants whose closed-form answer does not change:
per-observable outcome labels, a global rotation of the chained-Bell
measurement angles, and noise levels or table entries from fixed rational
grids where they leave the cost unchanged. The program sees only the
generated `.scn` files or models.

Outcome labels follow the physical outcome order in every declaration. A
relabeling that also reorders the outcomes reorders the NCF program's rows
and columns, which changes the Bland simplex's pivot path and the cost of
one n = 11 item by up to a factor of two; a run of a few passes would then
time whatever handful of pivot paths its seed drew. Likewise the ncf_exact
noise levels are the fixed pair {9/10, 4/5}, both in every pass, because
the level moves the exact certificate's cost by up to 1.9x.

A pass holds every item of a workload a fixed number of times (its weight),
and runs time whole passes only. The weights put the median and the 90th
percentile of a pass inside one group of similar items, not on the boundary
between a cheap group and a costly one, where they would jump from run to
run.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from . import gate
from .gate import CliResult, LogicExpectation

WORKLOADS = ("corpus_cli", "ncf_exact", "ncf_quantum", "logic_cycles")

# outcome labels of one observable, physical outcome 0 first
LABEL_PAIRS = (("0", "1"), ("1", "0"), ("+", "-"), ("-", "+"), ("u", "d"), ("d", "u"))

# (n, v) -> copies per pass; v = 4/5 clamps the NCF to 1 from n = 10 on
NCF_EXACT_WEIGHTS = {
    (8, Fraction(9, 10)): 2,
    (8, Fraction(4, 5)): 2,
    (9, Fraction(9, 10)): 2,
    (9, Fraction(4, 5)): 2,
    (10, Fraction(9, 10)): 1,
    (10, Fraction(4, 5)): 1,
    (11, Fraction(9, 10)): 1,
    (11, Fraction(4, 5)): 3,
}
NCF_QUANTUM_WEIGHTS = {6: 2, 8: 2, 10: 1, 12: 1}
FULL_SUPPORT_WEIGHTS = {12: 1, 13: 1, 14: 5, 15: 1}
# copies per pass of each odd and each Hardy-like cycle
LIAR_FAMILY_WEIGHT = 2
FULL_SUPPORT_GRID = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
ODD_CYCLE_SIZES = tuple(range(16, 25))
HARDY_CYCLE_SIZES = (9, 11, 13, 15, 17)
# probability of each equal-outcome row of the fully supported closing context
HARDY_CLOSING_GRID = (Fraction(1, 8), Fraction(1, 6), Fraction(1, 3), Fraction(3, 8))
# distinct passes generated per workload; a run cycles through them
POOL_PASSES = 4


@dataclass(frozen=True)
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    """`passes` are timed whole, cycling, until the time is up; `warmup`
    runs once, untimed but checked, before them.

    `settle`, when set, receives the result of every warm-up item and
    returns item name -> failure reason for the wrong ones."""

    name: str
    passes: list[list[Item]]
    warmup: list[Item]
    files_bytes: int = 0
    settle: Callable[[dict[str, object]], dict[str, str]] | None = None

    def first_failures(self, results: dict[str, object]) -> dict[str, str]:
        failures = self.settle(results) if self.settle is not None else {}
        for item in self.warmup:
            if item.name in results and item.name not in failures:
                reason = item.check(results[item.name])
                if reason is not None:
                    failures[item.name] = reason
        return failures


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _labels(rng: random.Random, n: int) -> list[tuple[str, str]]:
    return [rng.choice(LABEL_PAIRS) for _ in range(n)]


def _cycle_contexts(n: int) -> list[tuple[int, int]]:
    return [(i, i % n + 1) for i in range(1, n + 1)]


def cycle_tables(
    n: int,
    labels: list[tuple[str, str]],
    weight: Callable[[int, bool], Fraction],
) -> Iterator[tuple[tuple[int, int], list[tuple[str, str, Fraction]]]]:
    """Tables of an n-cycle over observables S1..Sn.

    weight(k, equal) is the probability of a row of context k (0-based,
    context n-1 closes the cycle) whose physical outcomes are equal or not;
    labels[i] names the two outcomes of S(i+1)."""
    for k, (a, b) in enumerate(_cycle_contexts(n)):
        rows = []
        for xa in (0, 1):
            for xb in (0, 1):
                rows.append((labels[a - 1][xa], labels[b - 1][xb], weight(k, xa == xb)))
        yield (a, b), rows


def _scenario_lines(name: str, labels: list[tuple[str, str]]) -> list[str]:
    n = len(labels)
    lines = [f"scenario {name}", ""]
    lines += [f"observable S{i} outcomes {' '.join(labels[i - 1])}" for i in range(1, n + 1)]
    lines.append("")
    lines += [f"context S{a} S{b}" for a, b in _cycle_contexts(n)]
    return lines


def odd_noise_weight(n: int, v: Fraction) -> Callable[[int, bool], Fraction]:
    """v * (odd n-cycle) + (1 - v) * uniform: every context correlated except
    the closing one, which is anticorrelated."""
    hi, lo = (1 + v) / 4, (1 - v) / 4

    def weight(k: int, equal: bool) -> Fraction:
        return hi if equal == (k < n - 1) else lo

    return weight


def hardy_cycle_weight(n: int, a: Fraction) -> Callable[[int, bool], Fraction]:
    """Correlated contexts with a fully supported closing context: two global
    sections, and the closing context's unequal events close a liar chain."""

    def weight(k: int, equal: bool) -> Fraction:
        if k == n - 1:
            return a if equal else Fraction(1, 2) - a
        return Fraction(1, 2) if equal else Fraction(0)

    return weight


def noisy_cycle_scn(name: str, v: Fraction, labels: list[tuple[str, str]]) -> str:
    """Rational-table file of the white-noise odd n-cycle, n = len(labels)."""
    n = len(labels)
    lines = _scenario_lines(name, labels)
    for (a, b), rows in cycle_tables(n, labels, odd_noise_weight(n, v)):
        lines += ["", f"table S{a} S{b}"]
        lines += [f"  {la} {lb} {p}" for la, lb, p in rows]
    return "\n".join(lines) + "\n"


def chained_bell_scn(name: str, phi: float, labels: list[tuple[str, str]]) -> str:
    """Bell pair (|00> + |11>)/sqrt 2; observable S(j+1) measured on qubit
    j % 2 at Bloch angle j*pi/n + phi in the x-z plane, n = len(labels).
    Neighbours differ by pi/n; the closing pair differs by (n-1)pi/n, which
    makes the cycle odd."""
    n = len(labels)
    if n % 2:
        raise ValueError("the chained-Bell cycle alternates qubits, n must be even")
    r = 1.0 / math.sqrt(2.0)
    lines = _scenario_lines(name, labels)
    lines += ["", "state 2 2", f"  amp 0 {r!r} 0.0", f"  amp 3 {r!r} 0.0", ""]
    for j in range(n):
        theta = j * math.pi / n + phi
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        lines.append(f"measure S{j + 1} site {j % 2} basis explicit labels {' '.join(labels[j])}")
        lines.append(f"  vec {c!r} 0.0 {s!r} 0.0")
        lines.append(f"  vec {-s!r} 0.0 {c!r} 0.0")
    return "\n".join(lines) + "\n"


def cycle_model(labels: list[tuple[str, str]], weight: Callable[[int, bool], Fraction]):
    """An n-cycle's tables as an in-memory EmpiricalModel with exact
    entries, n = len(labels)."""
    from contextuality.qstate import Distribution
    from contextuality.scenario import EmpiricalModel, Observable, Scenario

    n = len(labels)
    sc = Scenario(
        tuple(Observable(f"S{i}", labels[i - 1]) for i in range(1, n + 1)),
        tuple((f"S{a}", f"S{b}") for a, b in _cycle_contexts(n)),
    )
    tables = {}
    for (a, b), rows in cycle_tables(n, labels, weight):
        exact = {(la, lb): p for la, lb, p in rows}
        tables[(f"S{a}", f"S{b}")] = Distribution(
            {t: float(p) for t, p in exact.items()}, exact
        )
    return EmpiricalModel(sc, tables)


def call_cli(argv: list[str]) -> CliResult:
    from contextuality import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _passes(
    rng: random.Random, make_pass: Callable[[int], list[Item]]
) -> tuple[list[list[Item]], Item]:
    """POOL_PASSES passes, each in its own seeded order, and the first item
    made (the smallest size, which serves as the warm-up)."""
    passes = []
    for p in range(POOL_PASSES):
        one = make_pass(p)
        if p == 0:
            first = one[0]
        rng.shuffle(one)
        passes.append(one)
    return passes, first


def _write(workdir: Path, fname: str, text: str) -> str:
    path = workdir / fname
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- builders


def build_corpus_cli(seed: int, data: Path) -> Workload:
    """Every shipped corpus file through demo, analyze (text and JSON), ncf
    and cycles. The seed only orders the pass. fr carries the exact NCF
    certificate that dominates the pass; its four NCF-solving commands count
    twice, so that the 90th percentile sits inside that group."""
    from contextuality import report

    rng = _rng("corpus_cli", seed)
    corpus_gate = gate.CorpusGate(
        lambda d: report.render_text(report.AnalysisReport.from_dict(d))
    )
    distinct: list[Item] = []
    repeated: list[Item] = []
    size = 0
    for name in sorted(gate.CORPUS_EXPECTED) + sorted(gate.CHAIN_EXPECTED):
        path = data / f"{name}.scn"
        size += path.stat().st_size
        target = name.split("_") if name.startswith("cycle_") else [name]
        argvs = {
            "demo": ["demo", *target],
            "analyze": ["analyze", str(path)],
            "analyze_json": ["analyze", str(path), "--format", "json"],
            "ncf_json": ["ncf", str(path), "--format", "json"],
            "cycles": ["cycles", str(path)],
        }
        chain = name in gate.CHAIN_EXPECTED
        for cmd in gate.COMMANDS_CHAIN if chain else gate.COMMANDS_MODEL:
            item = Item(
                f"{cmd}:{name}",
                lambda argv=argvs[cmd]: call_cli(argv),
                lambda res, name=name, cmd=cmd: corpus_gate.check(name, cmd, res),
            )
            distinct.append(item)
            if name == "fr" and cmd != "cycles":
                repeated.append(item)
    one = distinct + repeated
    rng.shuffle(one)

    def settle(results: dict[str, object]) -> dict[str, str]:
        keys = {item: item.split(":", 1) for item in results}
        bad = corpus_gate.settle({(name, cmd): results[item] for item, (cmd, name) in keys.items()})
        return {item: bad[name] for item, (_, name) in keys.items() if name in bad}

    return Workload("corpus_cli", [one], distinct, size, settle)


def _ncf_item(name: str, path: str, check: Callable[[CliResult], str | None]) -> Item:
    return Item(name, lambda: call_cli(["ncf", path, "--format", "json"]), check)


def build_ncf_exact(seed: int, workdir: Path) -> Workload:
    """White-noise odd n-cycles as rational tables through `ncf --format
    json`; exact NCF = min(1, n(1-v)/2). With NCF_EXACT_WEIGHTS the median
    falls inside the n = 9 group and the 90th percentile in the middle of
    the n = 11, v = 4/5 group."""
    rng = _rng("ncf_exact", seed)
    size = 0

    def make_pass(p: int) -> list[Item]:
        nonlocal size
        items = []
        for (n, v), count in NCF_EXACT_WEIGHTS.items():
            for rep in range(count):
                name = f"noisy_{n}_{v.numerator}_{v.denominator}_{p}_{rep}"
                text = noisy_cycle_scn(name, v, _labels(rng, n))
                size += len(text.encode())
                path = _write(workdir, name + ".scn", text)
                expected = gate.noisy_cycle_ncf(n, v)
                items.append(
                    _ncf_item(name, path, lambda res, e=expected: gate.check_ncf_exact(res, e))
                )
        return items

    passes, first = _passes(rng, make_pass)
    return Workload("ncf_exact", passes, [first], size)


def build_ncf_quantum(seed: int, workdir: Path) -> Workload:
    """Chained-Bell realizations as state-plus-measure files through `ncf
    --format json`; NCF = n(1 - cos(pi/n))/2 within 1e-9. The probabilities
    are irrational, so only the float path runs. With NCF_QUANTUM_WEIGHTS the
    median falls in the n = 8 group and the 90th percentile in the n = 12
    one."""
    rng = _rng("ncf_quantum", seed)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    size = 0

    def make_pass(p: int) -> list[Item]:
        nonlocal size
        items = []
        for n, count in NCF_QUANTUM_WEIGHTS.items():
            for rep in range(count):
                name = f"chained_bell_{n}_{p}_{rep}"
                text = chained_bell_scn(name, phi, _labels(rng, n))
                size += len(text.encode())
                path = _write(workdir, name + ".scn", text)
                expected = gate.chained_bell_ncf(n)
                items.append(
                    _ncf_item(name, path, lambda res, e=expected: gate.check_ncf_quantum(res, e))
                )
        return items

    passes, first = _passes(rng, make_pass)
    return Workload("ncf_quantum", passes, [first], size)


def build_logic_cycles(seed: int) -> Workload:
    """Possibilistic cycle families through model_report (logic, sentences
    and liar cycle only) and render_json; ncpoly never runs. With
    FULL_SUPPORT_WEIGHTS and LIAR_FAMILY_WEIGHT the 90th percentile sits in
    the full-support n = 14 group and the median among the many cheap
    liar-chain items."""
    from contextuality import report

    rng = _rng("logic_cycles", seed)
    sections = frozenset({"logic", "sentences", "cycle"})
    families = (
        (
            "full_support",
            FULL_SUPPORT_WEIGHTS,
            lambda n: odd_noise_weight(n, rng.choice(FULL_SUPPORT_GRID)),
            lambda n: LogicExpectation("GloballyExtendable", 2**n, None),
        ),
        (
            "odd",
            dict.fromkeys(ODD_CYCLE_SIZES, LIAR_FAMILY_WEIGHT),
            lambda n: odd_noise_weight(n, Fraction(1)),
            lambda n: LogicExpectation("StronglyContextual", 0, n - 1),
        ),
        (
            "hardy_like",
            dict.fromkeys(HARDY_CYCLE_SIZES, LIAR_FAMILY_WEIGHT),
            lambda n: hardy_cycle_weight(n, rng.choice(HARDY_CLOSING_GRID)),
            lambda n: LogicExpectation("LogicallyContextual", 2, n - 1),
        ),
    )

    def analysis(model, name):
        return lambda: report.render_json(report.model_report(model, name, sections=sections))

    def make_pass(p: int) -> list[Item]:
        items = []
        for prefix, weights, weight_of, want_of in families:
            for n, count in weights.items():
                for rep in range(count):
                    name = f"{prefix}_{n}_{p}_{rep}"
                    model = cycle_model(_labels(rng, n), weight_of(n))
                    items.append(
                        Item(name, analysis(model, name),
                             lambda out, w=want_of(n): gate.check_logic(out, w))
                    )
        return items

    passes, first = _passes(rng, make_pass)
    return Workload("logic_cycles", passes, [first])


def build(workload: str, seed: int, workdir: Path, data: Path) -> Workload:
    if workload == "corpus_cli":
        return build_corpus_cli(seed, data)
    if workload == "ncf_exact":
        return build_ncf_exact(seed, workdir)
    if workload == "ncf_quantum":
        return build_ncf_quantum(seed, workdir)
    if workload == "logic_cycles":
        return build_logic_cycles(seed)
    raise ValueError(f"unknown workload {workload!r}")
