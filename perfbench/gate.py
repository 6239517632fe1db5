"""Correctness gate: every program output is compared with an answer known
independently of the program.

Each check returns None when the output is right and a one-line reason when
it is wrong; the benchmark counts an item with a reason as failed. The
closed forms are the normalized n-cycle violation (Araujo et al., PRA 88,
022118 (2013)) and the contextual fraction of Abramsky, Barbosa and Mansfield
(PRL 119, 050504 (2017)).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

QUANTUM_TOL = 1e-9


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def noisy_cycle_ncf(n: int, v: Fraction) -> Fraction:
    """NCF of v * (odd n-cycle) + (1 - v) * uniform noise."""
    return min(Fraction(1), n * (1 - v) / 2)


def chained_bell_ncf(n: int) -> float:
    """NCF of the chained-Bell realization of the n-cycle on a Bell pair."""
    return n * (1 - math.cos(math.pi / n)) / 2


def _cli_failure(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()}"
    if res.err:
        return f"unexpected stderr: {res.err.strip()}"
    return None


def _fraction_of(res: CliResult) -> tuple[dict | None, str | None]:
    bad = _cli_failure(res)
    if bad:
        return None, bad
    try:
        fraction = json.loads(res.out)["fraction"]
    except (ValueError, KeyError) as e:
        return None, f"unreadable ncf report: {e!r}"
    if fraction is None:
        return None, "report has no fraction section"
    return fraction, None


def check_ncf_exact(res: CliResult, expected: Fraction) -> str | None:
    """`ncf --format json` on a rational table: the exact NCF must equal the
    closed form, and the exact witness weights must sum to it."""
    fraction, bad = _fraction_of(res)
    if bad:
        return bad
    exact = fraction["ncf"]["exact"]
    if exact is None:
        return "no exact NCF for a rational model"
    if Fraction(exact) != expected:
        return f"NCF {exact}, expected {expected}"
    weights = [row["weight"]["exact"] for row in fraction["witness"]]
    if None in weights or sum(map(Fraction, weights)) != expected:
        return "exact witness weights do not sum to the NCF"
    return None


def check_ncf_quantum(res: CliResult, expected: float) -> str | None:
    """`ncf --format json` on an irrational realization: the float NCF must
    match the closed form within QUANTUM_TOL and no exact value may appear."""
    fraction, bad = _fraction_of(res)
    if bad:
        return bad
    value = fraction["ncf"]["value"]
    if fraction["ncf"]["exact"] is not None:
        return f"irrational model got an exact NCF {fraction['ncf']['exact']}"
    if abs(value - expected) > QUANTUM_TOL:
        return f"NCF {value!r}, expected {expected!r}"
    total = sum(row["weight"]["value"] for row in fraction["witness"])
    if abs(total - value) > QUANTUM_TOL:
        return "witness weights do not sum to the NCF"
    return None


@dataclass(frozen=True)
class LogicExpectation:
    classification: str
    global_sections: int
    chain_steps: int | None  # None: no liar cycle in the report


def check_logic(report_json: str, want: LogicExpectation) -> str | None:
    """Classification, section count and liar-chain length of a report."""
    try:
        d = json.loads(report_json)
    except ValueError as e:
        return f"unreadable report: {e!r}"
    if d["classification"] != want.classification:
        return f"classification {d['classification']}, expected {want.classification}"
    if d["global_sections"] != want.global_sections:
        return f"{d['global_sections']} global sections, expected {want.global_sections}"
    cycle = d["liar_cycle"]
    if want.chain_steps is None:
        return None if cycle is None else "unexpected liar cycle"
    if cycle is None or cycle["contradiction"] is None:
        return "no liar cycle found"
    if len(cycle["steps"]) != want.chain_steps:
        return f"liar chain of {len(cycle['steps'])} steps, expected {want.chain_steps}"
    return None


# ------------------------------------------------------------ shipped corpus

# name -> (classification, global sections, exact NCF, liar-chain steps)
CORPUS_EXPECTED: dict[str, tuple[str, int, Fraction, int | None]] = {
    "hardy": ("LogicallyContextual", 5, Fraction(5, 6), 3),
    "fr": ("LogicallyContextual", 5, Fraction(5, 6), 3),
}
for _n in (3, 4, 5):
    CORPUS_EXPECTED[f"cycle_{_n}_odd"] = ("StronglyContextual", 0, Fraction(0), _n - 1)
    CORPUS_EXPECTED[f"cycle_{_n}_even"] = ("GloballyExtendable", 2, Fraction(1), None)
# chain files: final-basis family -> total variation between cut 0 and cut 1
CHAIN_EXPECTED: dict[str, dict[str, float]] = {
    "wigner": {"memory-computational": 0.0, "coherent": 0.5},
}

COMMANDS_MODEL = ("demo", "analyze", "analyze_json", "ncf_json", "cycles")
COMMANDS_CHAIN = ("demo", "analyze", "analyze_json")


class CorpusGate:
    """Reference outputs for the shipped corpus.

    The first output of every command on a file is checked once, by
    `settle`: `analyze` must equal `demo` byte for byte, the JSON report must
    re-render to the same text, `ncf` and `cycles` must equal the matching
    sections of the full report, and the values must match CORPUS_EXPECTED or
    CHAIN_EXPECTED. Later outputs must repeat the settled reference exactly.

    `render` turns a JSON report dict into the text report (the program's
    own renderer; the round trip is one of the properties checked).
    """

    def __init__(self, render: Callable[[dict], str]):
        self.render = render
        self.refs: dict[tuple[str, str], str] = {}
        self.bad: dict[str, str] = {}

    def settle(self, first: dict[tuple[str, str], CliResult]) -> dict[str, str]:
        """Check the first outputs; returns file name -> reason for the
        files whose outputs are wrong."""
        names = sorted({name for name, _ in first})
        for name in names:
            outs = {cmd: res for (n, cmd), res in first.items() if n == name}
            reason = self._check_file(name, outs)
            if reason is not None:
                self.bad[name] = reason
            for cmd, res in outs.items():
                self.refs[(name, cmd)] = res.out
        return dict(self.bad)

    def check(self, name: str, cmd: str, res: CliResult) -> str | None:
        if name in self.bad:
            return self.bad[name]
        bad = _cli_failure(res)
        if bad:
            return bad
        ref = self.refs.get((name, cmd))
        if ref is None:
            return "no settled reference"
        return None if res.out == ref else f"{cmd} {name}: output changed between runs"

    def _check_file(self, name: str, outs: dict[str, CliResult]) -> str | None:
        commands = COMMANDS_CHAIN if name in CHAIN_EXPECTED else COMMANDS_MODEL
        missing = set(commands) - set(outs)
        if missing:
            return f"{name}: no output from {sorted(missing)}"
        for cmd, res in outs.items():
            bad = _cli_failure(res)
            if bad:
                return f"{cmd} {name}: {bad}"
        text = outs["demo"].out
        if outs["analyze"].out != text:
            return f"analyze {name} differs from demo {name}"
        try:
            d = json.loads(outs["analyze_json"].out)
        except ValueError as e:
            return f"analyze {name} --format json is not JSON: {e!r}"
        if self.render(d) != text:
            return f"JSON report of {name} does not re-render to the text report"
        if name in CHAIN_EXPECTED:
            return _check_chain(name, d)
        if name not in CORPUS_EXPECTED:
            return f"no expected values for corpus file {name}"
        cls, sections, ncf, steps = CORPUS_EXPECTED[name]
        bad = check_logic(outs["analyze_json"].out, LogicExpectation(cls, sections, steps))
        if bad:
            return f"{name}: {bad}"
        fraction = d["fraction"]
        if fraction is None or fraction["ncf"]["exact"] is None:
            return f"{name}: no exact NCF"
        if Fraction(fraction["ncf"]["exact"]) != ncf:
            return f"{name}: NCF {fraction['ncf']['exact']}, expected {ncf}"
        blank = {k: None for k in d}
        head = {"name": d["name"], "kind": d["kind"], "eps": d["eps"]}
        ncf_want = {**blank, **head, "no_disturbance": d["no_disturbance"], "fraction": fraction}
        if json.loads(outs["ncf_json"].out) != ncf_want:
            return f"ncf {name} differs from the fraction section of analyze"
        cycles_want = {**blank, **head, "sentences": d["sentences"], "liar_cycle": d["liar_cycle"]}
        if self.render(cycles_want) != outs["cycles"].out:
            return f"cycles {name} differs from the liar-cycle section of analyze"
        return None


def _check_chain(name: str, d: dict) -> str | None:
    if d["kind"] != "chain" or d["cuts"] is None:
        return f"{name}: not a chain report"
    for fam in d["cuts"]["families"]:
        want = CHAIN_EXPECTED[name].get(fam["basis"])
        if want is None:
            return f"{name}: unexpected final basis {fam['basis']}"
        for comp in fam["comparisons"]:
            if abs(comp["tv"] - want) > QUANTUM_TOL:
                return f"{name}: tv {comp['tv']!r} in {fam['basis']}, expected {want!r}"
    return None
