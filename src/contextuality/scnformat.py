"""Line-oriented scenario file format: parsing and canonical serialization.

Format sketch (UTF-8, ``#`` starts a comment, top-level directives at column
one, block rows indented):

    scenario <name>
    observable <label> outcomes <l1> <l2> ...
    context <label1> <label2> ...
    table <context-labels-or-index>
      <outcome tuple> <probability>     # decimal or p/q
    state <dim per site ...>
      amp <flat-index> <re> <im>
    measure <obs> site <k> basis <computational|diagonal|explicit> labels ...
      vec <re> <im> <re> <im> ...       # explicit bases only, one per vector
    chain <agent> basis <computational|diagonal|explicit> labels ...
      vec ...

A file carries either probability tables (one per declared context) or a
state block with one measure line per observable; a state plus chain lines
defines an observer chain instead. A table header names its context by
labels; a lone number is read as a 0-based context index only when no
declared context has that label. Rational probability literals are kept
exactly alongside their float values; a table whose literals sum to exactly
1 stays exact end to end. The parser makes every check on its tables
itself, the sum within FILE_SUM_TOL included, and builds the model unchecked.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metacontext import Agent, ObserverChain
from .qstate import (
    Distribution,
    SiteBasis,
    StateVector,
    _sums_to_one,
    computational_basis,
    diagonal_basis,
)
from .scenario import (
    EmpiricalModel,
    MeasurementRecipe,
    Observable,
    QuantumRealization,
    Scenario,
)

__all__ = [
    "FILE_SUM_TOL",
    "ParseError",
    "ScenarioFile",
    "parse_file",
    "parse_model",
    "serialize_scenario",
    "serialize_model",
    "serialize_realization",
    "serialize_chain",
]

# looser than the internal 1e-9: files carry rounded decimal literals
FILE_SUM_TOL = 1e-6
# amplitudes a state block may declare: 2**24 complex amplitudes take 256 MiB
_MAX_STATE_SIZE = 2**24
# compound dimension a chain may reach: `analyze` of one computational agent
# took 0.02 s at 2**8 and about 0.5 s at 2**10 on a 2-vCPU VM, two thirds of
# it in the per-branch contractions of mixture_born; the report at 45**2 took
# 1.6 s and 335 MB, past the second that a chain may take
_MAX_CHAIN_DIM = 2**10

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_BASIS_KINDS = ("computational", "diagonal", "explicit")


class ParseError(ValueError):
    """Syntax or consistency error with a 1-based line/column location.

    line/col are None for file-level problems (e.g. a context left without
    a table) that no single token causes."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is None:
            text = message
        elif col is None:
            text = f"line {line}: {message}"
        else:
            text = f"line {line}, column {col}: {message}"
        super().__init__(text)


@dataclass(frozen=True)
class ScenarioFile:
    """Everything a single file can declare. Unused parts are None."""

    name: str
    scenario: Scenario | None
    model: EmpiricalModel | None
    realization: QuantumRealization | None
    chain: ObserverChain | None


def _lines(text: str):
    """(line number, body, words) per line with a word. The body is the line
    up to its first '#'; a word is a maximal run of non-whitespace, as
    str.split() and the regex \\S+ both define it."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if words:
            yield ln, body, words


def _column(body: str, words: list[str], i: int) -> int:
    """1-based column of words[i] in body: where str.find meets it after the
    previous word, since only whitespace lies in between. Only an error
    reads a column, so a file that parses never walks its lines twice."""
    end = 0
    for word in words[:i]:
        end = body.find(word, end) + len(word)
    return body.find(words[i], end) + 1


@dataclass
class _TableBlock:
    context: tuple[str, ...]
    outcomes: tuple[tuple[str, ...], ...]  # each label's declared outcomes
    line: int
    rows: dict[tuple[str, ...], tuple[float, Fraction | None]] = field(
        default_factory=dict
    )


@dataclass
class _BasisSpec:
    kind: str
    labels: tuple[str, ...]  # empty when the line gives none
    line: int
    vecs: list[list[complex]] = field(default_factory=list)


@dataclass
class _MeasureSpec:
    sites: tuple[int, ...]
    basis: _BasisSpec
    line: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.name: str | None = None
        self.observables: list[Observable] = []
        self.by_label: dict[str, Observable] = {}
        self.contexts: list[tuple[str, ...]] = []
        # each declared context by its label set; a table names it by the
        # exact tuple, a context line repeats it in any order
        self.declared: dict[frozenset[str], tuple[str, ...]] = {}
        self.tables: dict[tuple[str, ...], _TableBlock] = {}
        self.state_dims: tuple[int, ...] | None = None
        self.state_line = 0
        self.amps: dict[int, complex] = {}
        self.measures: dict[str, _MeasureSpec] = {}
        self.agents: list[tuple[str, _BasisSpec]] = []
        # open block: ("table", _TableBlock) | ("state", size) | ("vecs", _BasisSpec)
        self.block: tuple | None = None
        # the line being read, which an error locates itself in
        self.ln, self.body, self.words = 0, "", []

    def _error(self, message: str, i: int = 0) -> ParseError:
        """A ParseError at the current line's word i."""
        return ParseError(message, self.ln, _column(self.body, self.words, i))

    def _int(self, i: int, what: str) -> int:
        try:
            return int(self.words[i])
        except ValueError:
            raise self._error(f"invalid {what} {self.words[i]!r}", i) from None

    def _float(self, i: int, what: str) -> float:
        """A finite float: NaN and infinities are rejected like non-numbers."""
        text = self.words[i]
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise self._error(f"invalid {what} {text!r}", i)
        return value

    def _prob(self, i: int) -> tuple[float, Fraction | None]:
        """Value plus, for integer and p/q literals only, the exact rational.
        Decimal literals stay float-only; a file round-trips byte-for-byte."""
        text = self.words[i]
        m = _RATIONAL.match(text)
        if m:
            num, den = int(m.group(1)), int(m.group(2) or 1)
            if den == 0:
                raise self._error(f"probability {text!r} has a zero denominator", i)
            frac: Fraction | None = Fraction(num, den)
            # num / den is float(frac); past 1 it may exceed the float range
            value = num / den if abs(num) <= den else math.inf
        else:
            try:
                value = float(text)
            except ValueError:
                raise self._error(f"invalid probability literal {text!r}", i) from None
            frac = None
        if not math.isfinite(value) or value < 0 or value > 1:
            raise self._error(f"probability {text} is outside [0, 1]", i)
        return value, frac

    # ------------------------------------------------------- statements

    def run(self) -> ScenarioFile:
        for self.ln, self.body, self.words in _lines(self.text):
            words = self.words
            if self.body[0] in " \t":
                self._row(words)
                continue
            self.block = None
            head = words[0]
            handler = getattr(self, "_stmt_" + head, None)
            if handler is None or head.startswith("_"):
                raise self._error(f"unknown directive {head!r}")
            handler(words)
        return self._finalize()

    def _stmt_scenario(self, words: list[str]) -> None:
        if self.name is not None:
            raise self._error("duplicate scenario header")
        if len(words) != 2:
            raise self._error("scenario header needs exactly one name")
        self.name = words[1]

    def _stmt_observable(self, words: list[str]) -> None:
        if len(words) < 4 or words[2] != "outcomes":
            raise self._error("expected 'observable <label> outcomes <l1> <l2> ...'")
        label = words[1]
        if label in self.by_label:
            raise self._error(f"duplicate observable {label!r}", 1)
        try:
            obs = Observable(label, tuple(words[3:]))
        except ValueError as e:
            raise self._error(str(e)) from None
        self.observables.append(obs)
        self.by_label[label] = obs

    def _stmt_context(self, words: list[str]) -> None:
        if len(words) < 2:
            raise self._error("context needs at least one observable label")
        ctx = tuple(words[1:])
        seen = set()
        for i, label in enumerate(ctx, 1):
            if label not in self.by_label:
                raise self._error(f"context names undeclared observable {label!r}", i)
            if label in seen:
                raise self._error(f"context repeats observable {label!r}", i)
            seen.add(label)
        key = frozenset(seen)
        if key in self.declared:
            raise self._error(f"duplicate context ({' '.join(ctx)})")
        self.declared[key] = ctx
        self.contexts.append(ctx)

    def _stmt_table(self, words: list[str]) -> None:
        if len(words) < 2:
            raise self._error("table needs a context index or its labels")
        ctx = tuple(words[1:])
        if self.declared.get(frozenset(ctx)) != ctx:
            # a lone number is an index only when no context has it as label
            if len(ctx) != 1 or not ctx[0].isdecimal():
                raise self._error(f"table for undeclared context ({' '.join(ctx)})", 1)
            idx = int(ctx[0])
            if idx >= len(self.contexts):
                raise self._error(
                    f"table index {idx} out of range ({len(self.contexts)} "
                    f"contexts declared)",
                    1,
                )
            ctx = self.contexts[idx]
        if ctx in self.tables:
            raise self._error(f"duplicate table for context ({' '.join(ctx)})")
        outcomes = tuple(self.by_label[label].outcomes for label in ctx)
        block = _TableBlock(ctx, outcomes, self.ln)
        self.tables[ctx] = block
        self.block = ("table", block)

    def _stmt_state(self, words: list[str]) -> None:
        if self.state_dims is not None:
            raise self._error("duplicate state block")
        if len(words) < 2:
            raise self._error("state needs one dimension per site")
        dims = tuple(self._int(i, "site dimension") for i in range(1, len(words)))
        for i, d in enumerate(dims, 1):
            if d < 2:
                raise self._error(f"site dimension must be >= 2, got {d}", i)
        size = math.prod(dims)
        if size > _MAX_STATE_SIZE:
            raise self._error(
                f"state of {size} amplitudes exceeds the 2**24 state size guard"
            )
        self.state_dims = dims
        self.state_line = self.ln
        self.block = ("state", size)

    def _basis_tail(self, words: list[str], start: int) -> _BasisSpec:
        """Parse 'basis <kind> [labels <l1> ...]' starting at words[start]."""
        if start >= len(words) or words[start] != "basis":
            raise self._error("expected 'basis <kind>'", min(start, len(words) - 1))
        if start + 1 >= len(words):
            raise self._error("basis needs a kind", start)
        kind = words[start + 1]
        if kind not in _BASIS_KINDS:
            raise self._error(
                f"unknown basis kind {kind!r} (expected one of "
                f"{', '.join(_BASIS_KINDS)})",
                start + 1,
            )
        labels: tuple[str, ...] = ()
        if start + 2 < len(words):
            if words[start + 2] != "labels" or start + 3 >= len(words):
                raise self._error("expected 'labels <l1> <l2> ...'", start + 2)
            labels = tuple(words[start + 3 :])
        if kind == "explicit" and not labels:
            raise self._error("explicit basis requires labels", start + 1)
        return _BasisSpec(kind, labels, self.ln)

    def _stmt_measure(self, words: list[str]) -> None:
        if len(words) < 3 or words[2] not in ("site", "sites"):
            raise self._error("expected 'measure <observable> site <k> basis ...'")
        label = words[1]
        if label not in self.by_label:
            raise self._error(f"measure for undeclared observable {label!r}", 1)
        if label in self.measures:
            raise self._error(f"duplicate measure for observable {label!r}")
        i = 3
        sites: list[int] = []
        while i < len(words) and words[i] != "basis":
            sites.append(self._int(i, "site index"))
            i += 1
        if not sites:
            raise self._error("measure needs at least one site index")
        spec = self._basis_tail(words, i)
        self.measures[label] = _MeasureSpec(tuple(sites), spec, self.ln)
        self.block = ("vecs", spec) if spec.kind == "explicit" else None

    def _stmt_chain(self, words: list[str]) -> None:
        if len(words) < 2:
            raise self._error("expected 'chain <agent> basis ...'")
        name = words[1]
        if any(a == name for a, _ in self.agents):
            raise self._error(f"duplicate chain agent {name!r}", 1)
        spec = self._basis_tail(words, 2)
        self.agents.append((name, spec))
        self.block = ("vecs", spec) if spec.kind == "explicit" else None

    # ------------------------------------------------------- block rows

    def _row(self, words: list[str]) -> None:
        if self.block is None:
            raise self._error("indented line outside any block")
        kind, target = self.block
        if kind == "table":
            self._table_row(target, words)
        elif kind == "state":
            self._amp_row(target, words)
        else:
            self._vec_row(target, words)

    def _table_row(self, block: _TableBlock, words: list[str]) -> None:
        n = len(block.context)
        if len(words) != n + 1:
            raise self._error(
                f"table row needs {n} outcome labels and one probability"
            )
        key = tuple(words[:n])
        if not all(map(tuple.__contains__, block.outcomes, key)):
            for i, (label, outcomes) in enumerate(zip(block.context, block.outcomes)):
                if key[i] not in outcomes:
                    raise self._error(
                        f"{key[i]!r} is not an outcome of observable {label!r}", i
                    )
        if key in block.rows:
            raise self._error(f"duplicate table row ({' '.join(key)})")
        block.rows[key] = self._prob(n)

    def _amp_row(self, total: int, words: list[str]) -> None:
        if words[0] != "amp" or len(words) != 4:
            raise self._error("expected 'amp <flat-index> <re> <im>'")
        idx = self._int(1, "amplitude index")
        if not (0 <= idx < total):
            raise self._error(
                f"amplitude index {idx} out of range for dimension {total}", 1
            )
        if idx in self.amps:
            raise self._error(f"duplicate amplitude index {idx}", 1)
        re_part = self._float(2, "amplitude component")
        im_part = self._float(3, "amplitude component")
        self.amps[idx] = complex(re_part, im_part)

    def _vec_row(self, spec: _BasisSpec, words: list[str]) -> None:
        if words[0] != "vec":
            raise self._error("expected 'vec <re> <im> ...' row")
        if len(words) < 3 or len(words) % 2 == 0:
            raise self._error(
                "vec row needs an even number of components (re im pairs)"
            )
        try:
            values = list(map(float, words[1:]))
            finite = all(map(math.isfinite, values))
        except ValueError:
            finite = False
        if not finite:  # the first component that fails raises
            for i in range(1, len(words)):
                self._float(i, "vector component")
        spec.vecs.append(list(map(complex, values[::2], values[1::2])))


    # -------------------------------------------------------- finalize

    def _build_basis(self, spec: _BasisSpec, dim: int, owner: str) -> SiteBasis:
        if spec.kind == "computational":
            labels = spec.labels or tuple(str(i) for i in range(dim))
            if len(labels) != dim:
                raise ParseError(
                    f"{owner}: computational basis needs {dim} labels, "
                    f"got {len(labels)}",
                    spec.line,
                )
            return computational_basis(dim, labels)
        if spec.kind == "diagonal":
            if dim != 2:
                raise ParseError(
                    f"{owner}: diagonal basis requires dimension 2, got {dim}",
                    spec.line,
                )
            labels = spec.labels or ("+", "-")
            if len(labels) != 2:
                raise ParseError(
                    f"{owner}: diagonal basis needs 2 labels, got {len(labels)}",
                    spec.line,
                )
            return diagonal_basis(labels)
        if len(spec.vecs) != len(spec.labels):
            raise ParseError(
                f"{owner}: explicit basis has {len(spec.vecs)} vec rows for "
                f"{len(spec.labels)} labels",
                spec.line,
            )
        for v in spec.vecs:
            if len(v) != dim:
                raise ParseError(
                    f"{owner}: basis vector has {len(v)} components, "
                    f"expected {dim}",
                    spec.line,
                )
        try:
            return SiteBasis(spec.vecs, spec.labels)
        except ValueError as e:
            raise ParseError(f"{owner}: {e}", spec.line) from None

    def _build_state(self, dims: tuple[int, ...]) -> StateVector:
        vec = np.zeros(math.prod(dims), dtype=complex)
        for idx, a in self.amps.items():
            vec[idx] = a
        try:
            return StateVector(dims, vec)
        except ValueError as e:
            raise ParseError(f"state block: {e}", self.state_line) from None

    def _build_tables(self, scenario: Scenario) -> EmpiricalModel:
        for ctx in scenario.contexts:
            if ctx not in self.tables:
                raise ParseError(f"missing table for context ({' '.join(ctx)})")
        tables: dict[tuple[str, ...], Distribution] = {}
        for ctx, block in self.tables.items():
            expected = math.prod(map(len, block.outcomes))
            if len(block.rows) != expected:
                raise ParseError(
                    f"table row count mismatch for context "
                    f"({' '.join(ctx)}): {len(block.rows)} rows, expected "
                    f"{expected}",
                    block.line,
                )
            total = sum(v for v, _ in block.rows.values())
            if abs(total - 1.0) > FILE_SUM_TOL:
                sums = f"probabilities sum to {total!r}, not 1"
                raise ParseError(f"table for context ({' '.join(ctx)}): {sums}", block.line)
            # the rows cover the joint outcomes once each: take them in order
            rows = {k: block.rows[k] for k in itertools.product(*block.outcomes)}
            probs = {k: v for k, (v, _) in rows.items()}
            exact = {k: f for k, (_, f) in rows.items()}
            if any(f is None for f in exact.values()) or not _sums_to_one(exact.values()):
                exact = None
            tables[ctx] = Distribution._from_checked(probs, exact, FILE_SUM_TOL)
        return EmpiricalModel._from_checked(scenario, {c: tables[c] for c in scenario.contexts})

    def _build_realization(
        self, scenario: Scenario, state: StateVector
    ) -> QuantumRealization:
        for obs in scenario.observables:
            if obs.label not in self.measures:
                raise ParseError(f"missing measure for observable {obs.label!r}")
        recipes: dict[str, MeasurementRecipe] = {}
        for label, spec in self.measures.items():
            for s in spec.sites:
                if not (0 <= s < state.nsites):
                    raise ParseError(
                        f"measure for {label!r}: site {s} out of range for "
                        f"{state.nsites} sites",
                        spec.line,
                    )
            dim = math.prod(state.sites[s] for s in spec.sites)
            basis = self._build_basis(spec.basis, dim, f"measure for {label!r}")
            declared = self.by_label[label].outcomes
            if basis.labels != declared:
                raise ParseError(
                    f"measure labels for {label!r} do not match its declared "
                    f"outcomes {declared}",
                    spec.line,
                )
            try:
                recipes[label] = MeasurementRecipe(spec.sites, basis)
            except ValueError as e:
                raise ParseError(
                    f"measure for {label!r}: {e}", spec.line
                ) from None
        # each recipe's sites and basis dimension are checked above
        return QuantumRealization(state, recipes)

    def _build_chain(self, state: StateVector) -> ObserverChain:
        agents = []
        running = state.dim
        for name, spec in self.agents:
            # an agent's basis is complete, so it squares the compound
            if running * running > _MAX_CHAIN_DIM:
                raise ParseError(
                    f"chain agent {name!r} makes the compound dimension "
                    f"{running * running}, above the 2**10 chain guard",
                    spec.line,
                )
            basis = self._build_basis(spec, running, f"chain agent {name!r}")
            agents.append(Agent(name, basis))
            running *= basis.n_outcomes
        try:
            return ObserverChain(state, tuple(agents))
        except ValueError as e:
            raise ParseError(str(e), self.agents[0][1].line) from None

    def _finalize(self) -> ScenarioFile:
        if self.name is None:
            raise ParseError("missing scenario header (expected 'scenario <name>')", 1, 1)
        scenario: Scenario | None = None
        if self.observables:
            try:
                scenario = Scenario(tuple(self.observables), tuple(self.contexts))
            except ValueError as e:
                raise ParseError(str(e)) from None
        has_tables = bool(self.tables)
        dims = self.state_dims
        if has_tables and (dims is not None or self.measures or self.agents):
            raise ParseError("file mixes probability tables with a state block")
        if (self.measures or self.agents) and dims is None:
            raise ParseError("measure and chain lines require a state block")
        if dims is not None and not (self.measures or self.agents):
            raise ParseError("state block has no measure or chain lines", self.state_line)
        if dims is None:
            # a table names a declared context, so tables come with a scenario
            if scenario is None:
                raise ParseError("file declares no observables, tables, or state")
            model = self._build_tables(scenario) if has_tables else None
            return ScenarioFile(self.name, scenario, model, None, None)

        state = self._build_state(dims)
        realization = chain = None
        if self.measures:
            if scenario is None:
                raise ParseError("measure lines require observable declarations")
            realization = self._build_realization(scenario, state)
        if self.agents:
            chain = self._build_chain(state)
        return ScenarioFile(self.name, scenario, None, realization, chain)


def parse_file(text: str) -> ScenarioFile:
    """Parse a scenario file into all the objects it declares."""
    return _Parser(text).run()


def parse_model(text: str):
    """Parse a file and return its most derived object: EmpiricalModel,
    QuantumRealization, ObserverChain, or bare Scenario."""
    f = parse_file(text)
    derived = (f.model, f.realization, f.chain)
    return next((obj for obj in derived if obj is not None), f.scenario)


# ------------------------------------------------------------- serializing


def _check_token(s: str, what: str) -> str:
    if not s or re.search(r"\s|#", s):
        raise ValueError(f"{what} {s!r} cannot be written to a scenario file")
    return s


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _scenario_lines(sc: Scenario, name: str) -> list[str]:
    lines = [f"scenario {_check_token(name, 'scenario name')}", ""]
    for o in sc.observables:
        outs = " ".join(_check_token(l, "outcome label") for l in o.outcomes)
        lines.append(f"observable {_check_token(o.label, 'observable label')} outcomes {outs}")
    if sc.contexts:
        lines.append("")
        for c in sc.contexts:
            lines.append("context " + " ".join(c))
    return lines


def serialize_scenario(sc: Scenario, name: str) -> str:
    return "\n".join(_scenario_lines(sc, name)) + "\n"


def serialize_model(m: EmpiricalModel, name: str) -> str:
    lines = _scenario_lines(m.scenario, name)
    for ctx in m.scenario.contexts:
        dist = m.tables[ctx]
        lines.append("")
        lines.append("table " + " ".join(ctx))
        # every model holds its rows in joint_outcomes order; str(float) is repr
        for t, p in (dist.probs if dist.exact is None else dist.exact).items():
            lines.append("  " + " ".join(t) + " " + str(p))
    return "\n".join(lines) + "\n"


def _state_lines(state: StateVector) -> list[str]:
    lines = ["state " + " ".join(str(d) for d in state.sites)]
    for idx, a in enumerate(state.amplitudes):
        if a != 0:
            lines.append(
                f"  amp {idx} {_fmt_float(a.real)} {_fmt_float(a.imag)}"
            )
    return lines


def _basis_form(vectors: np.ndarray) -> str:
    dim = vectors.shape[0]
    if vectors.shape == (dim, dim) and np.array_equal(
        vectors, np.eye(dim, dtype=complex)
    ):
        return "computational"
    s = 1.0 / np.sqrt(2.0)
    if dim == 2 and np.array_equal(
        vectors, np.array([[s, s], [s, -s]], dtype=complex)
    ):
        return "diagonal"
    return "explicit"


def _basis_tail_lines(basis: SiteBasis, labels: tuple[str, ...]) -> tuple[str, list[str]]:
    """Inline 'basis ... labels ...' text plus any vec rows."""
    form = _basis_form(basis.vectors)
    label_text = " ".join(_check_token(l, "basis label") for l in labels)
    head = f"basis {form} labels {label_text}"
    rows: list[str] = []
    if form == "explicit":
        for v in basis.vectors:
            comps = " ".join(
                f"{_fmt_float(c.real)} {_fmt_float(c.imag)}" for c in v
            )
            rows.append("  vec " + comps)
    return head, rows


def serialize_realization(qr: QuantumRealization, sc: Scenario, name: str) -> str:
    """Write a state-plus-measures file. Outcome relabelings are folded into
    the written basis labels, so the reparsed recipes carry no outcome_map."""
    lines = _scenario_lines(sc, name)
    lines.append("")
    lines.extend(_state_lines(qr.state))
    lines.append("")
    for o in sc.observables:
        if o.label not in qr.recipes:
            raise ValueError(f"realization lacks a recipe for {o.label!r}")
        rec = qr.recipes[o.label]
        where = (
            f"site {rec.sites[0]}"
            if len(rec.sites) == 1
            else "sites " + " ".join(str(s) for s in rec.sites)
        )
        head, rows = _basis_tail_lines(rec.basis, rec.mapped_labels())
        lines.append(f"measure {o.label} {where} {head}")
        lines.extend(rows)
    return "\n".join(lines) + "\n"


def serialize_chain(chain: ObserverChain, name: str) -> str:
    lines = [f"scenario {_check_token(name, 'scenario name')}", ""]
    lines.extend(_state_lines(chain.base))
    lines.append("")
    for agent in chain.agents:
        head, rows = _basis_tail_lines(agent.basis, agent.basis.labels)
        lines.append(f"chain {_check_token(agent.name, 'agent name')} {head}")
        lines.extend(rows)
    return "\n".join(lines) + "\n"
