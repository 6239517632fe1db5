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
1 stays exact end to end.
"""
from __future__ import annotations

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
# amplitudes a state block may declare, the section functions' 2**24 guard
_MAX_STATE_SIZE = 2**24

_RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")
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


Token = tuple[str, int, int]


def _lines(text: str):
    """(tokens, indented) per line with a token. A token is a maximal run of
    non-whitespace, as str.split() and the regex \\S+ both define it; its
    column is where str.find meets it after the previous token, since only
    whitespace lies in between."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if not words:
            continue
        toks = []
        end = 0
        for word in words:
            start = body.find(word, end)
            toks.append((word, ln, start + 1))
            end = start + len(word)
        yield toks, body[0] in " \t"


def _parse_int(tok: Token, what: str) -> int:
    text, ln, col = tok
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid {what} {text!r}", ln, col) from None


def _parse_float(tok: Token, what: str) -> float:
    """A finite float: NaN and infinities are rejected like non-numbers."""
    text, ln, col = tok
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"invalid {what} {text!r}", ln, col)
    return value


def _parse_prob(tok: Token) -> tuple[float, Fraction | None]:
    """Value plus, for integer and p/q literals only, the exact rational.
    Decimal literals stay float-only; a file round-trips byte-for-byte."""
    text, ln, col = tok
    m = _RATIONAL.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ParseError(f"probability {text!r} has a zero denominator", ln, col)
        frac: Fraction | None = Fraction(num, den)
        value = float(frac)
    elif re.fullmatch(r"-?\d+", text):
        frac = Fraction(int(text))
        value = float(frac)
    else:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"invalid probability literal {text!r}", ln, col) from None
        frac = None
    if not math.isfinite(value) or value < 0 or value > 1:
        raise ParseError(f"probability {text} is outside [0, 1]", ln, col)
    return value, frac


@dataclass
class _TableBlock:
    context: tuple[str, ...]
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
        self.tables: dict[tuple[str, ...], _TableBlock] = {}
        self.state_dims: tuple[int, ...] | None = None
        self.state_line = 0
        self.amps: dict[int, complex] = {}
        self.measures: dict[str, _MeasureSpec] = {}
        self.agents: list[tuple[str, _BasisSpec]] = []
        # open block: ("table", _TableBlock) | ("state", size) | ("vecs", _BasisSpec)
        self.block: tuple | None = None

    # ------------------------------------------------------- statements

    def run(self) -> ScenarioFile:
        for toks, indented in _lines(self.text):
            if indented:
                self._row(toks)
                continue
            self.block = None
            head, ln, col = toks[0]
            handler = getattr(self, "_stmt_" + head, None)
            if handler is None or head.startswith("_"):
                raise ParseError(f"unknown directive {head!r}", ln, col)
            handler(toks)
        return self._finalize()

    def _stmt_scenario(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if self.name is not None:
            raise ParseError("duplicate scenario header", ln, col)
        if len(toks) != 2:
            raise ParseError("scenario header needs exactly one name", ln, col)
        self.name = toks[1][0]

    def _stmt_observable(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if len(toks) < 4 or toks[2][0] != "outcomes":
            raise ParseError(
                "expected 'observable <label> outcomes <l1> <l2> ...'", ln, col
            )
        label = toks[1][0]
        if label in self.by_label:
            raise ParseError(f"duplicate observable {label!r}", *toks[1][1:])
        outcomes = tuple(t[0] for t in toks[3:])
        try:
            obs = Observable(label, outcomes)
        except ValueError as e:
            raise ParseError(str(e), ln, col) from None
        self.observables.append(obs)
        self.by_label[label] = obs

    def _stmt_context(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if len(toks) < 2:
            raise ParseError("context needs at least one observable label", ln, col)
        seen = set()
        for text, tln, tcol in toks[1:]:
            if text not in self.by_label:
                raise ParseError(
                    f"context names undeclared observable {text!r}", tln, tcol
                )
            if text in seen:
                raise ParseError(
                    f"context repeats observable {text!r}", tln, tcol
                )
            seen.add(text)
        ctx = tuple(t[0] for t in toks[1:])
        if ctx in self.tables or ctx in self.contexts:
            raise ParseError(f"duplicate context ({' '.join(ctx)})", ln, col)
        self.contexts.append(ctx)

    def _stmt_table(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        args = toks[1:]
        if not args:
            raise ParseError("table needs a context index or its labels", ln, col)
        ctx = tuple(t[0] for t in args)
        if ctx not in self.contexts:
            # a lone number is an index only when no context has it as label
            if len(args) != 1 or not args[0][0].isdecimal():
                raise ParseError(
                    f"table for undeclared context ({' '.join(ctx)})",
                    *args[0][1:],
                )
            idx = int(args[0][0])
            if idx >= len(self.contexts):
                raise ParseError(
                    f"table index {idx} out of range ({len(self.contexts)} "
                    f"contexts declared)",
                    *args[0][1:],
                )
            ctx = self.contexts[idx]
        if ctx in self.tables:
            raise ParseError(f"duplicate table for context ({' '.join(ctx)})", ln, col)
        block = _TableBlock(ctx, ln)
        self.tables[ctx] = block
        self.block = ("table", block)

    def _stmt_state(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if self.state_dims is not None:
            raise ParseError("duplicate state block", ln, col)
        if len(toks) < 2:
            raise ParseError("state needs one dimension per site", ln, col)
        dims = tuple(_parse_int(t, "site dimension") for t in toks[1:])
        for t, d in zip(toks[1:], dims):
            if d < 2:
                raise ParseError(f"site dimension must be >= 2, got {d}", *t[1:])
        size = math.prod(dims)
        if size > _MAX_STATE_SIZE:
            raise ParseError(
                f"state of {size} amplitudes exceeds the 2**24 state size "
                f"guard",
                ln,
                col,
            )
        self.state_dims = dims
        self.state_line = ln
        self.block = ("state", size)

    def _basis_tail(self, toks: list[Token], start: int, ln: int) -> _BasisSpec:
        """Parse 'basis <kind> [labels <l1> ...]' starting at toks[start]."""
        if start >= len(toks) or toks[start][0] != "basis":
            raise ParseError("expected 'basis <kind>'", ln, toks[min(start, len(toks) - 1)][2])
        if start + 1 >= len(toks):
            raise ParseError("basis needs a kind", ln, toks[start][2])
        kind = toks[start + 1][0]
        if kind not in _BASIS_KINDS:
            raise ParseError(
                f"unknown basis kind {kind!r} (expected one of "
                f"{', '.join(_BASIS_KINDS)})",
                *toks[start + 1][1:],
            )
        labels: tuple[str, ...] = ()
        rest = toks[start + 2 :]
        if rest:
            if rest[0][0] != "labels" or len(rest) < 2:
                raise ParseError("expected 'labels <l1> <l2> ...'", *rest[0][1:])
            labels = tuple(t[0] for t in rest[1:])
        if kind == "explicit" and not labels:
            raise ParseError("explicit basis requires labels", ln, toks[start + 1][2])
        return _BasisSpec(kind, labels, ln)

    def _stmt_measure(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if len(toks) < 3 or toks[2][0] not in ("site", "sites"):
            raise ParseError(
                "expected 'measure <observable> site <k> basis ...'", ln, col
            )
        label = toks[1][0]
        if label not in self.by_label:
            raise ParseError(
                f"measure for undeclared observable {label!r}", *toks[1][1:]
            )
        if label in self.measures:
            raise ParseError(f"duplicate measure for observable {label!r}", ln, col)
        i = 3
        sites: list[int] = []
        while i < len(toks) and toks[i][0] != "basis":
            sites.append(_parse_int(toks[i], "site index"))
            i += 1
        if not sites:
            raise ParseError("measure needs at least one site index", ln, col)
        spec = self._basis_tail(toks, i, ln)
        self.measures[label] = _MeasureSpec(tuple(sites), spec, ln)
        self.block = ("vecs", spec) if spec.kind == "explicit" else None

    def _stmt_chain(self, toks: list[Token]) -> None:
        _, ln, col = toks[0]
        if len(toks) < 2:
            raise ParseError("expected 'chain <agent> basis ...'", ln, col)
        name = toks[1][0]
        if any(a == name for a, _ in self.agents):
            raise ParseError(f"duplicate chain agent {name!r}", *toks[1][1:])
        spec = self._basis_tail(toks, 2, ln)
        self.agents.append((name, spec))
        self.block = ("vecs", spec) if spec.kind == "explicit" else None

    # ------------------------------------------------------- block rows

    def _row(self, toks: list[Token]) -> None:
        head, ln, col = toks[0]
        if self.block is None:
            raise ParseError("indented line outside any block", ln, col)
        kind = self.block[0]
        if kind == "table":
            self._table_row(self.block[1], toks)
        elif kind == "state":
            self._amp_row(self.block[1], toks)
        else:
            self._vec_row(self.block[1], toks)

    def _table_row(self, block: _TableBlock, toks: list[Token]) -> None:
        ctx = block.context
        _, ln, col = toks[0]
        if len(toks) != len(ctx) + 1:
            raise ParseError(
                f"table row needs {len(ctx)} outcome labels and one "
                f"probability",
                ln,
                col,
            )
        for label, (text, tln, tcol) in zip(ctx, toks[: len(ctx)]):
            if text not in self.by_label[label].outcomes:
                raise ParseError(
                    f"{text!r} is not an outcome of observable {label!r}",
                    tln,
                    tcol,
                )
        key = tuple(t[0] for t in toks[: len(ctx)])
        if key in block.rows:
            raise ParseError(f"duplicate table row ({' '.join(key)})", ln, col)
        block.rows[key] = _parse_prob(toks[-1])

    def _amp_row(self, total: int, toks: list[Token]) -> None:
        head, ln, col = toks[0]
        if head != "amp" or len(toks) != 4:
            raise ParseError("expected 'amp <flat-index> <re> <im>'", ln, col)
        idx = _parse_int(toks[1], "amplitude index")
        if not (0 <= idx < total):
            raise ParseError(
                f"amplitude index {idx} out of range for dimension {total}",
                *toks[1][1:],
            )
        if idx in self.amps:
            raise ParseError(f"duplicate amplitude index {idx}", *toks[1][1:])
        re_part = _parse_float(toks[2], "amplitude component")
        im_part = _parse_float(toks[3], "amplitude component")
        self.amps[idx] = complex(re_part, im_part)

    def _vec_row(self, spec: _BasisSpec, toks: list[Token]) -> None:
        head, ln, col = toks[0]
        if head != "vec":
            raise ParseError("expected 'vec <re> <im> ...' row", ln, col)
        comps = toks[1:]
        if not comps or len(comps) % 2:
            raise ParseError(
                "vec row needs an even number of components (re im pairs)",
                ln,
                col,
            )
        values = [_parse_float(t, "vector component") for t in comps]
        spec.vecs.append(
            [complex(values[i], values[i + 1]) for i in range(0, len(values), 2)]
        )

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
            return SiteBasis(np.array(spec.vecs, dtype=complex), spec.labels)
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
            expected = scenario.joint_outcomes(ctx)
            if len(block.rows) != len(expected):
                raise ParseError(
                    f"table row count mismatch for context "
                    f"({' '.join(ctx)}): {len(block.rows)} rows, expected "
                    f"{len(expected)}",
                    block.line,
                )
            probs = {k: v[0] for k, v in block.rows.items()}
            exact: dict[tuple[str, ...], Fraction] | None = None
            if all(v[1] is not None for v in block.rows.values()):
                exact = {k: v[1] for k, v in block.rows.items()}
                if sum(exact.values()) != 1:
                    exact = None
            try:
                tables[ctx] = Distribution(probs, exact, tol=FILE_SUM_TOL)
            except ValueError as e:
                raise ParseError(
                    f"table for context ({' '.join(ctx)}): {e}", block.line
                ) from None
        try:
            return EmpiricalModel(scenario, tables)
        except ValueError as e:
            raise ParseError(str(e)) from None

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
            dim = 1
            for s in spec.sites:
                dim *= state.sites[s]
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
        try:
            return QuantumRealization(state, recipes)
        except ValueError as e:
            raise ParseError(str(e)) from None

    def _build_chain(self, state: StateVector) -> ObserverChain:
        agents = []
        running = state.dim
        for name, spec in self.agents:
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
        for t in m.scenario.joint_outcomes(ctx):
            if dist.exact is not None:
                value = str(dist.exact[t])
            else:
                value = _fmt_float(dist[t])
            lines.append("  " + " ".join(t) + " " + value)
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
