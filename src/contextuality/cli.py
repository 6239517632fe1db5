"""Command-line front end: built-in demos and scenario-file analysis with
deterministic text or JSON reports.

Exit codes: 0 analysis done, 1 verification failure (signalling input, or a
noncontextual-fraction result that fails its own checks) or a closed output
pipe (`contextuality demo wigner | true`, with no traceback), 2 usage or
parse errors.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

from .metacontext import AssumptionSet
from .ncpoly import EPS_ND_PRECONDITION, SignallingModelError
from .report import (
    DEFAULT_ASSUMPTION_SETS,
    AnalysisReport,
    chain_report,
    model_report,
    render_json,
    render_text,
    scenario_report,
)
from .scenario import EPS_SUPPORT, realize
from .scnformat import parse_file

__all__ = ["run", "main"]

_FIXED_DEMOS = ("hardy", "fr", "wigner")
_CYCLE_SIZES = (3, 4, 5)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse otherwise calls sys.exit(2)
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """Built on the first run and reused: parse_args keeps no state
    between calls."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--eps",
        type=float,
        default=EPS_SUPPORT,
        help="support threshold for possibilistic analysis (default 1e-9), in [0, 1)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default text)",
    )
    common.add_argument(
        "--assumptions",
        default=None,
        metavar="LIST",
        help="comma-separated flags from Q,NMC,NC,S for claim checking; "
        "default runs the full set plus each single-flag drop",
    )

    parser = _Parser(
        prog="contextuality",
        description="Analyze measurement scenarios for contextuality.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    demo = sub.add_parser(
        "demo", parents=[common], help="analyze a built-in scenario"
    )
    demo.add_argument(
        "target",
        nargs="+",
        help="hardy | fr | wigner | cycle N [odd|even] (N in 3..5)",
    )

    analyze = sub.add_parser(
        "analyze", parents=[common], help="full analysis of a scenario file"
    )
    analyze.add_argument("file")

    ncf = sub.add_parser(
        "ncf", parents=[common], help="noncontextual fraction of a model file"
    )
    ncf.add_argument("file")

    cycles = sub.add_parser(
        "cycles", parents=[common], help="sentences and liar cycle of a model file"
    )
    cycles.add_argument("file")
    cycles.add_argument(
        "--seed",
        nargs=2,
        metavar=("CONTEXT", "OUTCOME"),
        help="comma-separated labels, e.g. --seed A_d,B_d -,-",
    )
    return parser


def _extract_seed(argv: list[str]) -> tuple[list[str], tuple[str, str] | None]:
    """Pull '--seed CTX OUTCOME' out before argparse sees it; outcome labels
    often start with '-' and would be misread as options."""
    rest: list[str] = []
    seed: tuple[str, str] | None = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--seed":
            if seed is not None:
                raise _UsageError("--seed given twice")
            if i + 2 >= len(argv):
                raise _UsageError("--seed needs two arguments: CONTEXT OUTCOME")
            seed = (argv[i + 1], argv[i + 2])
            i += 3
            continue
        rest.append(tok)
        i += 1
    return rest, seed


def _demo_file(target: list[str]) -> str:
    head = target[0]
    if head in _FIXED_DEMOS:
        if len(target) != 1:
            raise _UsageError(f"demo {head} takes no extra arguments")
        return head + ".scn"
    if head == "cycle":
        if len(target) not in (2, 3):
            raise _UsageError("usage: demo cycle N [odd|even]")
        try:
            n = int(target[1])
        except ValueError:
            raise _UsageError(f"cycle size must be an integer, got {target[1]!r}") from None
        if n not in _CYCLE_SIZES:
            raise _UsageError(
                f"shipped cycle demos cover n in {set(_CYCLE_SIZES)}, got {n}"
            )
        parity = target[2] if len(target) == 3 else "odd"
        if parity not in ("odd", "even"):
            raise _UsageError(f"parity must be 'odd' or 'even', got {parity!r}")
        return f"cycle_{n}_{parity}.scn"
    raise _UsageError(
        f"unknown demo {head!r} (expected hardy, fr, wigner, or cycle)"
    )


def _load(ns) -> tuple[str, str]:
    """Input text and report name for the parsed arguments."""
    if ns.command == "demo":
        fname = _demo_file(ns.target)
        text = (
            resources.files("contextuality")
            .joinpath("data", fname)
            .read_text(encoding="utf-8")
        )
        return text, fname[: -len(".scn")]
    path = Path(ns.file)
    # utf-8-sig drops a byte order mark
    return path.read_text(encoding="utf-8-sig"), path.stem


def _model_of(f, name: str):
    if f.model is not None:
        return f.model
    if f.realization is not None:
        return realize(f.realization, f.scenario)
    raise _UsageError(
        f"{name}: this command needs a model input (tables or state plus "
        f"measures)"
    )


def _execute(ns, seed_raw: tuple[str, str] | None) -> tuple[AnalysisReport, int]:
    if seed_raw is not None and ns.command != "cycles":
        raise _UsageError("--seed only applies to the cycles command")
    if not 0.0 <= ns.eps < 1.0:  # NaN fails too; chain reports only print eps
        raise _UsageError(f"--eps {ns.eps!r} is not in [0, 1)")
    text, name = _load(ns)
    f = parse_file(text)
    if ns.assumptions is not None:
        AssumptionSet.parse(ns.assumptions)  # reject unknown flags up front
        sets: Sequence[str] = (ns.assumptions,)
    else:
        sets = DEFAULT_ASSUMPTION_SETS

    if ns.command in ("demo", "analyze"):
        if f.model is not None or f.realization is not None:
            report = model_report(
                _model_of(f, name), name, eps=ns.eps, assumption_sets=sets
            )
        elif f.chain is not None:
            report = chain_report(f.chain, name, eps=ns.eps)
        else:
            report = scenario_report(f.scenario, name, eps=ns.eps)
    elif ns.command == "ncf":
        report = model_report(
            _model_of(f, name),
            name,
            eps=ns.eps,
            sections=frozenset({"nd", "ncf"}),
        )
    else:  # cycles
        seed = None
        if seed_raw is not None:
            seed = (tuple(seed_raw[0].split(",")), tuple(seed_raw[1].split(",")))
        report = model_report(
            _model_of(f, name),
            name,
            eps=ns.eps,
            seed=seed,
            sections=frozenset({"sentences", "cycle"}),
        )

    code = 0
    nd = report.no_disturbance
    if nd is not None and nd["max_violation"] > EPS_ND_PRECONDITION:
        code = 1
    return report, code


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        argv, seed_raw = _extract_seed(argv)
        ns = parser.parse_args(argv)
        report, code = _execute(ns, seed_raw)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    # a signalling model (a ValueError, so caught first) or a failed NCF check
    except (SignallingModelError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (_UsageError, OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = render_json(report) if ns.format == "json" else render_text(report)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:  # and the flush at exit writes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main() -> None:
    raise SystemExit(run())
