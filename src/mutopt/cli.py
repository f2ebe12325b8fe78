"""Command-line entry point.

Exit codes: 0 an improving mutant was selected; 3 no improvement found;
1 usage error; 2 invalid baseline, toolchain failure, or I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .backend import (
    COMPILE_PLACEHOLDERS,
    RUN_PLACEHOLDERS,
    ExecBackendConfig,
    ToolchainError,
    check_template,
)
from .mutation import OPERATOR_REGISTRY, apply_all
from .optimizer import (
    InputEntry,
    InputSet,
    InvalidBaseline,
    OptimizeConfig,
    optimize,
)
from .report import render_summary, write_report
from .tokens import Language, MalformedSource, SourceUnit, tokenize

EXIT_IMPROVED = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_NO_IMPROVEMENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # "mutopt: error:" also from a subcommand's parser, whose prog is
        # "mutopt optimize", so every message starts with "mutopt:"
        self.print_usage(sys.stderr)
        sys.stderr.write(f"mutopt: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class InputSetError(Exception):
    pass


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def load_inputs(path: Path) -> InputSet:
    """Build the input set from a directory of ``*.in`` files or a manifest
    listing input files one per line.  Entries are ordered lexicographically
    by file name; ids are the file stems."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.in"), key=lambda p: p.name)
    elif path.is_file():
        files = []
        try:
            manifest = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InputSetError(f"manifest is not valid UTF-8: {path}") from exc
        for raw_line in manifest.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            candidate = Path(line)
            if not candidate.is_absolute():
                candidate = path.parent / candidate
            if not candidate.is_file():
                raise InputSetError(f"manifest entry not found: {line}")
            files.append(candidate)
    else:
        raise InputSetError(f"inputs path not found: {path}")
    entries = []
    for f in files:
        try:
            values = tuple(int(tok) for tok in f.read_text(encoding="utf-8").split())
        except OSError as exc:
            raise InputSetError(f"cannot read input file {f}: {exc.strerror}") from exc
        except ValueError as exc:
            raise InputSetError(f"bad integer in input file {f}: {exc}") from exc
        if not all(INT64_MIN <= v <= INT64_MAX for v in values):
            raise InputSetError(f"integer out of 64-bit range in input file {f}")
        entries.append(InputEntry(id=f.stem, values=values))
    try:
        return InputSet(entries=tuple(entries), origin=str(path))
    except ValueError as exc:
        raise InputSetError(str(exc)) from exc


def _parse_operators(raw: str, parser: argparse.ArgumentParser) -> list[str]:
    names = [n.strip().lower() for n in raw.split(",") if n.strip()]
    if not names:
        parser.error("--operators must name at least one of ror, asr, aor")
    for n in names:
        if n not in OPERATOR_REGISTRY:
            parser.error(f"unknown operator {n!r}; known: {', '.join(OPERATOR_REGISTRY)}")
    return names


def _parse_lines(raw: str, text: bytes, parser: argparse.ArgumentParser) -> tuple[int, int]:
    try:
        a, b = raw.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        parser.error("--lines expects A:B with integers")
    if lo < 1 or hi < lo:
        parser.error("--lines expects 1 <= A <= B")
    total_lines = text.count(b"\n") + (0 if text.endswith(b"\n") or not text else 1)
    if hi > max(total_lines, 1):
        parser.error(f"--lines {lo}:{hi} exceeds the {total_lines}-line file")
    return lo, hi


def _number(convert, ok, rule: str):
    """An argparse ``type`` that converts the text and rejects values that
    fail ``ok``, so the error names the flag: ``argument --reps: must be >= 1``."""
    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value
    parse.__name__ = convert.__name__  # argparse says "invalid int value: ..."
    return parse


def _template(placeholders):
    """An argparse ``type`` that rejects a malformed command template, so the
    error names the flag: ``argument --run-cmd: malformed template ...``."""
    def parse(raw: str) -> str:
        try:
            check_template(raw, placeholders)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return raw
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mutopt",
                     description="Search operator-replacement mutants for a "
                                 "faster program equivalent on an input set.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    opt = sub.add_parser("optimize", help="run the full optimization loop")
    opt.add_argument("--source", required=True, help="source file to optimize")
    opt.add_argument("--backend", choices=("mini", "external"), default="mini")
    opt.add_argument("--compile-cmd", type=_template(COMPILE_PLACEHOLDERS),
                     default=None,
                     help="external compile template with {src} and {out}")
    opt.add_argument("--run-cmd", type=_template(RUN_PLACEHOLDERS), default=None,
                     help="external run template with {bin} and {input}; "
                          "input on stdin")
    opt.add_argument("--inputs", required=True,
                     help="directory of *.in files or a manifest file")
    opt.add_argument("--operators", required=True,
                     help="comma list from: ror, asr, aor")
    opt.add_argument("--reps", type=_number(int, lambda v: v >= 1, ">= 1"),
                     default=5,
                     help="timed repetitions, once a program has passed its check")
    opt.add_argument("--warmups", type=_number(int, lambda v: v >= 0, ">= 0"),
                     default=1,
                     help="discarded warmup runs before the timed ones")
    opt.add_argument("--timeout-factor",
                     type=_number(float, lambda v: 1 < v < math.inf, "> 1 and finite"),
                     default=10.0,
                     help="per-input budget as a multiple of the baseline cost")
    opt.add_argument("--threshold",
                     type=_number(float, lambda v: 0 <= v <= 0.5, "in [0, 0.5]"),
                     default=0.05, help="wall-clock noise guard in [0, 0.5]")
    opt.add_argument("--lines", default=None, help="restrict mutation to lines A:B")
    opt.add_argument("--report", default=None, help="write the JSON report here")
    opt.add_argument("--keep-scratch", action="store_true",
                     help="keep the scratch directory on success")
    # accepted and ignored, because perfbench/ still passes it
    opt.add_argument("--jobs", type=_number(int, lambda v: v >= 1, ">= 1"),
                     help=argparse.SUPPRESS)

    lst = sub.add_parser("mutants", help="list the mutants without executing")
    lst.add_argument("--source", required=True)
    lst.add_argument("--operators", required=True)
    lst.add_argument("--lines", default=None)
    return parser


def _language_for(path: Path, backend: str) -> Language:
    if backend == "mini" or path.suffix == ".mini":
        return Language.MINI
    return Language.C_LIKE


def _load_source(args, parser, backend: str):
    """``--source`` as a path and tokenized, and the ``--lines`` range checked
    against it.  A missing or malformed source exits 2."""
    path = Path(args.source)
    if not path.is_file():
        sys.stderr.write(f"mutopt: source not found: {path}\n")
        raise SystemExit(EXIT_ERROR)
    text = path.read_bytes()
    line_range = _parse_lines(args.lines, text, parser) if args.lines else None
    try:
        return path, tokenize(text, _language_for(path, backend)), line_range
    except MalformedSource as exc:
        sys.stderr.write(f"mutopt: cannot mutate source: {exc}\n")
        raise SystemExit(EXIT_ERROR)


def _cmd_mutants(args, parser) -> int:
    names = _parse_operators(args.operators, parser)
    _, unit, line_range = _load_source(args, parser, "mini")
    mutants = apply_all([OPERATOR_REGISTRY[n] for n in names], unit, line_range)
    for m in mutants:
        print(f"{m.id:<8} {m.operator}  line {m.line}, col {m.col}:  "
              f"{m.original} -> {m.replacement}")
    by_op: dict[str, int] = {}
    for m in mutants:
        by_op[m.operator] = by_op.get(m.operator, 0) + 1
    if by_op:
        print("  ".join(f"{k}: {v}" for k, v in by_op.items()))
    print(f"{len(mutants)} mutants")
    return EXIT_IMPROVED


def _cmd_optimize(args, parser) -> int:
    operators = [OPERATOR_REGISTRY[n] for n in _parse_operators(args.operators, parser)]
    if args.backend == "external" and not (args.compile_cmd and args.run_cmd):
        parser.error("external backend requires --compile-cmd and --run-cmd")
    source_path, unit, line_range = _load_source(args, parser, args.backend)
    try:
        input_set = load_inputs(Path(args.inputs))
    except InputSetError as exc:
        sys.stderr.write(f"mutopt: {exc}\n")
        return EXIT_ERROR
    if len(input_set) == 0:
        sys.stderr.write("mutopt: warning: empty input set; every mutant is "
                         "vacuously equivalent and none can improve\n")

    scratch_root = os.environ.get("MUTOPT_SCRATCH") or tempfile.gettempdir()
    try:
        Path(scratch_root).mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="mutopt-", dir=scratch_root))
    except OSError as exc:
        sys.stderr.write(f"mutopt: cannot create scratch directory under "
                         f"{scratch_root}: {exc.strerror}\n")
        return EXIT_ERROR
    # argparse has checked every number's range, so these cannot raise
    config = OptimizeConfig(
        backend=ExecBackendConfig(
            kind=args.backend, compile_cmd=args.compile_cmd,
            run_cmd=args.run_cmd, repetitions=args.reps,
            warmups=args.warmups, timeout_factor=args.timeout_factor),
        threshold=args.threshold, line_range=line_range,
        scratch_dir=scratch, source_name=source_path.name,
    )
    try:
        code = _run_optimize(args, operators, config, unit, input_set)
    except Exception:
        _keep_unless_empty(scratch, "scratch kept for post-mortem")
        raise
    if code in (EXIT_IMPROVED, EXIT_NO_IMPROVEMENT) and not args.keep_scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    else:
        _keep_unless_empty(scratch, "scratch directory")
    return code


def _keep_unless_empty(scratch: Path, label: str):
    """Remove ``scratch`` if it is empty; otherwise name it under ``label``."""
    try:
        scratch.rmdir()
    except OSError:
        sys.stderr.write(f"mutopt: {label}: {scratch}\n")


def _run_optimize(args, operators, config: OptimizeConfig, unit: SourceUnit,
                  input_set: InputSet) -> int:
    try:
        report = optimize(operators, unit, input_set, config)
    except InvalidBaseline as exc:
        sys.stderr.write(f"mutopt: invalid baseline: {exc}\n")
        return EXIT_ERROR
    except ToolchainError as exc:
        sys.stderr.write(f"mutopt: toolchain error: {exc}\n")
        return EXIT_ERROR

    if args.keep_scratch:
        _write_mutant_files(operators, unit, config)

    print(render_summary(report))
    if args.report:
        try:
            write_report(report, Path(args.report))
        except OSError as exc:
            sys.stderr.write(f"mutopt: cannot write report: {exc}\n")
            return EXIT_ERROR
    return EXIT_IMPROVED if report.improved else EXIT_NO_IMPROVEMENT


def _write_mutant_files(operators, unit, config: OptimizeConfig):
    mutant_dir = config.scratch_dir / "mutants"
    mutant_dir.mkdir(exist_ok=True)
    for m in apply_all(operators, unit, config.line_range):
        (mutant_dir / m.filename(config.source_name)).write_bytes(m.mutated_text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mutants":
            return _cmd_mutants(args, parser)
        if args.command == "optimize":
            return _cmd_optimize(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
