"""Command-line entry point.

Exit codes: 0 an improving mutant was selected; 3 no improvement found;
1 usage error; 2 invalid baseline, toolchain failure, or I/O error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .backend import ExecBackendConfig, ToolchainError
from .mutation import OPERATOR_REGISTRY
from .optimizer import (
    InputEntry,
    InputSet,
    InvalidBaseline,
    OptimizeConfig,
    _split_source_name,
    optimize,
    select_mutants,
)
from .report import render_summary, write_report
from .tokens import Language, MalformedSource, SourceUnit, tokenize

EXIT_IMPROVED = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_NO_IMPROVEMENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class InputSetError(Exception):
    pass


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
        except ValueError as exc:
            raise InputSetError(f"bad integer in input file {f}: {exc}") from exc
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


def _parse_lines(raw: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    try:
        a, b = raw.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        parser.error("--lines expects A:B with integers")
    if lo < 1 or hi < lo:
        parser.error("--lines expects 1 <= A <= B")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mutopt",
                     description="Search operator-replacement mutants for a "
                                 "faster program equivalent on an input set.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    opt = sub.add_parser("optimize", help="run the full optimization loop")
    opt.add_argument("--source", required=True, help="source file to optimize")
    opt.add_argument("--backend", choices=("mini", "external"), default="mini")
    opt.add_argument("--compile-cmd", default=None,
                     help="external compile template with {src} and {out}")
    opt.add_argument("--run-cmd", default=None,
                     help="external run template with {bin}; input on stdin")
    opt.add_argument("--inputs", required=True,
                     help="directory of *.in files or a manifest file")
    opt.add_argument("--operators", required=True,
                     help="comma list from: ror, asr, aor")
    opt.add_argument("--reps", type=int, default=5, help="timed repetitions")
    opt.add_argument("--warmups", type=int, default=1, help="discarded warmup runs")
    opt.add_argument("--timeout-factor", type=float, default=10.0,
                     help="per-input budget as a multiple of the baseline cost")
    opt.add_argument("--threshold", type=float, default=0.05,
                     help="wall-clock noise guard in [0, 0.5]")
    opt.add_argument("--lines", default=None, help="restrict mutation to lines A:B")
    opt.add_argument("--report", default=None, help="write the JSON report here")
    opt.add_argument("--keep-scratch", action="store_true",
                     help="keep the scratch directory on success")
    opt.add_argument("--jobs", type=int, default=None,
                     help="parallel mutant evaluations (mini backend)")

    lst = sub.add_parser("mutants", help="list the mutants without executing")
    lst.add_argument("--source", required=True)
    lst.add_argument("--operators", required=True)
    lst.add_argument("--lines", default=None)
    return parser


def _language_for(path: Path, backend: str) -> Language:
    if backend == "mini" or path.suffix == ".mini":
        return Language.MINI
    return Language.C_LIKE


def _cmd_mutants(args, parser) -> int:
    names = _parse_operators(args.operators, parser)
    source_path = Path(args.source)
    if not source_path.is_file():
        sys.stderr.write(f"mutopt: source not found: {source_path}\n")
        return EXIT_ERROR
    text = source_path.read_bytes()
    try:
        unit = tokenize(text, _language_for(source_path, "mini"))
    except MalformedSource as exc:
        sys.stderr.write(f"mutopt: {exc}\n")
        return EXIT_ERROR
    line_range = None
    if args.lines:
        line_range = _parse_lines(args.lines, parser)
        _check_line_range(line_range, text, parser)
    mutants = select_mutants([OPERATOR_REGISTRY[n] for n in names], unit, line_range)
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


def _check_line_range(line_range, text: bytes, parser):
    total_lines = text.count(b"\n") + (0 if text.endswith(b"\n") or not text else 1)
    lo, hi = line_range
    if hi > max(total_lines, 1):
        parser.error(f"--lines {lo}:{hi} exceeds the {total_lines}-line file")


def _cmd_optimize(args, parser) -> int:
    operators = [OPERATOR_REGISTRY[n] for n in _parse_operators(args.operators, parser)]
    source_path = Path(args.source)
    if not source_path.is_file():
        sys.stderr.write(f"mutopt: source not found: {source_path}\n")
        return EXIT_ERROR

    line_range = None
    text = source_path.read_bytes()
    if args.lines:
        line_range = _parse_lines(args.lines, parser)
        _check_line_range(line_range, text, parser)
    if args.backend == "external" and not (args.compile_cmd and args.run_cmd):
        parser.error("external backend requires --compile-cmd and --run-cmd")

    try:
        config = OptimizeConfig(
            backend=ExecBackendConfig(
                kind=args.backend, compile_cmd=args.compile_cmd,
                run_cmd=args.run_cmd, repetitions=args.reps,
                warmups=args.warmups, timeout_factor=args.timeout_factor),
            threshold=args.threshold, line_range=line_range,
            jobs=args.jobs or os.cpu_count() or 1,
            source_name=source_path.name,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        unit = tokenize(text, _language_for(source_path, args.backend))
    except MalformedSource as exc:
        sys.stderr.write(f"mutopt: cannot mutate source: {exc}\n")
        return EXIT_ERROR
    try:
        input_set = load_inputs(Path(args.inputs))
    except InputSetError as exc:
        sys.stderr.write(f"mutopt: {exc}\n")
        return EXIT_ERROR
    if len(input_set) == 0:
        sys.stderr.write("mutopt: warning: empty input set; every mutant is "
                         "vacuously equivalent and none can improve\n")

    scratch_root = os.environ.get("MUTOPT_SCRATCH") or tempfile.gettempdir()
    Path(scratch_root).mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="mutopt-", dir=scratch_root))
    config = replace(config, scratch_dir=scratch)
    try:
        code = _run_optimize(args, operators, config, unit, input_set)
    except Exception:
        sys.stderr.write(f"mutopt: scratch kept for post-mortem: {scratch}\n")
        raise
    if code in (EXIT_IMPROVED, EXIT_NO_IMPROVEMENT) and not args.keep_scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    else:
        sys.stderr.write(f"mutopt: scratch directory: {scratch}\n")
    return code


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
    stem, ext = _split_source_name(config.source_name)
    mutant_dir = config.scratch_dir / "mutants"
    mutant_dir.mkdir(exist_ok=True)
    for m in select_mutants(operators, unit, config.line_range):
        (mutant_dir / m.filename(stem, ext)).write_bytes(m.mutated_text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "mutants":
        try:
            return _cmd_mutants(args, parser)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "optimize":
        try:
            return _cmd_optimize(args, parser)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
