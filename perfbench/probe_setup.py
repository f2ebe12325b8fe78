"""Everything one search pays before its first mutant, in a fresh process.

Imports mutopt, tokenizes the source, loads the inputs, builds the backend,
compiles the original and runs it once on every input, as ``mutopt optimize``
does before it generates mutants.  The caller times the whole process.

    python3 perfbench/probe_setup.py SPEC.json

SPEC names ``source``, ``inputs``, ``backend``, ``compile_cmd``, ``run_cmd``
and ``scratch``.  Exits 1 if the original does not run cleanly.
"""

import json
import sys
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

from mutopt import ExecBackendConfig, Language, make_backend, tokenize  # noqa: E402
from mutopt.cli import load_inputs  # noqa: E402

source = Path(spec["source"])
language = Language.MINI if spec["backend"] == "mini" else Language.C_LIKE
unit = tokenize(source.read_bytes(), language)
inputs = load_inputs(Path(spec["inputs"]))
backend = make_backend(
    ExecBackendConfig(kind=spec["backend"], compile_cmd=spec["compile_cmd"],
                      run_cmd=spec["run_cmd"]),
    Path(spec["scratch"]))
if spec["backend"] == "mini":
    program = backend.compile(unit)
else:
    program = backend.compile(unit, name=source.name)
for entry in inputs.entries:
    if not backend.run(program, entry.values, backend.baseline_budget()).ok:
        sys.exit(f"probe_setup: original failed on input {entry.id}")
