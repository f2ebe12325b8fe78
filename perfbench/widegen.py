"""Seeded generator for the ``wide`` workload.

Writes one long MiniImp program and three small inputs.  Every block has the
same operator sites (two ROR, two ASR, four AOR), so the mutant count and the
size of the program that each mutant re-tokenizes, parses and compiles do not
depend on the seed; only operators, variables and literals do.

Baselines always terminate and never fault on their own inputs: each loop
counts a dedicated variable up to a literal bound, divisors are nonzero
literals and every array index is reduced ``% in_len``.  Mutants are free to
crash or diverge; the optimizer's budgets take care of them.  A trailing dead
loop, whose variable is never printed, guarantees an improving mutant, so a
correct search always selects one and exits 0.
"""

from __future__ import annotations

import random
from pathlib import Path

BLOCKS = 20
N_INPUTS = 3
_VARS = ("a", "b", "c", "d")
_REL_OPS = ("<", "<=", ">", ">=", "==", "!=")
_AUG_OPS = ("+=", "-=", "*=")
_AOR_OPS = ("+", "-", "*", "/", "%")

# mutants per site: ROR 5, ASR 4, AOR 4
_HEADER_SITES = {"ROR": 0, "ASR": 0, "AOR": len(_VARS)}
_BLOCK_SITES = {"ROR": 2, "ASR": 2, "AOR": 4}
_TAIL_SITES = {"ROR": 1, "ASR": 1, "AOR": 0}
_PER_SITE = {"ROR": 5, "ASR": 4, "AOR": 4}


def _block(rng: random.Random, n: int) -> list[str]:
    x, y, z = rng.sample(_VARS, 3)
    scale_op = rng.choice(_AOR_OPS)
    # "/" and "%" take a nonzero literal, the others any small literal
    scale = rng.randint(1, 7) if scale_op in "/%" else rng.randint(0, 9)
    return [
        f"k{n} = 0;",
        f"while (k{n} < {rng.randint(2, 5)}) {{",
        f"    {x} = ({y} {rng.choice(_AOR_OPS[:3])} in[(k{n} + {rng.randint(0, 9)}) % in_len])"
        f" {scale_op} {scale};",
        f"    if ({x} {rng.choice(_REL_OPS)} {y}) {{",
        f"        acc {rng.choice(_AUG_OPS)} {z};",
        "    }",
        f"    k{n} += 1;",
        "}",
    ]


def generate_program(seed: int, blocks: int = BLOCKS) -> str:
    rng = random.Random(seed)
    lines = [f"{v} = in[{k} % in_len];" for k, v in enumerate(_VARS)]
    lines.append("acc = 0;")
    for n in range(blocks):
        lines.extend(_block(rng, n))
    lines += ["w = 2;", "while (w < 4096) {", "    w += 2;", "}"]
    lines += [f"print({v});" for v in ("acc",) + _VARS]
    return "\n".join(lines) + "\n"


def generate_inputs(seed: int) -> list[list[int]]:
    rng = random.Random(seed ^ 0x5EED)
    return [[rng.randint(-9, 9) for _ in range(rng.randint(3, 6))]
            for _ in range(N_INPUTS)]


def expected_mutants(blocks: int = BLOCKS) -> dict[str, int]:
    """Mutant count per operator that the generated program must yield."""
    return {op: _PER_SITE[op] * (_HEADER_SITES[op] + blocks * _BLOCK_SITES[op]
                                 + _TAIL_SITES[op])
            for op in ("ROR", "ASR", "AOR")}


def write_workload(seed: int, directory: Path) -> tuple[Path, Path]:
    """Write ``wide.mini`` and ``inputs/r<k>.in`` under ``directory``."""
    inputs_dir = directory / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for old in inputs_dir.glob("*.in"):
        old.unlink()
    source = directory / "wide.mini"
    source.write_text(generate_program(seed), encoding="ascii")
    for k, values in enumerate(generate_inputs(seed)):
        (inputs_dir / f"r{k}.in").write_text(" ".join(map(str, values)) + "\n",
                                             encoding="ascii")
    return source, inputs_dir
