"""Forking the instrumented run of the original where a mutant is first
infected (``minilang.instrument``): a child that decides nothing leaves the
run to a fresh execution, no child outlives ``decide``, and a search
without ``os.fork`` decides what it decides without forking.
``FORK_STEPS`` is 0 here, so any infection forks."""

import os
import pickle
import signal
import time

import pytest

from mutopt import AOR, ASR, ROR, ExecBackendConfig, Language, apply_all, tokenize
from mutopt.backend import DECIDED_FORKED, MiniBackend
from mutopt.minilang import ast_nodes as ast
from mutopt.minilang import interp
from mutopt.minilang.instrument import node_at, with_op
from mutopt.optimizer import InputEntry, InputSet, _evaluate_one

from conftest import FIXTURE_INPUTS, load_unit

LATE = load_unit("late.mini")
LATE_INPUTS = FIXTURE_INPUTS["late.mini"]

# ``n > 5`` is tested after a loop of n iterations; ``>=`` and ``==`` hold
# on 5 where the original does not, and print 1, then both run a tail of
# 30 * n iterations, longer than ten times the steps before it
TAIL = tokenize(b"""n = in[0];
i = 0;
while (i < n) {
    i += 1;
}
if (n > 5) {
    print(1);
} else {
    print(2);
}
t = 0;
while (t < 30 * n) {
    t += 1;
}
print(t);
""", Language.MINI)


@pytest.fixture(autouse=True)
def fork_at_once(monkeypatch):
    monkeypatch.setattr(interp, "FORK_STEPS", 0)


def deciding_backend(unit, inputs):
    backend = MiniBackend(ExecBackendConfig())
    backend.compile(unit)
    mutants = apply_all([ROR, ASR, AOR], unit)
    baseline = backend.decide([(m.start, m.replacement) for m in mutants], inputs)
    return backend, baseline, mutants


def decisions(backend, mutants, inputs) -> dict:
    """Each mutant's decision on each input, None where it must run."""
    return {(m.id, tuple(values)): backend.decisions(backend.compile(m.mutated_text))
            .get(tuple(values)) for m in mutants for values in inputs}


def verdicts(unit, inputs) -> dict:
    """Each mutant's (status, input_id, tau, runs) with decisions, and from
    a backend that decides nothing, by mutant."""
    backend, baseline, mutants = deciding_backend(unit, inputs)
    plain = MiniBackend(ExecBackendConfig())
    plain.compile(unit)
    entries = InputSet(tuple(InputEntry(str(i), tuple(v)) for i, v in enumerate(inputs)))
    found = {}
    for mutant in mutants:
        got, want = (_evaluate_one(b, entries, baseline, "unit", mutant)
                     for b in (backend, plain))
        found[mutant.id] = tuple((v.status, v.input_id, v.tau, v.runs) for v in (got, want))
    return found


def counting_forks(monkeypatch) -> list:
    """A list that gains an entry at each ``os.fork``."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_a_relational_swap_keeps_every_loop_key(corpus):
    # a forked child runs the original's loop heads, with their cycle keys
    # (``loop_slice``), so it checks what the mutant's fresh run checks only
    # because a relational operator never changes a key
    swaps = 0
    for name in FIXTURE_INPUTS:
        backend = MiniBackend(ExecBackendConfig())
        subject = corpus.fixture(name)
        backend.compile(subject.unit)
        for mutant in apply_all([ROR], subject.unit):
            site = backend._base.site(mutant.start, mutant.replacement)
            if site is None:
                continue
            top = backend._base.tree.body[site.statement]
            old = node_at(top, site.path).op
            for i, step in enumerate(site.path):
                loop = site.path[:i]
                if step == "body" and isinstance(node_at(top, loop), ast.While):
                    swaps += 1
                    assert interp.loop_slice(node_at(with_op(top, site.path, site.op), loop)) \
                        == interp.loop_slice(node_at(with_op(top, site.path, old), loop))
    assert swaps > 0


def test_a_fork_that_reaches_its_bound_decides_nothing(monkeypatch):
    forks = counting_forks(monkeypatch)
    backend, _, mutants = deciding_backend(TAIL, [[5]])
    start = TAIL.text.index(b"n > 5") + 2
    late = [m for m in mutants if m.start == start and m.replacement in (">=", "==")]
    assert len(late) == 2 and len(forks) >= 2
    for mutant in late:
        assert backend.decisions(backend.compile(mutant.mutated_text)) == {}
    # and each runs fresh to its true verdict: it prints 1, not 2
    found = verdicts(TAIL, [[5]])
    for mutant in late:
        got, want = found[mutant.id]
        assert got == want and got[0] == "killed"


def test_forks_decide_ok_crash_and_timeout_runs():
    backend, _, mutants = deciding_backend(LATE, LATE_INPUTS)
    forked = [d for d in decisions(backend, mutants, LATE_INPUTS).values()
              if d is not None and d.kind == DECIDED_FORKED]
    assert {type(d.outcome).__name__ for d in forked} == {"MiniRunResult", "str", "NoneType"}
    assert all(got == want for got, want in verdicts(LATE, LATE_INPUTS).values())


def test_only_a_mutant_alive_on_every_earlier_input_forks():
    backend, _, mutants = deciding_backend(LATE, LATE_INPUTS)
    found = decisions(backend, mutants, LATE_INPUTS)

    def kinds(id):
        return [None if d is None else d.kind for d in
                (found[(id, tuple(values))] for values in LATE_INPUTS)]

    # ``i < n`` to ``<=`` prints another sum on the first input, so it is
    # never forked again; ``i > 40`` to ``!=`` first differs on the third
    assert kinds("ROR_1") == [DECIDED_FORKED, None, None, None]
    assert kinds("ROR_20") == ["inherited", "inherited", DECIDED_FORKED, "inherited"]


@pytest.mark.parametrize("leave", [
    lambda *args: os.kill(os.getpid(), signal.SIGKILL),
    lambda *args: os._exit(3),
    lambda *args: 1 / 0,  # exits 0 without a word
], ids=["killed", "exit-3", "no-report"])
def test_a_child_that_reports_nothing_decides_nothing(leave, monkeypatch):
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(pickle, "dumps", leave)  # the child's report
    backend, _, mutants = deciding_backend(LATE, LATE_INPUTS)
    assert forks
    assert not any(d is not None and d.kind == DECIDED_FORKED
                   for d in decisions(backend, mutants, LATE_INPUTS).values())
    assert all(got == want for got, want in verdicts(LATE, LATE_INPUTS).values())


def test_an_interrupt_while_waiting_kills_and_reaps_the_child(monkeypatch):
    monkeypatch.setattr(pickle, "dumps", lambda *args: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            deciding_backend(LATE, LATE_INPUTS)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):  # no child left, running or not
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_decide_decides_the_same_and_forks_nothing(monkeypatch):
    backend, _, mutants = deciding_backend(LATE, LATE_INPUTS)
    forking = decisions(backend, mutants, LATE_INPUTS)
    monkeypatch.delattr(os, "fork")
    backend, _, mutants = deciding_backend(LATE, LATE_INPUTS)
    plain = decisions(backend, mutants, LATE_INPUTS)
    assert any(d is not None and d.kind == DECIDED_FORKED for d in forking.values())
    assert plain == {key: None if d is not None and d.kind == DECIDED_FORKED else d
                     for key, d in forking.items()}
