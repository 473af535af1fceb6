"""Tests of the benchmark itself: every checker counts a wrong answer as a
failed operation, the tracer sees calls made through `from … import`
names, and the runner refuses to run without the sources.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))


def outcome_of(op, result) -> run.Outcome:
    """Run `op`'s check on `result` the way the runner does."""
    outcome = run.Outcome()
    run.run_op(workloads.Op(op.kind, lambda: result, op.check), [], outcome)
    return outcome


def assert_counts(op, right, wrong) -> None:
    assert outcome_of(op, right).failed == 0
    counted = outcome_of(op, wrong)
    assert (counted.failed, counted.wrong) == (1, 1)


def first_op(pool, kind: str):
    return next(op for ops in pool for op in ops if op.kind == kind)


def test_mp_extend_wrong_endpoint_is_failed(tmp_path):
    pool = workloads.mp_extend(1, tmp_path)
    for kind in ("nested", "classical"):
        op = first_op(pool, kind)
        right = op.call()
        assert_counts(op, right, dataclasses.replace(right, upper=right.upper - Fraction(1, 2**20)))
        assert_counts(op, right, dataclasses.replace(right, lower=right.upper))


def test_family_sweep_wrong_verdict_or_witness_is_failed(tmp_path, monkeypatch):
    from coherekit.coherence import CoherenceResult

    monkeypatch.setattr(workloads, "SWEEP_ROUNDS", 1)
    pool = workloads.family_sweep(1, tmp_path)
    coherent = first_op(pool, "coherent")
    assert_counts(coherent, CoherenceResult(True), CoherenceResult(False, (0, 5)))
    for kind, witness, other in (
        ("witness-0n", (0, 5), (1, 5)),
        ("witness-1n", (1, 5), (0, 5)),
        ("witness-01n", (0, 1, 5), (0, 5)),
    ):
        op = first_op(pool, kind)
        assert op.call() == CoherenceResult(False, witness)
        assert_counts(op, CoherenceResult(False, witness), CoherenceResult(False, other))
        assert_counts(op, CoherenceResult(False, witness), CoherenceResult(True))


def edit(result, change):
    code, text = result
    payload = json.loads(text)
    new_code = change(payload)
    return (code if new_code is None else new_code), json.dumps(payload)


def test_documents_wrong_outputs_are_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DOC_ROUNDS", 1)
    pool = workloads.documents(1, tmp_path)
    ops = {op.kind: op for op in pool[0]}

    check = ops["frechet-above-upper-check"]
    right = check.call()
    assert right[0] == 1
    assert_counts(check, right, edit(right, lambda p: p.update(coherent=True) or 0))
    assert_counts(check, right, (0, right[1]))

    book_op = ops["frechet-above-upper-dutchbook"]
    right = book_op.call()
    assert right[0] == 1
    assert_counts(book_op, right, edit(right, lambda p: p["dutch_book"].update(epsilon="0")))
    too_big = lambda p: p["dutch_book"].update(stakes=["3/2"] * len(p["dutch_book"]["stakes"]))
    assert_counts(book_op, right, edit(right, too_big))
    assert_counts(book_op, right, (1, json.dumps({"dutch_book": None})))

    coherent_book = ops["nested-coherent-dutchbook"]
    right = coherent_book.call()
    assert right[0] == 0
    assert_counts(coherent_book, right, (1, right[1]))

    extend = ops["mp-coherent-extend"]
    right = extend.call()
    assert_counts(extend, right, edit(right, lambda p: p.update(upper=p["lower"])))
    assert_counts(extend, right, (0, "not json"))


def test_tracer_counts_calls_through_imported_names():
    """A traced check of two A_i|H counts its three hull LPs at the
    coherence site, where `convex_combination` is an imported name."""
    script = f"""
import sys
sys.path[:0] = [{str(run.BENCH_DIR)!r}, {str(run.SRC)!r}]
import tracing
tracer = tracing.Tracer()
tracer.install()
from fractions import Fraction
from coherekit import AtomRegistry, Assessment, conditional_event, check_coherence
reg = AtomRegistry(["A", "B", "H"])
h = reg.atom("H")
family = Assessment([(conditional_event(reg.atom(n), h, n, registry=reg), Fraction(1, 3)) for n in "AB"])
tracer.take()
assert check_coherence(family).coherent
spans = tracer.take()
names = [tracer.keys[k] for k in spans.key]
print(names.count(("linprog", "convex_combination", "coherence")), names.count(("linprog", "simplex_minimize", "linprog")), tracer.missing)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["3", "3", "[]"]


def test_run_refuses_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(run.BENCH_DIR, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "mp_extend", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
