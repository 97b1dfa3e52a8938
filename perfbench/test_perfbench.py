"""Tests of the benchmark's own machinery: the evaluator, the checks and tracing.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def value(text, **assignment):
    table = oracle.TermTable()
    (conjunct,) = table.parse_pc(text)
    return table.evaluate(conjunct, assignment, {})


# -- the evaluator -----------------------------------------------------------------


@pytest.mark.parametrize(
    "left, right, quotient, remainder",
    [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1), (-6, 3, -2, 0), (1, -5, 0, 1)],
)
def test_java_division_truncates_toward_zero(left, right, quotient, remainder):
    assert oracle.java_div(left, right) == quotient
    assert oracle.java_mod(left, right) == remainder
    assert quotient * right + remainder == left


def test_evaluator_matches_hand_computed_terms():
    assert value("((x / 2) + (x % 2))", x=-7) == -4
    assert value("((x % -3) * -(y))", x=8, y=5) == -10
    assert value("((x + -3) <= (y - 4))", x=1, y=2) is True
    assert value("!(((a == b) || (a > 9)))", a=3, b=4) is True
    assert value("((a != 0) && (b >= a))", a=0, b=1) is False
    assert value("(-5 - -(n))", n=2) == -3


def test_pc_with_division_by_zero_does_not_hold():
    table = oracle.TermTable()
    conjuncts = table.parse_pc("(y != 1) && ((x / y) > 0)")
    assert table.holds(conjuncts, {"x": 4, "y": 2}, {})
    assert not table.holds(conjuncts, {"x": 4, "y": 0}, {})


def test_parser_splits_only_top_level_conjunctions():
    table = oracle.TermTable()
    assert len(table.parse_pc("((a > 0) && (b > 0)) && (c < 3)")) == 2
    assert table.parse_pc("true") == ()
    with pytest.raises(oracle.OracleError):
        table.parse_pc("(a > 0")


def test_shared_conjuncts_parse_to_one_node():
    table = oracle.TermTable()
    first = table.parse_pc("(a > 0) && (b <= 2)")
    second = table.parse_pc("(a > 0) && !((b <= 2))")
    assert first[0] == second[0]
    assert table.symbols(first + second) == {"a": "int", "b": "int"}


# -- the checks ----------------------------------------------------------------------

FULL = ("(x <= 0) && (y <= 0)", "(x <= 0) && (y > 0)", "(x > 0)")


def test_partition_holds_for_a_partition():
    table = oracle.TermTable()
    assert oracle.check_partition(table, FULL, 64, random.Random(1)) is None


def test_partition_reports_a_gap_and_an_overlap():
    table = oracle.TermTable()
    gap = oracle.check_partition(table, FULL[:2], 64, random.Random(1))
    assert gap is not None and "0 full" in gap
    overlap = oracle.check_partition(table, FULL + ("(y > 0)",), 64, random.Random(1))
    assert overlap is not None and "2 full" in overlap


def test_models_subset_and_reference_checks_catch_wrong_output():
    table = oracle.TermTable()
    assert oracle.check_models(table, ["(x > 3)"], lambda conjuncts: {"x": 4}) is None
    assert "violates" in oracle.check_models(table, ["(x > 3)"], lambda conjuncts: {"x": 3})
    assert "no model" in oracle.check_models(table, ["(x > 3)"], lambda conjuncts: None)
    assert oracle.check_subset(FULL[:1], FULL) is None
    assert oracle.check_subset(("(x > 5)",), FULL) is not None
    outputs = (FULL[:1], FULL)
    assert oracle.check_reference(outputs, outputs) is None
    assert oracle.check_reference(outputs, (FULL[:2], FULL)) is not None


def test_models_from_the_program_solver_satisfy_their_pcs():
    from repro.solver import terms
    from repro.solver.core import ConstraintSolver

    table = oracle.TermTable()
    solver = ConstraintSolver()

    def solve(conjuncts):
        result = solver.check(oracle.to_program_terms(table, conjuncts, terms))
        return result.model if result.satisfiable else None

    pcs = ["((x + 3) == -2) && (y > x)", "(((x * 2) - y) >= 3) && !((y == 0))"]
    assert oracle.check_models(table, pcs, solve) is None


# -- tracing ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def inner():
        clock.now += 5

    def outer(depth):
        clock.now += 1
        wrapped_inner()
        if depth:
            wrapped_outer(depth - 1)  # same-layer re-entry: part of this span
        clock.now += 2

    wrapped_inner = tracer.wrap("b", inner)
    wrapped_outer = tracer.wrap("a", outer)
    with tracer.sweep(0):
        clock.now += 1
        wrapped_outer(1)
        wrapped_inner()

    times = tracer.self_times(0)
    assert times["a"] == (6.0, 1)
    assert times["b"] == (15.0, 3)
    assert times[layers.ROOT] == (1.0, 1)
    assert sum(seconds for seconds, _ in times.values()) == clock.now


def _bindings():
    return {
        target: [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layers.resolve(target)]
        for _, target in layers.LAYER_TARGETS + layers.FRAME_TARGETS
    }


def _wrappers_left():
    return [
        (name, attr)
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for attr, value in list(vars(owner).items())
        if hasattr(value, layers.MARK)
    ]


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    workloads.Bench(workloads.Workload("tiny", ("WBS",)), str(tmp_path), seed=1).close()
    before = _bindings()
    bench = workloads.Bench(workloads.Workload("tiny", ("WBS",)), str(tmp_path), seed=1)
    try:
        bench.prepare()
        with layers.Tracer() as tracer:
            tracer.install_layers()
            assert _bindings() != before
            sweep = bench.sweep(tracer.sweep(0))
        assert bench.check([sweep]) == {}
    finally:
        bench.close()
    assert _bindings() == before
    assert _wrappers_left() == []
    times = tracer.self_times(0)
    assert times["solver.context"][1] > 0 and times["cfg.build"][1] > 0
    assert len(sweep.versions) == len(bench.histories["WBS"].history()) - 1


def test_a_failed_output_check_makes_the_result_incorrect(tmp_path):
    bench = workloads.Bench(workloads.Workload("tiny", ("WBS",)), str(tmp_path), seed=1)
    try:
        bench.prepare()
        sweep = bench.sweep()
        good = list(sweep.versions)
        # A leg that degraded fails its operation but judges no output.
        sweep.versions[1] = dataclasses.replace(good[1], error="degraded run")
        failures = bench.check([sweep])
        assert run.result_line([sweep], failures, {}) == {
            "correct": True, "attempted": len(good), "failed": 1, "metrics": {},
        }
        # A full run that lost a directed PC fails the subset check.
        lost = [pc for pc in good[0].full if pc != good[0].directed[0]]
        sweep.versions[0] = dataclasses.replace(good[0], full=tuple(lost))
        failures = bench.check([sweep])
    finally:
        bench.close()
    assert "absent from the full run" in failures[(0, 0)]
    result = run.result_line([sweep], failures, {})
    assert result["correct"] is False and result["failed"] == 2
