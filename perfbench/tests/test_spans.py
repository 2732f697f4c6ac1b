"""Span self-time arithmetic on synthetic spans, and wrapper placement.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    s = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 7.0, 0, None],
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_layer_metrics_on_a_synthetic_run():
    s = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["simulate.monte_carlo_evaluate", 1.0, 9.0, 0, 100.0],
        ["solver.solve_nadapopt_lp", 2.0, 4.0, 1, None],
        ["simulate.run_policy", 4.0, 8.0, 1, None],
        ["policies.max_decide", 5.0, 6.0, 3, None],
        ["metrics.fairness_report", 9.0, 9.5, 0, None],
        ["metrics.gamma_of", 9.1, 9.2, 5, None],
    ]
    m = spans.layer_metrics(s, overhead_s=0.25, solver_peak_mb=3.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert m["simulate.evaluate_self_s"] == pytest.approx(8.0 - 2.0 - 4.0)
    assert m["simulate.run_policy_s"] == pytest.approx(3.0)
    assert m["policies.decide_s"] == pytest.approx(1.0)
    assert m["policies.decide_calls"] == 1
    assert m["solver.nadapopt_lp_s"] == pytest.approx(2.0)
    assert m["solver.calls"] == 1
    assert m["solver.call_p50_s"] == pytest.approx(2.0)
    assert m["solver.peak_alloc_mb"] == 3.0
    assert m["metrics.report_s"] == pytest.approx(0.5)
    assert m["simulate.trials"] == 100
    # trials over simulate time without the solver beneath it
    assert m["simulate.trials_per_s"] == pytest.approx(100 / 6.0)
    assert m["trace.overhead_s"] == 0.25
    assert set(m) == {name for name, _, _ in spans.LAYER_METRICS}


def test_nested_evaluations_count_their_time_once():
    s = [
        ["simulate.estimate_normalization", 0.0, 4.0, -1, None],
        ["simulate.monte_carlo_evaluate", 0.5, 3.5, 0, 50.0],
        ["simulate.monte_carlo_evaluate", 1.0, 2.0, 1, 10.0],
    ]
    m = spans.layer_metrics(s, 0.0, 0.0)
    assert m["simulate.normalization_s"] == pytest.approx(4.0)
    assert m["simulate.trials"] == 60
    assert m["simulate.trials_per_s"] == pytest.approx(60 / 3.0)


def test_tracer_wraps_where_callers_look_up_and_restores():
    import donormatch as dm
    from donormatch import cli, policies, simulate, solver  # noqa: F401

    original = solver.solve_fixedtime_lp
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert simulate.solve_fixedtime_lp is not original
        assert dm.solve_fixedtime_lp is simulate.solve_fixedtime_lp
        # deciders are wrapped for the simulator only
        assert simulate.max_decide is not policies.max_decide
        s = dm.build_scenario(
            [dm.Donor("d", 0.0, 0.0, 1)],
            [dm.Recipient("r", 0.0, 0.0, "static")],
            [("d", "r")],
            [0.5],
            None,
            horizon=1,
            rate_limit=1,
        )
        dm.solve_fixedtime_lp(s, 0.0)
    finally:
        tracer.uninstall()
    assert simulate.solve_fixedtime_lp is original
    assert [sp[0] for sp in tracer.spans] == ["solver.solve_fixedtime_lp"]
    assert tracer.missing == []
    assert tracer.replay_peak_alloc_mb() > 0.0
