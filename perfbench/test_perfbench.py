"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench

Each correctness check must reject a corrupted output, and the self-time
arithmetic must be right on a hand-built span tree.  Nothing here runs
qmaflow.
"""

import json

import numpy as np
import pytest

import checks
import tracing

SIZES = (8, 8)
U_STAR = [
    {"k": [1, 0], "amplitude": 0.1, "phase": 0.3},
    {"k": [1, 1], "amplitude": 0.05, "phase": 1.1},
]


def write_snapshot(path, values):
    """The documented format, written independently of qmaflow."""
    header = {"format": "qmaflow-snapshot", "sizes": list(values.shape), "dtype": "float64",
              "byte_order": "little", "n": 2, "active_dims": [0, 4], "t": 1.0, "field": "u"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + values.astype("<f8").tobytes())


def test_snapshot_round_trip_and_limit_passes(tmp_path):
    u_star = checks.sample_terms(U_STAR, SIZES)
    write_snapshot(tmp_path / "u.snap", u_star - u_star.mean() + 1e-9)
    header, values = checks.read_snapshot(tmp_path / "u.snap")
    assert tuple(header["sizes"]) == SIZES
    limit = checks.check_limit(values, u_star)
    assert limit.ok and limit.err < 1e-12


def test_sample_terms_matches_pointwise_cosine():
    values = checks.sample_terms(U_STAR, SIZES)
    x = (3 * 2 * np.pi / 8, 5 * 2 * np.pi / 8)
    expected = 0.1 * np.cos(x[0] + 0.3) + 0.05 * np.cos(x[0] + x[1] + 1.1)
    assert values[3, 5] == pytest.approx(expected, abs=1e-15)


def test_limit_rejects_one_mode_perturbed(tmp_path):
    u_star = checks.sample_terms(U_STAR, SIZES)
    bump = checks.sample_terms([{"k": [2, 1], "amplitude": 1e-3}], SIZES)
    write_snapshot(tmp_path / "u.snap", u_star + bump)
    _, values = checks.read_snapshot(tmp_path / "u.snap")
    limit = checks.check_limit(values, u_star)
    assert not limit.ok and not limit.nyquist_only
    assert limit.sub_nyquist == pytest.approx(1e-3, rel=1e-9)
    assert limit.nyquist < 1e-15


def test_limit_splits_a_nyquist_error():
    u_star = checks.sample_terms(U_STAR, SIZES)
    nyquist = checks.sample_terms([{"k": [4, 0], "amplitude": 5e-4}], SIZES)
    limit = checks.check_limit(u_star + nyquist, u_star)
    assert not limit.ok and limit.nyquist_only
    assert limit.nyquist == pytest.approx(5e-4, rel=1e-9)
    assert "Nyquist part 5.000e-04" in limit.message()


def test_read_snapshot_rejects_truncated_payload(tmp_path):
    write_snapshot(tmp_path / "u.snap", np.zeros(SIZES))
    raw = (tmp_path / "u.snap").read_bytes()
    (tmp_path / "u.snap").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        checks.read_snapshot(tmp_path / "u.snap")


def test_result_checks():
    assert checks.check_result({"converged": True, "b_tilde": 5e-11}) == []
    assert checks.check_result({"converged": False, "b_tilde": 5e-11})
    assert checks.check_result({"converged": True, "b_tilde": 2e-6})
    assert checks.check_result({"converged": True, "b_tilde": float("nan")})


def write_csv(path, sup, min_eig):
    fields = ["step", "t", "dt", "sup_abs_ut", "osc_u", "max_beta", "max_eta",
              "min_eig_omega_tilde", "osc_ut", "spectral_tail"]
    lines = [",".join(fields)]
    for i, (s, e) in enumerate(zip(sup, min_eig)):
        lines.append(",".join(map(repr, [i, 0.1 * i, 0.1, s, 0.1, 0.0, 0.0, e, s, 0.0])))
    path.write_text("\n".join(lines) + "\n")


def test_diagnostics_checks(tmp_path):
    path = tmp_path / "diagnostics.csv"
    write_csv(path, [0.05, 0.04, 0.04, 0.01], [0.9, 0.9, 0.95, 0.95])
    assert checks.check_diagnostics(path, steps=3) == []
    assert checks.check_diagnostics(path, steps=4)  # a missing row
    write_csv(path, [0.05, 0.04, 0.041, 0.01], [0.9, 0.9, 0.95, 0.95])
    assert any("grows" in p for p in checks.check_diagnostics(path, steps=3))
    write_csv(path, [0.05, 0.04, 0.04, 0.01], [0.9, 0.0, 0.95, 0.95])
    assert any("min_eig" in p for p in checks.check_diagnostics(path, steps=3))


def passing_report(n, trials=8):
    return {
        "n": n,
        "trials": trials,
        "all_passed": True,
        "identities": [
            {"name": name, "max_rel_err": tol / 10, "tol": tol, "passed": True}
            for name, tol in checks.expected_identities(n).items()
        ],
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_report_passes(n):
    assert checks.check_identity_report(passing_report(n), n, 8) == []


def test_identity_report_rejects_one_identity_flipped_to_failed():
    report = passing_report(2)
    report["identities"][4]["passed"] = False
    assert any("reported as failed" in p for p in checks.check_identity_report(report, 2, 8))


def test_identity_report_rejects_missing_identity_and_large_error():
    report = passing_report(3)
    del report["identities"][0]
    report["identities"][-1]["max_rel_err"] = 1e-9
    problems = checks.check_identity_report(report, 3, 8)
    assert any("missing" in p for p in problems)
    assert any("exceeds" in p for p in problems)


def test_identity_report_rejects_wrong_trials():
    assert checks.check_identity_report(passing_report(4, trials=3), 4, 8)


# -- span arithmetic -----------------------------------------------------------------


def span(name, parent, start, end, value=0.0):
    return [name, parent, start, end, value]


def test_self_times_on_a_hand_built_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    spans = [
        span(0, -1, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(1, 0, 5.0, 9.0),
        span(0, -1, 20.0, 21.0),  # a second root with no children
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_times_count_overlapping_children_once():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 6.0), span(1, 0, 4.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_summary_and_layer_metrics():
    names = ["flow.run_to_steady", "flow.step", "flow.evaluate", "fields.fft"]
    spans = [
        span(0, -1, 0.0, 10.0),
        span(1, 0, 1.0, 5.0, value=0.25),
        span(2, 1, 1.5, 2.5, value=1.0),
        span(3, 2, 1.6, 2.0, value=1024.0),
        span(2, 1, 3.0, 4.0, value=1.0),
        span(1, 0, 5.0, 9.0, value=0.5),
        span(2, 5, 5.5, 6.5, value=0.0),
        span(2, 5, 7.0, 8.0, value=1.0),
        span(2, 5, 8.0, 8.5, value=1.0),
    ]
    summary = tracing.summarize(names, spans)
    assert summary["flow.step"]["calls"] == 2
    assert summary["flow.step"]["self_s"] == pytest.approx(8.0 - 4.5)
    assert summary["flow.evaluate"]["self_s"] == pytest.approx(4.5 - 0.4)
    metrics = tracing.layer_metrics(tracing.merge([summary, summary]))
    assert metrics["flow.steps"] == (4.0, "count")
    assert metrics["flow.evaluations"] == (10.0, "count")
    assert metrics["flow.rejected_evaluations"] == (2.0, "count")
    assert metrics["flow.accept_ratio"][0] == pytest.approx(8 / 10)
    assert metrics["flow.mean_dt"][0] == pytest.approx(0.375)
    assert metrics["fields.bytes_transformed"] == (2048.0, "B")
    assert metrics["trace.solve_s"][0] == pytest.approx(20.0)
    assert metrics["trace.attributed_share"][0] == pytest.approx(16.0 / 20.0)
    assert metrics["cli.snapshot_writes"] == (0.0, "count")


def test_tracer_records_nesting_and_values():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, value=lambda a, r: float(r))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(3) == 14
    assert tracer.names == ["inner", "outer"]
    assert [s[0] for s in tracer.spans] == [1, 0, 0]
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]
    assert [s[4] for s in tracer.spans] == [0.0, 6.0, 8.0]


def test_hostclock_takes_steal_out_of_wall_time():
    import hostclock

    assert hostclock.elapsed((10.0, 3.0), (16.0, 3.5)) == pytest.approx(5.5)
    first, second = hostclock.stamp(), hostclock.stamp()
    assert second[0] >= first[0] and second[1] >= first[1] >= 0.0


def test_benchmark_json_lists_every_metric_printed():
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    printed = dict(tracing.layer_metrics({}))
    printed.update({"trace.overhead_s": (0.0, "s"), "host.steal_s": (0.0, "s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in printed.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
