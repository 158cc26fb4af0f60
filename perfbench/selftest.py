"""Tests of the benchmark's own machinery; run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's test suite.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _digests(plan):
    return {name: checks.digest_file(path) for name, path in plan.inputs.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_bytes_depend_only_on_seed(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert _digests(first) == _digests(again)
    assert _digests(first)["ais"] != _digests(other)["ais"]
    assert [op.key for op in first.cycle] == [op.key for op in other.cycle]


def _write_cli_csv(path, header, rows):
    lines = ['# inputs {}', '# parameters {}', ",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reference_sr_star():
    doc = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    record = doc["open_sea"][next(k for k in doc["open_sea"] if k.startswith("score-"))]
    return record["sr_star.csv"]


def test_reference_check_catches_perturbed_sr_star(tmp_path):
    expected = _reference_sr_star()
    values = expected["values"]
    rows = [values[i:i + 2] for i in range(0, len(values), 2)]
    _write_cli_csv(tmp_path / "sr_star.csv", expected["header"], rows)
    same = checks.file_numbers(tmp_path / "sr_star.csv")
    assert checks.compare_numbers({"sr_star.csv": same}, {"sr_star.csv": expected}) == []

    rows[-1][1] += 1e-9
    _write_cli_csv(tmp_path / "sr_star.csv", expected["header"], rows)
    moved = checks.file_numbers(tmp_path / "sr_star.csv")
    problems = checks.compare_numbers({"sr_star.csv": moved}, {"sr_star.csv": expected})
    assert len(problems) == 1 and "sr_star.csv" in problems[0]


def test_range_check_catches_risk_above_one(tmp_path):
    _write_cli_csv(tmp_path / "risk_series.csv", ["time", "cr_1", "gr", "sr"],
                   [[0.0, 0.2, 0.0, 0.2], [10.0, 1.5, 0.0, 0.3]])
    _write_cli_csv(tmp_path / "sr_star.csv", ["time", "sr_star"], [[0.0, 0.1], [10.0, 0.1]])
    report = {"sr_series": [0.2, 0.3], "sr_star_series": [0.1, 0.1],
              "sr_norm_series": [0.5, 0.6], "sr_max": 0.6, "j_m": 0.4, "j_c": 0.5, "gss": 0.4}
    for name in ("gss.json", "baseline_gss.json"):
        (tmp_path / name).write_text(json.dumps(report), encoding="utf-8")
    problems = checks.check_score(tmp_path, steps=2)
    assert len(problems) == 1 and "risk_series.csv" in problems[0]


def test_self_time_subtracts_the_union_of_children():
    t = tracer.Tracer(names=("root", "a", "b", "c", "leaf"))
    root = t.add_span("root", 0.0, 10.0, -1)
    a = t.add_span("a", 1.0, 4.0, root)
    t.add_span("leaf", 2.0, 3.0, a)
    t.add_span("b", 3.0, 6.0, root)  # overlaps a: [1, 6] is covered once
    t.add_span("c", 8.0, 12.0, root)  # runs past its parent: clipped at 10
    totals = t.totals()
    assert totals["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["a"]["self_s"] == pytest.approx(2.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["c"]["self_s"] == pytest.approx(4.0)
    assert totals["leaf"] == {"calls": 1, "total_s": pytest.approx(1.0),
                              "self_s": pytest.approx(1.0)}


def test_instrument_wraps_imported_names_and_restores_them():
    import seamanship.cli as cli
    import seamanship.planner as planner
    from seamanship.geometry import VesselTrack

    original = planner.sr_star_series
    original_state_at = VesselTrack.__dict__["state_at"]
    t = tracer.Tracer()
    with tracer.instrument(t):
        assert cli.sr_star_series is planner.sr_star_series is not original
        own = VesselTrack("own", [0.0, 10.0], [0.0, 50.0], [0.0, 0.0], [5.0, 5.0],
                          [0.0, 0.0], 100.0)
        cli.sr_star_series({"own": own}, "own", [0.0, 0.0],
                           planner.Hyperparameters(n_t=1, n_alpha=1, n_v=1))
    assert cli.sr_star_series is original and planner.sr_star_series is original
    assert VesselTrack.__dict__["state_at"] is original_state_at
    metrics = tracer.layer_metrics(t, cycles=1)
    assert metrics["planner.sr_star_series.calls"] == 1
    assert metrics["planner.branch_and_bound.calls"] == 1
    assert metrics["planner.series_dedup_ratio"] == 0.5
    assert metrics["planner.nodes"] == 1
    assert set(metrics) == set(tracer.layer_units()) - {"trace.overhead_s",
                                                        "trace.overhead_share"}


def test_tail_is_never_below_the_median():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    samples = [float(i) for i in range(31)]
    value, pct = run.tail(samples)
    assert value == 20.0 and sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_speed_adjustment_scales_every_time_and_rate():
    samples = [run.Sample("ingest", 0.5, 0.6, 0, 0, 1000), run.Sample("fit", 0.2, 0.25, 1, 0, 0),
               run.Sample("score", 1.0, 1.1, 2, 4, 0), run.Sample("path", 2.0, 2.05, 3, 0, 0)]
    setups = [(1.0, 0), (3.0, 1), (2.0, 2)]
    wall, _ = run.end_to_end(samples, setups, lambda _: 1.0)
    slow, detail = run.end_to_end(samples, setups, lambda _: 2.0)
    assert wall["setup_s"] == 2.0 and wall["ingest_rows_per_s"] == 2000.0
    assert wall["graded_steps_per_s"] == pytest.approx(4 / 4.0)
    for name in ("setup_s", "score_p50_s", "score_tail_s", "path_p50_s", "path_tail_s",
                 "fit_s"):
        assert slow[name] == pytest.approx(2.0 * wall[name])
    for name in ("graded_steps_per_s", "ingest_rows_per_s"):
        assert slow[name] == pytest.approx(0.5 * wall[name])
    assert slow["peak_rss_mb"] == wall["peak_rss_mb"]
    assert detail["samples"]["score_p50_s"] == 1 and detail["graded_steps"] == 4


def test_probe_scale_uses_the_probes_on_either_side():
    probe = run.SpeedProbe()
    probe.times[:] = [run.PROBE_NOMINAL_S, 3 * run.PROBE_NOMINAL_S]
    assert probe.scale(0) == pytest.approx(0.5)
