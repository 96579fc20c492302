"""Tests of the benchmark's own code, outside the repository's test suite:

    python3 -m pytest -q perfbench/check_bench.py
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shift(a):
    return -0.5 * a


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_same_seed_same_jobs(workload):
    first = jobs.make_round(workload, 7, 3, _shift)
    assert first == jobs.make_round(workload, 7, 3, _shift)
    assert first != jobs.make_round(workload, 8, 3, _shift)
    assert first != jobs.make_round(workload, 7, 4, _shift)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(jobs.WORKLOADS)


def test_band_scan_overflows_table_cache_and_reports_properties():
    props = jobs.round_properties(jobs.make_round("band-scan", 1, 0, _shift))
    assert props["distinct_a_dispersion"] > jobs.SUM_TABLE_SLOTS
    assert 0.0 < props["near_threshold_share"] < 1.0
    assert set(props["n_sites_per_job"]) == {None, 1024}


def test_defect_probes_are_fixed_and_outside_the_rounds():
    probes = jobs.defect_probes("band-scan")
    assert probes and probes == jobs.defect_probes("band-scan")
    assert any(p.kind == "readme_dispersion" for p in probes)
    for seed in range(3):
        round_jobs = jobs.make_round("band-scan", seed, 0, _shift)
        assert not [p for p in probes if p in round_jobs]
    assert jobs.defect_probes("site-dynamics") == []


def test_path_wavevectors_end_on_labels():
    ks = jobs.path_wavevectors("X,M,G", 60, 0.5)
    assert len(ks) == 60
    assert ks[0] == pytest.approx((jobs.Q, 0.0))   # X = pi/a = q at a = 0.5
    assert ks[-1] == pytest.approx((0.0, 0.0), abs=1e-12)


def _run(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, key):
    result = _run("--workload", "band-scan", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["failed"] > 0     # the README dispersion example crashes today


def _fake_round(*_args):
    return [jobs.Job(kind="validate", config=jobs.config_text(delta=400.0),
                     argv=("validate", "--config", "run.cfg")),
            jobs.Job(kind="validate", config=jobs.config_text(delta=400.0),
                     argv=("raise",))]


def test_job_that_raises_is_a_counted_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "make_round", _fake_round)
    runner = run.Runner(run._import_program(), "band-scan", 0, tmp_path)
    real_main = runner.main

    def main(argv):
        if "raise" in argv:
            raise RuntimeError("boom")
        return real_main(argv)

    runner.main = main
    sums = [runner.run_round(0)]
    assert runner.failures == [{"round": 0, "job": 1, "kind": "validate",
                                "code": "RuntimeError", "reason": "RuntimeError: boom"}]
    assert runner.wrong == 0
    assert run.failed_share(runner) == 0.5
    values = run.end_to_end(runner, sums, setup_s=1.0)
    assert values["jobs_per_s"] == 1 / sum(r[2] for r in runner.records)
    assert values["round_s"] == sums[0]


def test_wrong_output_fails_its_check(tmp_path):
    job = jobs.Job(kind="kernel", config="", argv=("kernel",), expect={"at_origin": "fs"})
    out = checks.Outcome(0, None, "0.25 +0j\n", "", tmp_path)
    with pytest.raises(checks.CheckFailed):
        checks.check(job, out)
    checks.check(job, checks.Outcome(0, None, "0.5 +0j\n", "", tmp_path))


def test_missing_probes_are_absent_not_errors():
    package = types.ModuleType("no_such_package")
    package.__file__ = str(ROOT / "no_such_package" / "__init__.py")
    tracer = tracing.Tracer(package)
    assert sorted(tracer.absent) == sorted(tracing.PROBES)
    metrics = tracing.per_layer_metrics(tracer, 0.0)
    assert metrics["cli.main.calls"] == (0, "count")
    assert tracing.sum_table_info(package) is None


def test_rhs_evals_repeat_exactly():
    import arraycav
    from arraycav import closed_form_params, evolve_reduced, parse_config
    cfg = parse_config(jobs.config_text())
    params = closed_form_params(cfg, 0.0)
    counts = []
    for _ in range(2):
        with tracing.Tracer(arraycav) as tracer:
            evolve_reduced(cfg, params, 20.0, 1.0)
        counts.append(tracer.counts["om_dynamics.evolve_reduced.rhs_evals"])
        calls, _self, _total = tracer.layer_totals()
        assert calls["om_dynamics.evolve_reduced"] == 1
        assert calls["_numerics.integrate_linear"] == 1
    assert counts[0] == counts[1] > 0
