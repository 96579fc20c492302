"""End-to-end and per-layer benchmark of arraycav.

    python3 perfbench/run.py --workload band-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout and driven only through its public API: each job is an in-process
``arraycav.cli.main(argv)`` call on a generated config file, or the README
library quickstart.  A run first runs the workload's fixed defect probes once
(inputs that hit a known defect, the same for every seed), then repeats rounds
of the workload's seeded jobs for ``--seconds``.  It checks every output and
prints a report whose last line is a JSON object ``{"correct", "attempted",
"failed", "metrics"}``; ``attempted`` and ``failed`` count probes and rounds,
the time metrics only the rounds.
``--workload all`` runs every workload in turn, each in its own process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced rounds (per-command times, failure share), then traces
round 0 again and reports the per-layer metrics of that round.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5                  # fresh interpreters timed per run, after one warm-up
SETUP_CODE = "from arraycav.cli import main; main(['--help'])"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from jobs import (THREADS, WORKLOADS, defect_probes, make_round, quickstart,  # noqa: E402
                  round_properties)

# One process, at most THREADS threads of numeric work: BLAS is pinned to the
# same count as --threads.  Must be set before numpy is imported.
BLAS_ENV = {k: str(THREADS) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END = {
    "setup_s": "s", "round_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}
PROBE_ROUND = -1                # round index of the defect probes in the records
JOB_TIMES = ("omparams_n128", "omparams_n256", "dyn_full", "dyn_multimode",
             "dyn_reduced", "dispersion", "spectrum", "validate", "quickstart")


class Runner:
    """Runs rounds of jobs, checks their outputs and keeps the records."""

    def __init__(self, package, workload, seed, work):
        from arraycav import cli
        self.main = cli.main
        self.package, self.workload, self.seed, self.work = package, workload, seed, work
        self.records = []       # (round, kind, seconds, ok)
        self.failures = []      # {round, job, kind, code, reason}
        self.wrong = 0          # jobs that exited 0 with wrong output
        self.output_bytes = 0
        self.properties = []
        self.tracer = None      # set while a traced round runs; jobs only, not checks

    def shift(self, a):
        """The program's cooperative shift Delta at k = 0, None if it fails."""
        from arraycav import dispersion_point
        from arraycav.errors import ArrayCavError
        try:
            return dispersion_point((0.0, 0.0), a).delta_k
        except (ArrayCavError, ValueError):
            return None

    def run_job(self, job):
        from checks import Outcome
        d = self.work / "job"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        if job.config:
            (d / "run.cfg").write_text(job.config)
        out, err = io.StringIO(), io.StringIO()
        rc, error, value = None, None, None
        cwd = os.getcwd()
        os.chdir(d)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), self.tracer or nullcontext():
                if job.argv:
                    rc = self.main(job.cli_argv())
                else:
                    value, rc = quickstart(job.expect), 0
        except SystemExit as exc:            # argparse rejects its input this way
            rc = exc.code
        except Exception as exc:             # a job that raises is a failed job
            error = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
        finally:
            seconds = time.perf_counter() - t0
            os.chdir(cwd)
        return Outcome(rc, error, out.getvalue(), err.getvalue(), d, value), seconds

    def run_probes(self):
        """Run and check the workload's defect probes once."""
        self.run_jobs(PROBE_ROUND, defect_probes(self.workload))

    def run_round(self, index):
        """Run and check one round; returns the summed job wall time."""
        jobs = make_round(self.workload, self.seed, index, self.shift)
        self.properties.append(round_properties(jobs))
        return self.run_jobs(index, jobs)

    def run_jobs(self, index, jobs):
        from checks import CheckFailed, check
        total = 0.0
        for j, job in enumerate(jobs):
            outcome, seconds = self.run_job(job)
            total += seconds
            ok = True
            try:
                check(job, outcome)
            except CheckFailed as exc:
                ok = False
                self.wrong += outcome.rc == 0 and outcome.error is None
                code = outcome.error.split(":")[0] if outcome.error else outcome.rc
                self.failures.append({"round": index, "job": j, "kind": job.kind,
                                      "code": code, "reason": str(exc)[:200]})
            self.output_bytes += len(outcome.stdout) + sum(
                p.stat().st_size for p in outcome.directory.iterdir()
                if p.name != "run.cfg")
            self.records.append((index, job.kind, seconds, ok))
        return total

    def run_for(self, budget):
        """Whole rounds from round 0 on while the next is expected to fit in
        ``budget`` seconds; returns each round's summed job time."""
        start, walls, sums, index = time.perf_counter(), [], [], 0
        while True:
            t0 = time.perf_counter()
            sums.append(self.run_round(index))
            walls.append(time.perf_counter() - t0)
            index += 1
            if time.perf_counter() - start + statistics.median(walls) > budget:
                return sums


def _child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(runs=SETUP_RUNS):
    """Median wall time of a fresh interpreter that imports arraycav and starts
    the CLI (``--help``), after one untimed warm-up."""
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds():
    """Cumulative import time of arraycav and scipy.integrate in a fresh
    interpreter, from ``-X importtime``; 0 for a module CLI start no longer imports."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                         env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, check=True).stderr
    cumulative = {}
    for line in err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative.get("arraycav", 0.0), cumulative.get("scipy.integrate", 0.0)


def end_to_end(runner, sums, setup_s):
    timed = [r for r in runner.records if r[0] != PROBE_ROUND]
    return {
        "setup_s": setup_s,
        "round_s": statistics.median(sums),
        "jobs_per_s": sum(r[3] for r in timed) / sum(r[2] for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def failed_share(runner):
    """Failed jobs over attempted jobs, defect probes included."""
    return len(runner.failures) / len(runner.records)


def per_layer(runner, seconds):
    """Untraced rounds for half the budget, round 0 once more untraced and
    then under the tracer; the two runs of round 0 give the tracing overhead."""
    import tracing
    arraycav_s, integrate_s = import_seconds()
    runner.run_for(seconds / 2.0)
    job_times = {kind: statistics.median([r[2] for r in runner.records
                                          if r[1] == kind and r[0] != PROBE_ROUND] or [0.0])
                 for kind in JOB_TIMES}
    untraced = runner.run_round(0)
    before = tracing.sum_table_info(runner.package)
    bytes_before = runner.output_bytes
    runner.tracer = tracing.Tracer(runner.package)
    try:
        traced = runner.run_round(0)
    finally:
        tracer, runner.tracer = runner.tracer, None
    after = tracing.sum_table_info(runner.package)
    if before is None or after is None:
        hit_ratio = 0.0
        tracer.absent.append("lattice_sums._sum_table")
    else:
        hits, misses = after[0] - before[0], after[1] - before[1]
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    metrics = tracing.per_layer_metrics(tracer, hit_ratio)
    metrics.update({f"{k}_s": (v, "s") for k, v in job_times.items()})
    metrics["failed_share"] = (failed_share(runner), "share")
    metrics["cli.output_bytes"] = (runner.output_bytes - bytes_before, "B")
    metrics["setup.import.arraycav_s"] = (arraycav_s, "s")
    metrics["setup.import.scipy_integrate_s"] = (integrate_s, "s")
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    return metrics, tracer.absent


def _import_program():
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    try:
        import arraycav
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import arraycav from {SRC}: {exc}")
    if SRC.resolve() not in Path(arraycav.__file__).resolve().parents:
        sys.exit(f"perfbench: arraycav imported from {arraycav.__file__}, not {SRC}")
    return arraycav


def _report(runner, absent):
    by_reason = {}
    for f in runner.failures:
        reason = re.sub(r"[-+0-9.e]{3,}|'.*'", "#", f["reason"])
        probe = "defect probe " if f["round"] == PROBE_ROUND else ""
        key = f"{probe}{f['kind']} [{f['code']}] {reason}"
        by_reason[key] = by_reason.get(key, 0) + 1
    rounds = len({r[0] for r in runner.records} - {PROBE_ROUND})
    probes = sum(r[0] == PROBE_ROUND for r in runner.records)
    print(f"defect probes {probes}, rounds {rounds}, jobs {len(runner.records)}, "
          f"failed {len(runner.failures)}, wrong outputs {runner.wrong}")
    for key, n in sorted(by_reason.items(), key=lambda kv: -kv[1]):
        print(f"  failure x{n}: {key}")
    print("inputs (round 0): " + json.dumps(runner.properties[0], sort_keys=True))
    if absent:
        print("absent probes: " + ", ".join(absent))
    (runner.work / "failures.json").write_text(json.dumps(runner.failures, indent=1))
    (runner.work / "inputs.json").write_text(json.dumps(runner.properties, indent=1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds), "--trace",
                            str(args.trace)], check=True)
        return 0

    package = _import_program()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(package, args.workload, args.seed, work)
    runner.run_probes()
    if args.trace:
        values, absent = per_layer(runner, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        setup_s = setup_seconds()
        sums = runner.run_for(args.seconds)
        values, absent = end_to_end(runner, sums, setup_s), []
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    _report(runner, absent)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": len(runner.records),
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
