"""Benchmark of qmaflow: time to a converged, checked answer on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for at least S seconds and at least
MIN_ROUNDS rounds, each round as fresh
``qmaflow`` processes started one at a time (a closed loop with one
caller), checks every output apart from the program, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end medians over the rounds; with ``--trace 1``
rounds alternate untraced and traced, and the metrics are the per-layer
medians over the traced rounds plus the tracing overhead.  ``--workload
all`` runs every workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import hostclock
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # commands still running this long after a run starts are killed
MIN_ROUNDS = 2  # every run reports medians of at least this many rounds


# -- one qmaflow process ----------------------------------------------------------


@dataclass
class Proc:
    code: int
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    peak_rss_mb: float = 0.0
    steal_s: float = 0.0  # host steal during the solve, already taken out of solve_s
    summary: dict = field(default_factory=dict)


def spawn(command, cwd: Path, tag: str, traced: bool, deadline: float) -> Proc:
    """Run ``qmaflow <command>`` in a fresh process and time it from spawn to exit."""
    marks, spans = cwd / f"{tag}.marks.json", cwd / f"{tag}.spans.json"
    argv = [sys.executable, str(HERE / "launch.py"), "--marks", str(marks)]
    if traced:
        argv += ["--trace", str(spans)]
    env = dict(os.environ)
    env.pop("QMAFLOW_WORKERS", None)  # measure the program's default worker count
    with open(cwd / f"{tag}.stdout", "w") as out, open(cwd / f"{tag}.stderr", "w") as err:
        start = hostclock.stamp()
        proc = subprocess.Popen(argv + ["--", *command], cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - start[0]), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = hostclock.stamp()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Proc(
        code=proc.returncode,
        total_s=hostclock.elapsed(start, end),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if result.code == 0:
        m = json.loads(marks.read_text())
        result.setup_s = hostclock.elapsed(start, m["solve_start"])
        result.solve_s = hostclock.elapsed(m["solve_start"], m["solve_end"])
        result.steal_s = m["solve_end"][1] - m["solve_start"][1]
        if traced:
            data = json.loads(spans.read_text())
            result.summary = tracing.summarize(data["names"], data["spans"])
    return result


@dataclass
class Round:
    """One operation: its end-to-end figures, problems found and known fault."""

    setup_s: float
    solve_s: float
    total_s: float
    peak_rss_mb: float
    steal_s: float
    traced: bool
    problems: list
    known_fault: str | None = None
    summary: dict = field(default_factory=dict)


def combine(procs, traced, problems, known_fault=None) -> Round:
    return Round(
        setup_s=sum(p.setup_s for p in procs),
        solve_s=sum(p.solve_s for p in procs),
        total_s=sum(p.total_s for p in procs),
        peak_rss_mb=max(p.peak_rss_mb for p in procs),
        steal_s=sum(p.steal_s for p in procs),
        traced=traced,
        problems=problems,
        known_fault=known_fault,
        summary=tracing.merge(p.summary for p in procs),
    )


def command_failed(proc: Proc, cwd: Path, tag: str) -> list:
    tail = (cwd / f"{tag}.stderr").read_text()[-400:].strip()
    return [f"qmaflow {tag} exited with {proc.code}: {tail}"]


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class FlowWorkload:
    """A manufactured problem: u_star is exactly stationary, b_tilde is zero."""

    name: str
    n: int
    active_dims: tuple
    sizes: tuple
    u_star: tuple
    rho: tuple
    tol_steady: float
    t_max: float
    # False: fixed inputs, for a check that fails on every seed (see README)
    seeded: bool = True
    snapshot_interval: float = 10.0

    def inputs(self, seed: int):
        """(u_star terms, rho terms).  The seed translates the torus by a
        random vector, so every seed poses a congruent problem of equal work."""
        shift = np.zeros(len(self.sizes))
        if self.seeded:
            shift = np.random.default_rng([seed, len(self.sizes)]).uniform(0, 2 * np.pi, len(self.sizes))
        terms = lambda spec: [
            {"k": list(k), "amplitude": a, "phase": float(np.dot(k, shift) % (2 * np.pi))}
            for k, a in spec
        ]
        return terms(self.u_star), terms(self.rho)

    def run_round(self, seed: int, cwd: Path, traced: bool, deadline: float) -> Round:
        u_star, rho = self.inputs(seed)
        config = {
            "n": self.n,
            "grid": {"active_dims": list(self.active_dims), "sizes": list(self.sizes)},
            "omega_h": {"c": 1.0, "rho": rho},
            "f": {"manufactured": {"u_star": u_star}},
            "u0": [],
            "sigma": 0.2,
            "tol_steady": self.tol_steady,
            "t_max": self.t_max,
            "snapshot_interval": self.snapshot_interval,
            "seed": seed,
            "output_dir": "out",
        }
        (cwd / "run.json").write_text(json.dumps(config, indent=1))
        proc = spawn(["flow", "--config", "run.json"], cwd, "flow", traced, deadline)
        if proc.code != 0:
            return combine([proc], traced, command_failed(proc, cwd, "flow"))
        out = cwd / "out"
        try:
            result = json.loads((out / "result.json").read_text())
            problems = checks.check_result(result)
            problems += checks.check_diagnostics(out / "diagnostics.csv", int(result["steps"]))
            header, u_final = checks.read_snapshot(out / "u_final.snap")
            if tuple(header["sizes"]) != self.sizes:
                problems.append(f"u_final.snap: sizes {header['sizes']}")
                return combine([proc], traced, problems)
            limit = checks.check_limit(u_final, checks.sample_terms(u_star, self.sizes))
        except (OSError, ValueError, KeyError) as exc:
            return combine([proc], traced, [f"unreadable output: {exc!r}"])
        if limit.ok:
            return combine([proc], traced, problems)
        if not self.seeded and limit.nyquist_only:
            return combine([proc], traced, problems, known_fault=limit.message())
        return combine([proc], traced, problems + [limit.message()])


@dataclass(frozen=True)
class IdentityWorkload:
    """``qmaflow identities`` for each n; one operation is the suite over all n."""

    name: str
    dims: tuple
    trials: int

    def run_round(self, seed: int, cwd: Path, traced: bool, deadline: float) -> Round:
        procs, problems = [], []
        for n in self.dims:
            tag = f"identities-n{n}"
            report_path = cwd / f"report-n{n}.json"
            command = ["identities", "--n", str(n), "--trials", str(self.trials),
                       "--seed", str(1000 * seed + n), "--out", report_path.name]
            proc = spawn(command, cwd, tag, traced, deadline)
            procs.append(proc)
            if proc.code != 0:
                problems += command_failed(proc, cwd, tag)
                continue
            try:
                report = json.loads(report_path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable report n={n}: {exc!r}")
                continue
            problems += checks.check_identity_report(report, n, self.trials)
        return combine(procs, traced, problems)


REDUCED_USTAR = (((1, 0), 0.1), ((1, 1), 0.05))
REDUCED_RHO = (((0, 1), 0.05),)
WORKLOADS = {
    w.name: w
    for w in (
        FlowWorkload("manufactured_n2", 2, (0, 4), (16, 16), REDUCED_USTAR, REDUCED_RHO, 1e-8, 200.0),
        FlowWorkload("manufactured_n3", 3, (0, 6), (8, 8), REDUCED_USTAR, REDUCED_RHO, 1e-8, 200.0),
        FlowWorkload(
            "full_dim_n2",
            2,
            tuple(range(8)),
            (4,) * 8,
            (
                ((1, 0, 0, 0, 0, 0, 0, 0), 0.05),
                ((0, 1, 0, 0, 0, 1, 0, 0), 0.03),
                ((0, 0, 1, 0, 0, 0, 0, -1), 0.02),
            ),
            (((0, 0, 0, 1, 0, 0, 1, 0), 0.02),),
            1e-6,
            100.0,
            seeded=False,
        ),
        IdentityWorkload("identities", (2, 3, 4), trials=8),
    )
}

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))


# -- a run ------------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    start = time.monotonic()

    def attempt(label, traced):
        work_dir = run_dir / label
        work_dir.mkdir(parents=True)
        r = workload.run_round(seed, work_dir, traced, start + RUN_LIMIT_S)
        print(
            f"{workload.name} {label}: setup {r.setup_s:.3f}s solve {r.solve_s:.3f}s "
            f"total {r.total_s:.3f}s rss {r.peak_rss_mb:.1f}MB (steal {r.steal_s:.2f}s taken out)",
            file=sys.stderr,
        )
        for line in r.problems:
            print(f"  CHECK FAILED: {line}  (kept in {work_dir})", file=sys.stderr)
        if r.known_fault:
            print(f"  operation failed, known Nyquist fault: {r.known_fault}", file=sys.stderr)
        if not r.problems:
            shutil.rmtree(work_dir)
        return r

    rounds = []
    # whole rounds only; in a traced run, traced rounds alternate with untraced ones
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(attempt(f"round{len(rounds)}{'-traced' if traced else ''}", traced))
    correct = not any(r.problems for r in rounds)
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        per_round = [tracing.layer_metrics(r.summary) for r in traced]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_round), "unit": unit}
            for name, (_, unit) in per_round[0].items()
        }
        overhead = statistics.median(r.solve_s for r in traced) - statistics.median(
            r.solve_s for r in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["host.steal_s"] = {"value": statistics.median(r.steal_s for r in traced), "unit": "s"}
    else:
        metrics = {
            name: {"value": statistics.median(getattr(r, name) for r in plain), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": correct,
        "attempted": len(rounds),
        "failed": sum(1 for r in rounds if r.known_fault),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32  # the seeding below takes non-negative integers
    if not (ROOT / "src" / "qmaflow" / "cli.py").is_file():
        print(f"error: no qmaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name, workload in WORKLOADS.items():
        results[name] = run_workload(workload, seed, args.seconds, bool(args.trace))
        print(f"{name}: {json.dumps(results[name])}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
