"""quantcat benchmark: seeded workloads of real CLI jobs.

    python3 perfbench/run.py --workload crisp-fca --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout.  Each job is one
``python -m quantcat.cli ...`` process with ``PYTHONPATH=src``, as a user
runs the tool.  The load is a closed loop with one client: the next job
starts when the previous one has ended.  Passes over the job list run
until the next job would end more than ``--seconds`` after the workload
started, input generation included, so a run takes about ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every job runs twice, plainly and through
``perfbench/launcher.py``, which times calls into the package's public
functions from outside it; the run reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import yaml

import gen
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_FIRST = 3  # no-op processes before the first pass; one more after each pass
MIN_PASSES = 2  # whole passes made even past --seconds, so every job repeats
FIT_MARGIN = 1.2  # a job starts only if 1.2 x its slowest run so far still fits
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # no job starts later in a workload, and none runs past it
CALIBRATION_STEPS = 60_000
CALIBRATION_REF_S = 0.05  # reference time of calibrate(): times are scaled to it
DIGESTS_FILE = os.path.join(HERE, "digests.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Execution:
    job: gen.Job | None
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int
    timed_out: bool
    stdout: bytes
    out_bytes: bytes | None
    scale: float  # CALIBRATION_REF_S / calibration time around the job
    trace: dict | None = None
    problem: str | None = None

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def calibrate() -> float:
    """Wall time of a fixed piece of pure-Python work (dict, set, tuple and
    hashing, as in the package's kernels): 40-80 ms on a shared 2-vCPU VM,
    as other load comes and goes.  It imports nothing from ``quantcat``, so
    a change under test cannot change it."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(CALIBRATION_STEPS):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        acc ^= hash((k, i & 255))
        acc += len(frozenset((k, k + 1, k & 7)) & {1, 2, 3})
    return time.perf_counter() - start


class Runner:
    """Runs one job process at a time through ``spawner.py`` and waits for it.

    Use as a context manager: leaving it ends the spawner, which kills a job
    still running, and waits for it.
    """

    def __init__(self, root: str, work: str, start: float):
        self.root = root
        self.work = work
        self.deadline = start + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("QUANTCAT_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.runs = 0
        self.calibration = calibrate()
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, argv: list[str], job: gen.Job | None = None, trace: bool = False) -> Execution:
        self.runs += 1
        timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
        tag = f"{self.runs:05d}"
        in_path = os.path.join(self.work, f"{job.name}.yaml") if job else ""
        out_path = os.path.join(self.work, f"{tag}.out.yaml")
        trace_path = os.path.join(self.work, f"{tag}.trace.json")
        args = [a.replace("{in}", in_path).replace("{out}", out_path) for a in argv]
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), trace_path] + args
        else:
            cmd = [sys.executable, "-m", "quantcat.cli"] + args
        stdout_path = os.path.join(self.work, f"{tag}.stdout")
        request = {"cmd": cmd, "cwd": self.root, "env": self.env, "stdout": stdout_path, "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request).encode() + b"\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        before, self.calibration = self.calibration, calibrate()
        reply["scale"] = 2 * CALIBRATION_REF_S / (before + self.calibration)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        os.unlink(stdout_path)
        out_bytes = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                out_bytes = fh.read()
            os.unlink(out_path)
        trace_doc = None
        if trace and os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace_doc = json.load(fh)
            os.unlink(trace_path)
        return Execution(job=job, stdout=stdout, out_bytes=out_bytes, trace=trace_doc, **reply)


class Clock:
    """Decides whether the next job still ends by ``end``, from the slowest
    run of that job so far."""

    def __init__(self, end: float):
        self.end = end
        self.slowest: dict[str, float] = {}

    def note(self, name: str, wall_s: float) -> None:
        self.slowest[name] = max(self.slowest.get(name, 0.0), wall_s)

    def fits(self, job: gen.Job) -> bool:
        return time.perf_counter() + FIT_MARGIN * self.slowest.get(job.name, 0.0) <= self.end


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    if not os.path.exists(DIGESTS_FILE):
        return {}
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def check_stdout(ex: Execution) -> str | None:
    if ex.timed_out:
        return "timed out"
    if ex.exit_code != 0:
        return f"exit code {ex.exit_code}"
    lines = ex.stdout.decode("utf-8", "replace").splitlines()
    expect = ex.job.expect
    if expect.get("laws"):
        if not lines or any(not line.endswith("status=PASS") for line in lines):
            return "a law line is not PASS"
        return None
    if "stdout" in expect and ex.stdout.decode("utf-8", "replace") != expect["stdout"]:
        return f"printed {lines[:1]!r}, the independent count says {expect['stdout'].splitlines()[:1]!r}"
    if not lines:
        return "empty stdout"
    if "first_line" in expect and lines[0] != expect["first_line"]:
        return f"printed {lines[0]!r}, oracle says {expect['first_line']!r}"
    if ex.job.out and ex.out_bytes is None:
        return "no --out document written"
    return None


def check_document(job: gen.Job, data: bytes) -> tuple[str | None, dict]:
    """Check an --out document against the oracle count; return the
    certificate facts it states."""
    doc = yaml.load(data, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    cert = doc.get("completeness", {})
    facts = {"checked": bool(cert.get("checked")), "weights": cert.get("weights_checked", 0)}
    count = job.expect.get("count")
    if count is not None and doc.get("summary", {}).get("concepts") != count:
        return f"document lists {doc.get('summary', {}).get('concepts')} concepts, oracle says {count}", facts
    if cert.get("checked") and not cert.get("complete"):
        return "certificate says the lattice is not complete", facts
    return None, facts


def check_all(executions: list[Execution], workload: str, seed: int) -> dict:
    """Mark failed executions; return per-job document facts."""
    recorded = load_digests().get(workload, {}) if seed == gen.DEFAULT_SEED else {}
    first: dict[str, tuple] = {}
    facts: dict[str, dict] = {}
    for ex in executions:
        name = ex.job.name
        ex.problem = check_stdout(ex)
        if ex.problem:
            continue
        pair = (digest(ex.stdout), digest(ex.out_bytes))
        if name in recorded and list(pair) != recorded[name]:
            ex.problem = "output differs from the digest recorded for the default seed"
        elif first.setdefault(name, pair) != pair:
            ex.problem = "output differs from an earlier run of the same job"
        elif ex.out_bytes is not None and name not in facts:
            problem, facts[name] = check_document(ex.job, ex.out_bytes)
            if problem:
                for other in executions:
                    if other.job.name == name:
                        other.problem = problem
    return facts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def by_job(executions: list[Execution], time_of) -> list[float]:
    """Each job's median over its repeats of ``time_of(execution)``."""
    times: dict[str, list[float]] = {}
    for ex in executions:
        times.setdefault(ex.job.name, []).append(time_of(ex))
    return [statistics.median(v) for v in times.values()]


def tail(walls: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile of the jobs' wall times, from p50
    up, that has at least ten jobs beyond it.  A list of fewer than twenty
    jobs has no such percentile; its tail is then its slowest job."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p} of {n} jobs"
    return ordered[-1], f"slowest of {n} jobs (fewer than 20)"


def measure_setup(runner: Runner, setup: list[Execution], reps: int) -> None:
    setup.extend(runner.run(["--help"]) for _ in range(reps))


def plain_run(runner: Runner, jobs: list[gen.Job], end: float):
    """Passes over the job list, at least two, while the next job still ends
    by ``end``.  The last pass may stop part way.

    Set-up time is sampled before the first pass and after each pass, so
    that its median spans the whole run."""
    clock = Clock(end)
    executions: list[Execution] = []
    setup: list[Execution] = []
    measure_setup(runner, setup, SETUP_FIRST)
    passes = 0
    while not runner.out_of_time():
        for job in jobs:
            if runner.out_of_time() or (passes >= MIN_PASSES and not clock.fits(job)):
                return executions, setup
            ex = runner.run(job.argv, job)
            clock.note(job.name, ex.wall_s)
            executions.append(ex)
        passes += 1
        measure_setup(runner, setup, 1)
    return executions, setup


def end_to_end(setup: list[Execution], executions: list[Execution], n_jobs: int) -> tuple[dict, str]:
    """End-to-end metrics from times scaled to the reference speed; the
    note gives the same wall-time figures unscaled."""
    ok = [ex for ex in executions if not ex.problem] or executions
    walls = by_job(ok, lambda ex: ex.ref_wall_s)
    tail_s, tail_note = tail(walls)
    values = {
        "setup_s": statistics.median(ex.ref_wall_s for ex in setup),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "job_cpu_s": statistics.fmean(by_job(ok, lambda ex: ex.ref_cpu_s)),
        "peak_rss_mib": max((ex.maxrss_kib for ex in ok), default=0) / 1024,
    }
    raw = by_job(ok, lambda ex: ex.wall_s)
    speed = statistics.median(ex.scale for ex in ok)
    note = (
        f"{len(executions)} runs of {n_jobs} jobs; job_tail_s is the {tail_note}; "
        f"unscaled: setup_s {statistics.median(ex.wall_s for ex in setup):.4g} s, "
        f"job_p50_s {statistics.median(raw):.4g} s, job_tail_s {tail(raw)[0]:.4g} s "
        f"(median scale {speed:.3f})"
    )
    return values, note


def traced_run(runner: Runner, jobs: list[gen.Job], end: float):
    """Pairs of (plain, traced) executions.  The first pass over the job list
    always completes, so its counts repeat exactly; further pairs run while
    they still end by ``end``."""
    clock = Clock(end)
    pairs = []
    while not runner.out_of_time():
        job = jobs[len(pairs) % len(jobs)]
        if len(pairs) >= len(jobs) and not clock.fits(job):
            break
        plain = runner.run(job.argv, job)
        traced = runner.run(job.argv, job, trace=True)
        clock.note(job.name, plain.wall_s + traced.wall_s)
        pairs.append((plain, traced))
    return pairs


def per_layer(pairs, n_jobs: int, facts: dict) -> tuple[dict, list[str]]:
    traced = [t for p, t in pairs if not p.problem and not t.problem and t.trace]
    first_pass = [t for p, t in pairs[:n_jobs] if not t.problem and t.trace]
    spans = [t.trace["spans"] for t in traced]
    n = max(len(traced), 1)

    self_s: dict[str, float] = {}
    covered = 0.0
    wall = 0.0
    for ex, sp in zip(traced, spans):
        for name, secs in layers.split_by_group(sp, ())[1].items():
            self_s[name] = self_s.get(name, 0.0) + secs
        covered += layers.covered_seconds(sp)
        wall += ex.wall_s

    counts: dict[str, int] = {}
    for t in first_pass:
        for name, c in layers.span_counts(t.trace["spans"]).items():
            counts[name] = counts.get(name, 0) + c
        for name, c in t.trace["counts"].items():
            counts[name] = counts.get(name, 0) + c

    values = {metric: 0.0 for metric in layers.PER_LAYER_UNITS}
    for name, metric in layers.SPAN_METRICS.items():
        values[metric] = self_s.get(name, 0.0) / n
    for name, metric in layers.COUNT_METRICS.items():
        values[metric] = counts.get(name, 0)
    pair_ops = counts.get("completion.pair_ops", 0)
    values["completion.pair_yield"] = counts.get("completion.closure_new", 0) / pair_ops if pair_ops else 0.0
    written = list(facts.values())
    values["io.certificate_weights"] = sum(f["weights"] for f in written)
    values["io.certificate_checked_ratio"] = (
        sum(f["checked"] for f in written) / len(written) if written else 0.0
    )
    values["io.out_bytes"] = sum(len(t.out_bytes or b"") for t in first_pass)
    values["cli.other_s"] = (wall - covered) / n
    values["trace.covered_share"] = covered / wall if wall else 0.0
    plain_cpu = sum(p.ref_cpu_s for p, t in pairs if not p.problem and not t.problem)
    traced_cpu = sum(t.ref_cpu_s for p, t in pairs if not p.problem and not t.problem)
    values["trace.overhead_ratio"] = traced_cpu / plain_cpu if plain_cpu else 0.0

    absent_paths = {a for t in traced for a in t.trace["absent"]}
    absent_stems = {
        stem
        for stem, *_rest in layers.WRAPS
        if all(f"{m}.{p}" in absent_paths for s, m, p, _k in layers.WRAPS if s == stem)
    }
    absent = [m for m in values if absent_stems.intersection(layers.metric_stems(m))]
    return values, absent


def stressed_share(workload: str, pairs) -> str:
    """The share of traced job wall time in the layer the workload stresses,
    next to the largest self-time share outside it."""
    label, names = layers.STRESSED[workload]
    inside = 0.0
    others: dict[str, float] = {}
    wall = 0.0
    for _plain, t in pairs:
        if t.problem or not t.trace:
            continue
        spans = t.trace["spans"]
        secs, rest = layers.split_by_group(spans, names)
        inside += secs
        for name, value in rest.items():
            others[name] = others.get(name, 0.0) + value
        others["cli.other"] = others.get("cli.other", 0.0) + t.wall_s - layers.covered_seconds(spans)
        wall += t.wall_s
    if not wall:
        return "no traced jobs"
    name, value = max(others.items(), key=lambda kv: kv[1], default=("none", 0.0))
    return (
        f"stressed layer {label}: {inside / wall:.1%} of job wall time; "
        f"largest other self time: {name} {value / wall:.1%}"
    )


def input_profile(jobs: list[gen.Job], pairs=None) -> dict:
    """Sizes and concept counts of the job list, and the shares of jobs that
    run the brute cross-check, whose certificate enumerates, and the number
    of quantaloid objects.  A traced run measures the certificate share."""
    profile = {
        "jobs": len(jobs),
        "sizes": sorted({j.profile.get("size") for j in jobs}),
        "expected_concepts": [j.profile["concepts"] for j in jobs if "concepts" in j.profile],
        "crosscheck_share": sum(bool(j.profile.get("crosscheck")) for j in jobs) / len(jobs),
        "quantaloid_objects": sorted({j.profile.get("quantaloid_objects") for j in jobs}),
    }
    known = [j.profile["certificate_enumerates"] for j in jobs if "certificate_enumerates" in j.profile]
    if known:
        profile["certificate_enumerates_share_predicted"] = sum(known) / len(jobs)
    if pairs is not None:
        first = [t.trace["counts"] for _p, t in pairs[: len(jobs)] if t.trace]
        built = sum(c.get("io.certificates", 0) for c in first)
        if built:
            profile["certificate_enumerates_share"] = (
                sum(c.get("io.certificates_checked", 0) for c in first) / built
            )
        profile["concepts"] = [c.get("adjunction.concepts", 0) for c in first]
    return profile


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def remove_work(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run still uses it


def write_inputs(work: str, jobs: list[gen.Job]) -> None:
    for job in jobs:
        if job.document is not None:
            with open(os.path.join(work, f"{job.name}.yaml"), "w") as fh:
                yaml.safe_dump(job.document, fh, sort_keys=False)


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    oracles = load_oracles(root)
    jobs = gen.make_jobs(workload, seed, oracles)
    work = os.path.join(root, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        write_inputs(work, jobs)
        with Runner(root, work, start) as runner:
            if trace:
                pairs = traced_run(runner, jobs, start + seconds)
                executions = [ex for pair in pairs for ex in pair]
            else:
                executions, setup = plain_run(runner, jobs, start + seconds)
    finally:
        remove_work(work)
    facts = check_all(executions, workload, seed)
    failed = [ex for ex in executions if ex.problem]
    for ex in failed[:5]:
        print(f"FAILED {workload} {ex.job.name}: {ex.problem}")
    if trace:
        values, absent = per_layer(pairs, len(jobs), facts)
        units = layers.PER_LAYER_UNITS
        profile = input_profile(jobs, pairs)
        if absent:
            print(f"{workload}: absent wrap points, reported as 0: {', '.join(absent)}")
        print(f"{workload}: {stressed_share(workload, pairs)}")
    else:
        values, note = end_to_end(setup, executions, len(jobs))
        units = END_TO_END_UNITS
        profile = input_profile(jobs)
        print(f"{workload}: {note}; error_rate {len(failed) / len(executions):.4f} ratio")
    print(f"{workload}: input profile {json.dumps(profile, sort_keys=True)}")
    for name, value in values.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def record_digests(root: str) -> None:
    """Write the stdout and --out digests of every job for the default seed."""
    table = {}
    oracles = load_oracles(root)
    for workload in gen.WORKLOADS:
        jobs = gen.make_jobs(workload, gen.DEFAULT_SEED, oracles)
        work = os.path.join(root, ".perfbench", f"digests-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            write_inputs(work, jobs)
            table[workload] = {}
            with Runner(root, work, time.perf_counter()) as runner:
                for job in jobs:
                    ex = runner.run(job.argv, job)
                    problem = check_stdout(ex)
                    if problem:
                        raise SystemExit(f"{workload} {job.name}: {problem}")
                    table[workload][job.name] = [digest(ex.stdout), digest(ex.out_bytes)]
        finally:
            remove_work(work)
    with open(DIGESTS_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    # SIGTERM unwinds like Ctrl-C, so the running job is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json for the default seed and exit")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/quantcat/cli.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a quantcat checkout",
                  file=sys.stderr)
            return 2
    if args.record_digests:
        record_digests(root)
        return 0
    workloads = sorted(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
