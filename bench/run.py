"""Run a smoothmask benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or ``all`` to run each in turn. Run it
from the root of a source checkout: the program under test is imported from
``./src`` and nothing is installed.

The loop is closed with one client: jobs run one after another, each in a
fresh process (job.py) that sets up its inputs from the seed, runs the timed
section once and checks its outputs. Jobs start while another one, as long as
the last, still ends within ``--seconds`` (at least five jobs, or four when
traced), and each metric is the median over the jobs, so a run is steadier
than any one job. SMOOTHMASK_THREADS is unset and BLAS threads are capped at
the number of usable CPUs.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` jobs alternate untraced and traced, and the result holds the
per-layer metrics of the traced jobs plus the tracing overhead (the median
wall-time difference between each traced job and the untraced one before it).
Spans go to ``.bench_out/spans/``, a full record of the run with its
environment to ``.bench_out/results/``. The last line of standard output is
the JSON result.

Outputs are compared with reference.json at seed 0 and checked against
invariants at every seed. The exit code is 1 when a check fails and 2 when
the current directory is not a smoothmask checkout.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
# Tolerances of the reference comparison. Estimates may move by
# floating-point reordering (rtol); a correct-match rate moves in steps of 1/n
# when a near-tie flips, so it gets an absolute allowance of two records.
REL_TOL = 1e-6
RATE_ABS_TOL = 2e-3
RATE_KEYS = ("risk", "expected_correct_rate")

MIN_JOBS = {0: 5, 1: 4}
# A run must end within 180 s: no job starts after DEADLINE_S, and a job still
# running at JOB_LIMIT_S is killed.
DEADLINE_S = 140.0
JOB_LIMIT_S = 170.0
OUT = Path(".bench_out")


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between recorded and produced outputs, beyond the tolerances."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where or 'outputs'}: keys differ from the reference"]
        return [d for k in sorted(expected)
                for d in compare(expected[k], actual[k], f"{where}.{k}" if where else k)]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: length differs from the reference"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if where.rsplit(".", 1)[-1] in RATE_KEYS:
            ok = abs(actual - expected) <= RATE_ABS_TOL
        else:
            ok = math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-12)
        return [] if ok else [f"{where}: {actual!r} != reference {expected!r}"]
    return [] if expected == actual else [f"{where}: {actual!r} != reference {expected!r}"]


def job_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("SMOOTHMASK_THREADS", None)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_job(root: Path, env: dict, workload: str, seed: int, traced: bool,
            index: int, timeout: float) -> dict:
    tag = f"{workload}-seed{seed}-job{index}"
    workdir = root / OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (root / OUT / "spans").mkdir(parents=True, exist_ok=True)
    args = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir),
            "--spans", str(root / OUT / "spans" / f"{tag}.json")]
    try:
        proc = subprocess.run(args + ["--t0", repr(time.monotonic())], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"job {index} killed after {timeout:.0f} s", "traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"job {index} exited with code {proc.returncode}", "traced": traced}
    job = json.loads(lines[-1])
    job["traced"] = traced
    print(f"{workload} job {index}{' (traced)' if traced else ''}: "
          f"wall {job['wall_s']:.3f} s, setup {job['setup_s']:.3f} s", file=sys.stderr)
    return job


def run_jobs(root: Path, workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    env = job_env(root)
    jobs: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        # start another job only if one as long as the last still ends in time
        if (len(jobs) >= MIN_JOBS[trace] and elapsed + last > seconds) or elapsed > DEADLINE_S:
            break
        traced = trace == 1 and len(jobs) % 2 == 1
        jobs.append(run_job(root, env, workload, seed, traced, len(jobs),
                            JOB_LIMIT_S - elapsed))
        if "error" in jobs[-1]:
            break
        last = time.monotonic() - start - elapsed
    return jobs


def summarise(workload: str, trace: int, jobs: list[dict], decl: dict,
              reference: dict | None) -> dict:
    ok = [j for j in jobs if "error" not in j]
    problems = [j["error"] for j in jobs if "error" in j]
    for j in ok:
        problems += [p for p in j["problems"] if p not in problems]
    if reference is not None:
        for j in ok:
            problems += [p for p in compare(reference[workload], j["values"])
                         if p not in problems]
    if len(ok) < MIN_JOBS[trace]:
        problems.append(f"only {len(ok)} of {MIN_JOBS[trace]} jobs completed")
    attempted = max(1, sum(j["attempted"] for j in ok))
    failed = sum(j["failed"] for j in ok)
    correct = not problems
    if not correct:
        failed = attempted

    def med(values):
        return statistics.median(values) if values else math.nan

    if trace == 0:
        values = {
            "setup_s": med([j["setup_s"] for j in ok]),
            "wall_s": med([j["wall_s"] for j in ok]),
            "items_per_s": med([j["items"] / j["wall_s"] for j in ok]),
            "peak_rss_mb": med([j["peak_rss_mb"] for j in ok]),
            "success_ratio": 1.0 - failed / attempted,
        }
        declared = decl["end_to_end"]
    else:
        traced = [j for j in ok if j["traced"]]
        untraced = [j for j in ok if not j["traced"]]
        values = {
            "setup.import_s": med([j["import_s"] for j in ok]),
            "trace.wall_s": med([j["wall_s"] for j in traced]),
            # jobs alternate, so each traced job is paired with the untraced one before it
            "trace.overhead_s": med([t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)]),
        }
        declared = decl["per_layer"]
        for m in declared:
            if m["name"] not in values:
                values[m["name"]] = med([j["layers"].get(m["name"], 0.0) for j in traced])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if math.isfinite(values[m["name"]])}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


def environment(root: Path, jobs: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_cap": len(os.sched_getaffinity(0)),
        "smoothmask_threads": "unset",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }
    env.update(next((j["environment"] for j in jobs if "environment" in j), {}))
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "smoothmask" / "__init__.py").is_file():
        print(f"run.py: {root} has no src/smoothmask; run from the root of a smoothmask "
              "source checkout", file=sys.stderr)
        return 2
    decl = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in decl["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if not set(selected) <= set(names):
        print(f"run.py: unknown workload {args.workload!r}; choose from {names} or 'all'",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("run.py: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    results = {}
    for workload in selected:
        jobs = run_jobs(root, workload, args.seed, args.seconds, args.trace)
        result = summarise(workload, args.trace, jobs, decl, reference)
        env = environment(root, jobs)
        results[workload] = result
        (root / OUT / "results").mkdir(parents=True, exist_ok=True)
        report = root / OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                      "seconds": args.seconds, "trace": args.trace,
                                      "environment": env, "result": result, "jobs": jobs},
                                     indent=1) + "\n", encoding="utf-8")
        for problem in result["problems"]:
            print(f"run.py: {workload}: {problem}", file=sys.stderr)
        print("# environment " + json.dumps(env, sort_keys=True))
        for name, m in result["metrics"].items():
            print(f"{workload:<17} {name:<40} {m['value']:>16.6f} {m['unit']}")

    if len(results) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
