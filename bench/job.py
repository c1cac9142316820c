"""One benchmark job in a fresh process: set up, run the timed section once,
check the outputs, and print one JSON line for run.py.

    python3 bench/job.py --workload NAME --seed N --trace 0|1 --t0 T --workdir DIR --spans FILE

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (a system-wide clock on Linux), so ``setup_s`` counts interpreter
start, ``import smoothmask`` and input generation.
"""

import sys
import time

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import smoothmask
    import_s = time.perf_counter() - start
    src = (Path.cwd() / "src").resolve()
    if src not in Path(smoothmask.__file__).resolve().parents:
        print(f"job: smoothmask imported from {smoothmask.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import numpy as np
    import scipy
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0

    start = time.perf_counter()
    result = workload.run(inputs)
    wall_s = time.perf_counter() - start
    outcome = workload.outcome(inputs, result)

    problems = list(outcome.problems)
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        for name, want in workload.expected_counts().items():
            if layers.get(name, 0) != want:
                problems.append(f"trace: {name} = {layers.get(name, 0)}, expected {want}")
        tracer.write_spans(args.spans)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "values": outcome.values,
        "layers": layers,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
