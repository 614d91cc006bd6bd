"""fairtree benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mid-incomplete --seed 1 --seconds 30 --trace 0

The benchmark imports ``fairtree`` from ``src/`` of that checkout and from
nowhere else; without it, it exits with code 2 and prints no result.

Set-up (timed as ``setup_s``, the median of ``SETUP_REPEATS`` rounds):
import ``fairtree`` in a fresh interpreter, generate the workload's
markets from ``--seed`` and write their documents.  Then it runs whole
cycles of the workload's passes (see ``workloads.py``), at least one, as
many as end within ``--seconds``, and checks every pass's outputs after
the pass.  Times are per pass: the mean over the passes of a cycle (which
differ in their markets), then the median over the cycles (which repeat
the same work).  With ``--trace 1`` the public functions of the
package are wrapped with spans (``tracing.py``) and the per-layer metrics
are reported instead; the spans go to ``perfbench/out/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
An operation fails when it raises, exits with the wrong code or fails a
check; ``correct`` is false when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads: with two, OpenBLAS's spinning
# threads make the dense LP steps of a run many times slower whenever any
# other process wants the second core of a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / "work"

WORKLOADS = ("mid-incomplete", "mid-complete", "small-cli")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import fairtree, fairtree.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairtree" / "__init__.py").is_file():
        print(f"benchmark: no fairtree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fairtree as ft
    import fairtree.cli
    import fairtree.data

    if not Path(ft.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported fairtree from {ft.__file__}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = _import_seconds()
            start = perf_counter()
            cycle = workloads.prepare(args.workload, args.seed, str(work), fairtree.data.text)
            setups.append(imported + perf_counter() - start)
        cycle = [[workloads.Item(market, path, slot) for slot, market, path in markets]
                 for markets in cycle]

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        # per cycle: the mean time per pass of each family and of the pass
        cycles, layers = [], []
        attempted = 0
        errors: list[str] = []
        problems: list[str] = []
        start = perf_counter()
        while True:
            began_cycle = perf_counter()
            first_span = len(tracer.spans) if tracer is not None else 0
            totals = dict.fromkeys(workloads.FAMILIES + ("run",), 0.0)
            for items in cycle:
                began = perf_counter()
                record = workloads.run_pass(args.workload, items, ft)
                totals["run"] += perf_counter() - began
                for family, seconds in record.times.items():
                    totals[family] += seconds
                attempted += record.attempted
                errors += record.errors
                problems += record.check()
            cycles.append({key: value / len(cycle) for key, value in totals.items()})
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer.spans, first_span, len(cycle)))
            # whole cycles only: start another one if it should end in time
            now = perf_counter()
            if now - start + (now - began_cycle) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "run_s": _metric(median(cycles, "run"), "s"),
        }
        for family in workloads.FAMILIES:
            metrics[family + "_s"] = _metric(median(cycles, family), "s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = _metric(peak, "MB")
    else:
        metrics = {name: _metric(median(layers, name), unit) for name, unit, _ in tracing.METRICS}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    for line in errors + problems:
        print(f"benchmark: FAILED {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors) + len(problems),
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, cycles=cycles, setups=setups, failures=errors + problems),
                  handle, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(cycles)} cycles of {len(cycle)} passes, "
          "run_s per pass " + " ".join(f"{c['run']:.3f}" for c in cycles))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
