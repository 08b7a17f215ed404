"""Benchmark of the aurisense CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload ear-fine --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  One single-threaded process per workload:
set-up builds the inputs in fresh child processes, then the workload's ops
call ``aurisense.cli.main`` in-process, repeated for a fixed number of
cycles that fills about ``--seconds``, with every output gated.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the ops once untraced,
then the layer-by-layer replay, and reports the per-layer metrics.  Each
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

import os

# single-threaded BLAS and OpenMP, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import ROOT, SRC, WORKLOADS, workload_spec  # noqa: E402

SETUP_PROCESSES = 3  # setup_s is the median over this many fresh processes
SETUP_TIMEOUT = 120  # s, per set-up process
E2E_METRICS = {
    "setup_s": "s",
    "contour.vertices_per_s": "vertices/s",
    "simulate.ears_per_s": "ears/s",
    "analyze.ears_per_s": "ears/s",
    "correlate.tests_per_s": "tests/s",
    "peak_rss_mb": "MB",
}
RATE_METRICS = {"contour": "contour.vertices_per_s", "simulate": "simulate.ears_per_s",
                "analyze": "analyze.ears_per_s", "correlate": "correlate.tests_per_s"}


def environment(seed: int) -> dict:
    """What a result must be compared against: code, machine and numeric stack."""
    import numpy
    import scipy

    import aurisense

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(aurisense, "backend_name", None)
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if backend else None,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{var: os.environ.get(var) for var in THREAD_VARS}},
    }


def set_up(spec: dict, work: Path, clock):
    """Build the inputs in fresh processes; returns (inputs dir, median reference-seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, digests = [], set()
    for i in range(SETUP_PROCESSES):
        out = work / f"inputs{i}"
        argv = [sys.executable, str(ROOT / "perfbench" / "inputs.py"), json.dumps(spec), str(out)]
        _, _, ref_seconds = clock.timed(lambda: subprocess.run(
            argv, env=env, check=True, timeout=SETUP_TIMEOUT, stdout=subprocess.DEVNULL),
            sample_inside=False)
        times.append(ref_seconds)
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(out.iterdir())))
        if i:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: input files differ between runs")
    return work / "inputs0", statistics.median(times)


def cycles_for(spec: dict, seconds: float) -> int:
    """How many cycles of the workload's ops fill about ``seconds`` (at least one).

    A count fixed by the workload and ``--seconds``, not a deadline: the same
    seed attempts the same ops, and fails the same ones, however busy the host.
    """
    return max(1, round(seconds / spec["cycle_s"]))


def run_ops(runner, repeats: dict, cycles: int) -> list:
    """Run ``cycles`` cycles of the workload's ops, each op ``repeats`` times a cycle."""
    cycle = [kind for kind in runner.kinds for _ in range(repeats[kind])]
    return [runner.run(kind) for _ in range(cycles) for kind in cycle]


def e2e_metrics(results: list, setup_s: float) -> dict:
    metrics = {"setup_s": setup_s}
    for kind, name in RATE_METRICS.items():
        rates = [r.units / r.ref_seconds for r in results
                 if r.kind == kind and r.ref_seconds > 0]  # 0: failed before it ran
        metrics[name] = statistics.median(rates) if rates else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object (written to .perfbench/ too)."""
    from ops import OpRunner, RefClock

    spec = workload_spec(workload, seed, tiny)
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' * tiny}"
    shutil.rmtree(work, ignore_errors=True)
    clock = RefClock()
    inputs, setup_s = set_up(spec, work, clock)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    runner = OpRunner(spec, inputs, work / "out", clock)
    if trace:
        from replay import metric_units, traced_run

        results = [runner.run(kind) for kind in runner.kinds]
        untraced = {r.kind: r.seconds for r in results}
        metrics, spans = traced_run(spec, inputs, work / "replay", seconds,
                                    runner.kinds, untraced)
        units = {name: unit for name, (unit, _) in metric_units().items()}
    else:
        results = run_ops(runner, spec["repeats"], cycles_for(spec, seconds))
        metrics = e2e_metrics(results, setup_s)
        units = E2E_METRICS
        spans = None
    errors: dict = {}
    for r in results:
        for why in r.errors:
            errors[f"{r.kind}: {why}"] = errors.get(f"{r.kind}: {why}", 0) + 1
    result = {
        "correct": not any(r.incorrect for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=workload, env=environment(seed), errors=errors,
                  ops=[{"kind": r.kind, "seconds": r.seconds, "ref_seconds": r.ref_seconds,
                        "attempted": r.attempted, "failed": r.failed, "units": r.units}
                       for r in results])
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (work / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "aurisense" / "cli.py").is_file():
        print(f"error: no aurisense sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # one CPU for the ops, the reference kernel and the set-up processes,
    # so that the reference measures the CPU the timed work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(record["env"], sort_keys=True))
    for why, n in sorted(record["errors"].items()):
        print(f"failed op {why} (x{n})")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
