"""Pipeline benchmark: harvest, analyze and map on generated inputs.

    python3 perfbench/run.py --workload analyze_dense_rings --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark generates the workload's inputs
from the seed (see workloads.py), builds the snapshot store with the CLI's
own harvest, then starts WORKERS fresh interpreters one after another (see
worker.py). Each one times a cold command (set-up) and then warm passes of
``harvest``, ``analyze`` and ``map`` through ``cli.main``, checking every
output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` every other pass runs traced and it reports the per-layer
metrics instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record-digests 0-99`` instead records the sha256 digests of the
analyze outputs for those seeds at the default size in digests.json; the
timed runs then require byte-identical outputs for a recorded seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
WORKERS = 5
# A run ends within 180 s: workers still running at this point are killed.
RUN_DEADLINE = 170.0


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _quiet_main(argv: list[str]) -> int:
    import bikeshare_equity.cli as cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def prepare(name: str, size: str, seed: int, work: Path) -> dict:
    """Generate the inputs and build the analyze store by harvesting every time point."""
    truth = workloads.generate(name, size, seed, work / "inputs")
    store = work / "store"
    for catalog in truth["catalogs"]:
        if _quiet_main(["harvest", "--catalog", catalog, "--store", str(store)]) != 0:
            raise RuntimeError(f"building the store: harvest of {catalog} failed")
    return {"truth": truth, "store": str(store), "work": str(work)}


def _worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Hash order follows the seed, so a rerun of one seed repeats exactly.
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workers(job: dict, work: Path, seed: int, deadline: float) -> tuple[list[float], list[dict]]:
    """Start the workers one at a time; return set-up times and their results.

    Raises RuntimeError when a worker fails or the run passes its deadline.
    """
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    setups, results = [], []
    for index in range(WORKERS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(index)],
            stdout=subprocess.PIPE, text=True, env=_worker_env(seed), cwd=work,
        )
        try:
            if select.select([proc.stdout], [], [], max(0.0, deadline - start))[0]:
                ready = proc.stdout.readline()
                setups.append(time.perf_counter() - start)
                proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if len(setups) <= index or ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"worker {index} failed or passed the deadline (exit {proc.returncode})")
        results.append(json.loads((work / f"result_{index}.json").read_text(encoding="utf-8")))
    return setups, results


def _share_table(command: str, results: list[dict]) -> list[str]:
    """Median self and inclusive share of each span, and self share per layer."""
    import tracing

    samples = [s for r in results for s in r["shares"][command]]
    medians = tracing.median_metrics(samples)
    names = sorted({key.split(":", 1)[1] for key in medians}, key=lambda n: -medians["self:" + n])
    by_layer: dict[str, float] = {}
    lines = [f"{command}: share of wall time, median of {len(samples)} traced runs (self / inclusive)"]
    for name in names:
        own, inclusive = medians["self:" + name], medians["incl:" + name]
        layer = tracing.LAYER.get(name, "cli")
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        lines.append(f"  {name:<28} {own:7.1%} {inclusive:7.1%}  {layer}")
    lines += [f"  layer {layer:<22} {share:7.1%}" for layer, share in sorted(by_layer.items(), key=lambda kv: -kv[1])]
    return lines


def bench(args) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE
    work = BENCH / "_work" / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        job = prepare(args.workload, args.size, args.seed, work)
        job["trace"] = bool(args.trace)
        job["seconds_per_worker"] = args.seconds / WORKERS
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        if args.size == "default":
            job["recorded_digests"] = recorded.get(args.workload, {}).get(str(args.seed))
        setups, results = run_workers(job, work, args.seed, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in results for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    for error in errors:
        print("FAILED", error)
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}): "
          f"failed_frac {len(errors) / attempted} ({len(errors)}/{attempted} invocations)")
    if job.get("recorded_digests") is None:
        print("no digests recorded for this seed; analyze outputs checked against ground truth and a Newton fit")

    if args.trace:
        import tracing

        samples = [m for r in results for m in r["layers"]]
        metrics = tracing.median_metrics(samples)
        plain = median(c for r in results for c in r["cycles"]["plain"])
        traced = median(c for r in results for c in r["cycles"]["traced"])
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        units = metric_units("per_layer")
        counts = {name: sum(name in m for m in samples) for name in metrics}
        counts["trace.overhead_frac"] = sum(len(r["cycles"]["traced"]) for r in results)
        for command in ("harvest", "analyze", "map"):
            print("\n".join(_share_table(command, results)))
        traces = BENCH / "_traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{args.workload}-{args.size}-seed{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "span_id", "parent", "thread"],
                        "spans": results[-1]["spans"]}), encoding="utf-8")
    else:
        samples = {c: [t for r in results for t in r["times"][c]] for c in ("harvest", "analyze", "map")}
        metrics = {"setup_s": median(setups), "peak_rss_mb": median(r["rss_kb"] for r in results) / 1024.0}
        counts = {"setup_s": len(setups), "peak_rss_mb": len(results)}
        for command, values in samples.items():
            metrics[f"{command}_s"] = median(values)
            counts[f"{command}_s"] = len(values)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit} (median of {counts[name]})")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def record_digests(seeds: range) -> None:
    import checks

    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in workloads.WORKLOAD_NAMES:
        for seed in seeds:
            work = BENCH / "_work" / f"record-{name}-{seed}-{os.getpid()}"
            try:
                job = prepare(name, "default", seed, work)
                truth = job["truth"]
                out = work / "out"
                code = _quiet_main(["analyze", "--store", job["store"], "--snapshot", truth["selector"],
                                    "--boundaries", truth["boundaries"],
                                    "--demographics", truth["demographics"], "--out", str(out)])
                problems = checks.check_analyze(out, truth["analyze"]) if code == 0 else [f"exit {code}"]
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: {problems}")
                recorded.setdefault(name, {})[str(seed)] = checks.digests(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="default")
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    if not (SRC / "bikeshare_equity" / "cli.py").is_file():
        print(f"error: no bikeshare_equity package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        first, last = (int(v) for v in args.record_digests.split("-"))
        record_digests(range(first, last + 1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
