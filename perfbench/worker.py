"""One benchmark process: a cold command, then timed warm passes.

run.py starts this file in a fresh interpreter, once per set-up sample:

    python worker.py JOB_JSON INDEX

It imports the CLI, runs the workload's primary command cold and prints
``ready`` (the parent's set-up clock stops there), runs the other commands
once, checks the cold outputs against the ground truth, then repeats passes
of harvest, analyze and map through ``cli.main`` until its time share is
spent. With tracing on, every other pass runs under the tracer. Results go
to ``result_<INDEX>.json`` beside the job file.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import bikeshare_equity.cli as cli

import checks


def _run(argv: list[str], tracer=None) -> tuple[int, str, str, float]:
    """cli.main(argv) with its output captured: (exit code, stdout, stderr, seconds).

    With a tracer, the call runs with the tracer's wrappers installed, inside
    a root span named after the command.
    """
    out, err = io.StringIO(), io.StringIO()
    # Start every command from the same heap state, so a collection of the
    # previous command's garbage does not land in this one's time.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.install()
        try:
            with tracer.command(argv[0]) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed invocation, not a failed benchmark
                    code = -1
                    traceback.print_exc()
                seconds = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
    return code, out.getvalue(), err.getvalue(), seconds


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Worker:
    def __init__(self, job: dict, index: int):
        self.job = job
        self.truth = job["truth"]
        self.work = Path(job["work"])
        self.index = index
        self.analyze_out = self.work / f"analyze_{index}"
        self.map_out = self.work / f"map_{index}"
        self.harvests = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {"harvest": [], "analyze": [], "map": []}
        self.cold_digests: dict[str, str] | None = None
        self.cold_counts = None  # count_by_tract's result in the cold analyze
        self.last_harvest_bytes = 0

    def argv(self, command: str) -> list[str]:
        if command == "harvest":
            self.harvests += 1
            store = self.work / f"harvest_{self.index}_{self.harvests}"
            return ["harvest", "--catalog", self.truth["catalogs"][-1], "--store", str(store)]
        common = ["--store", self.job["store"], "--snapshot", self.truth["selector"]]
        if command == "analyze":
            return ["analyze", *common, "--boundaries", self.truth["boundaries"],
                    "--demographics", self.truth["demographics"], "--out", str(self.analyze_out)]
        return ["map", *common, "--out", str(self.map_out)]

    def invoke(self, command: str, cold: bool = False, tracer=None) -> float:
        """Run one command, check its outputs, and return its wall time."""
        argv = self.argv(command)
        code, stdout, stderr, seconds = _run(argv, tracer)
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        else:
            try:
                problems = self.check(command, argv, stdout, stderr, cold)
            except Exception as exc:  # missing or unreadable output files
                problems = [f"checking the outputs raised {exc!r}"]
        if problems:
            self.errors.append(f"{command}: " + "; ".join(problems))
        return seconds

    def check(self, command, argv, stdout, stderr, cold) -> list[str]:
        if command == "harvest":
            store = Path(argv[-1])
            problems = checks.check_harvest(stdout, stderr, self.truth["harvest"])
            if cold:
                observations = cli.load_snapshot(store, "latest")
                problems += checks.check_snapshot_rows(observations, self.truth["harvest_observations"])
            self.last_harvest_bytes = _dir_bytes(store)
            shutil.rmtree(store)
            return problems
        if command == "map":
            return checks.check_map(self.map_out, self.truth["map_markers"])
        found = checks.digests(self.analyze_out)
        recorded = self.job.get("recorded_digests")
        problems = []
        if recorded and recorded != found:
            problems.append("analyze outputs differ from the digests recorded for this seed")
        if cold:
            self.cold_digests = found
            problems += checks.check_analyze(self.analyze_out, self.truth["analyze"])
            if self.cold_counts is None:
                problems.append("analyze never reached count_by_tract")
            else:
                problems += checks.check_counts(*self.cold_counts, self.truth["analyze"])
        elif found != self.cold_digests:
            problems.append("analyze outputs differ from the cold run's")
        return problems

    def cold_pass(self, commands: list[str]) -> None:
        original = cli.count_by_tract

        def capture(observations, index):
            self.cold_counts = original(observations, index)
            return self.cold_counts

        cli.count_by_tract = capture
        try:
            self.invoke(commands[0], cold=True)
            print("ready", flush=True)
            for command in commands[1:]:
                self.invoke(command, cold=True)
        finally:
            cli.count_by_tract = original


def main() -> int:
    job_path = Path(sys.argv[1])
    index = int(sys.argv[2])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    worker = Worker(job, index)
    primary = job["truth"]["primary"]
    commands = [primary] + [c for c in ("harvest", "analyze", "map") if c != primary]
    worker.cold_pass(commands)

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
    layer_samples: list[dict] = []
    share_samples: dict[str, list[dict]] = {c: [] for c in commands}
    cycles = {"plain": [], "traced": []}
    last_spans: list = []  # the last traced pass, written out at the end
    deadline = time.perf_counter() + job["seconds_per_worker"]
    n = 0
    while n < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and n % 2 == 1
        cycle = 0.0
        if traced:
            last_spans = []
        for command in commands:
            if not traced:
                seconds = worker.invoke(command)
                worker.times[command].append(seconds)
            else:
                seconds = worker.invoke(command, tracer=tracer)
                metrics = tracing.command_metrics(command, tracer.spans, job["truth"]["ring_vertices"])
                if command == "harvest":
                    rows = job["truth"]["harvest"]["rows"]
                    metrics["snapshot_store.bytes_written"] = worker.last_harvest_bytes
                    metrics["snapshot_store.bytes_per_row"] = worker.last_harvest_bytes / rows
                layer_samples.append(metrics)
                share_samples[command].append(tracing.shares(command, tracer.spans))
                last_spans += [[s.name, s.start, s.end, s.span_id, s.parent, s.thread]
                               for s in tracer.spans]
                tracer.spans.clear()
            cycle += seconds
        cycles["traced" if traced else "plain"].append(cycle)
        n += 1

    result = {
        "times": worker.times,
        "cycles": cycles,
        "layers": layer_samples,
        "shares": share_samples,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": worker.attempted,
        "errors": worker.errors,
        "spans": last_spans,
    }
    (job_path.parent / f"result_{index}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
