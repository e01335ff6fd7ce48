"""One benchmark process: set up, run the job list in passes, check the outputs.

Started by `run.py` in a fresh interpreter with the package's `src` directory
on PYTHONPATH.  `--mode setup` stops once the corpus is parsed and reports the
set-up time only.  `--mode run` then runs the workload as a closed loop, one
job after another in this one thread, repeating the fixed job list while the
next pass still fits in `--seconds` (at least one pass).  With `--trace 1` it
alternates an untraced pass and a traced pass instead, and reports per-layer
metrics of the traced passes.  Peak resident memory is read right after the
first pass, before any output is checked; outputs are checked after each pass,
outside the timed region.  The result is written as JSON to `--out`.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy
import scipy
import spanflow  # noqa: F401  (imports scipy.optimize through spanflow.flow)

import jobs as J
from check import compare, envelope_of
from spans import Recorder, layer_metrics


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(job_list, ctx, rec=None):
    """Run every job once; returns (wall, latencies, outputs)."""
    latencies, outputs = [], []
    gc.collect()
    start = time.perf_counter()
    top = rec.open("bench.pass", start) if rec else None
    for job in job_list:
        if rec:
            rec.begin_job(job["id"])
            idx = rec.open("bench.job", time.perf_counter())
        t0 = time.perf_counter()
        try:
            out = J.run(job, ctx)
        except Exception as exc:  # a failing job is counted, the loop goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        if rec:
            rec.close(idx, t1)
            rec.end_job()
            if isinstance(out, dict) and "stdout" in out:
                rec.counts["cli.stdout_bytes"] += len(out["stdout"].encode())
        latencies.append(t1 - t0)
        outputs.append(out)
    end = time.perf_counter()
    if rec:
        rec.close(top, end)
    return end - start, latencies, outputs


class Checker:
    """Checks each pass's outputs: properties and references on the first
    pass, equality with the first pass's records afterwards."""

    def __init__(self, job_list, ctx, refs: dict):
        self.job_list, self.ctx, self.refs = job_list, ctx, refs
        self.keys = [J.job_key(job, ctx.root) for job in job_list]
        self.first = None
        self.attempted = self.failed = self.ref_checked = 0
        self.problems: list[str] = []

    def __call__(self, outputs) -> None:
        records = []
        for job, key, out in zip(self.job_list, self.keys, outputs):
            self.attempted += 1
            if isinstance(out, dict) and "error" in out:
                records.append(None)
                self._fail(job, [out["error"]])
                continue
            try:
                rec = J.record(job, out, self.ctx)
            except (KeyError, ValueError, TypeError, OSError) as exc:
                rec = None
                problems = [f"unreadable output: {exc!r}"]
            else:
                if self.first is None:
                    problems = J.properties(job, out, self.ctx)
                    if key in self.refs:
                        self.ref_checked += 1
                        problems += compare(self.refs[key], rec,
                                            envelope_of(job.get("epsilon", "1/100")))
                else:
                    problems = [] if rec == self.first[len(records)] else [
                        "output differs from the first pass"]
            records.append(rec)
            if problems:
                self._fail(job, problems)
        if self.first is None:
            self.first = records

    def _fail(self, job, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job['id']} {job.get('argv', job['kind'])}: "
                                 + "; ".join(problems)[:400])

    def records(self) -> dict:
        return {k: r for k, r in zip(self.keys, self.first) if r is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--refs", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = Path(args.corpus)
    job_list = json.loads((root / "jobs.json").read_text())
    ctx = J.Context(root, job_list)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    refs = json.loads(Path(args.refs).read_text()) if args.refs else {}
    checker = Checker(job_list, ctx, refs)
    walls, traced_walls, latencies, cpu, layers = [], [], [], [], []
    budget_start = time.perf_counter()
    while True:
        c0 = cpu_seconds()
        wall, lat, outputs = run_pass(job_list, ctx)
        cpu.append(cpu_seconds() - c0)
        if not walls:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            by_kind = {}
            for job, t in zip(job_list, lat):
                label = job["argv"][0] if job["kind"] == "cli" else job["kind"]
                label += f" L={job['L']}" if "L" in job else ""
                n, total = by_kind.get(label, (0, 0.0))
                by_kind[label] = (n + 1, total + t)
        walls.append(wall)
        latencies += lat
        checker(outputs)
        del outputs
        if args.trace:
            rec = Recorder()
            rec.install()
            try:
                wall_t, _, outputs = run_pass(job_list, ctx, rec)
            finally:
                rec.uninstall()
            traced_walls.append(wall_t)
            checker(outputs)
            del outputs
            layers.append(layer_metrics(rec))
            result["template_tags"] = dict(rec.tags)
            if args.spans and len(layers) == 1:
                with gzip.open(args.spans, "wt", compresslevel=1) as fh:
                    for span in rec.spans:
                        fh.write(json.dumps(span) + "\n")
            del rec  # frees the spans before the next untraced pass
        elapsed = time.perf_counter() - budget_start
        per_round = wall + (traced_walls[-1] if args.trace else 0.0)
        if elapsed + per_round > args.seconds:
            break

    result.update({
        "walls": walls, "latencies": latencies, "cpu_s": cpu,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted, "failed": checker.failed,
        "ref_checked": checker.ref_checked, "problems": checker.problems,
        "jobs": len(job_list), "records": checker.records(), "by_kind": by_kind,
        "versions": {"python": sys.version.split()[0], "scipy": scipy.__version__,
                     "numpy": numpy.__version__},
    })
    if layers:
        keys = layers[0].keys()
        result["layers"] = {k: median(m[k] for m in layers) for k in keys}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
