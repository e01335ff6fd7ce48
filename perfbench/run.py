"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {sparsify,hard6,quality} --seed N \
        --seconds S --trace {0,1} [--record-refs]

Works from any directory: the package is found as `src/` next to this
directory.  The run generates the seeded corpus under `.bench_work/`, starts
`SETUP_PROBES` fresh processes that only import `spanflow` and parse the
corpus (their set-up times and the measuring process's own give the median
`setup_s`), then one fresh process that runs the workload's job list as a
closed loop (see worker.py) and checks every output.

The last line of stdout is `{"correct", "attempted", "failed", "metrics"}`:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.  The
line before it (`# info ...`) records the machine, versions, source line
counts, sample counts, the failed fraction and the first problems found; the
same goes to `.bench_work/result-<workload>-<seed>-trace<0|1>.json`.  A traced
run also writes the spans of its first traced pass to
`.bench_work/spans-<workload>.jsonl.gz`, one `[name, start, end, parent index,
job id]` per line.  `--record-refs` merges
this run's output records into `refs/<workload>.json`; references for the
current ones were recorded from the commit that introduced this benchmark.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from spans import LAYERS as MODULES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = HERE / "refs"
SETUP_PROBES = 5
DEADLINE_S = 170


def sloc(path: Path) -> int:
    """Non-blank lines that are not comments."""
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.strip().startswith("#"))


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".sloc"):
        return "lines"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("_frac", "_ratio", "cpu_util", "_per_sample")):
        return "ratio"
    return "count"


def spawn(mode: str, corpus_dir: Path, out: Path, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--corpus", str(corpus_dir), "--out", str(out)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=str(ROOT),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    if not (SRC / "spanflow" / "__init__.py").is_file():
        sys.stderr.write(f"error: no spanflow package under {SRC}\n")
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        corpus.build(args.workload, args.seed, work / "corpus")
        setups = []
        for i in range(SETUP_PROBES):
            probe = spawn("setup", work / "corpus", work / f"setup{i}.json", [], 60)
            setups.append(probe["setup_s"])
        refs = REFS / f"{args.workload}.json"
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--spans", str(WORK / f"spans-{args.workload}.jsonl.gz")]
        if refs.is_file():
            extra += ["--refs", str(refs)]
        left = DEADLINE_S - (time.monotonic() - t_start)
        res = spawn("run", work / "corpus", work / "result.json", extra, left)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace:
        layers = dict(res["layers"])
        wall_u, wall_t = median(res["walls"]), median(res["traced_walls"])
        layers["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        layers["process.cpu_s"] = median(res["cpu_s"])
        layers["process.cpu_util"] = median(c / w for c, w in zip(res["cpu_s"], res["walls"]))
        for m in MODULES:
            layers[f"{m}.sloc"] = sloc(SRC / "spanflow" / f"{m}.py")
        values = layers
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": median(res["walls"]),
            "job_p50_s": nearest_rank(res["latencies"], 0.5),
            "job_p90_s": nearest_rank(res["latencies"], 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    n = len(res["latencies"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {**machine(), **res["versions"]},
        "sloc": {m: sloc(SRC / "spanflow" / f"{m}.py") for m in MODULES},
        "jobs": res["jobs"], "passes": len(res["walls"]),
        "traced_passes": len(res["traced_walls"]), "latency_samples": n,
        "beyond_p90": n - math.ceil(0.9 * n),
        "failed_frac": res["failed"] / res["attempted"],
        "ref_checked": res["ref_checked"], "setup_samples": setups,
        "problems": res["problems"],
        "template_tags": res.get("template_tags"),
        "first_pass_by_kind": {k: [n, round(t, 4)] for k, (n, t) in sorted(res["by_kind"].items())},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{tag}.json").write_text(json.dumps({**info, "values": values}, indent=1))
    if args.record_refs:
        if res["failed"]:
            sys.stderr.write("error: not recording references from a run with failures\n")
            return 1
        REFS.mkdir(exist_ok=True)
        merged = json.loads(refs.read_text()) if refs.is_file() else {}
        merged.update(res["records"])
        refs.write_text(json.dumps(merged, sort_keys=True, separators=(",", ":")) + "\n")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
