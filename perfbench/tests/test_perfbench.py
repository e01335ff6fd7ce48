"""Tests of the benchmark itself: corpus determinism, the output checker, and
the span recorder's self-time accounting.  They run in a few seconds:

    python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    for workload in corpus.WORKLOADS:
        corpus.build(workload, 7, tmp_path / f"{workload}-a")
        corpus.build(workload, 7, tmp_path / f"{workload}-b")
        a, b = _tree(tmp_path / f"{workload}-a"), _tree(tmp_path / f"{workload}-b")
        assert a == b and len(a) > 1


def test_different_seed_gives_different_corpus(tmp_path):
    for workload in corpus.WORKLOADS:
        corpus.build(workload, 7, tmp_path / f"{workload}-a")
        corpus.build(workload, 8, tmp_path / f"{workload}-b")
        assert _tree(tmp_path / f"{workload}-a") != _tree(tmp_path / f"{workload}-b")


def test_percentile_sample_counts():
    # every workload has at least ten jobs beyond the 90th percentile per pass
    for workload in corpus.WORKLOADS:
        _, job_list = corpus.generate(workload, 3)
        assert len(job_list) >= 100


def _single_job(tmp_path):
    files, job_list = corpus.generate("quality", 3)
    root = tmp_path / "corpus"
    corpus.build("quality", 3, root)
    job = next(j for j in job_list if j["kind"] == "single")
    ctx = jobs.Context(root, [job])
    return job, ctx


def test_checker_accepts_its_own_output_and_rejects_a_flipped_rational(tmp_path):
    job, ctx = _single_job(tmp_path)
    out = jobs.run(job, ctx)
    assert jobs.properties(job, out, ctx) == []
    rec = jobs.record(job, out, ctx)
    env = check.envelope_of(job["epsilon"])
    assert check.compare(rec, rec, env) == []
    assert check.compare(rec, {**rec, "extra.field": "1/3"}, env) == []

    flipped = dict(rec)
    lam_star = Fraction(rec["lambda_star"])
    flipped["lambda_star"] = str(lam_star + Fraction(1, 10 ** 9))
    assert check.compare(rec, flipped, env)

    bad = dict(out, lam_star=out["lam_star"] + Fraction(1, 10 ** 9))
    assert jobs.properties(job, bad, ctx)


def test_checker_tolerances():
    env = check.envelope_of("1/100")
    ref = {"a.stderr": 2.0, "a.lambda": check.ENVELOPE_PREFIX + json.dumps("99/100")}
    inside = {"a.stderr": 2.0 * (1 + 1e-9),
              "a.lambda": check.ENVELOPE_PREFIX + json.dumps("100/100")}
    assert check.compare(ref, inside, env) == []
    outside = {"a.stderr": 2.0 * (1 + 1e-3),
               "a.lambda": check.ENVELOPE_PREFIX + json.dumps("9/10")}
    assert len(check.compare(ref, outside, env)) == 2
    assert check.compare(ref, {"a.stderr": 2.0}, env) == ["a.lambda: missing"]


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    import worker
    root = tmp_path / "corpus"
    hard6 = corpus.build("hard6", 4, root)
    job_list = [j for j in hard6 if j["argv"][0] == "project"][:3]
    job_list += [j for j in hard6 if j["argv"][0] == "tightspan"][:3]
    job_list += [j for j in corpus.build("quality", 4, root)
                 if j["kind"] in ("single", "ave_lp")][:3]
    ctx = jobs.Context(root, job_list)
    rec = spans.Recorder()
    rec.install()
    try:
        wall, _, outputs = worker.run_pass(job_list, ctx, rec)
    finally:
        rec.uninstall()
    assert all(jobs.properties(j, o, ctx) == [] for j, o in zip(job_list, outputs))
    selfs = spans.self_times(rec.spans)
    assert abs(sum(selfs.values()) - wall) < 1e-6 * wall
    assert set(selfs) <= set(spans.LAYERS) | {spans.BENCH}
    metrics = spans.layer_metrics(rec)
    assert metrics["cli.calls"] == 6 and metrics["flow.lp_solves"] >= 3
    assert metrics["flow.lp_iterations"] > 0 and metrics["tightspan.enumerate_calls"] >= 1
    import spanflow
    import spanflow.cli
    assert not hasattr(spanflow.cli.main, "__wrapped__")
    assert not hasattr(spanflow.max_concurrent_flow, "__wrapped__")


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics(spans.Recorder()))
    layer |= {"trace.overhead_frac", "process.cpu_s", "process.cpu_util"}
    layer |= {f"{m}.sloc" for m in spans.LAYERS}
    assert {m["name"] for m in bench["per_layer"]} == layer
    import run
    assert all(m["unit"] == run.unit(m["name"])
               for m in bench["per_layer"] + bench["end_to_end"])
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "job_p50_s", "job_p90_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(corpus.WORKLOADS)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for p in HERE.glob("*.py"):
        (bench / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hard6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
