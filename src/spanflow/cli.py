"""Command-line interface: tightspan, project, sparsify, quality, hard6.

All commands emit canonical JSON (sorted keys) so repeated runs with the same
arguments and seed are byte-identical.  Exit codes: 0 success, 1 property or
assertion failure, 2 input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from .decompose import Decomposer, contract, cost, sample_seed, sample_volumes
from .flow import Demand, quality_ratio
from .graphs import project_graph
from .hard6 import diagnose, generate, grid_snap
from .metric import MetricError, as_fraction
from .textio import dump_graph, load_demand, load_graph, load_metric
from .tightspan import enumerate_complex, project

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2

# the package's own input errors (TextFormatError, MetricError, GraphError,
# FlowError, UnsupportedSizeError) are all ValueErrors
_INPUT_ERRORS = (OSError, ValueError)


def canonical_json(obj, nl: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for str keys.

    With `indent`, `json.dumps` runs its pure-Python encoder; this writer
    joins each container's items at C speed, `nl` being its line break.
    """
    if type(obj) is str:
        return _quote(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return json.dumps(obj)   # other scalars, empty containers
    inner = nl + "  "
    keys = sorted(obj) if isinstance(obj, dict) else None
    items = obj if keys is None else list(map(obj.__getitem__, keys))
    texts = (map(_quote, items) if set(map(type, items)) == {str}
             else map(canonical_json, items, repeat(inner)))
    if keys is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    texts = map("{}: {}".format, map(_quote, keys), texts)
    return "{" + inner + ("," + inner).join(texts) + nl + "}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(payload) + "\n")
        return
    def render(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    sys.stdout.write(f"{pad}{k}:\n")
                    render(v, indent + 1)
                else:
                    sys.stdout.write(f"{pad}{k}: {v}\n")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    render(v, indent + 1)
                else:
                    sys.stdout.write(f"{pad}- {v}\n")
    render(payload)


def _cmd_tightspan(args) -> int:
    m = load_metric(Path(args.metric).read_text())
    cx = enumerate_complex(m)
    _emit(cx.to_json_dict(), args.format)
    return EXIT_OK


def _cmd_project(args) -> int:
    m = load_metric(Path(args.metric).read_text())
    coords = [tok for tok in args.vector.replace(",", " ").split() if tok]
    x = m.vector([as_fraction(tok) for tok in coords])
    p = project(m, x)
    _emit({"terminals": list(m.terminals),
           "input": [str(x[t]) for t in m.terminals],
           "projected": [str(p[t]) for t in m.terminals]}, args.format)
    return EXIT_OK


def _cmd_sparsify(args) -> int:
    g = load_graph(Path(args.graph).read_text())
    if args.samples < 1:
        raise MetricError("need at least one sample")
    emb = project_graph(g)
    dec = Decomposer(emb)
    run = sample_volumes(dec, args.samples, args.seed)
    best = min(range(args.samples), key=run.ivols.__getitem__)  # first cheapest
    sol = dec.solution(sample_seed(args.seed, best))
    report = cost(emb, sol)
    mean, stderr = run.volume_stats()
    sparsifier = contract(g, sol)
    payload = {
        "template": dec.template.tag,
        "solution": sol.to_json_dict(),
        "cost": report.to_json_dict(),
        "sparsifier": dump_graph(sparsifier),
        "monte_carlo": {
            "samples": args.samples,
            "mean_vol": str(mean),
            "stderr": stderr,
            "opt": str(report.opt),
        },
        "seed": args.seed,
    }
    _emit(payload, args.format)
    return EXIT_OK


def _random_demand(names, rng) -> Demand:
    entries = {}
    pairs = [(t, u) for i, t in enumerate(names) for u in names[i + 1:]]
    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
    for t, u in chosen:
        entries[(t, u)] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return Demand(entries)


def _cmd_quality(args) -> int:
    if args.random_demands < 0:
        raise MetricError(f"--random-demands must be nonnegative, got {args.random_demands}")
    g = load_graph(Path(args.graph_g).read_text())
    h = load_graph(Path(args.graph_h).read_text())
    demands = [load_demand(Path(f).read_text()) for f in args.demands or []]
    if args.random_demands:
        if args.seed is None:
            raise MetricError("--random-demands requires --seed")
        rng = random.Random(args.seed)
        names = sorted(g.terminals)
        if len(names) < 2:
            raise MetricError("--random-demands needs at least two terminals")
        demands += [_random_demand(names, rng) for _ in range(args.random_demands)]
    if not demands:
        raise MetricError("no demands given (use --demands or --random-demands)")
    eps = as_fraction(args.epsilon)
    report = quality_ratio(g, h, demands, eps)
    _emit(report.to_json_dict(), args.format)
    return EXIT_OK


def _cmd_hard6(args) -> int:
    inst = generate(args.L, ave=args.ave, gamma=as_fraction(args.gamma))
    opt = inst.opt()
    bound = 90 * args.L * args.L
    payload = {
        "L": args.L,
        "vertices": len(inst.graph.vertices),
        "edges": len(inst.graph.edges),
        "paths": len(inst.all_paths()),
        "opt": str(opt),
        "opt_bound": str(bound) if not args.ave else None,
        "ave": args.ave,
    }
    if args.ave:
        payload.update(inst.ave.to_json_dict())
    dg = None
    if args.snap_grid is not None:
        dg = diagnose(inst, grid_snap(inst, args.snap_grid))
        payload["diagnostics"] = {"snap_grid": args.snap_grid, "image_size": dg.image_size,
                                  "total_loss": str(dg.total_loss)}
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "graph.txt").write_text(dump_graph(inst.graph))
        (outdir / "instance.json").write_text(canonical_json(inst.to_json_dict()) + "\n")
        if dg is not None:
            diagnostics = {"snap_grid": args.snap_grid, **dg.to_json_dict()}
            (outdir / "diagnostics.json").write_text(canonical_json(diagnostics) + "\n")
        payload["out"] = str(outdir)
    _emit(payload, args.format)
    if not args.ave and opt > bound:
        sys.stderr.write("property failure: opt exceeds 90 L^2\n")
        return EXIT_PROPERTY
    return EXIT_OK


@functools.cache   # built once per process; each parse_args fills a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spanflow")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tightspan", help="enumerate the cell complex of a metric")
    p.add_argument("metric")
    p.set_defaults(func=_cmd_tightspan)

    p = sub.add_parser("project", help="project a vector onto the tight span")
    p.add_argument("metric")
    p.add_argument("vector", help="comma-separated rationals in terminal order")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("sparsify", help="sample decompositions and contract the best")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("quality", help="congestion ratios between two graphs")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--demands", action="append", help="demand file (repeatable)")
    p.add_argument("--random-demands", type=int, default=0)
    p.add_argument("--epsilon", default="1/100")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("hard6", help="generate the 6-terminal hard instance")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--ave", action="store_true")
    p.add_argument("--gamma", default="1/1000000000000000")
    p.add_argument("--snap-grid", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_hard6)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except AssertionError as exc:
        sys.stderr.write(f"property failure: {exc}\n")
        return EXIT_PROPERTY


if __name__ == "__main__":
    raise SystemExit(main())
