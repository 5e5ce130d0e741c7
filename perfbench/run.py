"""Run one benchmark workload against the ctxbroker sources of this checkout.

    python3 perfbench/run.py --workload fanout|churn|wire --seed N --seconds S --trace 0|1

Prints a human-readable summary, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split in an
untraced and a traced half and the metrics are the per-layer ones, plus
the tracing overhead. Exits 1 when an output disagrees with the reference,
2 when the sources cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SWITCH_INTERVAL_S = 0.0001


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import from it only."""
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)  # keep benchmark modules from shadowing the standard library
    src = ROOT / "src"
    if not (src / "ctxbroker" / "__init__.py").is_file():
        print(f"error: no ctxbroker sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import ctxbroker

    if Path(ctxbroker.__file__).resolve().parent != (src / "ctxbroker").resolve():
        print(f"error: imported ctxbroker from {ctxbroker.__file__}", file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> dict:
    from perfbench import inproc, metrics
    from perfbench.gen import SPECS, Workload

    workload = Workload(SPECS[name], seed)
    if name == "wire":
        from perfbench import wirebench

        result = wirebench.run_wire(workload, seconds, WORKDIR, tracer)
    else:
        result = {"fanout": inproc.run_fanout, "churn": inproc.run_churn}[name](
            workload, seconds, tracer)
    attempted, failed, errors = metrics.check(result)
    result.update(attempted=attempted, failed=failed, errors=errors)
    result["e2e"] = metrics.end_to_end(result)
    result["raw"] = metrics.end_to_end(result, normalise=False)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fanout", "churn", "wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import inproc, layers, metrics
    from perfbench.gen import SPECS
    from perfbench.trace import Tracer

    # The benchmark process hosts the in-process broker and every client and
    # consumer thread. A short thread-switch interval keeps latencies from
    # being rounded up to the interpreter's default 5 ms quantum when a
    # thread waits for another to drop the interpreter lock.
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    WORKDIR.mkdir(exist_ok=True)
    spec = SPECS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("spec " + json.dumps(spec.describe(), sort_keys=True))
    if args.trace:
        plain = run_workload(args.workload, args.seed, args.seconds / 2)
        tracer = Tracer()
        if args.workload != "wire":  # the wire broker process installs its own
            tracer.install(in_process_transport=inproc.Recorder)
        try:
            traced = run_workload(args.workload, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        values = layers.per_layer(traced, tracer.spans)
        for key in metrics.END_TO_END:  # how much worse tracing made each metric
            base, with_spans = plain["e2e"][key], traced["e2e"][key]
            worse = base - with_spans if key in metrics.HIGHER_IS_BETTER else with_spans - base
            values[f"trace.overhead.{key}"] = (worse / base if base else 0.0, "ratio")
        out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        runs = [run_workload(args.workload, args.seed, args.seconds)]
        out = {k: {"value": runs[0]["e2e"][k], "unit": u} for k, u in metrics.END_TO_END.items()}

    errors = [e for r in runs for e in r["errors"]]
    for r in runs:
        print("samples " + json.dumps(metrics.sample_counts(r), sort_keys=True))
        print("end_to_end " + json.dumps({k: round(v, 4) for k, v in r["e2e"].items()}))
        print("raw " + json.dumps({k: round(v, 4) for k, v in r["raw"].items()}))
        print(f"slowness median {r['log'].speed.median():.4f} over {len(r['log'].speed.marks)} calibrations")
        share = r["failed"] / r["attempted"] if r["attempted"] else 0.0
        print(f"failed_share {share:.6f} ratio ({r['failed']} of {r['attempted']})")
        for message in r["log"].errors[:5]:
            print(f"failure: {message}")
    for message in errors[:20]:
        print(f"REFERENCE MISMATCH: {message}")
    for key, metric in out.items():
        print(f"metric {key} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for key, unit in metrics.PRINTED_ONLY.items():
            print(f"metric {key} = {runs[0]['e2e'][key]:.6g} {unit} (printed only, not gated)")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }))
    sys.stdout.flush()
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
