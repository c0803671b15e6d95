"""Seeded closed-loop benchmark for hfree-mis.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client in one process issues one
call at a time into the package under ``src/`` and checks every answer.
With ``--trace 0`` it sets up the workload several times (``setup_s`` is
the median), then runs operations for ``--seconds`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it wraps the package's layers,
runs a fixed prefix of the workload traced, replays the same operations
untraced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; a wrong answer
prints it with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "yes_p50_ms": "ms", "yes_tail_ms": "ms", "no_p50_ms": "ms", "no_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed, but left out of the JSON result that gates changes.  The tail of
# the yes class sits in a few heavy-tailed kinds (K5-K1,3 n=48, planted
# constructions) and spread 0.3 to 2.5 (quartile distance over median)
# across five seeds; the yes median is a 20-200 microsecond figure that
# drifts with the load on the host and spread 0.18 across ten seeds, too
# close to the largest bound the gate allows (0.25).
NOT_GATED = ("yes_p50_ms", "yes_tail_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-mix", "exact-alpha", "pattern-check"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_ops(ops, seconds: float, records: list, tracer=None) -> None:
    """Run ``ops``, a list of (round key, op), in order until they are done
    or ``seconds`` have passed.

    Appends one (op, latency s, status, round key) record per operation
    to ``records``; a wrong answer raises ``WrongAnswer``.
    """
    from hfree_mis.errors import BudgetExceededError
    from layers import ROOT as ROOT_SPAN
    from workloads import FAILED, WrongAnswer

    clock = time.perf_counter
    deadline = clock() + seconds
    for seq, (key, op) in enumerate(ops):
        if clock() >= deadline:
            break
        start = clock()
        try:
            result = op.call() if tracer is None else tracer.run(seq, ROOT_SPAN, op.call)
            budget_out = False
        except BudgetExceededError:
            result, budget_out = None, True
        except Exception as exc:   # an input verified at set-up made the package raise
            raise WrongAnswer(f"{op.kind}: {exc!r}") from exc
        latency = clock() - start
        records.append((op, latency, FAILED if budget_out else op.check(result), key))


def complete_rounds(records, round_size: int):
    """The records of rounds that ran to the end.  Every metric is taken
    over these only, so each run measures the same mix of operations."""
    rounds: dict[int, list] = {}
    for rec in records:
        rounds.setdefault(rec[3], []).append(rec)
    return [rec for recs in rounds.values() if len(recs) == round_size for rec in recs]


def summarize(records, setup_times):
    from metrics import tail

    lat = [r[1] * 1e3 for r in records]
    metrics = {"setup_s": statistics.median(setup_times),
               "ops_per_s": len(lat) / (sum(lat) / 1e3),
               "p50_ms": statistics.median(lat)}
    notes = {}
    t = tail(lat)
    metrics["tail_ms"] = t[0] if t else max(lat)
    notes["tail_ms"] = t
    for cls in ("yes", "no"):
        sub = [r[1] * 1e3 for r in records if r[0].cls == cls]
        metrics[f"{cls}_p50_ms"] = statistics.median(sub)
        t = tail(sub)
        metrics[f"{cls}_tail_ms"] = t[0] if t else max(sub)
        notes[f"{cls}_tail_ms"] = t
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes


def count(records, status: str) -> int:
    return sum(1 for r in records if r[2] == status)


def print_end_to_end(wl, records, metrics, notes, passes):
    from workloads import FAILED, NO_WITNESS

    failed, no_witness = count(records, FAILED), count(records, NO_WITNESS)
    print(f"workload {wl.name}  seed {wl.seed}  input digest {wl.digest}")
    print(f"operations in complete rounds {len(records)} "
          f"({len(records) // len(wl.rounds[0])} rounds)  failed {failed}  "
          f"yes without witness {no_witness}  "
          f"fail_frac {(failed + no_witness) / len(records):.4f}  "
          f"passes over the input pool {passes:.2f}")
    for name, value in metrics.items():
        line = f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]}"
        if name in notes:
            t = notes[name]
            line += (f"   (p{t[1]:.2f}, {t[2]} samples beyond)" if t
                     else "   (too few samples for a tail: maximum)")
        print(line)
    kinds: dict[str, list] = {}
    for op, latency, status, _key in records:
        kinds.setdefault(op.kind, []).append((latency * 1e3, status))
    print(f"  {'kind':<32} {'count':>6} {'p50 ms':>10} {'max ms':>10} {'failed':>6} {'no wit.':>7}")
    for kind in sorted(kinds):
        vals = sorted(v for v, _ in kinds[kind])
        fails = sum(1 for _, st in kinds[kind] if st == FAILED)
        bare = sum(1 for _, st in kinds[kind] if st == NO_WITNESS)
        print(f"  {kind:<32} {len(vals):6d} {vals[len(vals) // 2]:10.3f} {vals[-1]:10.3f} "
              f"{fails:6d} {bare:7d}")


def print_layers(tracer, per_layer, traced_s, plain_s):
    from layers import LAYERS, ROOT as ROOT_SPAN

    print(f"traced operation time {traced_s:.3f} s, same operations untraced {plain_s:.3f} s, "
          f"tracing overhead {traced_s / plain_s - 1:+.1%}")
    accounted = sum(a[1] for a in tracer.agg.values())
    print(f"self times account for {accounted:.3f} s of {traced_s:.3f} s traced "
          f"({accounted / traced_s:.1%}); spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    print(f"  {'layer':<42} {'calls':>9} {'self s':>9} {'share':>7}  extras / should move")
    for name, (_hook, extras, moves) in LAYERS.items():
        if name in tracer.absent:
            print(f"  {name:<42} {'absent':>9}")
            continue
        calls = per_layer[name + ".calls"][0]
        self_s = per_layer[name + ".self_s"][0]
        extra = " ".join(f"{e}={per_layer[f'{name}.{e}'][0]:g}" for e in extras)
        print(f"  {name:<42} {calls:9d} {self_s:9.4f} {self_s / traced_s:7.1%}  {extra} -> {moves}")
    root_self = per_layer[ROOT_SPAN + ".self_s"][0]
    print(f"  {ROOT_SPAN + ' (untraced code)':<42} {'':>9} {root_self:9.4f} {root_self / traced_s:7.1%}")
    for key, (value, unit) in per_layer.items():
        if key.startswith(("solver.decided_by.", "faug.hit_ratio", "oracle.nodes_per_s")):
            print(f"  {key:<42} {value:12.4f} {unit}")


def write_spans(tracer, wl) -> str:
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-{wl.seed}.jsonl")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hfree_mis", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hfree_mis
    if not os.path.abspath(hfree_mis.__file__).startswith(SRC + os.sep):
        print(f"error: imported hfree_mis from {hfree_mis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    cfg = workloads.CONFIG
    build = workloads.BUILDERS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    records: list = []
    try:
        # at least the first count, and more while set-up has taken under
        # setup_min_s, so a cheap set-up still gets a steady median
        least, most = (1, 1) if args.trace else cfg["setup_repeats"]
        setup_times, digests = [], set()
        while len(setup_times) < least or (len(setup_times) < most
                                           and sum(setup_times) < cfg["setup_min_s"]):
            wl = None
            gc.collect()
            start = time.perf_counter()
            # fresh files each time: rewriting the last set-up's files can
            # wait on their write-back and make set-up ten times slower
            wl = build(args.seed, tempfile.mkdtemp(dir=workdir))
            setup_times.append(time.perf_counter() - start)
            digests.add(wl.digest)
        if len(digests) != 1:
            raise workloads.WrongAnswer(f"set-up drew different inputs: {sorted(digests)}")
        # the inputs live for the whole run: keep the collector from walking them
        gc.collect()
        gc.freeze()
        if args.trace:
            return run_traced(args, wl, cfg["workloads"][args.workload]["trace_rounds"], records)
        passes = 0.0
        deadline = time.perf_counter() + args.seconds
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            base = int(passes) * len(wl.rounds)
            pool = [(base + r, op) for r, ops in enumerate(wl.rounds) for op in ops]
            before = len(records)
            run_ops(pool, left, records)
            passes += (len(records) - before) / len(pool)
        records[:] = complete_rounds(records, len(wl.rounds[0]))
        if not records:
            raise SystemExit("no round completed; run longer")
        metrics, notes = summarize(records, setup_times)
        print_end_to_end(wl, records, metrics, notes, passes)
        print(f"  setup_s samples {', '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"  not in the JSON result: {', '.join(NOT_GATED)}, fail_frac "
              f"(failed plus yes without witness, over operations; the JSON's "
              f"failed counts operations that gave no answer)")
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in metrics.items() if name not in NOT_GATED}
        emit(True, records, result)
        return 0
    except workloads.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}")
        emit(False, records, {}, wrong=1)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_traced(args, wl, trace_rounds: int, records: list) -> int:
    import layers
    from spans import Tracer
    from workloads import NO_WITNESS

    ops = [(r, op) for r, ops in enumerate(wl.rounds[:trace_rounds]) for op in ops]
    tracer = Tracer("hfree_mis", span_cap=50_000)
    tracer.install(layers.targets())
    try:
        run_ops(ops, args.seconds, records, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(r[1] for r in records)
    gc.collect()
    plain: list = []
    run_ops(ops[: len(records)], float("inf"), plain)
    plain_s = sum(r[1] for r in plain)
    per_layer = layers.per_layer(tracer)
    per_layer["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    per_layer["trace.ops"] = (len(records), "count")
    per_layer["solver.no_witness_yes"] = (count(records, NO_WITNESS), "count")
    print(f"workload {wl.name}  seed {wl.seed}  input digest {wl.digest}  "
          f"traced operations {len(records)} (rounds 0..{trace_rounds - 1})")
    print_layers(tracer, per_layer, traced_s, plain_s)
    print(f"spans written to {os.path.relpath(write_spans(tracer, wl), ROOT)}")
    emit(True, records, {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()})
    return 0


def emit(correct: bool, records, metrics, wrong: int = 0) -> None:
    from workloads import FAILED

    failed = count(records, FAILED)
    print(json.dumps({"correct": correct, "attempted": len(records) + wrong, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
