"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; paravoa is imported from its `src`.  A run
repeats whole rounds (set-up, then every operation once) until `--seconds`
have passed, checks the first round's outputs with the benchmark's own
code, checks that every later round gave the same outputs, and prints one
JSON result as its last line.  With `--trace 1` the first half of the time
runs untraced rounds and the second half traced ones; the result then holds
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

E2E = (("cpu_s", "s"), ("op_cpu_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# per-layer metric -> (unit, wrapped call whose count it is)
CALL_COUNTS = {
    "exactnum.quad_new": "exactnum.QuadScalar.__init__",
    "lattice.side_calls": "lattice.side",
    "lattice.line_intersection_calls": "lattice.line_intersection",
    "monoid.member_calls": "monoid.member",
    "fock.label_coords_calls": "fock.FockSpace.label_coords",
    "vertexops.heis_mode_calls": "vertexops.heis_mode",
    "vertexops.exp_mode_calls": "vertexops.exp_mode",
    "vertexops.word_mode_calls": "vertexops.word_mode",
    "zhu.reduce_35_calls": "zhu.reduce_35",
}
PER_LAYER = (
    ("exactnum.quad_new", "count"), ("exactnum.self_s", "s"),
    ("lattice.side_calls", "count"), ("lattice.line_intersection_calls", "count"),
    ("lattice.self_s", "s"),
    ("monoid.member_calls", "count"), ("monoid.closure_points", "count"),
    ("monoid.self_s", "s"),
    ("fock.label_coords_calls", "count"), ("fock.basis_words", "count"),
    ("fock.self_s", "s"),
    ("vertexops.heis_mode_calls", "count"), ("vertexops.exp_mode_calls", "count"),
    ("vertexops.word_mode_calls", "count"),
    ("vertexops.mode_cache_entries", "count"), ("vertexops.self_s", "s"),
    ("linalg.span_rows", "count"), ("linalg.rank", "count"), ("linalg.self_s", "s"),
    ("zhu.reduce_35_calls", "count"), ("zhu.self_s", "s"),
    ("modrep.character_terms", "count"), ("modrep.self_s", "s"),
    ("cli.start_s", "s"), ("cli.load_config_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)
MIN_ROUNDS = 3
SETUPS = 3  # set-ups per round; the last one's sessions are used
REFS = 3  # reference() runs per round
REF_S = 0.030  # CPU seconds of one reference() at the reference speed
OUT_DIR = ".perfbench"


def import_paravoa():
    """paravoa from this checkout's src, and nowhere else."""
    src = os.path.realpath("src")
    if not os.path.isfile(os.path.join(src, "paravoa", "__init__.py")):
        raise SystemExit("error: no src/paravoa here; run from the repository root")
    sys.path.insert(0, src)
    import paravoa
    import paravoa.cli  # noqa: F401  (imports every layer)

    if not os.path.realpath(paravoa.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: paravoa imported from {paravoa.__file__}")
    return paravoa


def cpu_now() -> float:
    """User and system CPU seconds of this process and of the children it
    has waited for.  The benchmark times with this clock, not the wall
    clock: paravoa is single-threaded and does no waiting of its own, and
    on a shared VM the wall clock also counts the time the hypervisor
    gives the CPU to others (steal), which swings from second to second."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def reference() -> float:
    """CPU seconds of a fixed piece of pure-Python exact arithmetic, the
    kind of work paravoa does: a gauge of the machine's speed of the
    moment.  On the shared VM the benchmark was built on, CPU time itself
    drifts by up to a third over minutes (other guests on the same cores),
    and this gauge drifts with it."""
    t = cpu_now()
    acc, seen = Fraction(0), {}
    for i in range(1, 4000):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i % 5 + 2)
        seen[i % 97, i % 11] = acc
    return cpu_now() - t


class Round:
    def __init__(self, ref_s, setup_s, cpu_s, latencies, outcomes, layer=None):
        self.ref_s = ref_s
        self.setup_s = setup_s
        self.cpu_s = cpu_s
        self.latencies = latencies
        self.outcomes = outcomes  # (result, exception) per operation
        self.layer = layer  # per-layer metrics of a traced round
        self.attempted = len(outcomes)
        self.failed = sum(1 for _, err in outcomes if err is not None)


def run_round(wl, tracer=None):
    """One round: gauge the machine, set up SETUPS times, then time every
    operation once."""
    ref_s = [reference() for _ in range(REFS)]
    setup_s = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = cpu_now()
        session = wl.setup()
        setup_s.append(cpu_now() - t0)
    gc.collect()
    latencies, outcomes = [], []
    if tracer is not None:
        mark = (tracer.call_counts(), dict(tracer.values), tracer.span_count())
        tracer.enabled = True
    start = cpu_now()
    for op in session.ops:
        t = cpu_now()
        try:
            res, err = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, err = None, exc
        latencies.append(cpu_now() - t)
        outcomes.append((res, err))
    cpu_s = cpu_now() - start
    layer = None
    if tracer is not None:
        tracer.enabled = False
        layer = layer_metrics(wl, session, tracer, *mark)
    return Round(ref_s, setup_s, cpu_s, latencies, outcomes, layer), session


def layer_metrics(wl, session, tracer, calls0, values0, lo) -> dict:
    """Per-layer metrics of the traced round that started at this mark."""
    if hasattr(wl, "start_s"):  # cli
        tracer.add("cli.stdout_bytes", wl.stdout_bytes)
        tracer.add("cli.start_s", wl.start_s())
    tracer.add("vertexops.mode_cache_entries", sum(
        len(sp.__dict__.get("_mode_cache", ())) for sp in session.fock_spaces))
    hi = tracer.span_count()
    calls = tracer.call_counts()
    out = {metric: calls.get(call, 0) - calls0.get(call, 0)
           for metric, call in CALL_COUNTS.items()}
    for key, value in tracer.values.items():
        out[key] = value - values0.get(key, 0)
    for layer, t in tracer.self_times(lo, hi).items():
        out[f"{layer}.self_s"] = t
    out["cli.load_config_s"] = tracer.span_time("cli.load_config", lo, hi)
    out["trace.spans"] = hi - lo
    return out


def run_rounds(wl, seconds: float, min_rounds: int, first, problems, tracer=None):
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        r, session = run_round(wl, tracer)
        if first[0] is None:
            first[0] = (session, r)
        else:
            compare(first[0], r, len(rounds), problems)
            r.outcomes = None  # only the first round's outputs are kept
        rounds.append(r)
    return rounds


def compare(first, r, k, problems) -> None:
    session, r0 = first
    for op, (a, ea), (b, eb) in zip(session.ops, r0.outcomes, r.outcomes):
        same = (repr(ea) == repr(eb)) if (ea or eb) else (a == b)
        if not same:
            problems.append(f"{op.label}: round {k} output differs from round 0")


def check_first(first, problems) -> None:
    import checks

    session, r0 = first
    for op, (res, err) in zip(session.ops, r0.outcomes):
        if err is not None:
            if not op.kept_failing:
                problems.append(f"{op.label}: {type(err).__name__}: {err}")
            continue
        try:
            op.check(res)
        except checks.CheckError as exc:
            problems.append(f"{op.label}: check failed: {exc}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    pv = import_paravoa()
    import inputs
    import workloads

    inp = inputs.generate(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        wl = cls(inp, pv, os.path.join(OUT_DIR, f"work-{os.getpid()}"))
    else:
        wl = cls(inp, pv)

    problems: list = []
    first = [None]
    tracer = None
    try:
        if not args.trace:
            rounds = run_rounds(wl, args.seconds, MIN_ROUNDS, first, problems)
        else:
            import tracing

            rounds = run_rounds(wl, args.seconds / 2, 2, first, problems)
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_rounds(wl, args.seconds / 2, 2, first, problems, tracer)
            tracer.uninstall()
        check_first(first[0], problems)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    med = statistics.median
    ref_s = med(t for r in rounds for t in r.ref_s)
    if not args.trace:
        # times at the reference speed, at which reference() takes REF_S
        speed = REF_S / ref_s
        values = {
            "cpu_s": med(r.cpu_s for r in rounds) * speed,
            # the median over a round's operations of each one's median
            "op_cpu_p50_s": speed * med(
                med(ts) for ts in zip(*(r.latencies for r in rounds))),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": med(t for r in rounds for t in r.setup_s) * speed,
        }
        units = dict(E2E)
    else:
        attempted += sum(r.attempted for r in traced)
        failed += sum(r.failed for r in traced)
        values = {name: med(r.layer.get(name, 0) for r in traced)
                  for name, _ in PER_LAYER}
        values["trace.overhead_s"] = (med(r.cpu_s for r in traced)
                                      - med(r.cpu_s for r in rounds))
        units = dict(PER_LAYER)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed})
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump({**result, "ref_s": ref_s,
                   "round_cpu_s": [r.cpu_s for r in rounds],
                   "problems": problems}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
