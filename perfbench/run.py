"""corrquant benchmark: one workload per invocation.

    python3 perfbench/run.py --workload chain|ladder|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: corrquant is imported from its
``src/``, so each commit measures its own code.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same rounds under the span
tracer and reports the per-layer metrics, and writes the spans to
``.perfbench_out/``.  Every time is scaled to a reference host speed by
a fixed burst of other work run between steps (``hostref.py``).  A
failed output check exits with code 1 and names the check; a checkout
without ``src/corrquant`` exits with code 2.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: iteration counts repeat exactly only at a
# fixed BLAS thread count, and one thread is the faster setting here.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10          # calls beyond the reported tail percentile
TAIL_MIN_CALLS = 40       # fewer calls than this give no tail
LADDER_KNOWN_FAILURES = {(7, "SW_c")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("chain", "ladder", "sweep"))
    p.add_argument("--seed", type=int, default=20240606)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_corrquant():
    """Import corrquant from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import corrquant
    import corrquant.cli  # noqa: F401  set-up covers the CLI and serialize wrappers too
    if Path(corrquant.__file__).resolve().parent != (SRC / "corrquant").resolve():
        sys.exit(f"perfbench: imported corrquant from {corrquant.__file__}")
    import workloads
    return workloads


def set_up(args):
    """Everything before the timed phase: import, inputs, one warm-up call."""
    workloads = import_corrquant()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    return workload


def time_setup(args) -> list[float]:
    """Wall time from process start to 'ready' of fresh set-up processes,
    each scaled by the reference bursts run just before and after it.

    This process and the probes it starts keep to one core meanwhile, so
    that the bursts measure the core the probes run on."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        return _probe_setup(cmd)
    finally:
        os.sched_setaffinity(0, cores)


def _probe_setup(cmd) -> list[float]:
    import hostref
    samples = []
    before = hostref.burst()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with code {proc.returncode}")
        after = hostref.burst()
        samples.append((ready - start) * 2 * hostref.REF_BURST_S / (before + after))
        before = after
    return samples


def run_rounds(workload, seconds: float, clock):
    """Whole rounds, closed loop, until ``seconds`` have passed.

    ``clock`` (a hostref.HostClock) runs a reference burst before the
    first step and after every step.  Returns the outputs, the failed
    calls and each round's (start, end)."""
    outputs, failed, rounds = [], [], []
    start = perf_counter()
    clock.start()
    while not rounds or rounds[-1][1] - start < seconds:
        round_start = perf_counter()
        out, round_failed = workload.round(between=clock.step)
        rounds.append((round_start, perf_counter()))
        outputs.append(out)
        failed.extend(round_failed)
    return outputs, failed, rounds


def check_outputs(args, outputs, failed) -> list[str]:
    import checks
    if args.workload == "chain":
        return checks.check_chain([rec for out in outputs for rec in out])
    if args.workload == "ladder":
        import workloads
        return checks.check_ladder(outputs, failed, workloads.LADDER_ETA,
                                   LADDER_KNOWN_FAILURES)
    return checks.check_sweep([row for out in outputs for row in out])


def workload_cores(workload) -> list[int]:
    """The cores the timed phase runs on: one, to which this process is
    then held, for a workload that runs one thread; all of them for
    ``sweep``, whose worker threads use every core."""
    cores = sorted(os.sched_getaffinity(0))[:workload.threads]
    os.sched_setaffinity(0, cores)
    return cores


def tail(durations):
    """Highest percentile with TAIL_BEYOND calls beyond it: (value, pct, n)."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def timed_run(args, workload):
    """Timed rounds.  Every time is scaled to the reference host speed by
    the bursts around its step (see hostref.py); the raw wall figures are
    printed on an information line."""
    import hostref
    import tracing
    timer = tracing.CallTimer()
    timer.install()
    clock = hostref.HostClock(workload_cores(workload))
    outputs, failed, rounds = run_rounds(workload, args.seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok_raw = [end - start for start, end, success in timer.calls if success]
    ok = [(end - start) * clock.factor_at(start)
          for start, end, success in timer.calls if success]
    wall, raw_wall = clock.scaled_wall(), clock.raw_wall()
    metrics = {
        "solves_per_s": {"value": len(ok) / wall, "unit": "1/s"},
        "solve_p50_s": {"value": statistics.median(ok), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print(f"{args.workload}: {len(rounds)} rounds, {len(timer.calls)} calls, "
          f"{len(timer.calls) - len(ok)} failed, {raw_wall:.3f} s timed, "
          f"{len(clock.bursts)} reference bursts of mean "
          f"{statistics.mean(clock.bursts):.4f} s (reference {hostref.REF_BURST_S} s)")
    print(f"raw wall: solves_per_s {len(ok) / raw_wall!r} 1/s, "
          f"solve_p50_s {statistics.median(ok_raw)!r} s")
    if len(ok) >= TAIL_MIN_CALLS:
        value, pct, n = tail(ok)
        print(f"solve_tail_s {value!r} s (p{pct:.2f} of {n} calls)")
    return outputs, failed, len(timer.calls), metrics


def traced_run(args, workload):
    """Untraced and traced rounds alternate, so that the overhead estimate
    (mean traced round minus mean untraced round) sees the same host.
    Round times are scaled to the reference host speed step by step, and
    the per-layer times by the traced rounds' mean factor."""
    import hostref
    import tracing
    tracer = tracing.Tracer()
    clock = hostref.HostClock(workload_cores(workload))
    outputs, failed = [], []
    walls = {False: [], True: []}       # (raw, scaled) per round
    start = perf_counter()
    while not walls[True] or perf_counter() - start < args.seconds:
        traced = len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        first_step = len(clock.steps)
        out, round_failed, _ = run_rounds(workload, 0, clock)
        steps = clock.steps[first_step:]
        walls[traced].append((sum(end - begin for begin, end, _ in steps),
                              sum((end - begin) * f for begin, end, f in steps)))
        if traced:
            tracer.uninstall()
            outputs.extend(out)
            failed.extend(round_failed)
    summary = tracer.summary()
    rounds = len(outputs)
    attempted = sum(int(summary[q]["count"]) for q in tracing.QUANTIFIERS if q in summary)
    overhead = (statistics.mean(w for _, w in walls[True])
                - statistics.mean(w for _, w in walls[False]))
    raw_traced = sum(w for w, _ in walls[True])
    scale = sum(w for _, w in walls[True]) / raw_traced
    metrics = tracing.layer_metrics(summary, rounds, raw_traced, overhead, scale)
    metrics["host.burst_s"] = {"value": statistics.mean(clock.bursts), "unit": "s"}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "rounds": rounds, "scale": scale,
                                "spans": tracer.spans}))
    print(f"{args.workload}: {rounds} traced and {len(walls[False])} untraced rounds, "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}, "
          f"times scaled by {scale:.4f}")
    return outputs, failed, attempted, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    if not (SRC / "corrquant" / "__init__.py").is_file():
        print(f"perfbench: no corrquant sources under {SRC}", file=sys.stderr)
        return 2
    setup_samples = time_setup(args) if not args.trace else []
    workload = set_up(args)
    print(f"BLAS threads {BLAS_THREADS}, cores {os.cpu_count()}, "
          f"set-up samples {[round(s, 4) for s in setup_samples]}")
    run = traced_run if args.trace else timed_run
    outputs, failed, attempted, metrics = run(args, workload)
    errors = check_outputs(args, outputs, failed)
    if errors:
        for line in errors[:20]:
            print(f"CHECK FAILED {line}", file=sys.stderr)
        print(f"perfbench: {len(errors)} output checks failed", file=sys.stderr)
        return 1
    if setup_samples:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   **metrics}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
