"""pillardet benchmark: one workload per run, closed-loop clients that keep every core busy.

Run from the repository root:

    python3 perfbench/run.py --workload wide-dense --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` times the workload's op untraced and prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half calling the
layers one by one, and prints the per-layer metrics. ``all`` runs every
workload, both ways, each in its own process. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The library is imported from ``src/``; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

from child import PARENT_VAR, die_with_parent
from client import Op
from stats import MISSING, finite_or_none, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_threads() -> int:
    """One BLAS/OpenMP thread per process; returns the cores this process may run on.

    The child processes inherit the setting: the end-to-end run keeps every
    core busy with one single-threaded client per core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env[PARENT_VAR] = str(os.getpid())
    return env


def run_clients(workload: str, work: Path, seconds: float, clients: int):
    """Time ``clients`` closed loops side by side, one process each (``client.py``).

    Every client loads and warms up, then all start timing together. Returns
    the checked ops of every client, the longest client's wall time, and the
    largest client's peak RSS in MB. Every client has ended when it returns.
    """
    results = [work / f"client{i}.json" for i in range(clients)]
    procs = []
    try:
        for path in results:
            procs.append(subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "client.py"), workload, str(work), repr(seconds), str(path)],
                env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for p in procs:
            if p.stdout.readline().strip() != "ready":
                raise RuntimeError(f"client failed to start (exit code {p.wait(timeout=CHILD_TIMEOUT_S)})")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        for p in procs:
            if p.wait(timeout=CHILD_TIMEOUT_S + seconds):
                raise RuntimeError(f"client failed with exit code {p.returncode}")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            with contextlib.suppress(BrokenPipeError):  # a client that died unread
                p.stdin.close()
            p.stdout.close()
    got = [json.loads(path.read_text()) for path in results]
    ops = [Op(**o) for g in got for o in g["ops"]]
    return ops, max(g["wall"] for g in got), max(g["peak_rss_mb"] for g in got)


def latency_ms(ops) -> list[float]:
    """Per-op latency; a failed op is missing (+inf), not the time it took to fail."""
    return [MISSING if op.seconds is None else op.seconds * 1e3 for op in ops]


def count(items) -> dict:
    return dict(Counter(items).most_common())


def environment(nproc: int, seed: int, clients: int) -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "load": f"closed loop, {clients} client(s)",
    }


def setup_seconds(profile_arg: str, checkpoint: Path, nproc: int) -> list[float]:
    """Cold set-ups, ``nproc`` at a time: every core is busy, as in the timed phase."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), profile_arg, str(checkpoint)]
    samples = []
    while len(samples) < SETUP_SAMPLES:
        batch = [subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
                 for _ in range(min(nproc, SETUP_SAMPLES - len(samples)))]
        try:
            for p in batch:
                out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
                if p.returncode:
                    raise subprocess.CalledProcessError(p.returncode, cmd)
                samples.append(float(out.strip().splitlines()[-1]))
        finally:
            for p in batch:
                if p.poll() is None:
                    p.kill()
                p.wait()
    return samples


def measure(args, nproc: int, work: Path) -> tuple[dict, dict]:
    """Prepare, time and check one workload; returns (result line, details)."""
    import tracer
    from pillardet.checkpoint import load_checkpoint
    from pillardet.profiles import load_profile
    from workloads import FUSION_PROBE_BOUND, WORKLOADS, fusion_gap, load_inputs

    w = WORKLOADS[args.workload]
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "prepare.py"), w.name, str(args.seed), str(work)],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
    )
    manifest = json.loads((work / "manifest.json").read_text())
    profile = load_profile(manifest["profile"])
    inputs = load_inputs(w, work)
    # One single-threaded client per core: on a shared 2-vCPU VM a lone client's
    # op time swung up to 2x from minute to minute, and with every core busy it
    # stayed within about 10%. The traced run's untraced half has one client, as
    # its traced half has, so trace.overhead_share compares like with like.
    clients = 1 if args.trace else nproc
    env = environment(nproc, args.seed, clients)
    details = {"workload": w.name, "why": w.why, "environment": env, "inputs": manifest}
    failures = []

    untimed_share = 0.5 if args.trace else 1.0
    ops, wall, peak_rss_mb = run_clients(w.name, work, args.seconds * untimed_share, clients)
    # the fingerprint of each input's first successful output: the parity check's reference
    reference = {}
    for o in ops:
        if o.failure is None:
            reference.setdefault(o.input_index, o.key)

    if w.path == "dense":
        train, _, _ = load_checkpoint(work / manifest["train_checkpoint"])
        fused, _, _ = load_checkpoint(work / manifest["checkpoint"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gap = fusion_gap(inputs[0].canvas, train, fused, profile)
        details["fusion_gap"] = {
            "value": gap, "bound": FUSION_PROBE_BOUND, "warnings": count(str(m.message) for m in caught),
        }
        if not gap < FUSION_PROBE_BOUND:
            failures.append(f"fused and train-mode forwards differ by {gap:.3e} >= {FUSION_PROBE_BOUND}")
        del train, fused

    lat = latency_ms(ops)
    failed = sum(o.failure is not None for o in ops)
    details["ops"] = {
        "attempted": len(ops),
        "failed": failed,
        "failed_share": failed / len(ops),
        "failure_reasons": count(o.failure for o in ops if o.failure is not None),
        "latency_ms": [None if math.isinf(v) else round(v, 3) for v in lat],
        "overflow_warnings_per_op": statistics.median([o.overflow_warnings for o in ops]),
        "warnings": count(m for o in ops for m in o.warnings),
    }

    if args.trace:
        details["macs"] = tracer.analytic_macs(profile)
        params, _, _ = load_checkpoint(work / manifest["checkpoint"])
        metrics, trace_fail = traced_phase(
            args, w, profile, params, inputs, ops, reference, work / manifest["checkpoint"], details["macs"]
        )
        failures += trace_fail
        units = tracer.PER_LAYER_UNITS
    else:
        t = tail(lat, w.tail_percentile)
        details["tail"] = {"percentile": w.tail_percentile, "beyond": t[1], "samples": t[2]}
        setup = setup_seconds(manifest["profile"], work / manifest["checkpoint"], nproc)
        details["setup_samples_s"] = setup
        metrics = {
            "latency_p50_ms": finite_or_none(statistics.median(lat)),
            "latency_tail_ms": finite_or_none(t[0]),
            "throughput_ops_per_s": (len(ops) - failed) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    details["run_failures"] = failures
    result = {
        "correct": not failures and not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, details


def traced_phase(args, w, profile, params, inputs, untraced, reference, checkpoint: Path, macs: dict):
    """Half the run, layer by layer; returns (per-layer metrics, run failures)."""
    import tracer
    from pillardet.checkpoint import load_checkpoint
    from workloads import fingerprint

    failures = []
    spans, op_ms, warn_counts, iou_us = [], [], [], []
    start = perf_counter()
    while not spans or perf_counter() - start < args.seconds / 2:
        idx = len(spans) % len(inputs)
        s = tracer.Spans()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                out = tracer.traced_op(w.path, inputs[idx], params, profile, s)
            except Exception as e:  # recorded like an untraced failure
                out = None
                failures.append(f"traced op: {type(e).__name__}: {e}")
            op_ms.append((perf_counter() - t0) * 1e3)
        spans.append(s)
        warn_counts.append(sum(1 for m in caught if "overflow" in str(m.message)))
        if out is not None and idx in reference and fingerprint(out) != reference[idx]:
            failures.append(f"traced output differs from the untraced op on input {idx}")
        if out is not None and s.iou_pairs:
            iou_us.append(tracer.time_iou_pairs(s.iou_pairs))
        s.iou_pairs.clear()
    loads = []
    for _ in range(3):
        t0 = perf_counter()
        load_checkpoint(checkpoint)
        loads.append((perf_counter() - t0) * 1e3)
    metrics = tracer.per_layer_metrics(spans, macs, warn_counts)
    metrics["geometry.iou_us_per_pair"] = statistics.median(iou_us) if iou_us else 0.0
    metrics["checkpoint.load_ms"] = statistics.median(loads)
    untraced_ms = [o.seconds * 1e3 for o in untraced if o.failure is None]
    if untraced_ms:
        metrics["trace.overhead_share"] = statistics.median(op_ms) / statistics.median(untraced_ms) - 1.0
    return metrics, sorted(set(failures))


def report(result: dict, details: dict) -> None:
    """Human-readable lines; the caller prints the JSON result last."""
    ops = details["ops"]
    print(f"workload {details['workload']}: {ops['attempted']} ops, {ops['failed']} failed "
          f"(failed_share {ops['failed_share']:.3f})")
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value:>14s} {m['unit']}")
    if details.get("tail"):
        t = details["tail"]
        print(f"  tail = p{t['percentile']:.0f} of {t['samples']} samples, {t['beyond']} beyond it")
    if ops["failure_reasons"]:
        print(f"  failure reasons: {json.dumps(ops['failure_reasons'])}")
    for f in details["run_failures"]:
        print(f"  run check failed: {f}")
    print("details: " + json.dumps(details, sort_keys=True, default=str))


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    from workloads import WORKLOADS

    summary, ok = {}, True
    for name, w in WORKLOADS.items():
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            res = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=900)
            lines = res.stdout.strip().splitlines()
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("details: ")), flush=True)
            if res.returncode not in (0, 1) or not lines:
                print(res.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            summary[f"{name}/trace{trace}"] = result
            if w.benchmarked and not result["correct"]:
                ok = False
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    die_with_parent()
    # a terminated run unwinds, so that its clean-up stops every child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pillardet" / "__init__.py").is_file():
        print(f"error: no pillardet sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, details = measure(args, nproc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    report(result, details)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
