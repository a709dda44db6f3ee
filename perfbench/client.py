"""One closed-loop client: ``client.py WORKLOAD WORK_DIR SECONDS RESULT_JSON``.

Loads the run's model and inputs and runs one untimed warm-up op, then prints
``ready`` and waits for ``go`` on standard input, so that every client of a
run starts timing together. It runs ops back to back for SECONDS, checks each
distinct output after timing, and writes its ops, wall time and peak RSS to
RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Op:
    """One timed call into the workload's entry function."""

    input_index: int
    seconds: float | None  # None once the op has failed
    key: str | None  # fingerprint of the output; None when the op raised
    failure: str | None
    warnings: list[str]

    @property
    def overflow_warnings(self) -> int:
        return sum("overflow" in m for m in self.warnings)


def closed_loop(op, inputs, seconds: float, fingerprint=repr):
    """Run ops back to back, cycling the inputs, until ``seconds`` have passed.

    Returns the ops, the wall time of the loop, and one output per distinct
    (input index, fingerprint): a run holds its distinct outputs, not one per
    op, so the process's memory does not grow with the op count. At least one
    op runs.
    """
    ops, outputs = [], {}
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        idx = len(ops) % len(inputs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                out, failure = op(inputs[idx]), None
            except Exception as e:  # a failed op is recorded, and the loop goes on
                out, failure = None, f"{type(e).__name__}: {e}"
            elapsed = perf_counter() - t0
        key = None if failure else fingerprint(out)
        if key is not None:
            outputs.setdefault((idx, key), out)
        ops.append(Op(idx, None if failure else elapsed, key, failure, [str(w.message) for w in caught]))
    return ops, perf_counter() - start, outputs


def apply_checks(w, profile, inputs, ops, outputs, check_output) -> None:
    """Check each distinct output after timing; a failed check fails its ops."""
    verdicts = {}
    for op in ops:
        if op.failure is not None:
            continue
        k = (op.input_index, op.key)
        if k not in verdicts:
            verdicts[k] = check_output(w, profile, inputs[op.input_index], outputs[k])
        if verdicts[k] is not None:
            op.seconds, op.failure = None, f"check: {verdicts[k]}"


def main(workload: str, work: Path, seconds: float, result: Path) -> None:
    from pillardet.checkpoint import load_checkpoint
    from pillardet.profiles import load_profile
    from workloads import WORKLOADS, check_output, fingerprint, load_inputs, make_op

    w = WORKLOADS[workload]
    manifest = json.loads((work / "manifest.json").read_text())
    params, _, _ = load_checkpoint(work / manifest["checkpoint"])
    profile = load_profile(manifest["profile"])
    inputs = load_inputs(w, work)
    op = make_op(w, params, profile)
    closed_loop(op, inputs[:1], 0.0, fingerprint)  # warm-up op, not timed
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        sys.exit("no start signal")
    ops, wall, outputs = closed_loop(op, inputs, seconds, fingerprint)
    apply_checks(w, profile, inputs, ops, outputs, check_output)
    result.write_text(json.dumps({
        "ops": [asdict(o) for o in ops],
        "wall": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    from child import die_with_parent

    die_with_parent()
    main(sys.argv[1], Path(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4]))
