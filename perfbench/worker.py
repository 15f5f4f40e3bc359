"""One workload process: set-up, the timed pass and, on request, the traced pass.

``run.py`` starts this script once per set-up sample and once per measured
run, so module state and ``ru_maxrss`` are never shared between workloads.
It imports ``quatlat`` from the ``src`` directory next to this benchmark and
refuses any other copy.

    python3 perfbench/worker.py --workload count --seed 1 --seconds 30 \\
        --mode timed --t0 <time.monotonic() at spawn> --result out.json
    python3 perfbench/worker.py --record    # rewrite references.json

``--mode setup`` stops after set-up; ``timed`` runs the closed loop for
``--seconds`` (whole cycles, at least ``MIN_OPS`` ops); ``traced`` adds a
second set-up and one cycle under the tracer, writing spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import quatlat  # noqa: E402

if not os.path.abspath(quatlat.__file__).startswith(os.path.join(SRC, "")):
    sys.exit(f"quatlat imported from {quatlat.__file__}, not from {SRC}")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_pass(cycle, seconds: float, cycles: int | None = None, tracer=None):
    """Closed loop over whole cycles; returns ([(op, rc, out, err, ms)], seconds)."""
    results = []
    n_cycles = 0
    start = perf_counter()
    while True:
        for op in cycle:
            if tracer is not None:
                tracer.op = len(results)
            t0 = perf_counter()
            try:
                rc, out, err = op.run()
            except Exception:  # an op that raises is a failed op, not a dead run
                rc, out, err = None, "", traceback.format_exc()
            results.append((op, rc, out, err, (perf_counter() - t0) * 1000.0))
        n_cycles += 1
        elapsed = perf_counter() - start
        if cycles is not None:
            if n_cycles >= cycles:
                break
        elif elapsed >= seconds and len(results) >= workloads.MIN_OPS:
            break
    return results, elapsed


def _stderr_samples(results) -> dict[str, list[str]]:
    """Distinct stderr texts per op label (at most three, clipped)."""
    out: dict[str, list[str]] = {}
    for op, _rc, _out, err, _ms in results:
        seen = out.setdefault(op.label, [])
        if err not in seen and len(seen) < 3:
            seen.append(err[-2000:])
    return out


def measure(name: str, seed: int, seconds: float, mode: str, t0: float,
            spans_path: str | None, workdir: str) -> dict:
    workloads.install_log_capture()
    wl = workloads.WORKLOADS[name](seed, workdir)
    setup_s = time.monotonic() - t0
    rec = {"setup_s": setup_s}
    if mode == "setup":
        return rec
    results, elapsed = run_pass(wl.cycle, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    expected = wl.expected()
    failures, verdicts = workloads.check(wl, results, expected)
    rec.update({
        "mix": [op.label for op in wl.cycle],
        "cycles": len(results) // len(wl.cycle),
        "elapsed_s": elapsed,
        "rss_mb": rss_mb,
        "ops": [[op.label, op.cls, ms, ok] for (op, _rc, _o, _e, ms), ok
                in zip(results, verdicts)],
        "failures": failures[:50],
        "stderr": _stderr_samples(results),
    })
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        try:
            traced_dir = tempfile.mkdtemp(prefix="traced-", dir=workdir)
            wl_traced = workloads.WORKLOADS[name](seed, traced_dir)
            tr_results, tr_elapsed = run_pass(wl_traced.cycle, 0, cycles=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tr_failures, tr_verdicts = workloads.check(wl, tr_results, expected)
        n_spans = tracer.write_spans(spans_path) if spans_path else 0
        rec["trace"] = {
            "counters": tracer.summarize(),
            "ops": [[op.label, op.cls, ms, ok] for (op, _rc, _o, _e, ms), ok
                    in zip(tr_results, tr_verdicts)],
            "elapsed_s": tr_elapsed,
            "failures": tr_failures[:50],
            "spans": n_spans,
        }
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--result", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    work_parent = os.path.join(HERE, "out")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=work_parent)
    try:
        if args.record:
            refs = workloads.record(workdir=workdir)
            with open(workloads.REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        if args.workload is None or args.result is None:
            ap.error("--workload and --result are required")
        rec = measure(args.workload, args.seed, args.seconds, args.mode, t0,
                      args.spans, workdir)
        with open(args.result, "w") as fh:
            json.dump(rec, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
