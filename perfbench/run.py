"""quatlat benchmark: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # count, certify and balance

Workloads (one client each, closed loop, whole cycles of a fixed op mix):

* ``count``   -- in-process ``quatlat count`` calls at ``--threads`` 1 and 2;
  the trace-zero slice walk and the float ball test in ``sweep_counts`` do
  the work.
* ``certify`` -- per-norm enumeration, explicit bound, congruences and
  injectivity for one (order, point, L), plus the small-norm check in a
  quarter of the ops; the sweep's float pre-filter is bypassed.
* ``balance`` -- in-process ``quatlat balance`` calls over Eichler-power
  orders; conjugation, HNF and SNF do the work and the ball test is never
  called.

Each measured run is one fresh worker process (``worker.py``) that sets up
its inputs from ``--seed``, runs the timed pass and checks every output.
``setup_s`` is the median over that process and four set-up-only processes,
each timed from the moment it is spawned to its first timed op.  With
``--trace 1`` the worker adds a traced pass (``tracer.py``): a second set-up
and one cycle with wrappers on quatlat's layers, whose counters become the
per-layer metrics.  Spans go to ``perfbench/out/spans-*.jsonl`` and a run
record to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without a quatlat source tree next to this
directory the script exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("count", "certify", "balance")
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0

# per-layer metric -> (unit, source); a source is a tracer counter name or a
# (numerator, denominator[, scale]) tuple of counter names
PER_LAYER = {
    "counting.slices_walked": ("count", "counting.slices_walked"),
    "counting.ball_tests": ("count", "counting.in_ball.calls"),
    "counting.ball_hits": ("count", "counting.ball_hits"),
    "counting.hits_per_slice": ("ratio", ("counting.ball_hits",
                                          "lattice.traceless_slices.slices")),
    "counting.sweep_counts.calls": ("count", "counting.sweep_counts.calls"),
    "counting.sweep_counts.self_ms": ("ms", "counting.sweep_counts.self_ms"),
    "lattice.quat_from_frame.calls": ("count", "lattice.quat_from_frame.calls"),
    "quat.u_dist.calls": ("count", "quat.u_dist.calls"),
    "lattice.traceless_slices.slices": ("count", "lattice.traceless_slices.slices"),
    "lattice.traceless_slices.ms": ("ms", "lattice.traceless_slices.ms"),
    "lattice.norm_elements.calls": ("count", "lattice.norm_elements.calls"),
    "lattice.norm_elements.self_ms": ("ms", "lattice.norm_elements.self_ms"),
    "lattice.frame_coords.calls": ("count", "lattice.frame_coords.calls"),
    "counting.enumerate_norm_ball.calls": ("count", "counting.enumerate_norm_ball.calls"),
    "counting.enumerate_norm_ball.self_ms": ("ms", "counting.enumerate_norm_ball.self_ms"),
    "counting.verify_congruences.calls": ("count", "counting.verify_congruences.calls"),
    "counting.verify_congruences.ms": ("ms", "counting.verify_congruences.ms"),
    "lattice.contains_coords.calls": ("count", "lattice.contains_coords.calls"),
    "intmat.solve_left_frac.calls": ("count", "intmat.solve_left_frac.calls"),
    "intmat.solve_left_frac.ms": ("ms", "intmat.solve_left_frac.ms"),
    "counting.order_small_norm_check.ms": ("ms", "counting.order_small_norm_check.ms"),
    "counting.small_norm_pairs": ("count", "counting.small_norm_pairs"),
    "quat.mul.calls": ("count", "quat.mul.calls"),
    "balance.balanced_search.calls": ("count", "balance.balanced_search.calls"),
    "balance.balanced_search.self_ms": ("ms", "balance.balanced_search.self_ms"),
    "balance.conjugators_tried": ("count", "balance.try_conjugator.calls"),
    "balance.not_contained": ("count", "balance.not_contained"),
    "balance.level_mismatch": ("count", "balance.level_mismatch"),
    "balance.unbalanced": ("count", "balance.unbalanced"),
    "balance.found": ("count", "balance.found"),
    "balance.hit_ratio": ("ratio", ("balance.found", "balance.try_conjugator.calls")),
    "lattice.conjugate_by.calls": ("count", "lattice.conjugate_by.calls"),
    "lattice.conjugate_by.self_ms": ("ms", "lattice.conjugate_by.self_ms"),
    "lattice.conjugate_by.us_per_call": ("us", ("lattice.conjugate_by.ms",
                                                "lattice.conjugate_by.calls", 1000.0)),
    "lattice.lattice_from_quats.calls": ("count", "lattice.lattice_from_quats.calls"),
    "lattice.lattice_from_quats.ms": ("ms", "lattice.lattice_from_quats.ms"),
    "intmat.hnf.calls": ("count", "intmat.hnf.calls"),
    "intmat.hnf.ms": ("ms", "intmat.hnf.ms"),
    "lattice.invariant_factors_in.calls": ("count", "lattice.invariant_factors_in.calls"),
    "lattice.invariant_factors_in.ms": ("ms", "lattice.invariant_factors_in.ms"),
    "intmat.snf.calls": ("count", "intmat.snf.calls"),
    "intmat.snf.ms": ("ms", "intmat.snf.ms"),
    "arith.factorize.calls": ("count", "arith.factorize.calls"),
    "cli.main.calls": ("count", "cli.main.calls"),
    "cli.main.self_ms": ("ms", "cli.main.self_ms"),
    "cli.load_config.ms": ("ms", "cli.load_config.ms"),
    "lattice.maximal_order.ms": ("ms", "lattice.maximal_order.ms"),
    "counting.build_injection.calls": ("count", "counting.build_injection.calls"),
    "counting.build_injection.ms": ("ms", "counting.build_injection.ms"),
    "coprime.solve.calls": ("count", "coprime.solve.calls"),
    "coprime.solve.ms": ("ms", "coprime.solve.ms"),
    "quat.box_constant.ms": ("ms", "quat.box_constant.ms"),
}
# cli.count.t2_over_t1 and the trace.* metrics come from op timings; see
# run_workload


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _worker(workload: str, seed: int, seconds: float, mode: str, tag: str,
            deadline: float) -> dict:
    """Run one worker process to completion and return its record."""
    os.makedirs(OUT, exist_ok=True)
    result = os.path.join(OUT, f"{tag}.result.json")
    log = os.path.join(OUT, f"{tag}.log")
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    env = dict(os.environ)
    env.pop("QUATLAT_THREADS", None)  # the thread count comes from --threads only
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--t0", repr(t0),
           "--result", result, "--spans", spans]
    with open(log, "w") as fh:
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        with open(log) as fh:
            tail = fh.read()[-3000:]
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    with open(result) as fh:
        rec = json.load(fh)
    os.remove(result)
    os.remove(log)
    return rec


def _src_sha256() -> str:
    """Digest of the quatlat sources, which identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "quatlat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _band(ops: list, q: float) -> str:
    """Op class holding rank q, with the share of ranks that class spans."""
    ranked = sorted(ops, key=lambda o: o[2])
    cls = ranked[round(q * (len(ranked) - 1))][1]
    idx = [i for i, o in enumerate(ranked) if o[1] == cls]
    n = len(ranked)
    return f"{cls} (ranks {idx[0] / n:.0%}-{(idx[-1] + 1) / n:.0%})"


def _ratio(counters: dict, num: str, den: str, scale: float = 1.0) -> float:
    d = counters.get(den, 0)
    return scale * counters.get(num, 0) / d if d else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [_worker(workload, seed, seconds, "setup", f"{workload}-setup{i}", deadline)
              ["setup_s"] for i in range(SETUP_PROBES)]
    rec = _worker(workload, seed, seconds, "traced" if trace else "timed", workload, deadline)
    setups.append(rec["setup_s"])
    ops = rec["ops"]
    ms = [o[2] for o in ops]
    failed = sum(1 for o in ops if not o[3])
    attempted = len(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "op_ms_p50": (statistics.median(ms), "ms", f"n={attempted} ops"),
        "op_ms_p90": (_p90(ms), "ms", f"n={attempted} ops, {attempted - int(0.9 * attempted)} "
                      "beyond p90"),
        "ops_per_s": (attempted / rec["elapsed_s"], "1/s",
                      f"n={attempted} ops in {rec['elapsed_s']:.2f} s"),
        "fail_rate": (failed / attempted, "ratio", f"{failed} of {attempted} ops"),
        "peak_rss_mb": (rec["rss_mb"], "MB", "ru_maxrss of the workload process"),
    }
    layer = {}
    notes = {}
    if trace:
        tr = rec["trace"]
        counters = tr["counters"]
        for name, (unit, src) in PER_LAYER.items():
            if isinstance(src, tuple):
                value = _ratio(counters, *src)
                if not counters.get(src[1]):
                    notes[name] = f"absent: no {src[1]} in this workload (reported as 0)"
            else:
                value = counters.get(src, 0)
            layer[name] = (value, unit)
        t1 = [o[2] for o in ops if o[0].endswith("@t1")]
        t2 = [o[2] for o in ops if o[0].endswith("@t2")]
        if t1 and t2:
            layer["cli.count.t2_over_t1"] = (statistics.median(t2) / statistics.median(t1), "ratio")
        else:
            layer["cli.count.t2_over_t1"] = (0.0, "ratio")
            notes["cli.count.t2_over_t1"] = "absent: no count ops in this workload (reported as 0)"
        traced_rate = len(tr["ops"]) / tr["elapsed_s"]
        untraced_rate = metrics["ops_per_s"][0]
        layer["trace.ops_per_s"] = (traced_rate, "1/s")
        layer["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        layer["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")
        failed += sum(1 for o in tr["ops"] if not o[3])
        attempted += len(tr["ops"])
    failures = rec["failures"] + (rec["trace"]["failures"] if trace else [])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "closed_loop_clients": 1,
        "cycles": rec["cycles"],
        "mix": rec["mix"],
        "p50_class": _band(ops, 0.5),
        "p90_class": _band(ops, 0.9),
        "class_median_ms": {k: statistics.median(o[2] for o in ops if o[1] == k)
                            for k in dict.fromkeys(o[1] for o in ops)},
        "setup_samples_s": setups,
        "op_ms": [[o[0], o[2]] for o in ops],  # timed pass, in run order
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()},
        "per_layer": {k: {"value": v[0], "unit": v[1]} for k, v in layer.items()},
        "per_layer_notes": notes,
        "spans": rec["trace"]["spans"] if trace else 0,
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stderr": rec["stderr"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "git_sha": _git_sha(),
                    "src_sha256": _src_sha256(),
                    "quatlat_threads_env": "unset"},
    }


def _print_summary(r: dict) -> None:
    print(f"workload {r['workload']}: seed {r['seed']}, closed loop with 1 client, "
          f"{r['cycles']} timed cycles of {len(r['mix'])} ops, {r['attempted']} ops "
          f"checked, correct={r['correct']}")
    for name, m in r["metrics"].items():
        print(f"  {name:<12} {m['value']:>12.4f} {m['unit']:<6} ({m['samples']})")
    print(f"  p50 falls in {r['p50_class']}; p90 falls in {r['p90_class']}")
    for name, m in r["per_layer"].items():
        note = r["per_layer_notes"].get(name, "")
        print(f"  {name:<40} {m['value']:>14.4f} {m['unit']:<6} {note}")
    for msg in r["failures"][:10]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quatlat closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quatlat", "__init__.py")):
        return _fail(f"no quatlat source tree at {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        return _fail(str(e))
    os.makedirs(OUT, exist_ok=True)
    for r in reports:
        _print_summary(r)
        path = os.path.join(OUT, f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json")
        with open(path, "w") as fh:
            json.dump(r, fh, indent=1)
    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        for name, m in r[key].items():
            if name == "fail_rate":  # carried by attempted/failed
                continue
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
