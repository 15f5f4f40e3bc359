"""Tests of the benchmark itself: its checks, its references and its tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Small inputs are cross-checked against the brute-force oracle in
``tests/oracles.py``, which shares no enumeration code with the package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402
from oracles import naive_norm_elements  # noqa: E402
from quatlat import lattice  # noqa: E402
from quatlat.arith import sqrt_ceil_of_product  # noqa: E402
from quatlat.counting import in_ball  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def _logs():
    workloads.install_log_capture()


def _naive_ball_count(lat, m, z, t) -> int:
    height = sqrt_ceil_of_product(t.t, m)
    return sum(
        1 for c in naive_norm_elements(lat, m, height)
        if in_ball(lat.order.quat_from_frame(c), z, workloads.DELTA)
    )


def test_certify_small_norms_match_naive_oracle(tmp_path):
    wl = workloads.CertifyWorkload(workloads.DEFAULT_SEED, str(tmp_path))
    for key in ("zw7", "zf5", "e13"):
        res = wl.certify(key, 8, 0, None)
        for m in (1, 2, 3):
            want = _naive_ball_count(wl.orders[key], m, wl.points[0], wl.t)
            assert res["per_m"][m - 1] == want, (key, m)


def test_count_rows_match_naive_oracle(tmp_path):
    wl = workloads.CountWorkload(workloads.HELD_OUT_SEED, str(tmp_path))
    rc, out, err = workloads.run_cli(
        ["count", "--config", wl.configs["zw7"], "--seed", str(wl.seed), "--lmax", "3",
         "--threads", "2"])
    assert rc == 0, err
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "run_id"))]
    assert len(rows) == len(wl.points) == 2
    for row, z in zip(rows, wl.points):
        want = sum(_naive_ball_count(wl.orders["zw7"], m, z, wl.t) for m in (1, 2, 3))
        assert int(row[12]) == want


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 7])
def test_count_expected_rows_are_consistent(tmp_path, seed):
    """Recounts agree with the recorded rows, and the bound holds, for any seed."""
    wl = workloads.CountWorkload(seed, str(tmp_path))
    for label, (text, problems) in wl.expected().items():
        assert problems == [], label
        assert text.count("\n") == wl.samples


def test_certify_expected_results_are_consistent(tmp_path):
    wl = workloads.CertifyWorkload(workloads.HELD_OUT_SEED, str(tmp_path))
    for label, (_text, problems) in wl.expected().items():
        assert problems == [], label


def test_balance_references_hold(tmp_path):
    wl = workloads.BalanceWorkload(workloads.DEFAULT_SEED, str(tmp_path))
    for label, (text, problems) in wl.expected().items():
        assert text and problems == [], label


def test_check_flags_wrong_output(tmp_path):
    wl = workloads.BalanceWorkload(workloads.DEFAULT_SEED, str(tmp_path))
    expected = wl.expected()
    op = next(op for op in wl.cycle if op.key == "e5")
    good = (op, 0, expected["e5"][0], "", 1.0)
    bad = (op, 0, expected["e5"][0].replace("True", "False"), "", 1.0)
    crashed = (op, None, "", "Traceback", 1.0)
    exhausted = (op, 3, "", "search exhausted", 1.0)
    messages, verdicts = workloads.check(wl, [good, bad, crashed, exhausted], expected)
    assert verdicts == [True, False, False, False]
    assert len(messages) == 3


def _counts(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if not k.endswith("ms")}


def _traced_counts(cls, seed, workdir, pick):
    workdir.mkdir()
    tracer = Tracer()
    tracer.install()
    try:
        wl = cls(seed, str(workdir))
        results, _elapsed = run_pass(pick(wl.cycle), 0, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(rc == 0 for _op, rc, _o, _e, _ms in results)
    return _counts(tracer.summarize()), [out for _op, _rc, out, _e, _ms in results]


@pytest.mark.parametrize("name,pick", [
    ("count", lambda cycle: cycle[:4]),
    ("certify", lambda cycle: cycle[:8]),
    ("balance", lambda cycle: [op for op in cycle if not op.key.endswith("n4")][:12]),
])
def test_traced_counts_repeat_exactly(tmp_path, name, pick):
    cls = workloads.WORKLOADS[name]
    first, out1 = _traced_counts(cls, 5, tmp_path / "a", pick)
    second, out2 = _traced_counts(cls, 5, tmp_path / "b", pick)
    assert first == second
    assert out1 == out2
    assert first  # the wrappers saw work


def test_tracing_leaves_outputs_unchanged(tmp_path):
    wl = workloads.BalanceWorkload(workloads.DEFAULT_SEED, str(tmp_path))
    op = next(op for op in wl.cycle if op.key == "p5n2")
    plain = op.run()
    _counts_, traced = _traced_counts(workloads.BalanceWorkload, workloads.DEFAULT_SEED,
                                      tmp_path / "t", lambda cycle: [
                                          o for o in cycle if o.key == "p5n2"])
    assert traced == [plain[1]]


def test_uninstall_restores_every_binding():
    from quatlat import cli, counting, quat
    before = (counting.traceless_slices, lattice.traceless_slices, quat.Quat.__mul__,
              cli._DISPATCH["count"], lattice.Lattice4.conjugate_by)
    tracer = Tracer()
    tracer.install()
    assert counting.traceless_slices is not before[0]
    assert cli._DISPATCH["count"][0] is not before[3][0]
    tracer.uninstall()
    after = (counting.traceless_slices, lattice.traceless_slices, quat.Quat.__mul__,
             cli._DISPATCH["count"], lattice.Lattice4.conjugate_by)
    assert after == before


def test_run_refuses_a_tree_without_quatlat(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
