"""Smoke checks of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import spans  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    assert metrics.tail(list(range(10))) is None
    value, pct, beyond = metrics.tail(list(range(1, 101)))
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(1 for v in range(1, 101) if v > value) == 10
    value, pct, _ = metrics.tail([5.0] * 9 + [1.0] * 2 + [7.0] * 9)
    assert value == 5.0 and pct == 50.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock: FakeClock):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def inner():\n    clock.now += 3\n    return 'x'\n"
         "def helper():\n    return 1\n", a.__dict__)
    a.clock = clock
    b.inner = a.inner                      # a second binding site, as `from .a import inner`
    exec("def outer():\n    clock.now += 2\n    inner()\n    inner()\n    clock.now += 1\n",
         b.__dict__)
    b.clock = clock
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    return a, b


def test_self_time_subtracts_nested_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter=clock))
    a, b = _fake_package(clock)
    original_inner = a.inner
    tracer = spans.Tracer("fakepkg")
    tracer.install({"a.inner": None, "b.outer": None, "a.gone": None, "c.missing": None})
    try:
        assert b.inner is not original_inner and a.inner is b.inner
        tracer.run(7, "root", lambda: (clock.__setattr__("now", clock.now + 4), b.outer()))
    finally:
        tracer.uninstall()
    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        del sys.modules[name]
    assert a.inner is original_inner and b.inner is original_inner
    assert tracer.absent == ["a.gone", "c.missing"]
    calls = {name: agg[0] for name, agg in tracer.agg.items()}
    self_s = {name: agg[1] for name, agg in tracer.agg.items()}
    assert calls == {"a.inner": 2, "b.outer": 1, "root": 1}
    assert self_s == {"a.inner": 6.0, "b.outer": 3.0, "root": 4.0}
    assert sum(self_s.values()) == tracer.agg["root"][2] == 13.0
    by_id = {s[1]: s for s in tracer.spans}
    assert all(s[0] == 7 for s in tracer.spans)
    inner = [s for s in tracer.spans if s[3] == "a.inner"]
    assert all(by_id[s[2]][3] == "b.outer" for s in inner)


def test_inputs_are_identical_across_processes():
    code = ("import sys, tempfile; sys.path[:0] = [%r, %r]; import workloads\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    print(*(workloads.BUILDERS[w](5, d).digest for w in sorted(workloads.BUILDERS)))\n"
            % (SRC, HERE))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_yes_without_witness_is_answered_not_failed():
    sys.path.insert(0, SRC)
    import workloads

    adj = [0b010, 0b101, 0b010]                      # the path 0-1-2, alpha 2
    check = workloads._solve_check(adj, 2, 2, "path")
    assert check((True, (0, 2))) == workloads.ANSWERED
    assert check((True, ())) == workloads.NO_WITNESS
    assert workloads._solve_check(adj, 3, 2, "path")((False, ())) == workloads.ANSWERED
    for answer in ((False, ()), (True, (0, 1))):  # a wrong decision, a dependent witness
        with pytest.raises(workloads.WrongAnswer):
            check(answer)
