"""Tests of the benchmark itself: oracle, span arithmetic, speed scaling, names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
from array import array
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import bench, oracle  # noqa: E402
from perfbench import run as cli  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.speed import HALF_WINDOW, ReferenceKernel  # noqa: E402
from perfbench.workloads import WORKLOADS, new_run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _prefix(inputs: dict, calls: int) -> dict:
    """The first ``calls`` calls of a generated run (verdicts stay valid)."""
    prefix = {
        k: v[:calls] if k in ("cids", "batches", "verdicts", "raws") else v
        for k, v in inputs.items()
    }
    prefix["calls"] = calls
    return prefix


@pytest.fixture(scope="module")
def pipelined_inputs():
    return WORKLOADS["kv_pipelined"].generate(seed=3, seconds=1)


class TestOracle:
    def test_get_ok_accepts_hit_and_allowed_miss(self):
        assert oracle.get_ok(b"k", b"v", b"VALUE k 0 1\r\nv\r\nEND\r\n", False)
        assert oracle.get_ok(b"k", None, b"END\r\n", False)
        assert oracle.get_ok(b"k", b"v", b"END\r\n", True)

    def test_get_ok_rejects_wrong_value_and_forbidden_miss(self):
        assert not oracle.get_ok(b"k", b"v", b"VALUE k 0 1\r\nw\r\nEND\r\n", True)
        assert not oracle.get_ok(b"k", None, b"VALUE k 0 1\r\nv\r\nEND\r\n", True)
        assert not oracle.get_ok(b"k", b"v", b"END\r\n", False)

    def test_multiget_ok(self):
        keys = [b"a", b"b", b"a"]
        good = b"VALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n1\r\nEND\r\n"
        assert oracle.multiget_ok(keys, [b"1", b"2", b"1"], good, True)
        assert not oracle.multiget_ok(keys, [b"1", b"2", b"1"], good, False)
        planted = good.replace(b"\r\n1\r\nEND", b"\r\n9\r\nEND")
        assert not oracle.multiget_ok(keys, [b"1", b"2", b"1"], planted, True)

    def test_planted_wrong_get_response_is_counted(self, pipelined_inputs):
        workload = WORKLOADS["kv_pipelined"]
        inputs = _prefix(pipelined_inputs, 200)
        clean = workload.drive(workload.setup(inputs), inputs, new_run(inputs))
        assert clean.wrong == 0 and clean.failed == 0

        server = workload.setup(inputs)
        store = server.store
        real_get = store.get
        planted = []

        def corrupting_get(key):
            hit = real_get(key)
            if hit is not None and not planted:
                planted.append(key)
                return hit[0] + b"!", hit[1]
            return hit

        store.get = corrupting_get
        run = workload.drive(server, inputs, new_run(inputs))
        assert planted and run.wrong == 1 and run.failed == 1


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        ticks = iter([0, 2, 5, 6, 8, 10])
        rec = SpanRecorder(clock=lambda: next(ticks))
        outer, inner = rec.name_index("outer"), rec.name_index("inner")
        rec.open(outer)  # 0
        rec.open(inner)  # 2
        rec.close()  # 5
        rec.open(inner)  # 6
        rec.close()  # 8
        rec.close()  # 10
        assert list(rec.duration) == [10, 3, 2]
        assert list(rec.self_time) == [5, 3, 2]
        assert list(rec.parent) == [-1, 0, 0]
        summary = rec.summary(wall_ns=20)
        assert summary["outer.self_share"] == 0.25
        assert summary["inner.calls"] == 2
        assert summary["inner.self_us_p50"] == 2.5 / 1e3
        assert summary["trace.residual_share"] == 0.5

    def test_self_times_and_residual_account_for_wall_time(self):
        ticks = iter(range(0, 1000, 3))
        rec = SpanRecorder(clock=lambda: next(ticks))
        names = [rec.name_index(n) for n in ("a", "b", "c")]
        for depth in (1, 3, 2):
            for level in range(depth):
                rec.open(names[level])
            for _ in range(depth):
                rec.close()
        summary = rec.summary(wall_ns=100)
        shares = sum(v for k, v in summary.items() if k.endswith(".self_share"))
        assert shares + summary["trace.residual_share"] == pytest.approx(1.0)

    def test_close_can_rename(self):
        rec = SpanRecorder(clock=iter([0, 4]).__next__)
        ok, fault = rec.name_index("ok"), rec.name_index("fault")
        rec.open(ok)
        rec.close(fault)
        summary = rec.summary(wall_ns=4)
        assert summary["fault.calls"] == 1 and summary["ok.calls"] == 0

    def test_summary_refuses_open_spans(self):
        rec = SpanRecorder(clock=iter([0]).__next__)
        rec.open(rec.name_index("x"))
        with pytest.raises(ValueError):
            rec.summary(wall_ns=1)


class TestSpeedScaling:
    kernel = ReferenceKernel(parse_rounds=10, lookups=20)

    def test_factor_is_nominal_over_local_median(self):
        nominal = self.kernel.nominal_ns
        steady = [nominal * 2] * (4 * HALF_WINDOW)
        # One pass an interrupt stretched does not move its slice's factor.
        steady[HALF_WINDOW] = nominal * 50
        factors = self.kernel.scale_factors(steady)
        assert factors == pytest.approx([0.5] * len(steady))

    def test_factor_follows_a_lasting_change_of_speed(self):
        nominal = self.kernel.nominal_ns
        ref = [nominal] * (4 * HALF_WINDOW) + [nominal // 2] * (4 * HALF_WINDOW)
        factors = self.kernel.scale_factors(ref)
        assert factors[0] == pytest.approx(1.0) and factors[-1] == pytest.approx(2.0)

    def test_run_scales_each_slice_and_call_by_its_factor(self):
        inputs = {"calls": 5, "slice_calls": 2, "reference": self.kernel}
        run = new_run(inputs)
        nominal = self.kernel.nominal_ns
        run.slice_ns[:] = array("q", [100, 200, 300])
        run.reference_ns[:] = array("q", [nominal, nominal, nominal])
        assert run.scaled_wall_ns == pytest.approx(600)
        run.reference_ns[:] = array("q", [nominal * 2] * 3)
        assert run.scaled_wall_ns == pytest.approx(300)
        assert list(run.call_factors()) == pytest.approx([0.5] * 5)

    def test_slices_cover_every_call_and_set_wall_time(self):
        run = new_run({"calls": 5, "slice_calls": 2, "reference": self.kernel})
        assert list(run.slices(5)) == [(0, 2), (2, 4), (4, 5)]
        assert all(t > 0 for t in run.reference_ns)
        assert run.wall_ns == sum(run.slice_ns)


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        for name, unit, better in bench.END_TO_END + bench.PER_LAYER:
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
            assert better in ("higher", "lower")
        names = [m[0] for m in bench.END_TO_END + bench.PER_LAYER]
        assert len(names) == len(set(names))

    def test_benchmark_json_lists_what_the_bench_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
            tuple(m) for m in bench.END_TO_END
        ]
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
            tuple(m) for m in bench.PER_LAYER
        ]
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert cli.WORKLOAD_NAMES == tuple(WORKLOADS)


class TestDeterminism:
    def test_same_seed_same_bytes(self, pipelined_inputs):
        again = WORKLOADS["kv_pipelined"].generate(seed=3, seconds=1)
        assert again["batches"] == pipelined_inputs["batches"]
        assert again["preload"] == pipelined_inputs["preload"]
        other = WORKLOADS["kv_pipelined"].generate(seed=4, seconds=1)
        assert other["batches"] != pipelined_inputs["batches"]

    def test_same_inputs_same_counts(self, pipelined_inputs):
        workload = WORKLOADS["kv_pipelined"]
        inputs = _prefix(pipelined_inputs, 100)
        counts = []
        for _ in range(2):
            world = workload.setup(inputs)
            before = workload.counts(world)
            run = workload.drive(world, inputs, new_run(inputs))
            counts.append((bench._delta(workload.counts(world), before), run.virtual_s))
        assert counts[0] == counts[1]
