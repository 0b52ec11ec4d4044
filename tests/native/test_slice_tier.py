"""The slice tier of chunked (§5) and file plans.

Every slice of a budgeted in-memory sort and every run of a file sort
sorts on the tier the in-memory rule picks for the slice size.  These
tests check that the choice is shown (plan, result meta, report),
priced at that tier's rate, and that both ways off the native tier —
the tier disabled, and a native fault inside a slice — give the same
bytes as the native run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import NativeExecutionError
from repro.external import FileLayout
from repro.native import build
from repro.plan import InputDescriptor, Planner
from repro.plan.executors import execute_plan
from repro.plan.planner import NATIVE_MIN_KEYS
from repro.resilience.faults import FaultPlan, FaultSpec, inject

NATIVE = build.native_status(warn=False).available
N = 3 * NATIVE_MIN_KEYS
#: A budget that cuts N uint32 keys into three slices above the floor.
BUDGET = 3 * 4 * NATIVE_MIN_KEYS


@pytest.fixture
def keys(rng):
    return rng.integers(0, 2**32, N, dtype=np.uint32)


@pytest.fixture
def native_run(keys):
    return repro.sort(keys, memory_budget=BUDGET, native="always")


def slice_fault() -> FaultPlan:
    """A native kernel failure on the second slice sort."""
    return FaultPlan([
        FaultSpec(
            site="engine.native",
            after=1,
            exc_factory=lambda: NativeExecutionError("injected kernel error"),
        )
    ])


class TestShown:
    def test_chunked_plan_records_tier(self):
        plan = Planner().plan(
            InputDescriptor(n=N, key_dtype=np.uint32, memory_budget=BUDGET)
        )
        tier = "native" if NATIVE else "hybrid"
        assert plan.strategy == "hetero"
        assert plan.step("chunked-pipeline").params["slice_tier"] == tier
        assert f"slice_tier={tier}" in plan.explain()
        assert any(note.startswith("slices: native tier") for note in plan.notes)

    def test_small_slices_stay_on_numpy_tier(self):
        plan = Planner().plan(
            InputDescriptor(n=N, key_dtype=np.uint32, memory_budget=BUDGET // 8)
        )
        assert plan.step("chunked-pipeline").params["slice_tier"] == "hybrid"
        assert any("floor" in note for note in plan.notes)

    def test_file_plan_and_report_record_tier(self, tmp_path, keys):
        path = tmp_path / "in.bin"
        keys.tofile(path)
        report = repro.sort(
            path, output=tmp_path / "out.bin", dtype="uint32",
            memory_budget=BUDGET,
        )
        tier = "native" if NATIVE else "hybrid"
        assert report.plan.step("spill-runs").params["slice_tier"] == tier
        assert f"slice_tier={tier}" in report.plan.explain()
        assert report.slice_tier == tier
        assert report.slice_downgrades == 0
        assert f"({tier} slices)" in report.summary()
        got = np.fromfile(tmp_path / "out.bin", dtype=np.uint32)
        assert got.tobytes() == np.sort(keys).tobytes()


class TestPriced:
    @pytest.mark.parametrize("native", ["always", "never"])
    def test_slices_priced_at_the_chosen_tier(self, native):
        planner = Planner(native=native)
        plan = planner.plan(
            InputDescriptor(n=N, key_dtype=np.uint32, memory_budget=BUDGET)
        )
        params = plan.step("chunked-pipeline").params
        slice_records = params["chunk_bytes"] // 4
        alone = planner.plan(
            InputDescriptor(n=slice_records, key_dtype=np.uint32)
        )
        assert alone.strategy == ("native" if native == "always" else "hybrid")
        assert params["chunk_sort_seconds"][0] == pytest.approx(
            alone.predicted_seconds
        )


class TestFallback:
    def test_native_never_runs_slices_on_hybrid(self, keys, native_run):
        pinned = repro.sort(keys, memory_budget=BUDGET, native="never")
        assert pinned.meta["slice_tier"] == "hybrid"
        assert pinned.keys.tobytes() == native_run.keys.tobytes()

    def test_env_kill_switch_runs_slices_on_hybrid(
        self, fresh_probe, monkeypatch, keys, native_run
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        build._reset_status_cache()  # native_run probed before the switch
        result = repro.sort(keys, memory_budget=BUDGET)
        assert result.meta["slice_tier"] == "hybrid"
        assert "resilience" not in result.meta
        assert result.keys.tobytes() == native_run.keys.tobytes()

    def test_native_fault_in_a_slice_degrades_inline(self, keys, native_run):
        with inject(slice_fault()) as faults:
            result = repro.sort(keys, memory_budget=BUDGET, native="always")
        assert faults.fire_count("engine.native") == 1
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "native"
        assert resilience["executed"] == "hybrid"
        downgrades = resilience["downgrades"]
        # Without the extension every slice degrades, not just the one.
        assert len(downgrades) == (1 if NATIVE else 3)
        [downgrade] = [d for d in downgrades if d["slice"] == 1]
        assert downgrade["engine"] == "native"
        assert "NativeExecutionError" in downgrade["error"]
        assert result.keys.tobytes() == native_run.keys.tobytes()

    def test_native_fault_in_a_run_degrades_inline(self, tmp_path, keys):
        path = tmp_path / "in.bin"
        keys.tofile(path)
        layout = FileLayout(np.uint32)
        plan = Planner(native="always").plan(
            InputDescriptor.for_file(path, layout, memory_budget=BUDGET)
        )
        with inject(slice_fault()):
            report = execute_plan(
                plan, output_path=tmp_path / "out.bin", layout=layout
            )
        assert report.slice_tier == "native"
        downgrades = 1 if NATIVE else report.n_runs
        assert report.slice_downgrades == downgrades
        assert f"{downgrades} degraded to hybrid" in report.summary()
        got = np.fromfile(tmp_path / "out.bin", dtype=np.uint32)
        assert got.tobytes() == np.sort(keys).tobytes()
