"""The native tier as the planner/executor/resilience layers see it.

These tests run on every host: where they need a specific availability
state they fake the probe, so CI legs with and without the extension
exercise the same assertions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.core.digits import native_pass_plan
from repro.errors import ConfigurationError
from repro.plan import InputDescriptor, Planner
from repro.plan.executors import execute_plan
from repro.plan.planner import NATIVE_MIN_KEYS
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    fallback_chain,
    resilient_execute,
)

from repro.native import build

NATIVE_AVAILABLE = build.native_status(warn=False).available


def big_descriptor(n: int = 1 << 20) -> InputDescriptor:
    return InputDescriptor(n=n, key_dtype=np.uint32)


class TestPlannerChoice:
    def test_auto_prefers_native_when_available(self):
        plan = Planner().plan(big_descriptor())
        if NATIVE_AVAILABLE:
            assert plan.strategy == "native"
            assert plan.engine == "NativeRadixEngine"
            assert [s.kind for s in plan.steps] == ["native-lsd"]
            assert any("selected" in note for note in plan.notes)
        else:
            assert plan.strategy == "hybrid"
            assert any("unavailable" in note for note in plan.notes)

    def test_never_pins_numpy_tier(self):
        plan = Planner(native="never").plan(big_descriptor())
        assert plan.strategy == "hybrid"
        assert plan.notes == ("native tier disabled for this planner",)

    def test_always_plans_native_even_when_unavailable(
        self, fresh_probe, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        plan = Planner(native="always").plan(big_descriptor())
        assert plan.strategy == "native"
        assert any("forced" in note for note in plan.notes)

    def test_small_inputs_stay_on_numpy_tier(self):
        plan = Planner().plan(big_descriptor(n=NATIVE_MIN_KEYS - 1))
        assert plan.strategy == "hybrid"
        assert any("floor" in note for note in plan.notes)

    def test_floor_is_inclusive(self, fresh_probe, monkeypatch):
        # Fake availability so the boundary test runs on any host.
        from repro.native import build

        monkeypatch.setattr(
            build,
            "_probe",
            lambda: build.NativeStatus(True, "compiled native kernel"),
        )
        plan = Planner().plan(big_descriptor(n=NATIVE_MIN_KEYS))
        assert plan.strategy == "native"

    def test_explicit_sort_bits_skips_native(self):
        config = replace(SortConfig.for_layout(32, 0), sort_bits=12)
        plan = Planner(config=config).plan(big_descriptor())
        assert plan.strategy == "hybrid"
        assert any("sort_bits" in note for note in plan.notes)

    def test_invalid_native_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="native"):
            Planner(native="sometimes")

    def test_notes_surface_in_explain_and_dict(self):
        plan = Planner(native="never").plan(big_descriptor())
        assert "note            : native tier disabled" in plan.explain()
        assert plan.to_dict()["notes"] == list(plan.notes)


class TestPassPlanMirror:
    def test_mirrors_kernel_digit_schedule(self):
        assert native_pass_plan(32) == (11, (11, 10))
        assert native_pass_plan(64) == (11, (11, 11, 11, 11, 9))
        # Narrow ranges skip the MSD partition, like the C side.
        assert native_pass_plan(16) == (0, (11, 5))
        assert native_pass_plan(22) == (0, (11, 11))


class TestExecutorDegradation:
    def test_native_plan_degrades_inline_when_unavailable(
        self, fresh_probe, monkeypatch, rng
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = Planner(native="always").plan(InputDescriptor.for_array(keys))
        result = execute_plan(plan, keys=keys)
        assert result.meta["engine"] == "hybrid"
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "native"
        assert resilience["executed"] == "hybrid"
        assert resilience["downgrades"][0]["engine"] == "native"
        assert "NativeUnavailableError" in resilience["downgrades"][0]["error"]
        assert "REPRO_NATIVE=0" in resilience["native"]
        expected = np.sort(keys)
        assert np.array_equal(result.keys, expected)

    def test_native_execution_reports_engine(self, rng):
        if not NATIVE_AVAILABLE:
            pytest.skip("native extension not built on this host")
        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = Planner().plan(InputDescriptor.for_array(keys))
        result = execute_plan(plan, keys=keys)
        assert result.meta["engine"] == "native"
        assert result.meta["plan"] is plan
        assert "resilience" not in result.meta

    def test_resilient_execute_keeps_inline_record(
        self, fresh_probe, monkeypatch, rng
    ):
        # The ladder walker only writes meta["resilience"] for its own
        # downgrades; the executor's inline record must survive it.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = Planner(native="always").plan(InputDescriptor.for_array(keys))
        result = resilient_execute(plan, keys=keys)
        assert result.meta["resilience"]["requested"] == "native"


class TestLadder:
    def test_native_plans_walk_down_to_numpy(self):
        assert fallback_chain("native") == ("native", "hybrid", "oracle")

    def test_default_ladder_never_escalates_to_native(self):
        assert "native" not in DEFAULT_LADDER
        assert fallback_chain("hybrid") == ("hybrid", "oracle")


class TestFacadeKnob:
    def test_sort_native_knob(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        pinned = repro.sort(keys, native="never")
        assert pinned.meta["engine"] == "hybrid"
        auto = repro.sort(keys)
        assert auto.keys.tobytes() == pinned.keys.tobytes()
        if NATIVE_AVAILABLE:
            assert auto.meta["engine"] == "native"

    def test_plan_for_reports_tier(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = repro.plan_for(keys)
        assert plan.notes  # the tier decision is always explained
        assert repro.plan_for(keys, native="never").strategy == "hybrid"
