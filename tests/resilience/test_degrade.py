"""The degradation ladder: retry the rung, then climb down, never lie."""

from __future__ import annotations

import asyncio
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import SortConfig
from repro.core.keys import bits_dtype_for

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    EngineFailedError,
    TransientError,
    UnsupportedDtypeError,
)
from repro.plan import ExecutorRegistry, InputDescriptor, Planner
from repro.plan.planner import NATIVE_MIN_KEYS
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    fallback_chain,
    resilient_execute,
)
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.policy import Deadline, RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def plan_for(strategy: str):
    return SimpleNamespace(strategy=strategy)


def ok_result(tag: str):
    return SimpleNamespace(meta={}, tag=tag)


def registry_with(**engines) -> ExecutorRegistry:
    registry = ExecutorRegistry()
    for name, fn in engines.items():
        registry.register(name, fn)
    return registry


class TestFallbackChain:
    def test_planned_strategy_runs_first_then_ladder(self):
        assert fallback_chain("hybrid") == ("hybrid", "oracle")
        assert fallback_chain("hetero") == ("hetero", "hybrid", "oracle")

    def test_native_walks_down_but_is_never_escalated_to(self):
        # A native plan degrades through every NumPy rung; a hybrid
        # plan must never walk *up* into the compiled tier.
        assert fallback_chain("native") == ("native", "hybrid", "oracle")
        assert "native" not in fallback_chain("hybrid")

    def test_external_never_changes_engine(self):
        assert fallback_chain("external") == ("external",)

    def test_custom_ladder(self):
        assert fallback_chain("hybrid", ladder=("oracle",)) == (
            "hybrid", "oracle"
        )


class TestResilientExecute:
    def test_clean_success_leaves_no_resilience_meta(self):
        registry = registry_with(hybrid=lambda plan, **io: ok_result("hy"))
        result = resilient_execute(
            plan_for("hybrid"), registry=registry,
            retry_policy=FAST_RETRY,
        )
        assert result.tag == "hy"
        assert "resilience" not in result.meta

    def test_retry_within_rung_is_recorded(self):
        calls = []

        def flaky(plan, **io):
            calls.append(1)
            if len(calls) == 1:
                raise TransientError("blip")
            return ok_result("hy")

        report: dict = {}
        result = resilient_execute(
            plan_for("hybrid"),
            registry=registry_with(hybrid=flaky),
            retry_policy=FAST_RETRY,
            report=report,
        )
        assert result.tag == "hy"
        assert report["retries"] == 1
        assert result.meta["resilience"] == {
            "requested": "hybrid",
            "executed": "hybrid",
            "retries": 1,
            "downgrades": [],
        }

    def test_persistent_failure_degrades_down_the_ladder(self):
        def broken(plan, **io):
            raise TransientError("hybrid is down")

        report: dict = {}
        result = resilient_execute(
            plan_for("hybrid"),
            registry=registry_with(
                hybrid=broken,
                oracle=lambda plan, **io: ok_result("or"),
            ),
            report=report,
        )
        assert result.tag == "or"
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "hybrid"
        assert resilience["executed"] == "oracle"
        assert [d["engine"] for d in resilience["downgrades"]] == ["hybrid"]
        assert report["downgrades"] == resilience["downgrades"]

    def test_whole_ladder_failing_raises_engine_failed(self):
        def broken(plan, **io):
            raise TransientError("down")

        with pytest.raises(EngineFailedError, match="every engine rung") as e:
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(hybrid=broken, oracle=broken),
            )
        assert isinstance(e.value.__cause__, TransientError)

    @pytest.mark.parametrize(
        "exc", [
            ConfigurationError("bad request"),
            UnsupportedDtypeError("complex128"),
            DeadlineExceededError("late"),
        ],
    )
    def test_non_degradable_errors_reraise_immediately(self, exc):
        fallback_ran = []

        def broken(plan, **io):
            raise exc

        def fb(plan, **io):
            fallback_ran.append(1)
            return ok_result("fb")

        with pytest.raises(type(exc)):
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(hybrid=broken, oracle=fb),
            )
        assert not fallback_ran  # degrading cannot fix a caller bug

    def test_external_one_rung_reraises_original_error(self):
        def broken(plan, **io):
            raise TransientError("spill failed")

        with pytest.raises(TransientError, match="spill failed"):
            resilient_execute(
                plan_for("external"),
                registry=registry_with(external=broken),
            )

    def test_missing_planned_engine_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no executor"):
            resilient_execute(
                plan_for("hybrid"), registry=registry_with()
            )

    def test_missing_optional_rung_is_skipped(self):
        def broken(plan, **io):
            raise TransientError("down")

        # hybrid is unregistered; the ladder should step over it.
        result = resilient_execute(
            plan_for("hetero"),
            registry=registry_with(
                hetero=broken, oracle=lambda plan, **io: ok_result("or")
            ),
        )
        assert result.tag == "or"
        assert result.meta["resilience"]["executed"] == "oracle"

    def test_expired_deadline_stops_the_ladder(self):
        with pytest.raises(DeadlineExceededError):
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(
                    hybrid=lambda plan, **io: ok_result("hy")
                ),
                deadline=Deadline.after(0.0),
            )

    def test_fault_sites_cover_every_ladder_rung(self):
        # The chaos suite relies on engine.<rung> firing inside
        # resilient_execute for every rung it can reach.
        registry = registry_with(
            native=lambda plan, **io: ok_result("na"),
            hybrid=lambda plan, **io: ok_result("hy"),
            oracle=lambda plan, **io: ok_result("or"),
        )
        with inject(
            FaultPlan([
                FaultSpec(site="engine.native", times=-1),
                FaultSpec(site="engine.hybrid", times=-1),
            ])
        ):
            result = resilient_execute(
                plan_for("native"), registry=registry
            )
        assert result.tag == "or"
        resilience = result.meta["resilience"]
        assert resilience["executed"] == "oracle"
        assert [d["engine"] for d in resilience["downgrades"]] == [
            "native", "hybrid",
        ]

    def test_default_ladder_matches_registered_oracle(self):
        # The real registry must know every default rung, or the
        # ladder would silently shrink.
        from repro.plan import DEFAULT_REGISTRY

        for rung in DEFAULT_LADDER:
            assert DEFAULT_REGISTRY.executor_for(rung) is not None


# ----------------------------------------------------------------------
# The oracle rung against the engines it stands in for
# ----------------------------------------------------------------------
FUSED = replace(SortConfig.for_layout(32, 32), pair_packing="fused")
IN_MEMORY_DTYPES = (
    np.uint32, np.uint64, np.int32, np.int64, np.float32, np.float64,
)
FLOAT_SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0)
RUNGS_ABOVE_ORACLE = [
    FaultSpec(site="engine.native", times=-1),
    FaultSpec(site="engine.hybrid", times=-1),
]


def same_bytes(got, want) -> bool:
    if want is None:
        return got is None
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def submit_to_service(keys, values, config, planner=None):
    from repro.service import SortService

    async def main():
        async with SortService(
            micro_batching=False, planner=planner
        ) as service:
            return await service.submit(keys, values=values, config=config)

    return asyncio.run(main())


class TestOracleRungByteIdentity:
    def test_fused_request_degrades_to_the_engines_order(self):
        # Fused pairs tie by value bits; a stable argsort on the key
        # bits alone returns most values in a different order.
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 50, 4096).astype(np.uint32)
        values = rng.integers(0, 1 << 32, 4096, dtype=np.uint64).astype(
            np.uint32
        )
        expected = repro.sort_pairs(keys, values, config=FUSED)
        with inject(FaultPlan.single("engine.hybrid", times=-1)):
            result = submit_to_service(keys, values, FUSED)
        assert result.meta["resilience"]["executed"] == "oracle"
        assert same_bytes(result.keys, expected.keys)
        assert same_bytes(result.values, expected.values)

    def test_native_planned_fused_request_degrades_to_the_oracle(self):
        rng = np.random.default_rng(2)
        n = NATIVE_MIN_KEYS + 1000
        keys = rng.integers(0, 1000, n).astype(np.uint32)
        values = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(
            np.uint32
        )
        expected = repro.sort_pairs(keys, values, config=FUSED)
        with inject(FaultPlan(RUNGS_ABOVE_ORACLE)):
            result = submit_to_service(
                keys, values, FUSED, planner=Planner(native="always")
            )
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "native"
        assert resilience["executed"] == "oracle"
        assert [d["engine"] for d in resilience["downgrades"]] == [
            "native", "hybrid",
        ]
        assert same_bytes(result.keys, expected.keys)
        assert same_bytes(result.values, expected.values)

    @given(
        dtype=st.sampled_from(IN_MEMORY_DTYPES),
        packing=st.sampled_from(("auto", "index", "off", "fused")),
        value_dtype=st.sampled_from((None, np.uint32, np.float32, np.uint64)),
        n=st.one_of(st.integers(0, 300), st.integers(300, 5000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_oracle_rung_matches_the_facades(
        self, dtype, packing, value_dtype, n, seed
    ):
        dtype = np.dtype(dtype)
        key_bits = dtype.itemsize * 8
        if value_dtype is not None:
            value_dtype = np.dtype(value_dtype)
            if packing == "fused" and key_bits + value_dtype.itemsize * 8 > 64:
                value_dtype = None  # no fused word exists for the layout
        rng = np.random.default_rng(seed)
        # Few distinct keys, so ties (where layouts differ) are common.
        if dtype.kind == "f":
            pool = np.concatenate(
                (rng.standard_normal(20), FLOAT_SPECIALS)
            ).astype(dtype)
            keys = rng.choice(pool, n)
        else:
            info = np.iinfo(dtype)
            pool = rng.integers(info.min, info.max, 30, dtype=dtype,
                                endpoint=True)
            keys = rng.choice(pool, n)
        values = None
        if value_dtype is not None:
            # Arbitrary bit patterns, NaN payloads included.
            raw = rng.integers(0, 1 << 63, n, dtype=np.uint64)
            values = raw.astype(bits_dtype_for(value_dtype)).view(value_dtype)
        config = replace(
            SortConfig.for_layout(
                key_bits, 0 if values is None else values.itemsize * 8
            ),
            pair_packing=packing,
        )
        if values is None:
            expected = repro.sort(keys, config=config)
        else:
            expected = repro.sort_pairs(keys, values, config=config)
        plan = Planner(native="always").plan(
            InputDescriptor.for_array(keys, values)
        )
        with inject(FaultPlan(RUNGS_ABOVE_ORACLE)):
            result = resilient_execute(
                plan, keys=keys, values=values, config=config
            )
        assert result.meta["resilience"]["executed"] == "oracle"
        assert same_bytes(result.keys, expected.keys)
        assert same_bytes(result.values, expected.values)
