"""Executor registry: plans → engines.

The planner describes work; this module maps a
:class:`~repro.plan.ir.SortPlan`'s strategy onto the engine that
performs it.  Each executor is a plain callable
``fn(plan, **io) -> SortResult | ExternalSortReport`` registered under
the plan's strategy name, so new engines (a sharded service, a cached
backend) plug in without touching the planner or the facades.

Every stock executor drives the *existing* engine unchanged — the plan
only decides which engine runs and with what sizing — which is what
keeps the planner refactor bit-identical to the pre-planner behaviour
(the oracle property tests in ``tests/plan/`` pin this).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.plan.ir import SortPlan
from repro.types import SortResult

__all__ = [
    "ExecutorRegistry",
    "DEFAULT_REGISTRY",
    "execute_plan",
    "sort_on_tier",
]


class ExecutorRegistry:
    """Maps plan strategies onto engine-driving callables."""

    def __init__(self) -> None:
        self._executors: dict[str, Callable] = {}

    def register(self, strategy: str, fn: Callable) -> None:
        self._executors[strategy] = fn

    def executor_for(self, strategy: str) -> Callable:
        try:
            return self._executors[strategy]
        except KeyError:
            raise ConfigurationError(
                f"no executor registered for strategy {strategy!r}; "
                f"known: {', '.join(sorted(self._executors))}"
            ) from None

    def strategies(self) -> tuple[str, ...]:
        return tuple(sorted(self._executors))

    def execute(self, plan: SortPlan, **io):
        """Run a plan through its strategy's engine."""
        return self.executor_for(plan.strategy)(plan, **io)


# ----------------------------------------------------------------------
# Stock executors
# ----------------------------------------------------------------------
def _merged_config(plan: SortPlan, config):
    """Fold the descriptor's worker count into the engine config.

    The descriptor's ``workers`` is the resolved request (an explicit
    ``workers=`` kwarg, or the config's own count) and always wins —
    including an explicit ``workers=1`` overriding a threaded config.
    """
    from dataclasses import replace

    from repro.plan.planner import layout_preset

    desc = plan.descriptor
    if config is not None:
        if config.workers != desc.workers:
            return replace(config, workers=desc.workers)
        return config
    if desc.workers == 1:
        return None
    return replace(
        layout_preset(desc.key_bits, desc.value_bits), workers=desc.workers
    )


def sort_on_tier(
    tier: str,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    slice_index: int | None = None,
) -> SortResult:
    """Sort one in-memory array on an in-memory tier.

    ``tier`` is ``"native"`` or ``"hybrid"``: the choice
    :meth:`~repro.plan.planner.Planner.slice_tier` records in a plan.
    Whole-array plans and every slice of a chunked or file plan
    (``slice_index`` set) sort through here.  The native tier degrades
    *inline* to the hybrid engine when the extension is missing or a
    kernel call fails, recording the downgrade in
    ``result.meta["resilience"]``: a plan that says "native" never
    fails for tier reasons.  The tiers are byte-identical, so the
    downgrade costs speed, never the answer.  A slice's native sort is
    also the ``engine.native`` fault site (a whole-array plan trips it
    at its executor rung instead), so a fault injected there degrades
    just that slice.
    """
    from repro.core.hybrid_sort import HybridRadixSorter

    downgrade = None
    if tier == "native":
        from repro.errors import (
            NativeExecutionError,
            NativeUnavailableError,
            TransientError,
        )

        try:
            if slice_index is not None:
                from repro.resilience import faults

                faults.trip("engine.native")
            from repro.native.engine import NativeRadixEngine

            result = NativeRadixEngine(config=config).sort(keys, values)
        except (
            NativeUnavailableError, NativeExecutionError, TransientError
        ) as exc:
            downgrade = {
                "engine": "native",
                "error": f"{type(exc).__name__}: {exc}",
            }
            if slice_index is not None:
                downgrade["slice"] = slice_index
        else:
            result.meta["engine"] = "native"
            return result
    result = HybridRadixSorter(config=config, device=device).sort(keys, values)
    result.meta["engine"] = "hybrid"
    if downgrade is not None:
        from repro.native.build import native_status

        result.meta["resilience"] = {
            "requested": "native",
            "executed": "hybrid",
            "retries": 0,
            "downgrades": [downgrade],
            "native": native_status(warn=False).reason,
        }
    return result


def _execute_in_memory(
    tier: str,
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    **_: object,
) -> SortResult:
    """One whole-array sort on ``tier`` (:func:`sort_on_tier`).

    Registered once per tier rather than reading ``plan.strategy``:
    as a ladder rung, the hybrid executor also runs plans made for a
    rung above it.
    """
    result = sort_on_tier(
        tier, keys, values, _merged_config(plan, config), device
    )
    result.meta["plan"] = plan
    return result


def _execute_hetero(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    from repro.hetero.sorter import HeterogeneousSorter

    sorter = HeterogeneousSorter(
        spec=plan.descriptor.spec,
        in_place_replacement=plan.chunk_plan.in_place_replacement,
        config=_merged_config(plan, config),
    )
    outcome = sorter.run_plan(plan, keys, values)
    meta = {
        "engine": "hetero",
        "plan": plan,
        "outcome": outcome,
        "slice_tier": outcome.meta["slice_tier"],
    }
    if "resilience" in outcome.meta:
        meta["resilience"] = outcome.meta["resilience"]
    return SortResult(
        keys=outcome.keys,
        values=outcome.values,
        simulated_seconds=outcome.total_seconds,
        meta=meta,
    )


def _execute_external(
    plan: SortPlan,
    output_path=None,
    pair_packing: str = "auto",
    spool_dir=None,
    layout=None,
    **_: object,
):
    from repro.external.format import FileLayout
    from repro.external.sorter import DEFAULT_MEMORY_BUDGET, ExternalSorter

    desc = plan.descriptor
    if output_path is None:
        raise ConfigurationError(
            "executing a file plan needs an output_path"
        )
    if layout is None:
        layout = FileLayout(desc.key_dtype, desc.value_dtype)
    sorter = ExternalSorter(
        memory_budget=desc.memory_budget or DEFAULT_MEMORY_BUDGET,
        workers=desc.workers,
        pair_packing=pair_packing,
        spool_dir=spool_dir,
    )
    return sorter.execute_plan(plan, desc.path, output_path, layout)


def _execute_sharded(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    supervisor=None,
    partition: str | None = None,
    device=None,
    **_: object,
) -> SortResult:
    """The multiprocess scatter/merge backend (:mod:`repro.shard`).

    Sits above ``hybrid`` on the degradation ladder: if the worker
    pool is systematically failing, :func:`repro.resilience.degrade.
    resilient_execute` falls back to the single-process engines, which
    produce byte-identical output.
    """
    from repro.shard.router import execute_sharded_plan

    return execute_sharded_plan(
        plan,
        keys=keys,
        values=values,
        config=_merged_config(plan, config),
        supervisor=supervisor,
        partition=partition,
    )


def _execute_oracle(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    """The last rung of the degradation ladder: one NumPy sort.

    Sorts the words the engines sort, chosen by the same layout rule
    (:func:`repro.core.pairs.packing_mode`), so its output is
    byte-identical to every rung above it:

    * keys only — ``np.sort`` of the §4.6 sortable bits.  The bits are
      a bijection of the record bytes, so equal keys are identical
      records and stability cannot show;
    * fused pairs — ``np.sort`` of the key|value word, then unpack
      (equal keys order by value bits, as in the engines);
    * every other pair layout — a stable argsort of the key bits, the
      order the engines' row-index payload encodes.

    It models no device and reports no simulated time; its one job is
    to always produce the correct answer when faster rungs have failed.
    """
    from repro.core.keys import from_sortable_bits, to_sortable_bits
    from repro.core.pairs import (
        pack_key_value,
        packing_mode,
        resolve_config,
        unpack_key_value,
    )

    keys = np.asarray(keys)
    if values is not None:
        values = np.asarray(values)
    config = resolve_config(config, keys, values)
    bits = to_sortable_bits(keys)
    if values is None:
        sorted_bits, sorted_values = np.sort(bits), None
    elif packing_mode(config, bits.size, values) == "fused":
        packed = pack_key_value(bits, values, config.key_bits)
        sorted_bits, sorted_values = unpack_key_value(
            np.sort(packed), config.key_bits, values.dtype
        )
    else:
        order = np.argsort(bits, kind="stable")
        sorted_bits, sorted_values = bits[order], values[order]
    return SortResult(
        keys=from_sortable_bits(sorted_bits, keys.dtype),
        values=sorted_values,
        simulated_seconds=0.0,
        meta={"engine": "numpy-oracle", "plan": plan},
    )


#: The registry the facades use.  Extend it to plug in new engines.
DEFAULT_REGISTRY = ExecutorRegistry()
DEFAULT_REGISTRY.register("native", partial(_execute_in_memory, "native"))
DEFAULT_REGISTRY.register("hybrid", partial(_execute_in_memory, "hybrid"))
DEFAULT_REGISTRY.register("hetero", _execute_hetero)
DEFAULT_REGISTRY.register("external", _execute_external)
DEFAULT_REGISTRY.register("sharded", _execute_sharded)
DEFAULT_REGISTRY.register("oracle", _execute_oracle)


def execute_plan(plan: SortPlan, registry: ExecutorRegistry | None = None, **io):
    """Run ``plan`` through ``registry`` (the default one if omitted)."""
    return (registry or DEFAULT_REGISTRY).execute(plan, **io)
