#!/usr/bin/env python3
"""Sort-rate benchmark of the ``repro`` library through its public facades.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Each workload (``bulk``, ``small``, ``service``, ``out-of-core``) is a
closed loop in one process over inputs made from ``--seed``; every
output is checked byte for byte against the oracle in ``inputs.py``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
loop untraced for half the time and traced for the other half, and
prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object.  ``--report FILE`` also writes
the full report (host state, sample counts, per-case figures);
``compare.py`` compares two of them.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from inputs import (  # noqa: E402
    log_uniform_sizes,
    make_file_item,
    make_item,
    read_output,
    run_baseline,
    same_bytes,
)
from tracing import Tracer, per_layer_metrics  # noqa: E402

WORKLOADS = ("bulk", "small", "service", "out-of-core")
#: The one process runs 4 client coroutines; the service gets at most
#: 2 executor threads, and with the event loop's own thread no more
#: threads than the host has CPUs (1 on a 2-CPU host): more measure the
#: scheduler, not the service.
CLIENTS = 4
EXECUTOR_THREADS = max(1, min(2, (os.cpu_count() or 1) - 1))
SETUP_REPEATS = 5
#: How an item's repeats in a run make its latency.  Shared hosts change
#: speed in phases.  ``small`` and ``service`` ops take milliseconds and
#: repeat 20 to 40 times a run, so each has repeats in the fast phases
#: however much of the run the slow ones cover: the best repeat.
#: ``bulk`` and ``out-of-core`` ops take 0.1 to 1.4 s and repeat 3 to
#: 11 times, so their best is the extreme of a few samples and moves
#: more from run to run than their mean, which is what a run took.
ITEM_LATENCY = {
    "bulk": statistics.fmean,
    "small": min,
    "service": min,
    "out-of-core": statistics.fmean,
}
#: The ``np.sort`` baselines run on every second pass: on ``bulk`` they
#: take as long as the program, and the passes they free give each
#: item more repeats.
BASELINE_EVERY = 2
SERVICE_MEMORY_PASSES = 15
WARM_N = 1 << 16
#: Ops whose wrong output is a recorded defect: they are still run,
#: checked and counted in ``failed``; any other mismatch makes the run
#: incorrect.  ROADMAP open item 1: the in-memory ``hetero`` merge
#: compares raw float values, not sortable bits.
KNOWN_FAILURES = {("out-of-core", "budget-float32")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_mkeys_s": "Mkeys/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MiB",
    "vs_numpy_geomean": "ratio",
    "vs_numpy_worst": "ratio",
}
#: ``failed_frac`` is 0 on most workloads, so it is reported through
#: ``attempted``/``failed`` and the table, not as a bounded metric.
UNBOUNDED = ("failed_frac",)


# ----------------------------------------------------------------------
# Workload definitions: (case, op kind, key kind, pairs, n)
# ----------------------------------------------------------------------

BULK_N = 1 << 22
BULK = (
    ("uint32-uniform", "keys", "uint32", False),
    ("uint32-and4", "keys", "uint32-and4", False),
    ("uint64-zipf", "keys", "uint64-zipf", False),
    ("float32-specials", "keys", "float32", False),
    ("pairs-uint32", "pairs", "uint32", True),
    ("pairs-uint64", "pairs", "uint64", True),
)
SMALL_KINDS = (("uint32", False), ("uint64", False), ("float32", False), ("uint32", True))
SMALL_PER_OCTAVE = 4  # per kind
SERVICE_KINDS = (
    ("uint32", False), ("float32", False), ("uint32", True),
    ("uint32", False), ("float32", False), ("float32", True),
)
SERVICE_PER_OCTAVE = 2  # per kind entry
OUT_OF_CORE = (
    ("file-uint32", "file", "uint32", False, 1 << 23),
    ("file-float32", "file", "float32", False, 1 << 23),
    ("file-pairs-uint64", "file", "uint64", True, 1 << 22),
    ("budget-uint32", "budget", "uint32", False, 1 << 20),
    ("budget-float32", "budget", "float32", False, 1 << 20),
)


def workload_specs(workload):
    """The workload's operations, in the order one pass issues them."""
    if workload == "bulk":
        return [(c, op, k, p, BULK_N) for c, op, k, p in BULK]
    if workload == "small":
        return [
            (f"2^{e}", "pairs" if p else "keys", k, p, n)
            for (e, n) in log_uniform_sizes(10, 18, SMALL_PER_OCTAVE)
            for (k, p) in SMALL_KINDS
        ]
    if workload == "service":
        specs = [
            (f"{'pairs-' if p else ''}{k}", "pairs" if p else "keys", k, p, n)
            for (_, n) in log_uniform_sizes(9, 18, SERVICE_PER_OCTAVE)
            for (k, p) in SERVICE_KINDS
        ]
        # A fixed interleaving: the seed changes the data, not which
        # requests overlap.
        order = np.random.default_rng(0).permutation(len(specs))
        return [specs[i] for i in order]
    if workload == "out-of-core":
        return list(OUT_OF_CORE)
    raise ValueError(workload)


def build_items(specs, rng, workdir, n_cap=None):
    items = []
    for case, op, key_kind, pairs, n in specs:
        n = min(n, n_cap) if n_cap else n
        if op == "file":
            items.append(make_file_item(rng, case, key_kind, n, workdir, pairs))
            continue
        item = make_item(rng, case, key_kind, n, pairs)
        if op == "budget":
            item.kind = "budget"
            item.memory_budget = item.keys.nbytes // 4
        items.append(item)
    return items


def warm_specs(specs):
    """One spec per distinct way of issuing an op, for the warm-up."""
    seen, out = set(), []
    for spec in specs:
        key = spec[1:4]
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


# ----------------------------------------------------------------------
# Environment and set-up
# ----------------------------------------------------------------------


def pin_environment() -> None:
    """Keep every file the run touches inside the checkout."""
    for sub in ("native", "tmp", "data"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    profile = WORK / "absent-host-profile.json"
    if profile.exists():
        profile.unlink()
    os.environ["REPRO_HOST_PROFILE"] = str(profile)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None


def import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


async def issue(repro, service, item):
    if service is not None:
        return await service.submit(item.keys, item.values, workers=1)
    if item.kind == "keys":
        return repro.sort(item.keys, workers=1)
    if item.kind == "pairs":
        return repro.sort_pairs(item.keys, item.values, workers=1)
    if item.kind == "budget":
        return repro.sort(item.keys, memory_budget=item.memory_budget, workers=1)
    return repro.sort(
        item.path,
        output=item.output,
        dtype=item.dtype,
        value_dtype=item.value_dtype,
        memory_budget=item.memory_budget,
        workers=1,
    )


def check(item, result) -> bool:
    if item.kind == "file":
        ok = same_bytes(read_output(item), item.expected_keys)
        os.remove(item.output)
        return ok
    return same_bytes(result.keys, item.expected_keys) and same_bytes(
        result.values, item.expected_values
    )


async def set_up(workload, warm_items):
    """Import, native probe, profile lookup, service start, warm-up ops."""
    repro = import_program()
    native = repro.native_status(warn=False)
    from repro.cost import load_host_profile

    profile = load_host_profile()
    service = None
    if workload == "service":
        service = repro.SortService(executor_threads=EXECUTOR_THREADS)
        await service.start()
    for item in warm_items:
        await issue(repro, service, item)
        if item.kind == "file":
            os.remove(item.output)
    return repro, service, native, profile


async def setup_probe(workload, seed) -> float:
    """One timed set-up in this (fresh) process; inputs made untimed."""
    rng = np.random.default_rng([seed, 1])
    workdir = WORK / "data" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm = build_items(warm_specs(workload_specs(workload)), rng, workdir, WARM_N)
        t0 = time.perf_counter()
        _, service, _, _ = await set_up(workload, warm)
        elapsed = time.perf_counter() - t0
        if service is not None:
            await service.close()
        return elapsed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed) -> list[float]:
    """Set-up seconds from fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def host_state(native, profile, seed) -> dict:
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        lscpu = []
    fields = {}
    for line in lscpu:
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            fields[key.strip()] = value.strip()
    return {
        "native": {"available": native.available, "reason": native.reason},
        "profile": getattr(profile, "fingerprint", None) if profile else None,
        "nproc": os.cpu_count(),
        "cpu_model": fields.get("Model name", platform.processor()),
        "caches": {k: v for k, v in fields.items() if "cache" in k},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Timed loops
# ----------------------------------------------------------------------


class Sample(NamedTuple):
    item: object
    pass_no: int
    latency: float  # seconds
    ok: bool


class Run:
    """One loop's samples, one per op; ``concurrency`` is the number of
    callers with an op in flight at once."""

    def __init__(self, concurrency: int = 1) -> None:
        self.concurrency = concurrency
        self.samples: list[Sample] = []
        #: ``(item, pass, seconds)`` of each ``np.sort`` baseline.
        self.baselines: list[tuple] = []
        self.errors: list[str] = []
        self.service_stats: dict | None = None
        self.peak_mib: float | None = None

    def per_item(self, statistic) -> list[tuple]:
        """(item, latency, share of its ops correct) per item; the
        latency is ``statistic`` (``ITEM_LATENCY``) of the item's
        latencies over the run's passes."""
        grouped: dict[int, list] = {}
        for s in self.samples:
            entry = grouped.setdefault(id(s.item), [s.item, [], []])
            entry[1].append(s.latency)
            entry[2].append(s.ok)
        return [
            (item, statistic(dts), statistics.fmean(oks))
            for item, dts, oks in grouped.values()
        ]

    def rates(self, statistic) -> tuple[float, float]:
        """(correct keys/s, ops/s) of a pass at each item's latency.

        A pass takes the sum of its per-item latencies over the callers
        that keep an op in flight (Little's law; the service's
        closed-loop clients overlap, one caller does not).
        """
        per_item = self.per_item(statistic)
        busy = sum(m for _, m, _ in per_item) / self.concurrency
        keys = sum(item.n * ok for item, _, ok in per_item)
        return keys / busy, len(per_item) / busy

    def numpy_ratios(self) -> dict[str, float]:
        """Per case, ``np.sort`` time over ``repro`` time.

        A baseline runs right after its op (the service's right after
        the pass), so one pass's ratio compares the two at the same
        host speed; the case's ratio is the median over baseline passes.
        """
        mine = {(id(s.item), s.pass_no): s.latency for s in self.samples}
        sums: dict[str, dict[int, list[float]]] = {}
        for item, pass_no, seconds in self.baselines:
            pair = sums.setdefault(item.case, {}).setdefault(pass_no, [0.0, 0.0])
            pair[0] += seconds
            pair[1] += mine[(id(item), pass_no)]
        return {
            case: statistics.median(b / m for b, m in passes.values())
            for case, passes in sums.items()
        }


async def timed_op(repro, service, item, run, pass_no, probe=None) -> None:
    """Issue, time and check one op.  ``probe.start(item)`` runs just
    before it and ``probe.stop(item, result, dt)`` as soon as it
    returns, before the check."""
    if probe is not None:
        probe.start(item)
    t0 = time.perf_counter()
    try:
        result = await issue(repro, service, item)
        dt = time.perf_counter() - t0
        if probe is not None:
            probe.stop(item, result, dt)
        ok = check(item, result)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        dt = time.perf_counter() - t0
        ok = False
        run.errors.append(f"{item.case}: {type(exc).__name__}: {exc}")
    run.samples.append(Sample(item, pass_no, dt, ok))


def baseline(item, run, pass_no) -> None:
    ok, seconds = run_baseline(item)
    if not ok:
        run.errors.append(f"{item.case}: baseline mismatch")
    run.baselines.append((item, pass_no, seconds))


async def library_loop(repro, items, seconds, probe=None) -> Run:
    """One caller; on baseline passes each op is followed by its
    ``np.sort`` baseline."""
    run = Run()
    start = time.perf_counter()
    for pass_no in itertools.count():
        for item in items:
            await timed_op(repro, None, item, run, pass_no, probe)
            if pass_no % BASELINE_EVERY == 0:
                baseline(item, run, pass_no)
        if time.perf_counter() - start >= seconds:
            return run


async def service_pass(repro, service, items, run, pass_no, probe=None) -> None:
    """``CLIENTS`` closed-loop coroutines share one pass over the items.

    Client ``c`` issues ``items[c::CLIENTS]`` in order, so which
    requests each client sends, and after which, does not hang on
    timing.
    """

    async def client(c):
        for item in items[c::CLIENTS]:
            await timed_op(repro, service, item, run, pass_no, probe)

    await asyncio.gather(*(client(c) for c in range(CLIENTS)))


async def service_loop(repro, service, items, seconds, probe=None) -> Run:
    """Passes of :func:`service_pass`; after each baseline pass the
    ``np.sort`` baselines run."""
    run = Run(CLIENTS)
    start = time.perf_counter()
    for pass_no in itertools.count():
        await service_pass(repro, service, items, run, pass_no, probe)
        if pass_no % BASELINE_EVERY == 0:
            for item in items:
                baseline(item, run, pass_no)
        if time.perf_counter() - start >= seconds:
            return run


# ----------------------------------------------------------------------
# Memory: what the program adds, not what the benchmark holds
# ----------------------------------------------------------------------

_LIBC = ctypes.CDLL(None)


def _status_mib(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"perfbench: no {field} in /proc/self/status")


def reset_high_water() -> float:
    """Hand freed heap back to the kernel, reset the process's resident
    high-water mark to its resident set, and return that in MiB."""
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_mib("VmRSS")


class MemoryProbe:
    """Per op: the high-water mark it reached minus the resident set
    when it began, i.e. the memory the program added for it."""

    def __init__(self) -> None:
        self.base = 0.0
        self.peak = 0.0

    def start(self, item) -> None:
        self.base = reset_high_water()

    def stop(self, item, result, dt) -> None:
        self.peak = max(self.peak, _status_mib("VmHWM") - self.base)


async def memory_pass(repro, service, items) -> Run:
    """An untimed pass after the timed loop, so trimming the heap before
    each op does not perturb the timings.  The service's clients
    overlap, so there a whole pass is one measurement, and which
    requests overlap varies: the most of ``SERVICE_MEMORY_PASSES``,
    which about every run reaches (the median of a few did not)."""
    if service is None:
        run, probe = Run(), MemoryProbe()
        for item in items:
            await timed_op(repro, None, item, run, 0, probe)
        run.peak_mib = probe.peak
        return run
    run, peaks = Run(CLIENTS), []
    for pass_no in range(SERVICE_MEMORY_PASSES):
        base = reset_high_water()
        await service_pass(repro, service, items, run, pass_no)
        peaks.append(_status_mib("VmHWM") - base)
    run.peak_mib = max(peaks)
    return run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def tail_latency(latencies):
    """Highest percentile (0.1 steps) with at least 10 samples beyond
    it.  Below 30 samples that percentile would be p66 or lower, which
    is no tail: the maximum instead."""
    n = len(latencies)
    if n < 30:
        return 100.0, max(latencies)
    pct = math.floor(1000 * (1 - 10 / n)) / 10
    return pct, float(np.percentile(latencies, pct))


def end_to_end(run, setup_samples, statistic):
    """The nine end-to-end metrics and the counts behind them.

    Every item runs once per pass.  The timings are taken over the
    items' latencies (:meth:`Run.per_item` with ``statistic``), and the
    ``np.sort`` ratios pass by pass (:meth:`Run.numpy_ratios`).  The
    tail over every op's own latency, which the host's slow phases
    set, is reported beside them.
    """
    per_item = run.per_item(statistic)
    typical = [m for _, m, _ in per_item]
    latencies = [s.latency for s in run.samples]
    keys_per_s, ops_per_s = run.rates(statistic)
    by_case: dict[str, float] = {}
    for item, mine, _ in per_item:
        by_case[item.case] = by_case.get(item.case, 0.0) + mine
    ratios = run.numpy_ratios()
    tail_pct, tail = tail_latency(typical)
    raw_pct, raw_tail = tail_latency(latencies)
    failed = sum(1 for s in run.samples if not s.ok)
    values = {
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "throughput_mkeys_s": keys_per_s / 1e6,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "failed_frac": failed / len(run.samples),
        "peak_rss_mb": run.peak_mib,
        "vs_numpy_geomean": math.exp(
            statistics.fmean(math.log(r) for r in ratios.values())
        ),
        "vs_numpy_worst": min(ratios.values()),
    }
    detail = {
        "ops": len(run.samples),
        "items": len(per_item),
        "failed": failed,
        "passes": len(run.samples) // len(per_item),
        "item_latency": statistic.__name__,
        "tail_percentile": tail_pct,
        "tail_items_beyond": sum(1 for x in typical if x > tail),
        "raw_tail_ms": raw_tail * 1e3,
        "raw_tail_percentile": raw_pct,
        "raw_tail_ops_beyond": sum(1 for x in latencies if x > raw_tail),
        "setup_samples_s": setup_samples,
        "vs_numpy_by_case": ratios,
        "case_latency_ms": {c: m * 1e3 for c, m in by_case.items()},
        "failed_cases": sorted({s.item.case for s in run.samples if not s.ok}),
    }
    return values, detail


def _io_bytes() -> int:
    """Bytes this process has passed through read and write calls."""
    counters = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            counters[key] = int(value)
    return counters["rchar"] + counters["wchar"]


class Observer:
    """What the benchmark reads off each op during the traced run."""

    def __init__(self) -> None:
        self._io_start: dict[int, tuple[int, int]] = {}
        # Reading the counters is itself a read, and the service's
        # overlapping requests see each other's: count them and leave
        # them out.
        first = _io_bytes()
        self._io_read = _io_bytes() - first
        self._io_reads = 0
        self.data = {
            "prediction_ratios": [],
            "downgrades": 0,
            "keys": 0,
            "external": {"jobs": 0, "runs": 0, "input_bytes": 0, "io_bytes": 0},
        }

    def _read_io(self) -> tuple[int, int]:
        """(counter reads made before this one, bytes so far)."""
        self._io_reads += 1
        return self._io_reads - 1, _io_bytes()

    def start(self, item) -> None:
        self._io_start[id(item)] = self._read_io()

    def stop(self, item, result, dt) -> None:
        reads, now = self._read_io()
        reads_before, then = self._io_start.pop(id(item))
        io_bytes = now - then - (reads - reads_before) * self._io_read
        self.data["keys"] += item.n
        meta = getattr(result, "meta", {})
        plan = getattr(result, "plan", None) or meta.get("plan")
        if plan is not None and dt > 0:
            self.data["prediction_ratios"].append(plan.predicted_seconds / dt)
        self.data["downgrades"] += len(
            meta.get("resilience", {}).get("downgrades", ())
        )
        ext = self.data["external"]
        ext["io_bytes"] += io_bytes
        if item.kind == "file":
            ext["input_bytes"] += os.path.getsize(item.path)
        else:
            ext["input_bytes"] += item.keys.nbytes + (
                0 if item.values is None else item.values.nbytes
            )
        if hasattr(result, "n_runs"):
            ext["jobs"] += 1
            ext["runs"] += result.n_runs


def _stats_snapshot(service) -> dict:
    if service is None:
        return {}
    return {
        k: v for k, v in service.stats.to_dict().items()
        if isinstance(v, (int, float))
    }


async def run_workload(args, items, warm_items):
    """Set up, then the timed loop; with tracing, an untraced half first.

    Returns every loop's run (the measured, untraced one first), the
    traced-run extras (or None), the native status and the host profile.
    """
    repro, service, native, profile = await set_up(args.workload, warm_items)

    def loop(seconds, probe=None):
        if service is not None:
            return service_loop(repro, service, items, seconds, probe)
        return library_loop(repro, items, seconds, probe)

    try:
        extras = None
        if not args.trace:
            run = await loop(args.seconds)
            memory = await memory_pass(repro, service, items)
            run.peak_mib = memory.peak_mib
            runs = [run, memory]
        else:
            plain = await loop(args.seconds / 2)
            tracer, observer = Tracer(), Observer()
            before = _stats_snapshot(service)
            tracer.install()
            try:
                traced = await loop(args.seconds / 2, observer)
            finally:
                tracer.uninstall()
            after = _stats_snapshot(service)
            delta = {k: after[k] - before.get(k, 0) for k in after}
            extras = (tracer, observer, delta)
            runs = [plain, traced]
        if service is not None:
            runs[0].service_stats = service.stats.to_dict()
        return runs, extras, native, profile
    finally:
        if service is not None:
            await service.close()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.setup_probe:
        elapsed = asyncio.run(setup_probe(args.workload, args.seed))
        print(json.dumps({"setup_s": elapsed}))
        return 0
    import_program()  # fail before any work when the source is missing
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = WORK / "data" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        items = build_items(workload_specs(args.workload), rng, workdir)
        warm_rng = np.random.default_rng([args.seed, 1])
        warm_dir = workdir / "warm"
        warm_dir.mkdir()
        specs = warm_specs(workload_specs(args.workload))
        warm = build_items(specs, warm_rng, warm_dir, WARM_N)
        runs, traced, native, profile = asyncio.run(run_workload(args, items, warm))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, runs, traced, setup_samples, native, profile)


def report(args, runs, traced, setup_samples, native, profile) -> int:
    """Print the table and the last-line JSON; write ``--report``.

    The end-to-end figures come from the first, untraced run; with
    tracing, the last line carries the per-layer metrics instead.
    Every run's ops count in ``attempted`` and ``failed``.
    """
    statistic = ITEM_LATENCY[args.workload]
    values, detail = end_to_end(runs[0], setup_samples, statistic)
    attempted = sum(len(r.samples) for r in runs)
    failed_cases = {
        s.item.case for r in runs for s in r.samples if not s.ok
    }
    errors = [e for r in runs for e in r.errors]
    unexpected = {c for c in failed_cases if (args.workload, c) not in KNOWN_FAILURES}
    baseline_wrong = any("baseline mismatch" in e for e in errors)
    correct = not unexpected and not baseline_wrong
    full = {
        "workload": args.workload,
        "seconds": args.seconds,
        "host": host_state(native, profile, args.seed),
        "load": {
            "processes": 1,
            "clients": CLIENTS if args.workload == "service" else 1,
            "loop": "closed",
            "executor_threads": EXECUTOR_THREADS if args.workload == "service" else None,
            "workers": 1,
            "shards": None,
        },
        "end_to_end": {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
        },
        "detail": detail,
        "service_stats": runs[0].service_stats,
        "known_failures": sorted(c for w, c in KNOWN_FAILURES if w == args.workload),
        "errors": errors[:20],
        "samples": [
            [s.item.case, s.item.n, s.pass_no, s.latency, s.ok]
            for s in runs[0].samples
        ],
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"native {'on' if native.available else 'off'} ({native.reason})")
    if traced is None:
        for name, value in values.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<20} {shown:>12} {END_TO_END_UNITS[name]}")
        print(f"  ops {detail['ops']} ({detail['items']} items x "
              f"{detail['passes']} passes), failed {detail['failed']} "
              f"{detail['failed_cases']}; an item's latency is the "
              f"{detail['item_latency']} of its {detail['passes']}, tail = "
              f"p{detail['tail_percentile']:g} of {detail['items']} item "
              f"latencies ({detail['tail_items_beyond']} beyond)")
        print(f"  tail over every op's latency: {detail['raw_tail_ms']:.6g} ms "
              f"= p{detail['raw_tail_percentile']:g} of {detail['ops']} ops "
              f"({detail['raw_tail_ops_beyond']} beyond)")
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items() if k not in UNBOUNDED
        }
    else:
        tracer, observer, delta = traced
        base = runs[0].rates(statistic)[0]
        overhead = (base - runs[1].rates(statistic)[0]) / base
        metrics, shares = per_layer_metrics(
            tracer, observer.data, len(runs[1].samples), delta, overhead
        )
        full["per_layer"] = metrics
        full["self_time_share"] = shares
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        full["spans"] = {"count": len(tracer.spans), "path": str(spans_path)}
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  self-time share {name:<20} {share:7.2%}")
        print(f"  tracing overhead {overhead:+.2%} of untraced throughput, "
              f"{len(tracer.spans)} spans written to {spans_path}")
    if args.report:
        Path(args.report).write_text(json.dumps(full, indent=2, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(1 for r in runs for s in r.samples if not s.ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
