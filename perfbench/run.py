#!/usr/bin/env python3
"""otselect benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload oracle-grid --seed 0 --seconds 25 --trace 0

The workload's fixed item set is built from ``--seed`` (set-up), then run in
a closed loop, one item at a time, pass after pass, until ``--seconds`` have
passed and at least one full pass is done. Calibration blocks run between
items (``speed.py``), and each item's time is divided by the host's slowdown
around it. Every output is checked. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the run makes one untraced pass and then one pass with every
layer's public functions wrapped, and the metrics are the per-layer ones of
BENCHMARK.json, for that one pass. Earlier lines, prefixed with ``#``, record
the machine and details. Results and spans are also written under
``perfbench/out/``.

``--workload all`` runs every workload, each in its own process.
``--record-reference`` re-records ``reference.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("oracle-grid", "entropic", "lp-scale", "pipeline")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
PROBE_EVERY_S = 0.5  # the longest run of items between two calibration blocks
PROBE_SHARE = 0.1    # a block lasts this share of the time since the last one
REF_RTOL = 1e-9

# One caller, one item at a time: BLAS runs single-threaded unless the
# environment asks for more (never more than the cores this process may use),
# so no idle BLAS thread spins on the second core while the loop runs.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or 1), NPROC))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_otselect():
    """Import otselect from this checkout's ``src``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "otselect")):
        raise BenchError(f"no otselect sources under {SRC}")
    sys.path.insert(0, SRC)
    import otselect

    if not os.path.abspath(otselect.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported otselect from {otselect.__file__}, not from {SRC}")
    return otselect


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ============================================================
# Machine facts
# ============================================================


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
    }


# ============================================================
# The closed loop
# ============================================================


def _ref_problems(expected: list[float], got: list[float]) -> list[str]:
    if len(expected) != len(got):
        return [f"{len(got)} exact objectives, reference has {len(expected)}"]
    return [f"objective {g!r} differs from reference {e!r}"
            for e, g in zip(expected, got) if abs(g - e) > REF_RTOL * max(abs(e), 1e-300)]


def run_passes(workload, seconds: float, reference: dict | None = None,
               tracer=None, probe=None) -> dict:
    """Run items in order, pass after pass, until ``seconds`` and one full pass.

    With a ``SpeedProbe``, a calibration block runs before the first item,
    after any item that ends ``PROBE_EVERY_S`` or more after the last block,
    and at the end, so every item run lies between two blocks. An item
    known from an earlier run to take ``PROBE_EVERY_S`` or more also gets a
    block just before it, so both blocks around a long item are long.
    """
    items = workload.items
    spans: dict[str, list[tuple[float, float]]] = {it.id: [] for it in items}
    outs: dict[str, dict] = {}
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    cpu0 = sum(os.times()[:2])
    start = time.perf_counter()
    if probe is not None:
        probe.block()
    for i in itertools.count():
        item = items[i % len(items)]
        best = min((b - a for a, b in spans[item.id]), default=0.0)
        # After the first pass, stop once the next item would end past the
        # deadline by more than half its best time.
        if i >= len(items) and time.perf_counter() - start + 0.5 * best >= seconds:
            break
        if probe is not None and best >= PROBE_EVERY_S:
            probe.block(PROBE_SHARE * best)
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as e:  # an item that raises is a failed item; the loop goes on
            t1 = time.perf_counter()
            found = [f"raised {type(e).__name__}: {e}"]
        else:
            t1 = time.perf_counter()
            found = item.check(out)
            if reference is not None:
                found += _ref_problems(reference[item.id], item.exact(out))
            outs[item.id] = out
            if tracer is not None and "excess_pct" in out:
                tracer.excess_pct.append(out["excess_pct"])
        spans[item.id].append((t0, t1))
        attempted += 1
        if found:
            failed += 1
            problems.setdefault(item.id, found)
        if probe is not None and t1 - probe.blocks[-1][1] >= PROBE_EVERY_S:
            probe.block(PROBE_SHARE * (t1 - probe.blocks[-1][1]))
    if probe is not None:
        probe.block()
    wall = time.perf_counter() - start
    cpu = sum(os.times()[:2]) - cpu0
    for item_id, found in workload.cross_check(outs).items():
        failed += 1
        problems.setdefault(item_id, []).extend(found)
    return {"spans": spans, "outs": outs, "problems": problems,
            "attempted": attempted, "failed": min(failed, attempted), "wall": wall,
            "cpu": cpu}


def item_seconds(workload, stats: dict, probe=None) -> dict[str, float]:
    """Each item's median time over its runs; with a probe, each run is first
    divided by the machine's slowdown around it (seconds at reference speed)."""
    return {it.id: statistics.median(
                (b - a) / (probe.slowdown(a, b) if probe is not None else 1.0)
                for a, b in stats["spans"][it.id])
            for it in workload.items}


def end_to_end(per_item: dict[str, float]) -> dict[str, float]:
    """Items per second over one pass and the median item time."""
    return {
        "items_per_s": len(per_item) / sum(per_item.values()),
        "item_ms_p50": 1e3 * statistics.median(per_item.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def details(workload, stats: dict, per_item: dict[str, float], probe) -> dict:
    """Per-kind times, the p90 where a pass has >= 100 items, and the raw
    (not speed-normalized) figures beside the slowdowns the probe saw."""
    kinds: dict[str, list[float]] = {}
    for it in workload.items:
        kinds.setdefault(it.kind, []).append(per_item[it.id])
    raw = end_to_end(item_seconds(workload, stats))
    slowdowns = [kernel_s / probe.reference_s for _, _, kernel_s in probe.blocks]
    info = {"items_per_pass": len(per_item), "timed_runs": stats["attempted"],
            "wall_s": stats["wall"],
            "kind_ms_median": {k: 1e3 * statistics.median(v) for k, v in kinds.items()},
            "raw_items_per_s": raw["items_per_s"], "raw_item_ms_p50": raw["item_ms_p50"],
            "probe_blocks": len(slowdowns),
            "probe_s": sum(b[1] - b[0] for b in probe.blocks),
            "slowdown_min_median_max": [min(slowdowns), statistics.median(slowdowns),
                                        max(slowdowns)]}
    if len(per_item) >= 100:
        info["item_ms_p90"] = 1e3 * statistics.quantiles(per_item.values(), n=10)[-1]
    return info


def measure(workload, seconds: float, trace: bool, reference: dict | None, tag: str) -> dict:
    """One workload's result: correctness counts, metric values and details."""
    if not trace:
        from speed import SpeedProbe  # after set-up, whose time it must not shorten

        probe = SpeedProbe()
        stats = run_passes(workload, seconds, reference, probe=probe)
        per_item = item_seconds(workload, stats, probe)
        values = end_to_end(per_item)
        info = details(workload, stats, per_item, probe)
        probe_blocks = probe.blocks
    else:
        from tracer import LAYERS, Tracer

        plain = run_passes(workload, 0.0, reference)
        tracer = Tracer()
        tracer.install()
        try:
            stats = run_passes(workload, 0.0, reference, tracer)
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        values = tracer.layer_metrics()
        values["process.cpu_per_wall"] = plain["cpu"] / plain["wall"]
        values["trace.overhead_pct"] = 100.0 * (stats["wall"] - plain["wall"]) / plain["wall"]
        info = {"untraced_wall_s": plain["wall"], "traced_wall_s": stats["wall"],
                "self_share": {layer: values[f"{layer}.self_s"] / stats["wall"]
                               for layer in LAYERS},
                "work_computed": {k: v for k, v in values.items()
                                  if k.endswith(("cells", "gflop_computed", "mb_computed",
                                                 "points"))}}
        info["self_share"]["unwrapped"] = 1.0 - sum(info["self_share"].values())
        stats["attempted"] += plain["attempted"]
        stats["failed"] += plain["failed"]
        for item_id, found in plain["problems"].items():
            stats["problems"].setdefault(item_id, found)
        probe_blocks = None
    return {"attempted": stats["attempted"], "failed": stats["failed"],
            "problems": stats["problems"], "values": values, "info": info,
            "item_runs_s": stats["spans"], "probe_blocks_s": probe_blocks}


# ============================================================
# Set-up
# ============================================================


def setup(name: str, seed: int, tiny: bool):
    """Import otselect and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import_otselect()
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.build(name, seed, tiny)
    return wl, time.perf_counter() - t0


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def record_reference() -> int:
    """Re-record the exact objectives of every item at the default seed."""
    import workloads

    reference = {}
    for name in WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        stats = run_passes(wl, 0.0)
        if stats["problems"]:
            print(json.dumps(stats["problems"], indent=1), file=sys.stderr)
            raise BenchError(f"{name}: checks failed; no reference recorded")
        reference[name] = {it.id: [float(v) for v in it.exact(stats["outs"][it.id])]
                           for it in wl.items}
        print(f"# {name}: {len(wl.items)} items recorded", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one result line per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else proc.stderr.strip()}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the acceptance gates' instances")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print the set-up time, exit")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    try:
        if args.record_reference:
            import_otselect()
            sys.path.insert(0, HERE)
            return record_reference()
        if args.workload == "all":
            return run_all(args)
        spec = load_spec()
        wl, own_setup = setup(args.workload, args.seed, args.tiny)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        import workloads

        reference = None
        if args.seed == workloads.DEFAULT_SEED and not args.tiny:
            with open(REFERENCE, encoding="utf-8") as f:
                reference = json.load(f)[args.workload]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result = measure(wl, args.seconds, bool(args.trace), reference, tag)
        if not args.trace:
            samples = [own_setup] + [setup_in_fresh_interpreter(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
            result["values"]["setup_s"] = statistics.median(samples)
            result["info"]["setup_samples_s"] = samples
    except (BenchError, OSError, KeyError, ImportError, subprocess.SubprocessError) as e:
        print(f"benchmark cannot run: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    print("# details " + json.dumps(result["info"]))
    for item_id, found in result["problems"].items():
        print(f"# FAILED {item_id}: {'; '.join(found)}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"machine": facts, "details": result["info"],
                   "problems": result["problems"], "item_runs_s": result["item_runs_s"],
                   "probe_blocks_s": result["probe_blocks_s"],
                   **line}, f, indent=1)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
