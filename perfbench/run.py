#!/usr/bin/env python3
"""cyclewall benchmark: time to verdict on four closed-loop workloads.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  One
client issues each call after the previous one returns.  Every phase of a
workload runs in a fresh interpreter (``child.py``, hash seed fixed,
address-space randomisation off, one process at a time), because the
package's process-global caches start cold for every CLI user.  A run makes
a fixed number of rounds over the phases, set by ``--seconds`` and the
workload's typical round time, never by the speed measured in the run.

Other tenants of a shared host slow a CPU by up to 2x, in bursts of seconds
to minutes, and process CPU time slows with it.  So each child also
times a fixed loop of its own every 0.3 s while it works (the speed probe,
``child.Probe``), leaves that time out of its own, and its times are scaled
by ``PROBE_REF_S`` over its median probe time: they read as seconds on a host
where the probe loop takes ``PROBE_REF_S``.  The probe does not call the
package, so a change to the package moves the scaled times as it moves the
unscaled ones.

With ``--trace 0`` the end-to-end metrics are ``setup_s`` (median scaled
set-up time over every child of the run), ``wall_s`` (time to verdict: the
sum over phases of each phase's median scaled time) and ``peak_rss_mb``
(largest per-phase median of the child's peak RSS); error rate, unscaled
times, the median probe time and the word_stream latency percentiles
(scaled) are printed beside them.
With ``--trace 1`` one untraced and one traced round give the per-layer
metrics (see ``layers.json``) and the tracing overhead.  Every answer is
checked against ``reference.json`` (default seed) or against invariants
(any seed).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PRESENTATIONS = BENCH / "presentations"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0      # reference answers are stored for this seed
HASH_SEED = "0"
RUN_LIMIT_S = 170     # a run must end within 180 s
MIN_ROUNDS = 2        # untraced rounds of a full-size run
PROBE_REF_S = 0.03    # probe loop time that scaled times refer to

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402

WORKLOADS = ("verify_all", "reconstruct", "ball_r3", "word_stream")
# about the time of one untraced round, children's set-up included, on a
# 2-vCPU Xeon (rounds take up to 1.5x longer while its neighbours are busy);
# it sets the number of rounds, --seconds // ROUND_S, and nothing else
ROUND_S = {"verify_all": 11.5, "reconstruct": 7.0, "ball_r3": 12.0,
           "word_stream": 11.0}


def _cli(name: str, presentation: str, *argv) -> dict:
    path = str(PRESENTATIONS / f"{presentation}.json")
    return {"name": name, "kind": "cli", "presentation": path,
            "argv": [str(a) for a in argv] + ["--presentation", path]}


def plan(workload: str, seed: int, small: bool = False) -> list[dict]:
    """The phases of one round; ``small`` is the self-test's size."""
    radius, depth = (1, 2) if small else (2, 3)
    if workload == "verify_all":
        return [_cli("verify_all/c5_mixed", "c5_mixed", "verify", "--suite", "all",
                     "--radius", radius, "--depth", depth, "--seed", seed)]
    if workload == "reconstruct":
        return [_cli(f"reconstruct/{name}", name, "verify", "--suite", "algebraic",
                     "--radius", radius, "--depth", depth, "--seed", seed)
                for name in ("c5_z3", "c5_mixed")]
    if workload == "ball_r3":
        # Left out at radius 3: the walls suite's hyperplane_treewall_audit
        # loops over every square for every hyperplane (342 s in one run), and
        # verify --suite davis (8-9 s) would leave room for too few repeats.
        radius = 2 if small else 3
        return [_cli("ball_r3/ball", "c6_mixed", "ball", "--radius", radius,
                     "--subdivide", "--format", "json"),
                {"name": "ball_r3/crossing", "kind": "crossing", "radius": radius,
                 "presentation": str(PRESENTATIONS / "c6_mixed.json")}]
    if workload == "word_stream":
        path = str(PRESENTATIONS / "c6_mixed.json")
        return [{"name": "word_stream/reduce", "kind": "reduce_stream",
                 "presentation": path, "seed": seed, "pair_every": 4,
                 "count": 123 if small else 2000, "lengths": [8, 48]},
                {"name": "word_stream/decompose", "kind": "decompose_stream",
                 "presentation": path, "seed": seed,
                 "count": 11 if small else 110,
                 "lengths": [2, 6] if small else [4, 14]}]
    raise ValueError(f"unknown workload {workload!r}")


# -- one phase in a fresh interpreter ---------------------------------------------


def _summarize_output(phase: dict, path: Path) -> dict:
    """Comparable items of a CLI output file."""
    with open(path) as fh:
        doc = json.load(fh)
    if phase["argv"][0] == "verify":
        items = {"fail": doc["summary"]["fail"],
                 "inconclusive": doc["summary"]["inconclusive"]}
        for check in doc["checks"]:
            if check["status"] == "pass":
                key = "pass:" + check["check"]
                items[key] = items.get(key, 0) + 1
        return items
    return {"vertices": len(doc["vertices"]), "edges": len(doc["edges"]),
            "polygons": len(doc["polygons"]), "squares": len(doc.get("squares", ())),
            "interior_vertices": sum(v["interior"] for v in doc["vertices"]),
            "interior_edges": sum(e["interior"] for e in doc["edges"])}


ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Turn off address-space randomisation in the child (Linux).

    Under Python 3.11 ``hash(None)`` is the address of ``None``, and
    ``LocalGroupSpec`` hashes its ``None`` fields, so set iteration order, and
    with it the work of early-exit loops, would change from process to process.
    The child reports whether this took effect, and ``run_phase`` rejects its
    answer when it did not.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_phase(phase: dict, trace: bool = False, run_id: str = "",
              fault: str | None = None, deadline: float | None = None) -> dict:
    """Spawn one child for ``phase``; returns its timings and answer
    (``answer`` is None when the child did not finish)."""
    OUT.mkdir(exist_ok=True)
    spec = dict(phase, trace=trace, run_id=run_id, fault=fault)
    output = None
    if phase["kind"] == "cli":
        output = OUT / (phase["name"].replace("/", "-") + f"-{os.getpid()}.json")
        spec["argv"] = phase["argv"] + ["--output", str(output)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    spec["spawned"] = spawned
    proc = subprocess.Popen([sys.executable, "-s", str(BENCH / "child.py"),
                             json.dumps(spec)], stdout=subprocess.PIPE, env=env,
                            preexec_fn=_fixed_layout)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    elapsed = time.perf_counter() - spawned
    result = {"setup_s": elapsed, "work_s": elapsed, "rss_mb": None,
              "latencies": [], "answer": None, "aslr_off": False, "probe_s": None}
    try:
        if proc.returncode == 0:
            result.update(json.loads(stdout.decode().splitlines()[-1]))
            if output is not None:
                result["answer"].update(_summarize_output(phase, output))
    except (ValueError, IndexError, OSError, KeyError) as exc:
        print(f"phase {phase['name']}: unreadable result: {exc}", file=sys.stderr)
        result["answer"] = None
    finally:
        if output is not None and output.exists():
            output.unlink()
    if proc.returncode != 0:
        print(f"phase {phase['name']}: child exited with {proc.returncode}",
              file=sys.stderr)
    elif not result["aslr_off"]:
        print(f"phase {phase['name']}: address-space randomisation is on; "
              "answer rejected", file=sys.stderr)
        result["answer"] = None
    return result


# -- checking ----------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(answer: dict | None, ref: dict, seed: int) -> tuple[int, int]:
    """(attempted, failed) operations of one phase result.

    Stream phases count requests; a request fails when an invariant misses or,
    on the default seed, when its digest differs from the reference.  Other
    phases compare each reference item; check ids absent from the reference
    are not compared, and items that vary with the seed are compared on the
    default seed only.
    """
    if answer is None:
        return 1, 1
    if "requests" in answer:
        bad = set(answer["bad"])
        if seed == DEFAULT_SEED and "digests" in ref:
            got, want = answer["digests"], ref["digests"]
            bad |= {k for k in range(max(len(got), len(want)))
                    if k >= len(got) or k >= len(want) or got[k] != want[k]}
        return max(answer["requests"], 1), len(bad)
    skip = set() if seed == DEFAULT_SEED else set(ref.get("seed_dependent", ()))
    items = {k: v for k, v in ref["answer"].items() if k not in skip}
    return len(items), sum(answer.get(k) != v for k, v in items.items())


# -- a run -----------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _round(phases, trace, run_id, fault, deadline):
    results = {}
    for ph in phases:
        r = run_phase(ph, trace, f"{run_id}-{ph['name']}", fault, deadline)
        r["scale"] = PROBE_REF_S / r["probe_s"] if r["probe_s"] else 1.0
        results[ph["name"]] = r
    return results


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds // ROUND_S[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool = False,
                 small: bool = False, fault: str | None = None,
                 reference: dict | None = None) -> dict:
    """Run one workload; returns samples, checks and metrics."""
    phases = plan(workload, seed, small)
    reference = load_reference() if reference is None else reference
    refs = reference["small" if small else "full"]
    deadline = time.perf_counter() + RUN_LIMIT_S
    run_id = f"{workload}-seed{seed}"
    rounds = 1 if trace or small else rounds_for(workload, seconds)
    samples = {ph["name"]: [] for ph in phases}
    for _ in range(rounds):
        for name, r in _round(phases, False, run_id, fault, deadline).items():
            samples[name].append(r)
    traced = _round(phases, True, run_id + "-traced", fault, deadline) if trace else {}

    attempted = failed = 0
    for name, rs in list(samples.items()) + [(n, [r]) for n, r in traced.items()]:
        for r in rs:
            a, f = check(r["answer"], refs.get(name, {"answer": {}}), seed)
            attempted += a
            failed += f

    everyone = [r for rs in samples.values() for r in rs]
    wall = sum(_median(r["work_s"] * r["scale"] for r in rs) for rs in samples.values())
    metrics = {
        "setup_s": {"value": _median(r["setup_s"] * r["scale"] for r in everyone),
                    "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": max(_median(r["rss_mb"] for r in rs)
                                     for rs in samples.values()), "unit": "MB"},
    }
    extra = {
        "error_rate": {"value": failed / max(attempted, 1), "unit": "ratio"},
        "unscaled_wall_s": {"value": sum(_median(r["work_s"] for r in rs)
                                         for rs in samples.values()), "unit": "s"},
        "unscaled_setup_s": {"value": _median(r["setup_s"] for r in everyone),
                             "unit": "s"},
        "probe_s": {"value": _median(r["probe_s"] for r in everyone), "unit": "s"},
    }
    for name, per_s, unit in (("reduce", 1e6, "us"), ("decompose", 1e3, "ms")):
        lat = [x * per_s * r["scale"]
               for r in samples.get(f"word_stream/{name}", ()) for x in r["latencies"]]
        if len(lat) >= 10:
            p90 = statistics.quantiles(lat, n=10)[8]
            extra[f"{name}_p50_{unit}"] = {"value": statistics.median(lat), "unit": unit}
            extra[f"{name}_p90_{unit}"] = {"value": p90, "unit": unit,
                                           "samples": len(lat),
                                           "beyond": sum(x > p90 for x in lat)}
    layer = {}
    spans = []
    if trace:
        spec = tracer.load_layers()
        layer = tracer.layer_metrics(spec, [r.get("trace", {}) for r in traced.values()])
        layer["trace_overhead_s"] = {
            "value": sum(r["work_s"] * r["scale"] for r in traced.values()) - wall,
            "unit": "s"}
        spans = [s for r in traced.values() for s in r.get("spans", ())]
    return {"workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": extra, "per_layer": layer, "spans": spans,
            "aslr_off": all(r["aslr_off"] for r in everyone + list(traced.values())),
            "samples": {n: [{k: r[k] for k in ("setup_s", "work_s", "rss_mb", "probe_s")}
                            for r in rs] for n, rs in samples.items()},
            "traced_work_s": {n: r["work_s"] for n, r in traced.items()}}


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "hash_seed": HASH_SEED,
            "probe_ref_s": PROBE_REF_S}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cyclewall" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: run from a cyclewall checkout: {SRC / 'cyclewall'} or "
              f"{REFERENCE} is missing", file=sys.stderr)
        return 2

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    res["environment"] = dict(environment(), aslr_disabled=res["aslr_off"])
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1)

    print("environment " + json.dumps(res["environment"]))
    shown = {**res["metrics"], **res["extra"]} if not args.trace else res["per_layer"]
    for name, m in shown.items():
        note = f" (n={m['samples']}, {m['beyond']} beyond p90)" if "samples" in m else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    metrics = res["per_layer"] if args.trace else res["metrics"]
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
