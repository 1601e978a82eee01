#!/usr/bin/env python3
"""Write ``perfbench/reference.json``: the answers of the current code.

    python3 perfbench/make_reference.py

For each workload at full and self-test size it runs one round on the default
seed and stores what ``run.check`` compares: per-check pass counts, exit code
and fail/inconclusive counts for ``verify``; cell counts for ``ball``;
crossing-graph node and edge counts; per-request digests for the reduce
stream.  Items whose value changes on seeds 1-3 are marked seed-dependent.
Refuses to write when the code fails its own checks.
"""

from __future__ import annotations

import json
import sys

import run

OTHER_SEEDS = (1, 2, 3)


def answers(workload: str, seed: int, small: bool) -> dict:
    return {ph["name"]: run.run_phase(ph)["answer"]
            for ph in run.plan(workload, seed, small)}


def main() -> int:
    reference = {}
    for size, small in (("full", False), ("small", True)):
        refs = reference[size] = {}
        for workload in run.WORKLOADS:
            for name, answer in answers(workload, run.DEFAULT_SEED, small).items():
                shown = answer if answer is None or "requests" not in answer \
                    else {"requests": answer["requests"], "bad": answer["bad"]}
                print(f"{size} {name}: {shown}", file=sys.stderr)
                if answer is None or answer.get("bad") or answer.get("fail") \
                        or answer.get("inconclusive") or answer.get("exit"):
                    print(f"error: {name} does not pass; reference not written",
                          file=sys.stderr)
                    return 1
                if "requests" in answer:
                    refs[name] = {"digests": answer["digests"]} \
                        if "digests" in answer else {}
                else:
                    refs[name] = {"answer": answer, "seed_dependent": []}
            if any(ph["kind"] == "cli" and ph["argv"][0] == "verify"
                   for ph in run.plan(workload, 0, small)):
                for seed in OTHER_SEEDS:
                    for name, answer in answers(workload, seed, small).items():
                        ref = refs[name]
                        keys = set(ref["answer"]) | set(answer)
                        ref["seed_dependent"] = sorted(
                            set(ref["seed_dependent"])
                            | {k for k in keys if ref["answer"].get(k) != answer.get(k)})
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
