"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py      # from the checkout root; a few minutes

Writes ``perfbench/reference.json``:

* ``exact-chain.outputs`` / ``exact-general.outputs``: the exact output of every
  query in the workload pools (so every seed is checked), keyed by
  ``workloads.query_key``.  CLI outputs are stored as the SHA-256 of their
  canonical JSON plus the ``exact`` value where there is one.
* ``mc-crosscheck.var_tr``: exact Var(Tr) of G(2,M/2) G(M/2,2) at the probe's
  grid points, from ``wick.exact_trace_covariance`` (M = 64 takes about 30 s).
* ``mc-crosscheck.seeds``: the Monte Carlo outputs (``float.hex``) of the
  default and the held-out seed, which later runs must reproduce bit for bit.

Run it only at a commit whose outputs are known to be right: the benchmark
treats these values as ground truth.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy loads

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402
import ptlab.wick as wick  # noqa: E402
import workloads  # noqa: E402


def outputs_of(workload: str, queries: list[dict]) -> list:
    return [call() for call in ops.prepare(workload, queries, str(HERE / "out"))]


def main() -> int:
    ref: dict = {}
    for workload in ("exact-chain", "exact-general"):
        queries = [q for pool in workloads.pool(workload).values() for q in pool]
        outs = outputs_of(workload, queries)
        if workload == "exact-chain":
            table = {workloads.query_key(q): out for q, out in zip(queries, outs)}
        else:
            table = {workloads.query_key(q): {"sha256": ops.cli_digest(out),
                                              **({"exact": out["exact"]} if "exact" in out else {})}
                     for q, out in zip(queries, outs)}
        ref[workload] = {"outputs": table}
        print(f"{workload}: {len(table)} pool queries", flush=True)

    var_tr = {}
    for M in (8, 16, 32, 64):
        w = ops.make_word([f"G(2,{M // 2})", f"G({M // 2},2)"], M)
        var_tr[str(M)] = str(wick.exact_trace_covariance(w, w))
    seeds = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        queries = workloads.generate("mc-crosscheck", seed)
        outs = outputs_of("mc-crosscheck", queries)
        seeds[str(seed)] = {workloads.query_key(q): out for q, out in zip(queries, outs)}
    ref["mc-crosscheck"] = {"var_tr": var_tr, "seeds": seeds}
    print(f"mc-crosscheck: Var(Tr) {var_tr}, seeds {sorted(seeds)}")

    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
