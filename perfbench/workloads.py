"""Workload generators: seeded batches of ptlab queries.

Each workload is a fixed list of *strata*.  A stratum is a pool of queries of
one cost class (drawn once from ``POOL_SEED``) and the number of them a batch
runs; the workload seed picks that many queries from each pool and shuffles
the batch.  So every seed runs the same mix of cost classes (which keeps the
medians and tail percentiles of different seeds comparable), while the
concrete words, block shapes, files and sampler seeds change with the seed.
Because the exact pools are finite, ``reference.json`` holds the exact output
of every query any seed can draw.

A query is a JSON-able dict; ``query_key`` is its identity for the reference.
Strata are ordered by cost so that the batch median and the tail percentile
(the 11th slowest op of a batch) fall inside one stratum, not on a border.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("exact-chain", "exact-general", "mc-crosscheck")
POOL_SEED = 20051348
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: the words of criterion 5 (M = P = 8)
CRITERION5_WORDS = (
    ("I",), ("G(2,4)",), ("G(2,4)", "G(4,2)"), ("I", "T"), ("G(2,4)",) * 3,
    ("G(4,2)", "G(2,4)", "I"), ("T", "T"), ("G(8,1)", "G(1,8)"),
    ("G(2,4)", "I", "G(2,4)", "I"), ("G(4,2)",) * 4,
)

#: inner block sizes of the non-chain M = 12 alphabet, and its incomparable pairs
GENERAL_DS = (2, 3, 4, 6)
_INCOMPARABLE = {(2, 3), (3, 4), (4, 6)}


def query_key(query: dict) -> str:
    """Canonical identity of a query (its stratum tag excluded)."""
    body = {k: v for k, v in query.items() if k != "stratum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------

def _pt(rng, M: int, sides=("G", "LG")) -> str:
    d = 2 ** int(rng.integers(0, int(math.log2(M)) + 1))
    return f"{sides[int(rng.integers(len(sides)))]}({M // d},{d})"


def _pt_word(rng, M: int, m: int) -> list[str]:
    """m power-of-two partial transposes, not all of one block shape."""
    while True:
        word = [_pt(rng, M) for _ in range(m)]
        if len({w.split("(")[1] for w in word}) > 1:
            return word


def _mixed_word(rng, M: int, m: int, n_pt: int) -> list[str]:
    """n_pt distinct-shape partial transposes and m - n_pt letters from {I, T}."""
    pts = _pt_word(rng, M, n_pt) if n_pt > 1 else [_pt(rng, M) for _ in range(n_pt)]
    word = pts + [str(rng.choice(["I", "T"])) for _ in range(m - n_pt)]
    return [word[k] for k in rng.permutation(m)]


def _any_letter(rng, M: int) -> str:
    return _pt(rng, M) if rng.random() < 0.5 else str(rng.choice(["I", "T"]))


def _general_word(rng, m: int) -> list[str]:
    """m letters G(12/d, d), d in {2,3,4,6}, whose block sizes form no divisor chain."""
    while True:
        ds = [int(rng.choice(GENERAL_DS)) for _ in range(m)]
        if any((a, b) in _INCOMPARABLE for a in ds for b in ds):
            return [f"G({12 // d},{d})" for d in ds]


# ---------------------------------------------------------------------------
# pools: stratum name -> (pool builder, queries per batch)
# ---------------------------------------------------------------------------

def _chain_strata():
    def var(M):
        w = [f"G(2,{M // 2})", f"G({M // 2},2)"]
        return lambda rng: {"op": "var", "M": M, "word1": w, "word2": w}

    def cov16(rng):
        return {"op": "covariance", "M": 16, "word1": _mixed_word(rng, 16, 2, 1),
                "word2": _mixed_word(rng, 16, 2, 2)}

    def mid(rng):
        kind = int(rng.integers(3))
        if kind == 0:
            return {"op": str(rng.choice(["moment", "cumulant"])), "M": 32,
                    "word": _pt_word(rng, 32, 3)}
        if kind == 1:
            return {"op": str(rng.choice(["moment", "cumulant"])), "M": 8,
                    "word": _pt_word(rng, 8, 4)}
        M = int(rng.choice([16, 32]))
        return {"op": str(rng.choice(["moment", "cumulant"])), "M": M,
                "word": [_pt(rng, M, ("G",))] * int(rng.integers(5, 7))}

    def cov8(rng):
        m = int(rng.integers(1, 3))
        return {"op": "covariance", "M": 8, "word1": _mixed_word(rng, 8, m, 1),
                "word2": _mixed_word(rng, 8, 4 - m, 2)}

    def cum2(rng):
        return {"op": "cumulant", "M": 16, "word": _pt_word(rng, 16, 2)}

    def mom2(rng):
        M = int(rng.choice([8, 16, 32]))
        d = _pt(rng, M).split("(")[1]
        return {"op": "moment", "M": M, "word": [f"{side}({d}" for side in
                                                 rng.choice(["G", "LG"], size=2)]}

    # cost order: var32 > var16 ~ cov16 (the tail) > mid > var8 > cov8
    # (the median) > cum2 > mom2 (one block shape: the closed-form path).
    # The median is an m + r = 4 covariance at M = 8 (pairings and a 4096-point
    # enumeration, about 6 ms), not a sub-ms query: on a shared 2-core VM the
    # sub-ms queries, which are all interpreter overhead, varied from run to
    # run about 2.5 times as much (IQR/median 0.19 against 0.07, five runs).
    return {
        "var32": (var(32), 1, 1), "var16": (var(16), 1, 1),
        "cov16": (cov16, 32, 16),
        "mid": (mid, 16, 8),
        "var8": (var(8), 1, 1),
        "cov8": (cov8, 48, 30),
        "cum2": (cum2, 64, 20),
        "mom2": (mom2, 48, 20),
    }


def _general_strata():
    def word_query(cmd, m, extra=()):
        return lambda rng: {"argv": [cmd, "--M", "12", "--word",
                                     ",".join(_general_word(rng, m)), *extra]}

    def cov(m, r):
        def build(rng):
            word = _general_word(rng, m + r)  # non-chain across both traces
            return {"argv": ["covariance", "--M", "12", "--word1", ",".join(word[:m]),
                             "--word2", ",".join(word[m:])]}
        return build

    def limit(orders, shapes=("2", "3", "4", "5")):
        def build(rng):
            b, d = (str(rng.choice(shapes)) for _ in range(2))
            c = str(rng.choice(["1", "2/3", "5/2"]))
            return {"argv": ["limit", "--b", b, "--d", d, "--c", c,
                             "--orders", str(rng.choice(orders))]}
        return build

    def count(M):
        def build(rng):
            a, b = _pt(rng, M, ("G",)), _pt(rng, M)
            return {"argv": ["count", "--M", str(M), "--a", a, "--b", b, "--all"]}
        return build

    def verdict(rng, probe=True):
        fams = ["G(N,N)", "LG(N,N)", "G(N^2,1)", "G(2,M/2)", "LG(N^2,1)", "G(1,N^2)"]
        # every family but G(2,M/2) pins M = N^2, so any three resolve
        pick = [fams[k] for k in rng.choice(len(fams), size=3, replace=False)]
        return {"argv": ["verdict", "--family", ";".join(pick), "--grid", "N=2,4,8,16",
                         *(["--probe"] if probe else [])]}

    def light(rng):
        kind = int(rng.integers(7))
        if kind < 4:
            theta = f"D(@{int(rng.integers(4))})" if kind == 3 else None
            word = _general_word(rng, int(rng.integers(2, 4)))
            if theta:
                word[0] = theta
            return {"argv": [str(rng.choice(["moment", "cumulant"])), "--M", "12",
                             "--word", ",".join(word)]}
        if kind == 4:
            return cov(1, 1)(rng)
        if kind == 5:
            return cov(1, 2)(rng)
        return {"argv": ["covariance", "--M", "12", "--word1", f"D(@{int(rng.integers(4))})",
                         "--word2", ",".join(_general_word(rng, 2))]}

    def tiny(rng):
        kind = int(rng.integers(3))
        if kind == 0:
            d = int(rng.choice(GENERAL_DS))
            return {"argv": [str(rng.choice(["moment", "cumulant"])), "--M", "12",
                             "--word", f"G({12 // d},{d})"]}
        if kind == 1:
            return limit(["2", "3", "4"], ("2", "3", "inf"))(rng)
        return verdict(rng, probe=False)

    # cost order: lim9 > lim8 > count at M = 256 (above the tail) > the
    # m = 4 enumerations (the tail, the 11th slowest op of a batch) > count
    # at M = 128, probe (verdict --probe) > light (the median) > tiny; the cheap
    # strata are dominated by argument parsing, WickWord set-up and JSON
    # emission.  The pure-Python limit recursion takes under a third of a
    # batch: its speed varies between runs more than the numpy enumerations'.
    return {
        "lim9": (limit(["9"]), 6, 1),
        "lim8": (limit(["8"]), 16, 3),
        "count256": (count(256), 8, 2),
        "cum4": (word_query("cumulant", 4), 16, 8),
        "mb4": (word_query("moment", 4, ("--breakdown",)), 16, 8),
        "cov22": (cov(2, 2), 16, 8),
        "count128": (count(128), 8, 2),
        "probe": (verdict, 8, 2),
        "light": (light, 64, 30),
        "tiny": (tiny, 48, 34),
    }


def _mc_strata():
    def seed(rng):
        return int(rng.integers(1, 2**31))

    def probe(rng):
        return {"op": "probe", "Ms": [8, 16, 32, 64], "samples": 300, "seed": seed(rng)}

    def big(rng):
        return {"op": "moments", "M": 64, "words": [[_pt(rng, 64), _any_letter(rng, 64)]],
                "samples": 100, "seed": seed(rng)}

    def crit5(rng):
        return {"op": "moments", "M": 8, "words": [list(w) for w in CRITERION5_WORDS],
                "samples": 200, "seed": seed(rng)}

    def cum3(rng):
        M = int(rng.choice([8, 16]))
        return {"op": "cumulant", "M": M, "words": [_mixed_word(rng, M, 3, 2)],
                "samples": 150, "seed": seed(rng)}

    def cov(rng):
        M = int(rng.choice([8, 16]))
        return {"op": "covariance", "M": M, "word1": _mixed_word(rng, M, 2, 1),
                "word2": [_pt(rng, M)], "samples": 150, "seed": seed(rng)}

    # cost order: probe > big, M = 64 (the tail) > crit5, M = 8 (the median)
    # > cum3, cov
    return {
        "probe": (probe, 1, 2),
        "big": (big, 1, 16),
        "crit5": (crit5, 1, 30),
        "cum3": (cum3, 1, 8),
        "cov": (cov, 1, 8),
    }


STRATA = {"exact-chain": _chain_strata, "exact-general": _general_strata,
          "mc-crosscheck": _mc_strata}


def pool(workload: str) -> dict[str, list[dict]]:
    """Every query the workload can draw, per stratum (independent of the seed)."""
    rng = np.random.default_rng(POOL_SEED)
    out = {}
    for name, (build, size, _) in STRATA[workload]().items():
        out[name] = [build(rng) for _ in range(size)]
    return out


def generate(workload: str, seed: int) -> list[dict]:
    """The batch of the workload for ``seed``: a shuffled list of queries.

    Exact workloads draw from the fixed pools.  Monte Carlo queries also get
    their sampler seeds from ``seed``, so their outputs are new for every seed.
    """
    if workload not in STRATA:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pools = None if workload == "mc-crosscheck" else pool(workload)
    batch = []
    for name, (build, _, per_batch) in STRATA[workload]().items():
        if pools is None:
            batch += [dict(build(rng), stratum=name) for _ in range(per_batch)]
        else:
            candidates = pools[name]
            picks = rng.choice(len(candidates), size=per_batch, replace=len(candidates) < per_batch)
            batch += [dict(candidates[k], stratum=name) for k in picks]
    return [batch[k] for k in rng.permutation(len(batch))]


def theta_files() -> list[list[int]]:
    """The four point permutations of [12] behind the ``D(@k)`` letters."""
    rng = np.random.default_rng([POOL_SEED, 12])
    return [(rng.permutation(12) + 1).tolist() for _ in range(4)]
