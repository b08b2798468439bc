"""Turn generated queries into timed ptlab calls, and check their outputs.

``prepare`` is the set-up: it parses letters into permutations, builds the
``WickWord``s (which runs ``is_symmetric``), writes the ``D(file)`` files and
returns one zero-argument callable per query.  Each callable returns the
query's output in canonical form: ``str(Fraction)`` for exact values, the
parsed JSON payload for CLI calls and ``float.hex`` strings for Monte Carlo
estimates, so that outputs compare bit for bit.  Calls go through the module
attributes (``wick.exact_mixed_moment`` and so on) so that the tracer's
patches apply.

``check`` runs after the timed region and returns, per output, ``None`` or the
reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
from fractions import Fraction

import ptlab.cli as cli
import ptlab.montecarlo as montecarlo
import ptlab.partitions as pts
import ptlab.perms as pm
import ptlab.wick as wick

from workloads import query_key, theta_files

#: upper bound on the kurtosis of the probe's trace statistic (measured about
#: 4.0 at M = 8 and 3.5 at M = 64); it sets the standard error of a variance
KURTOSIS_BOUND = 5.0
Z_LIMIT = 5.0
#: CLI payload keys that echo the input rather than report a result
ECHO_KEYS = ("word", "word1", "word2")


def letter_perm(letter: str, M: int):
    """The permutation of a CLI literal; ``D(@k)`` is the k-th generated point permutation."""
    m = re.fullmatch(r"D\(@(\d+)\)", letter)
    if m:
        return pm.InducedDiagonal(theta_files()[int(m.group(1))])
    return cli.parse_perm_literal(letter, M)


def make_word(letters, M: int):
    """The WickWord of the letters at P = M."""
    return wick.WickWord(pm.MatrixShape(M, M), tuple(letter_perm(x, M) for x in letters))


def split_word(text: str) -> list[str]:
    """The letters of a CLI word literal (commas inside parentheses do not split)."""
    return re.findall(r"[^,(]+(?:\([^)]*\))?", text)


def canonical_cli(payload: dict) -> str:
    """The CLI result without the keys that echo the input (paths differ per checkout)."""
    body = {k: v for k, v in payload.items() if k not in ECHO_KEYS}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def cli_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_cli(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _exact_call(q: dict):
    if q["op"] in ("covariance", "var"):
        w1, w2 = make_word(q["word1"], q["M"]), make_word(q["word2"], q["M"])
        return lambda: str(wick.exact_trace_covariance(w1, w2))
    w = make_word(q["word"], q["M"])
    if q["op"] == "moment":
        return lambda: str(wick.exact_mixed_moment(w).total)
    return lambda: str(wick.exact_mixed_cumulant(w))


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ptlab {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def resolve_argv(argv: list[str], theta_paths: list[str]) -> list[str]:
    return [re.sub(r"@(\d+)", lambda m: theta_paths[int(m.group(1))], a) for a in argv]


def _report_hex(rep) -> list[str]:
    return [float(rep.mean).hex(), float(rep.std_error).hex()]


def _mc_call(q: dict):
    M = q.get("M", 8)  # the probe builds its own shapes
    cfg = montecarlo.SamplerConfig(pm.MatrixShape(M, M), q["samples"], q["seed"])
    if q["op"] == "moments":
        words = [make_word(w, M) for w in q["words"]]
        return lambda: [_report_hex(r) for r in montecarlo.mc_mixed_moments(words, cfg)]
    if q["op"] == "cumulant":
        w = make_word(q["words"][0], M)
        return lambda: [_report_hex(montecarlo.mc_mixed_cumulant(w, cfg))]
    if q["op"] == "covariance":
        w1, w2 = make_word(q["word1"], M), make_word(q["word2"], M)
        return lambda: [_report_hex(montecarlo.mc_covariance(w1, w2, cfg))]
    jobs = [(n, make_word([f"G(2,{n // 2})", f"G({n // 2},2)"], n)) for n in q["Ms"]]

    def probe():
        fit = montecarlo.variance_scaling_probe(jobs, cfg)
        return [float(fit["slope"]).hex()] + [float(v).hex() for v in fit["variances"]]
    return probe


def write_theta_files(outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for k, theta in enumerate(theta_files()):
        path = os.path.join(outdir, f"theta-{k}.txt")
        with open(path, "w") as fh:
            fh.write("".join(f"{t}\n" for t in theta))
        paths.append(path)
    return paths


def prepare(workload: str, queries: list[dict], outdir: str):
    """Build every input of the batch and warm ptlab's lazy caches."""
    if workload == "exact-chain":
        calls = [_exact_call(q) for q in queries]
    elif workload == "exact-general":
        paths = write_theta_files(outdir)
        calls = [functools.partial(run_cli, resolve_argv(q["argv"], paths)) for q in queries]
    else:
        calls = [_mc_call(q) for q in queries]
    warm_up(workload)
    return calls


def warm_up(workload: str) -> None:
    """Fill the process-wide caches that every batch would otherwise fill on its first pass.

    Exact workloads: pairing orbits (``wick._ORBIT_CACHE``, words up to length
    6) and noncrossing partitions (``partitions._nc_blocks``) -- constant words
    take the closed-form path, so this costs milliseconds -- plus, for the
    CLI, the order-9 partitions of ``limit`` and one call per subcommand.
    Monte Carlo: the BLAS thread pool and the length-3 partitions.
    """
    if workload == "mc-crosscheck":
        cfg = montecarlo.SamplerConfig(pm.MatrixShape(8, 8), 2, 0)
        montecarlo.mc_mixed_moment(make_word(["I"], 8), cfg)
        pts.enumerate_nc(3)
        return
    for m in range(1, 7):
        wick.exact_mixed_cumulant(make_word(["G(2,2)"] * m, 4))
    if workload == "exact-general":
        pts.enumerate_nc(9)
        for argv in (["limit", "--b", "2", "--d", "2", "--orders", "3"],
                     ["count", "--M", "4", "--a", "G(2,2)", "--b", "T", "--all"],
                     ["moment", "--M", "4", "--word", "G(2,2),T", "--breakdown"],
                     ["cumulant", "--M", "4", "--word", "G(2,2),T"],
                     ["covariance", "--M", "4", "--word1", "I", "--word2", "T"],
                     ["verdict", "--family", "G(N,N);LG(N,N)", "--grid", "N=2,4"]):
            run_cli(argv)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _kappa2_expected(letters, M: int) -> Fraction:
    """kappa_2 = (P/M) c / M^2 with P = M, c the agreement count."""
    s, t = (letter_perm(x, M) for x in letters)
    return Fraction(pm.count_agreements(s, t), M * M)


def var_tr_formula(M: int) -> Fraction:
    """Var(Tr) of G(2,M/2) G(M/2,2): 6 + 65/(2M) + 64/M^2."""
    return 6 + Fraction(65, 2 * M) + Fraction(64, M * M)


def _check_chain(q, out, ref):
    key_ref = ref.get(query_key(q))
    if key_ref is None:
        return "query missing from reference.json"
    if out != key_ref:
        return f"{out} != recorded {key_ref}"
    if q["op"] == "var" and Fraction(out) != var_tr_formula(q["M"]):
        return f"Var(Tr) {out} != 6 + 65/(2M) + 64/M^2"
    if q["op"] == "cumulant" and len(q["word"]) == 2:
        if Fraction(out) != _kappa2_expected(q["word"], q["M"]):
            return f"kappa_2 {out} != (P/M) c / M^2"
    return None


def _check_general(q, out, ref):
    key_ref = ref.get(query_key(q))
    if key_ref is None:
        return "query missing from reference.json"
    if cli_digest(out) != key_ref["sha256"]:
        return f"output differs from the recorded one ({key_ref.get('exact', 'digest')})"
    argv = q["argv"]
    if argv[0] == "count" and not out["c"] == out["j"] == out["c1"]:
        return f"c = {out['c']} != j = {out['j']}"
    if argv[0] == "moment" and "--breakdown" in argv:
        parts = [Fraction(row["value"]) for row in out["breakdown"]]
        m = len(split_word(argv[argv.index("--word") + 1]))
        if len(parts) != math.factorial(m) or sum(parts) != Fraction(out["exact"]):
            return "breakdown does not sum to the moment over m! pairings"
    if argv[0] == "cumulant":
        letters = split_word(argv[argv.index("--word") + 1])
        if len(letters) == 2 and Fraction(out["exact"]) != _kappa2_expected(
                letters, int(argv[argv.index("--M") + 1])):
            return f"kappa_2 {out['exact']} != (P/M) c / M^2"
    return None


class Oracle:
    """Exact values behind the Monte Carlo estimates, computed once per run."""

    def __init__(self, var_tr: dict[str, str]):
        self.var_tr = var_tr
        self.cache: dict[str, list[Fraction]] = {}

    def values(self, q) -> list[Fraction]:
        key = json.dumps([q["op"], q.get("M"), q.get("words"), q.get("word1"), q.get("word2")])
        if key not in self.cache:
            self.cache[key] = self._compute(q)
        return self.cache[key]

    def _compute(self, q) -> list[Fraction]:
        if q["op"] == "probe":
            return [Fraction(self.var_tr[str(M)]) / (M * M) for M in q["Ms"]]
        M = q["M"]
        if q["op"] == "moments":
            return [wick.exact_mixed_moment(make_word(w, M)).total for w in q["words"]]
        if q["op"] == "cumulant":
            return [wick.exact_mixed_cumulant(make_word(q["words"][0], M))]
        return [wick.exact_trace_covariance(make_word(q["word1"], M), make_word(q["word2"], M))]


def _check_mc(q, out, oracle: Oracle, recorded: dict | None):
    if recorded is not None and out != recorded.get(query_key(q)):
        return "estimate is not bit-identical to the one recorded for this seed"
    exact = oracle.values(q)
    if q["op"] == "probe":
        n = q["samples"]
        for M, v_hex, v in zip(q["Ms"], out[1:], exact):
            se = float(v) * math.sqrt((KURTOSIS_BOUND - 1) / n)
            z = abs(float.fromhex(v_hex) - float(v)) / se
            if not z <= Z_LIMIT:
                return f"Var(tr) at M={M}: |z| = {z:.2f} > {Z_LIMIT}"
        return None
    for (mean_hex, se_hex), v in zip(out, exact):
        mean, se = float.fromhex(mean_hex), float.fromhex(se_hex)
        if not (math.isfinite(se) and se > 0):
            return f"standard error {se} is not positive"
        z = abs(mean - float(v)) / se
        if not z <= Z_LIMIT:
            return f"|z| = {z:.2f} > {Z_LIMIT} against exact {v}"
    return None


def check(workload: str, queries: list[dict], outputs: list, reference: dict,
          seed: int) -> list[str | None]:
    """Per output: None if it is right, else the reason it is wrong."""
    ref = reference[workload]
    if workload == "mc-crosscheck":
        oracle = Oracle(ref["var_tr"])
        recorded = ref["seeds"].get(str(seed))
        return [_check_mc(q, out, oracle, recorded) for q, out in zip(queries, outputs)]
    fn = _check_chain if workload == "exact-chain" else _check_general
    return [fn(q, out, ref["outputs"]) for q, out in zip(queries, outputs)]
