"""Command-line interface: counters, exact oracles, limits, verdicts, sampling.

Permutation literals: ``I``, ``T``, ``G(b,d)``, ``LG(b,d)``, ``D(file)`` (a
point permutation of [M], one 1-based image per line) and ``P(file)`` (M^2
lines ``i j i' j'``).  Inside ``G``/``LG``, ``b`` and ``d`` may be integers
or ``M``/``M/k`` resolved against --M.

Family literals for ``verdict`` use the grid expressions: a bare integer
(a constant), ``N``, ``N^2``, ``2^k`` (k = 1-based grid position), ``M/j``
and ``inf``; the last two are resolved against the grid's M, which must be
pinned by at least one fully concrete family.

Each result command has one handler that returns its payload, and ``main``
writes it; ``--mc`` samples a moment, cumulant or covariance instead of
counting it.  ``sweep`` runs its points in order through the same handlers,
a point sampling when it carries ``samples``, and writes a row for every
point: the command's payload, or an ``error`` cell for a point that fails,
after which the exit code is 3 if some point was refused for its budget and
2 otherwise.

Exit codes: 0 success, 1 failed selftest, 2 parse/validation error,
3 resource refusal: a word over the pairing cap of 8 letters (for a moment
or cumulant, and in all for a covariance; ``cumulant --mc`` lists no pairing
and takes up to the noncrossing cap of 10), an enumeration over the budget, a
table over the table cap or a ``limit`` order over its cap (the message
carries the computed cost; a word of ``I``, ``T``, ``G`` and ``LG``
enumerates only its mixed digit levels, each level's grid once for all
pairings, though the budget charges that grid once per pairing; a
divisor-chain word builds no grid and is never refused for its budget).
``--force`` lifts the budget only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import asymptotics as ay
from . import montecarlo as mc
from . import wick as wk
from . import perms as pm
from .perms import MatrixShape, PartialTranspose, ResourceLimitError, Side


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def _parse_block_int(tok: str, M: int) -> int:
    tok = tok.strip()
    if tok == "M":
        return M
    m = re.fullmatch(r"M/(\d+)", tok)
    if m:
        k = int(m.group(1))
        if k < 1 or M % k:
            raise ValueError(f"M/{k} does not divide M = {M}")
        return M // k
    if re.fullmatch(r"\d+", tok):
        return int(tok)
    raise ValueError(f"bad block parameter {tok!r}")


def _int_lines(kind: str, path: str, width: int) -> list[list[int]]:
    """The nonblank lines of the ``kind`` file ``path``, each ``width``
    integers; a line that is not is refused, naming the file and the line."""
    with open(path) as fh:
        lines = [(n, line.split()) for n, line in enumerate(fh, start=1) if line.strip()]
    for n, tokens in lines:
        if len(tokens) != width or not all(re.fullmatch(r"[+-]?\d+", x) for x in tokens):
            raise ValueError(f"{kind} {path} line {n}: {' '.join(tokens)!r} is not "
                             f"{width} integer{'s' * (width > 1)}")
    return [list(map(int, tokens)) for _, tokens in lines]


def parse_perm_literal(text: str, M: int) -> pm.EntryPermutation:
    text = text.strip()
    if text == "I":
        return pm.Identity(M)
    if text == "T":
        return pm.Transpose(M)
    m = re.fullmatch(r"(L?G)\(([^,]+),([^)]+)\)", text)
    if m:
        side = Side.LEFT if m.group(1) == "LG" else Side.RIGHT
        b = _parse_block_int(m.group(2), M)
        d = _parse_block_int(m.group(3), M)
        if b * d != M:
            raise ValueError(f"{text}: b*d = {b * d} != M = {M}")
        return PartialTranspose(b, d, side)
    m = re.fullmatch(r"D\((.+)\)", text)
    if m:
        theta = [x for x, in _int_lines("D-file", m.group(1), 1)]
        if len(theta) != M:
            raise ValueError(f"D-file holds {len(theta)} images, expected M = {M}")
        return pm.InducedDiagonal(theta)
    m = re.fullmatch(r"P\((.+)\)", text)
    if m:
        rows = _int_lines("P-file", m.group(1), 4)
        if len(rows) != M * M:
            raise ValueError(f"P-file holds {len(rows)} rows, expected M^2 = {M * M}")
        for row in rows:
            if not all(1 <= x <= M for x in row):
                raise ValueError(f"P-file row {' '.join(map(str, row))!r} is not four "
                                 f"indices in [1, {M}]")
        return pm.TablePermutation.from_mapping(M, {(i, j): (u, v) for i, j, u, v in rows})
    raise ValueError(f"unrecognized permutation literal {text!r}")


def parse_word(text: str, M: int) -> tuple[pm.EntryPermutation, ...]:
    # split on commas not inside parentheses (file names may contain them)
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if not text.strip():
        return ()  # refused by WickWord as a word with no letter
    for k, part in enumerate(parts, start=1):
        if not part.strip():
            raise ValueError(f"word {text!r}: letter {k} is empty")
    return tuple(parse_perm_literal(p, M) for p in parts)


# family grid expressions -----------------------------------------------------

def _parse_grid(text: str) -> list[int]:
    m = re.fullmatch(r"\s*N\s*=\s*([\d,\s]+)", text)
    if not m:
        raise ValueError(f"bad grid {text!r}; expected e.g. \"N=2,4,8,16\"")
    vals = [int(x) for x in m.group(1).split(",") if x.strip()]
    if len(vals) < 1 or vals[0] < 1 or any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("grid values must be strictly ascending positive integers")
    return vals


class _Expr:
    """A tiny grid expression: int / N / N^2 / 2^k / M/j / inf."""

    def __init__(self, tok: str):
        tok = tok.strip()
        self.tok = tok
        if tok == "inf":
            self.kind = "inf"
        elif tok == "N":
            self.kind = "N"
        elif tok == "N^2":
            self.kind = "N2"
        elif tok == "2^k":
            self.kind = "pow2"
        elif re.fullmatch(r"M/(\d+)", tok):
            self.kind = "Mdiv"
            self.j = int(tok.split("/")[1])
            if self.j < 1:
                raise ValueError(f"bad grid expression {tok!r}: division by zero")
        elif re.fullmatch(r"\d+", tok):
            self.kind = "const"
            self.j = int(tok)
        else:
            raise ValueError(f"bad grid expression {tok!r}")

    @property
    def limit(self):
        return self.j if self.kind == "const" else ay.INF

    def concrete(self, N: int, k: int) -> int | None:
        if self.kind == "const":
            return self.j
        if self.kind == "N":
            return N
        if self.kind == "N2":
            return N * N
        if self.kind == "pow2":
            return 2 ** k
        return None  # M/j and inf need the grid's M

    def resolve(self, M: int) -> int:
        if self.kind == "Mdiv":
            if M % self.j:
                raise ValueError(f"M/{self.j}: {self.j} does not divide M = {M}")
            return M // self.j
        raise ValueError(f"{self.tok!r} cannot be resolved directly")


def parse_families(text: str, grid: list[int]) -> list[ay.ShapeFamily]:
    """Parse `;`-separated family literals against an N grid.

    The grid's M_N is pinned by the families whose components are concrete;
    ``M/j`` and ``inf`` components are resolved against that M afterwards.
    """
    raw = []
    for part in text.split(";"):
        part = part.strip()
        m = re.fullmatch(r"(L?G)\(([^,]+),([^)]+)\)", part)
        if not m:
            raise ValueError(f"bad family literal {part!r}")
        side = Side.LEFT if m.group(1) == "LG" else Side.RIGHT
        raw.append((part, side, _Expr(m.group(2)), _Expr(m.group(3))))

    Ms: list[int] | None = None
    for label, _, be, de in raw:
        bs = [be.concrete(N, k + 1) for k, N in enumerate(grid)]
        ds = [de.concrete(N, k + 1) for k, N in enumerate(grid)]
        if None in bs or None in ds:
            continue
        cand = [b * d for b, d in zip(bs, ds)]
        if Ms is None:
            Ms = cand
        elif Ms != cand:
            raise ValueError(f"family {label} induces M grid {cand}, others {Ms}")
    if Ms is None:
        raise ValueError("no family pins the M grid (all use inf or M/j components)")

    families = []
    for label, side, be, de in raw:
        samples = []
        for k, N in enumerate(grid):
            M = Ms[k]
            b = be.concrete(N, k + 1)
            d = de.concrete(N, k + 1)
            if b is None and d is None:
                raise ValueError(f"family {label}: both components unresolved")
            if b is None:
                b = be.resolve(M) if be.kind == "Mdiv" else (M // d if M % d == 0 else None)
            if d is None:
                d = de.resolve(M) if de.kind == "Mdiv" else (M // b if M % b == 0 else None)
            if b is None or d is None or b * d != M:
                raise ValueError(f"family {label}: cannot satisfy b*d = M = {M} at N = {N}")
            samples.append((b, d, M))
        families.append(ay.ShapeFamily(side, be.limit, de.limit, tuple(samples), label))
    return families


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(payload: dict, fmt: str, path: str | None) -> None:
    """Write the payload to ``path`` (None: stdout) as JSON, or as CSV: one
    row, or its ``rows`` under the columns of all of them (a row without a
    column gets an empty cell there)."""
    if fmt == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        rows = payload.get("rows", [payload])
        fields = list(dict.fromkeys(k for row in rows for k in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        # a missing value (no standard error of one sample) is an empty cell
        return format(v, ".17g") if math.isfinite(v) else ""
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(_jsonable(v), sort_keys=True)
    return v


# ---------------------------------------------------------------------------
# subcommands: each result command returns its payload
# ---------------------------------------------------------------------------

def _cmd_count(args) -> dict:
    M = args.M
    a = parse_perm_literal(args.a, M)
    b = parse_perm_literal(args.b, M)
    payload: dict = {
        "M": M, "a": args.a, "b": args.b,
        "c": pm.count_agreements(a, b),
        "j": pm.count_joint(a, b),
    }
    if isinstance(a, PartialTranspose) and isinstance(b, PartialTranspose) \
            and a.side is Side.RIGHT and b.side is Side.RIGHT:
        lcm = pm.gamma_lcm_data(a.d, b.d)
        payload["lcm"] = {"Q": lcm.Q, "L": lcm.L, "l": lcm.ell}
        payload["bounds"] = {"lower": M * M // lcm.L**2, "upper": M * M // lcm.L}
    if args.all:
        payload["c1"] = payload["j"]
        payload["c2"] = pm.count_projection_agreement(a, b, "second", "first", "share_middle")
        payload["c3"] = pm.count_projection_agreement(a, b, "first", "second", "share_middle")
        # the shared-second-slot variants of the same conditions;
        # both are reported rather than picking one as canonical
        payload["c2_sharesecond"] = pm.count_projection_agreement(
            a, b, "second", "second", "share_second_slot")
        payload["c3_sharesecond"] = pm.count_projection_agreement(
            a, b, "first", "first", "share_second_slot")
    return payload


def _word_payload(args) -> tuple[wk.WickWord, dict]:
    word = wk.WickWord(MatrixShape(args.M, args.P), parse_word(args.word, args.M))
    return word, {"word": args.word, "M": args.M, "P": args.P}


def _estimate(estimator, args, *words: wk.WickWord) -> dict:
    rep = estimator(*words, mc.SamplerConfig(words[0].shape, args.samples, args.seed))
    return {"samples": rep.samples, "seed": rep.seed, "mean": rep.mean,
            "std_error": rep.std_error}


def _cmd_moment(args) -> dict:
    word, payload = _word_payload(args)
    if args.mc:
        if args.breakdown:
            raise ValueError("--breakdown reports the exact count of each pairing; "
                             "it cannot be combined with --mc")
        payload.update(_estimate(mc.mc_mixed_moment, args, word))
    else:
        report = wk.exact_mixed_moment(word, budget=args.budget)
        payload["exact"] = report.total
        if args.breakdown:
            denom = word.shape.M ** (word.m + 1)
            payload["breakdown"] = [
                {"pairing": repr(p), "count": n, "value": Fraction(n, denom)}
                for p, n in report.tuple_counts.items()
            ]
    return payload


def _cmd_cumulant(args) -> dict:
    word, payload = _word_payload(args)
    if args.mc:
        payload.update(_estimate(mc.mc_mixed_cumulant, args, word))
    else:
        payload["exact"] = wk.exact_mixed_cumulant(word, budget=args.budget)
    return payload


def _cmd_covariance(args) -> dict:
    shape = MatrixShape(args.M, args.P)
    w1 = wk.WickWord(shape, parse_word(args.word1, args.M))
    w2 = wk.WickWord(shape, parse_word(args.word2, args.M))
    payload = {"M": args.M, "P": args.P, "word1": args.word1, "word2": args.word2}
    if args.mc:
        payload.update(_estimate(mc.mc_covariance, args, w1, w2))
    else:
        payload["exact"] = wk.exact_trace_covariance(w1, w2, budget=args.budget)
    return payload


def _cmd_limit(args) -> dict:
    for flag, tok in (("--b", args.b), ("--d", args.d)):
        if tok != "inf" and not re.fullmatch(r"0*[1-9]\d*", tok):
            raise ValueError(f"{flag} {tok!r} is not a positive integer or inf")
    b, d = (ay.INF if tok == "inf" else int(tok) for tok in (args.b, args.d))
    try:
        c = Fraction(args.c)
    except ZeroDivisionError:
        raise ValueError(f"--c {args.c}: the denominator is 0") from None
    cumulants = [ay.limit_cumulant_gamma(m, b, d, c) for m in range(1, args.orders + 1)]
    moments = ay.limit_moments_gamma(args.orders, b, d, c)
    return {"b": args.b, "d": args.d, "c": str(c), "orders": args.orders,
            "cumulants": cumulants, "moments": moments}


def _cmd_verdict(args) -> dict:
    grid = _parse_grid(args.grid)
    families = parse_families(args.family, grid)
    if len(families) == 1:
        raise ValueError("verdict needs at least two families (separate with ';')")
    matrix, overall = ay.verdict_family(families)
    pairs = []
    for (i, j), v in sorted(matrix.items()):
        entry = {"pair": [i, j], "labels": [families[i].label, families[j].label],
                 "free": v.free, "rule": v.rule, "witness": v.witness}
        if v.warning:
            entry["warning"] = v.warning
        if args.probe:
            probe = ay.empirical_density_probe(families[i], families[j])
            entry["density_probe"] = {
                "densities": [str(x) for x in probe["densities"]],
                "nonincreasing": probe["nonincreasing"],
            }
        pairs.append(entry)
    return {"grid": grid, "families": [f.label for f in families],
            "pairs": pairs, "overall_free": overall}


#: the handler of each sweep command and the string keys its points need
_SWEEP_COMMANDS = {
    "count": (_cmd_count, ("a", "b")),
    "moment": (_cmd_moment, ("word",)),
    "cumulant": (_cmd_cumulant, ("word",)),
    "covariance": (_cmd_covariance, ("word1", "word2")),
}


def _sweep_point(job: dict) -> dict:
    """A sweep point's row: the command's own payload for the point's keys."""
    cmd = job["command"]

    def need(key, kind=str):
        """The job's ``key``: an int (from a whole JSON number or a string) or a string."""
        if key not in job:
            raise ValueError(f"sweep command {cmd!r} needs the key {key!r}")
        val = job[key]
        whole = isinstance(val, int) or isinstance(val, float) and val.is_integer()
        if isinstance(val, bool) or not (isinstance(val, str) or kind is int and whole):
            what = "an integer" if kind is int else "a string"
            raise ValueError(f"sweep key {key!r} must be {what}, not {json.dumps(val)}")
        return kind(val)

    M = need("M", int)
    P = need("P", int) if "P" in job else M
    if cmd not in _SWEEP_COMMANDS:
        raise ValueError(f"sweep does not support command {cmd!r}")
    fn, keys = _SWEEP_COMMANDS[cmd]
    # a moment, cumulant or covariance point samples when it carries `samples`
    sample = cmd != "count" and "samples" in job
    args = argparse.Namespace(M=M, P=P, all=False, breakdown=False, budget=wk.DEFAULT_BUDGET,
                              mc=sample, **{key: need(key) for key in keys})
    if sample:
        args.samples, args.seed = need("samples", int), need("seed", int)
    return {"command": cmd, **fn(args)}


#: job keys that identify a sweep point in the row of a point that failed
_SWEEP_ID_KEYS = ("M", "P", "word", "word1", "word2", "a", "b", "samples", "seed")


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("sweep config must be a JSON object")
    cmd = config.get("command")
    grid = config.get("grid")
    if not cmd or not isinstance(grid, list) or not grid:
        raise ValueError("sweep config needs `command` and a nonempty `grid` list")
    rows, code = [], 0
    for point in grid:
        job = {k: v for k, v in config.items() if k != "grid"}
        try:
            if not isinstance(point, dict):
                raise ValueError("a grid point must be a JSON object")
            job.update(point)
            rows.append(_sweep_point(job))
        except (ValueError, ResourceLimitError) as exc:
            refused = isinstance(exc, ResourceLimitError)
            code = max(code, 3 if refused else 2)
            print(f"{'resource refusal' if refused else 'error'}: sweep point {point}: {exc}",
                  file=sys.stderr)
            rows.append({"command": cmd, **{k: job[k] for k in _SWEEP_ID_KEYS if k in job},
                         "error": str(exc)})
    _emit({"rows": rows}, "csv", args.out)
    return code


def _cmd_selftest(args) -> int:
    from . import selftest as st  # only this command reads the criteria

    if args.criteria is not None:
        items = args.criteria.split(",")
        if not all(x.strip() for x in items):
            empty = "is empty" if len(items) == 1 else f"{args.criteria!r} has an empty item"
            raise ValueError(f"--criteria {empty}; give a comma-separated subset, e.g. 1,4,9")
        if not all(re.fullmatch(r"\s*\d+\s*", x) for x in items):
            raise ValueError(f"--criteria {args.criteria!r} has an item that is not an integer; "
                             "give a comma-separated subset, e.g. 1,4,9")
        wanted = tuple(int(x) for x in items)
        bad = [x for x in wanted if x not in st.ALL_CRITERIA]
        if bad:
            raise ValueError(f"unknown criteria {bad}; valid: {st.ALL_CRITERIA}")
    elif args.all:
        wanted = st.ALL_CRITERIA
    else:
        wanted = st.DETERMINISTIC_CRITERIA
    results = st.run(wanted, out=print)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_force_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--force", dest="budget", action="store_const", const=None,
                   default=wk.DEFAULT_BUDGET, help="override the enumeration budget")


def _add_mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, help="required for any Monte Carlo run")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ptlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="agreement statistics of two entry permutations")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--all", action="store_true",
                   help="include the projection-agreement condition counters")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_count)

    for name, fn in (("moment", _cmd_moment), ("cumulant", _cmd_cumulant)):
        p = sub.add_parser(name, help=f"exact or Monte Carlo mixed {name}")
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--P", type=int)
        p.add_argument("--word", required=True)
        _add_force_arg(p)
        if name == "moment":
            p.add_argument("--breakdown", action="store_true", help="per-pairing decomposition")
            p.add_argument("--emit-config", help="also write the command and output as JSON")
        _add_mc_args(p)
        _add_output_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("covariance", help="covariance of two unnormalized trace statistics")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--P", type=int)
    p.add_argument("--word1", required=True)
    p.add_argument("--word2", required=True)
    _add_force_arg(p)
    _add_mc_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_covariance)

    p = sub.add_parser("limit", help="limit cumulants and moments of a (b, d) family")
    p.add_argument("--b", required=True, help="positive integer or inf")
    p.add_argument("--d", required=True, help="positive integer or inf")
    p.add_argument("--c", default="1", help="limit of P/M as a rational, e.g. 2/3")
    p.add_argument("--orders", type=int, default=6)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("verdict", help="pairwise asymptotic freeness verdicts")
    p.add_argument("--family", required=True,
                   help="`;`-separated family literals, e.g. \"G(N,N);LG(N,N);G(N^2,1)\"")
    p.add_argument("--grid", required=True, help="e.g. \"N=2,4,8,16\"")
    p.add_argument("--probe", action="store_true",
                   help="attach the exact agreement-density corroboration")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_verdict)

    p = sub.add_parser("sweep", help="run a JSON-configured grid of jobs to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("selftest", help="run the deterministic acceptance criteria")
    p.add_argument("--all", action="store_true",
                   help="include the Monte Carlo criteria (5 and 8)")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,4,9")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if getattr(args, "P", None) is None and hasattr(args, "P"):
        args.P = args.M
    if getattr(args, "mc", False) and args.seed is None:
        print("error: --seed is required for Monte Carlo runs (no wall-clock default)",
              file=sys.stderr)
        return 2
    try:
        result = args.fn(args)
        if isinstance(result, int):  # sweep and selftest: the exit code
            return result
        if getattr(args, "emit_config", None):
            _emit({"command": args.command, **result}, "json", args.emit_config)
        _emit(result, args.format, args.out)
        return 0
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
