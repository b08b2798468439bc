import csv
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptlab import cli
from ptlab import perms as pm
from ptlab.perms import PartialTranspose, Side


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_perm_literals(tmp_path):
    assert isinstance(cli.parse_perm_literal("I", 6), pm.Identity)
    assert isinstance(cli.parse_perm_literal("T", 6), pm.Transpose)
    g = cli.parse_perm_literal("G(2,3)", 6)
    assert isinstance(g, PartialTranspose) and g.side is Side.RIGHT
    lg = cli.parse_perm_literal("LG(3,2)", 6)
    assert lg.side is Side.LEFT
    assert cli.parse_perm_literal("G(2,M/2)", 8).d == 4
    assert cli.parse_perm_literal("G(M,1)", 8).b == 8
    with pytest.raises(ValueError):
        cli.parse_perm_literal("G(3,3)", 8)
    with pytest.raises(ValueError):
        cli.parse_perm_literal("Q(2,2)", 4)

    dfile = tmp_path / "theta.txt"
    dfile.write_text("2\n3\n1\n4\n")
    theta = cli.parse_perm_literal(f"D({dfile})", 4)
    assert isinstance(theta, pm.InducedDiagonal) and theta(1, 4) == (2, 4)

    pfile = tmp_path / "table.txt"
    lines = []
    for i in range(1, 4):
        for j in range(1, 4):
            u, v = pm.Transpose(3)(i, j)
            lines.append(f"{i} {j} {u} {v}")
    pfile.write_text("\n".join(lines) + "\n")
    table = cli.parse_perm_literal(f"P({pfile})", 3)
    assert pm.extensionally_equal(table, pm.Transpose(3))
    # M^2 rows, but one cell given twice and another not at all
    pfile.write_text("\n".join(lines[:-1] + [lines[0]]) + "\n")
    with pytest.raises(ValueError):
        cli.parse_perm_literal(f"P({pfile})", 3)
    pfile.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="P-file holds 8 rows"):
        cli.parse_perm_literal(f"P({pfile})", 3)


@pytest.mark.parametrize("row", ["4 3 3 3", "0 3 3 3"])
def test_p_file_index_outside_range_exits_2(tmp_path, capsys, row):
    # an index above M once raised IndexError; an index of 0 wrapped to M
    pfile = tmp_path / "table.txt"
    lines = [f"{i} {j} {j} {i}" for i in range(1, 4) for j in range(1, 4)]
    pfile.write_text("\n".join(lines[:-1] + [row]) + "\n")
    code, _, err = run(capsys, "count", "--M", "3", "--a", f"P({pfile})", "--b", "I")
    assert code == 2
    assert f"P-file row '{row}' is not four indices in [1, 3]" in err


def test_parse_word():
    perms = cli.parse_word("G(2,4),G(4,2),I", 8)
    assert len(perms) == 3
    assert isinstance(perms[2], pm.Identity)


def test_empty_letters_are_refused(tmp_path, capsys):
    # an empty letter is refused with its position, not dropped from the word
    code, out, err = run(capsys, "moment", "--M", "12", "--word", "G(4,3),,I,")
    assert (code, out) == (2, "") and "'G(4,3),,I,': letter 2 is empty" in err
    code, out, err = run(capsys, "covariance", "--M", "4", "--word1", "I", "--word2", "I, ")
    assert (code, out) == (2, "") and "letter 2 is empty" in err
    # a word with no letter at all keeps its message
    code, _, err = run(capsys, "moment", "--M", "4", "--word", "")
    assert code == 2 and "word must contain at least one permutation" in err
    config = {"command": "moment", "grid": [{"M": 4, "word": ",I"}, {"M": 4, "word": "I"}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "letter 1 is empty" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert "letter 1 is empty" in rows[0]["error"] and rows[1]["exact"] == "1"


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--M", "12", "--a", "G(6,2)", "--b", "G(4,3)", "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 40 and payload["j"] == 40
    assert payload["bounds"] == {"lower": 16, "upper": 48}
    assert payload["lcm"] == {"Q": 6, "L": 3, "l": 2}
    assert payload["c1"] == 40
    assert {"c2", "c3", "c2_sharesecond", "c3_sharesecond"} <= payload.keys()


def test_chain_commands_answer_above_the_table_cap(capsys):
    # a chain pair and a chain word at M = 8192 build no M x M table
    code, out, _ = run(capsys, "count", "--M", "8192", "--a", "G(4096,2)", "--b", "LG(2,4096)",
                       "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == payload["j"] == 2**24 and payload["c2"] == 2**37
    word = "G(2,M/2),G(M/2,2)"
    code, out, _ = run(capsys, "covariance", "--M", "8192", "--word1", word, "--word2", word)
    assert code == 0
    M = 8192
    assert Fraction(json.loads(out)["exact"]) == 6 + Fraction(65, 2 * M) + Fraction(64, M * M)


def test_options_that_did_nothing_are_gone(capsys):
    for argv in (("moment", "--exact"), ("cumulant", "--exact"), ("cumulant", "--breakdown"),
                 ("cumulant", "--emit-config", "cfg.json")):
        code, _, err = run(capsys, argv[0], "--M", "4", "--word", "I,I", *argv[1:])
        assert code == 2 and "unrecognized arguments" in err


def test_moment_command(capsys):
    code, out, _ = run(capsys, "moment", "--M", "4", "--P", "4", "--word", "I,I")
    assert code == 0
    assert json.loads(out)["exact"] == "2"
    code, out, _ = run(capsys, "moment", "--M", "8", "--word", "G(2,4),G(4,2)", "--breakdown")
    payload = json.loads(out)
    assert payload["exact"] == "3/2"
    assert [row["pairing"] for row in payload["breakdown"]] == ["(1,2)(3,4)", "(1,4)(2,3)"]


def test_cumulant_and_limit_commands(capsys):
    code, out, _ = run(capsys, "cumulant", "--M", "12", "--word", "G(6,2),G(4,3)")
    assert code == 0
    assert json.loads(out)["exact"] == "5/18"
    code, out, _ = run(capsys, "limit", "--b", "2", "--d", "3", "--c", "1", "--orders", "4")
    payload = json.loads(out)
    assert payload["cumulants"][3] == "13/36"
    code, out, _ = run(capsys, "limit", "--b", "inf", "--d", "inf", "--orders", "4")
    assert json.loads(out)["moments"] == ["1", "2", "4", "9"]


def test_covariance_command(capsys):
    code, out, _ = run(capsys, "covariance", "--M", "8", "--word1", "I", "--word2", "I")
    assert code == 0
    assert json.loads(out)["exact"] == "1"


def test_moment_mc_csv_and_seed_required(capsys):
    code, out, _ = run(capsys, "moment", "--mc", "--M", "4", "--P", "4", "--word", "I",
                       "--samples", "200", "--seed", "42", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "word,M,P,samples,seed,mean,std_error"
    assert row.startswith("I,4,4,200,42,")
    code, out, err = run(capsys, "moment", "--mc", "--M", "4", "--word", "I")
    assert (code, out) == (2, "") and "--seed is required" in err


def test_simulate_is_an_unknown_command(capsys):
    code, out, err = run(capsys, "simulate", "--M", "4", "--word", "I", "--seed", "1")
    assert (code, out) == (2, "") and "invalid choice: 'simulate'" in err


def test_moment_mc_refuses_breakdown(capsys):
    code, out, err = run(capsys, "moment", "--mc", "--breakdown", "--M", "4", "--word", "I",
                         "--samples", "10", "--seed", "1")
    assert (code, out) == (2, "") and "--breakdown" in err and "--mc" in err


def test_mc_seed_required_for_mc_flag(capsys):
    code = cli.main(["moment", "--M", "4", "--word", "I", "--mc", "--samples", "10"])
    assert code == 2


def test_seeds_outside_the_philox_key_range_are_refused(tmp_path, capsys):
    # the key holds 64 bits: -1 and 2^64 would alias 2^64 - 1 and 0
    argv = ["moment", "--M", "8", "--word", "G(2,4)", "--mc", "--samples", "20"]
    for seed in (-1, 2**64):
        code, out, err = run(capsys, *argv, "--seed", str(seed))
        assert (code, out) == (2, "") and f"seed {seed} is outside [0, 2^64)" in err
    code, out, _ = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(out)["seed"] == 2**64 - 1
    config = {"command": "moment", "word": "I", "samples": 2,
              "grid": [{"M": 2, "seed": -1}, {"M": 2, "seed": 0}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    rows = list(csv.DictReader(out.open()))
    assert "outside [0, 2^64)" in rows[0]["error"] and rows[1]["mean"]


def test_single_sample_output_is_valid_json(capsys):
    # one sample has no standard error: it is written as null, never NaN
    for cmd, word in (("moment", "G(2,2)"), ("cumulant", "G(2,2),T")):
        code, out, _ = run(capsys, cmd, "--M", "4", "--word", word, "--mc",
                           "--samples", "1", "--seed", "3")
        assert code == 0
        payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert payload["std_error"] is None
        assert isinstance(payload["mean"], float)


#: block sizes 15 and 16 have lcm / gcd = 240 = M, so this covariance
#: enumerates the 240^6 grid of its one mixed level and is refused for its budget
NON_CHAIN_COVARIANCE = ["covariance", "--M", "240", "--word1", "G(16,15),G(15,16),I",
                        "--word2", "I,I,I"]


def test_exit_codes(capsys):
    assert cli.main(["moment", "--M", "8", "--word", "G(3,3)"]) == 2
    assert cli.main(NON_CHAIN_COVARIANCE) == 3
    # a divisor-chain word takes the digit path and builds no grid
    code = cli.main(["covariance", "--M", "256", "--word1", "I,I,I", "--word2", "I,I,I"])
    assert code == 0
    # the length cap: 8 letters for a moment or a cumulant, and in all for a
    # covariance
    assert cli.main(["moment", "--M", "8", "--word", ",".join(["G(4,2)"] * 7)]) == 0
    capsys.readouterr()
    for command in ("moment", "cumulant"):
        assert cli.main([command, "--M", "4", "--word", ",".join("I" * 9)]) == 3
        assert ("9 letters have 9! = 362880 pairings, over the pairing enumeration cap "
                "of 8 letters" in capsys.readouterr().err)
    five = "I,I,I,I,I"
    assert cli.main(["covariance", "--M", "4", "--word1", five, "--word2", "I,I,I,I"]) == 3
    assert "9! = 362880 pairings" in capsys.readouterr().err
    assert cli.main(["covariance", "--M", "4", "--word1", five, "--word2", "I,I,I"]) == 0
    capsys.readouterr()
    # a zero denominator is a validation error, not a traceback
    assert cli.main(["limit", "--b", "2", "--d", "2", "--c", "1/0"]) == 2
    assert "--c 1/0" in capsys.readouterr().err
    assert cli.main(["verdict", "--family", "G(N,N);G(M/0,2)", "--grid", "N=2,4"]) == 2
    assert "'M/0'" in capsys.readouterr().err
    # a repeated grid value gives no trend to read
    assert cli.main(["verdict", "--family", "G(N,N);G(1,N^2)", "--grid", "N=4,4"]) == 2
    assert "strictly ascending" in capsys.readouterr().err
    # one grid value gives no trend for two families whose d both diverge
    assert cli.main(["verdict", "--family", "G(N,N);G(1,N^2)", "--grid", "N=4"]) == 2
    assert "G(N,N) and G(1,N^2)" in capsys.readouterr().err


def test_non_chain_jobs_above_the_table_cap(capsys):
    # sizes 2 and 3 have one mixed level of radix 6: the covariance
    # enumerates 6^4 points, not 6144^4, and count compares 6 x 6 tables
    word = "G(3072,2),G(2048,3)"
    code, out, _ = run(capsys, "covariance", "--M", "6144", "--word1", word, "--word2", word)
    assert code == 0 and json.loads(out)["exact"] == "462422021/56623104"
    code, out, _ = run(capsys, "count", "--M", "6144", "--a", "G(3072,2)", "--b", "G(2048,3)",
                       "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == payload["j"] == 1024**2 * 10



def test_budget_message_includes_cost(capsys):
    code = cli.main(NON_CHAIN_COVARIANCE)
    err = capsys.readouterr().err
    assert code == 3
    assert str(240**6) in err


def test_readme_budget_refusal_is_what_the_cli_prints(capsys):
    # README quotes this refusal to explain the cost model
    message = "20 pairings x (240^4 = 3317760000) = 66355200000"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{message}` for the covariance of" in " ".join(readme.split())
    code, out, err = run(capsys, "covariance", "--M", "240", "--word1", "G(16,15),G(15,16)",
                         "--word2", "I,I")
    assert (code, out) == (3, "")
    assert err == f"resource refusal: enumeration cost {message} exceeds budget {2**32}\n"


def test_readme_pairing_cap_refusal_is_what_the_cli_prints(capsys):
    # README quotes this refusal for a word over the pairing cap
    message = "9 letters have 9! = 362880 pairings, over the pairing enumeration cap of 8 letters"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{message}`" in " ".join(readme.split())
    code, out, err = run(capsys, "moment", "--M", "4", "--word", ",".join("I" * 9))
    assert (code, out) == (3, "")
    assert err == f"resource refusal: {message}\n"


def test_two_radix_6_levels_covariance(capsys):
    # sizes {2, 3} and {12, 18} at M = 72: two mixed levels of 6^7 points,
    # counted once each for the 4896 connected pairings
    code, out, _ = run(capsys, "covariance", "--M", "72",
                       "--word1", "G(36,2),G(24,3),G(6,12),G(4,18)", "--word2", "I,I,I")
    assert code == 0 and json.loads(out)["exact"] == "14836477285/90699264"


def test_verdict_command(capsys):
    code, out, _ = run(capsys, "verdict", "--family", "G(N,N);LG(N,N);G(N^2,1)",
                       "--grid", "N=2,4,8,16", "--probe")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_free"] is True
    assert len(payload["pairs"]) == 3
    for entry in payload["pairs"]:
        assert entry["free"] is True
        assert entry["rule"] in ("W1", "LTR")
        assert entry["density_probe"]["nonincreasing"] is True
    # identical families: not free overall
    code, out, _ = run(capsys, "verdict", "--family", "G(N,N);G(N,N)",
                       "--grid", "N=2,4,8")
    assert json.loads(out)["overall_free"] is False
    # grid must be pinned by a concrete family
    assert cli.main(["verdict", "--family", "G(M/2,2);G(2,M/2)", "--grid", "N=2,4"]) == 2


def test_verdict_mixed_expressions(capsys):
    code, out, _ = run(capsys, "verdict", "--family", "G(N^2,1);G(M/2,2);G(2,M/2)",
                       "--grid", "N=4,8,16")
    assert code == 0
    payload = json.loads(out)
    labels = payload["families"]
    assert labels == ["G(N^2,1)", "G(M/2,2)", "G(2,M/2)"]
    by_pair = {tuple(e["pair"]): e for e in payload["pairs"]}
    assert by_pair[(1, 2)]["free"] is True    # d-limits (2, inf)
    assert by_pair[(0, 1)]["free"] is False   # d-limits (1, 2): L = 2
    # 2^k walks the 1-based grid position: on N=2,4,8 it coincides with N
    code, out, _ = run(capsys, "verdict", "--family", "G(2^k,N);G(N^2,1)",
                       "--grid", "N=2,4,8")
    assert code == 0
    assert json.loads(out)["overall_free"] is True
    # a constant is a bare integer, as in G(N^2,1); no other spelling is read
    code, out, err = run(capsys, "verdict", "--family", "G(N,const:2);G(2,N)",
                         "--grid", "N=2,4")
    assert (code, out) == (2, "") and "bad grid expression 'const:2'" in err


def test_sweep_round_trip(tmp_path, capsys):
    config = {
        "command": "moment",
        "word": "G(2,M/2)",
        "samples": 300,
        "seed": 42,
        "grid": [{"M": 4, "P": 4}, {"M": 8, "P": 8}, {"M": 16, "P": 16}],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out1 = tmp_path / "out1.csv"
    out2 = tmp_path / "out2.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 grid rows
    assert lines[0].startswith("command,")


def test_emit_config_reruns_identically(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    code, out1, _ = run(capsys, "moment", "--mc", "--M", "8", "--word", "I", "--samples",
                        "200", "--seed", "13", "--emit-config", str(cfg_path))
    assert code == 0
    emitted = json.loads(cfg_path.read_text())
    assert emitted["command"] == "moment" and emitted["seed"] == 13
    code, out2, _ = run(capsys, "moment", "--mc", "--M", str(emitted["M"]), "--word",
                        emitted["word"], "--samples", str(emitted["samples"]),
                        "--seed", str(emitted["seed"]))
    assert out1 == out2


def test_exact_and_mc_paths_agree_through_cli(capsys):
    code, out, _ = run(capsys, "moment", "--M", "8", "--word", "G(2,4),G(4,2)")
    num, den = (json.loads(out)["exact"] + "/1").split("/")[:2]
    exact = int(num) / int(den)
    code, out, _ = run(capsys, "moment", "--M", "8", "--word", "G(2,4),G(4,2)",
                       "--mc", "--samples", "20000", "--seed", "42")
    payload = json.loads(out)
    assert abs(payload["mean"] - exact) <= 5 * payload["std_error"]


def test_sweep_covariance_and_count(tmp_path):
    config = {
        "command": "covariance",
        "word1": "I",
        "word2": "I",
        "grid": [{"M": 4}, {"M": 8}],
    }
    cfg_path = tmp_path / "cov.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "cov.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 3 and "exact" in rows[0]
    config = {"command": "count", "a": "G(2,M/2)", "b": "G(M/2,2)",
              "grid": [{"M": 8}, {"M": 16}]}
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_sweep_keeps_rows_of_finished_points(tmp_path, capsys):
    # M = 5 is invalid for G(2,2); the points on either side still get rows
    config = {"command": "moment", "word": "G(2,2)", "grid": [{"M": 4}, {"M": 5}, {"M": 4}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "sweep point" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert [bool(r["error"]) for r in rows] == [False, True, False]
    assert rows[0]["exact"] == rows[2]["exact"] != "" and rows[1]["M"] == "5"
    # a budget refusal exits 3, again after writing every row
    config = {"command": "covariance", "word1": "G(M/15,15),G(M/16,16),I", "word2": "I,I",
              "grid": [{"M": 6, "word1": "G(M/2,2),G(M/3,3),I"}, {"M": 240}]}
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 3
    rows = list(csv.DictReader(out.open()))
    assert [bool(r["error"]) for r in rows] == [False, True]


def test_sweep_point_missing_key_is_an_error_row(tmp_path, capsys):
    config = {"command": "moment", "grid": [{"M": 4}, {"M": 4, "word": "I"}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'word'" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert "'word'" in rows[0]["error"] and rows[1]["exact"] == "1"
    # a grid point that is not an object gets an error row of its own
    config = {"command": "moment", "word": "I", "grid": [{"M": 4}, 5, {"M": 2}]}
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert [bool(r["error"]) for r in rows] == [False, True, False]
    assert rows[0]["exact"] == rows[2]["exact"] == "1"
    # a config that is not an object is refused as a whole
    cfg_path.write_text(json.dumps([config]))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: sweep config")
    # a value of the wrong JSON type gets an error row of its own
    config = {"command": "moment", "grid": [{"M": None, "word": "I"}, {"M": 4, "word": 5},
                                            {"M": 4, "word": "I"}]}
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'M' must be an integer, not null" in err and "'word' must be a string, not 5" in err
    rows = list(csv.DictReader(out.open()))
    assert [bool(r["error"]) for r in rows] == [True, True, False]
    assert rows[2]["exact"] == "1"
    # a whole JSON number such as 1e1 or 4.0 is an integer; 4.5 is refused
    config = {"command": "moment", "word": "I", "seed": 3,
              "grid": [{"M": 4.0, "samples": 1e1}, {"M": 4.5, "samples": 10}]}
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'M' must be an integer, not 4.5" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert [bool(r["error"]) for r in rows] == [False, True]
    assert (rows[0]["M"], rows[0]["samples"]) == ("4", "10")


def test_csv_writes_a_missing_value_as_an_empty_cell(tmp_path, capsys):
    code, out, _ = run(capsys, "moment", "--mc", "--M", "4", "--word", "I", "--samples", "1",
                       "--seed", "1", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert row["std_error"] == "" and float(row["mean"]) > 0
    config = {"command": "moment", "word": "I", "samples": 1, "seed": 1, "grid": [{"M": 4}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    row = next(csv.DictReader(out_path.open()))
    assert row["std_error"] == "" and row["mean"] == format(float(row["mean"]), ".17g")


def as_cell(v):
    """The CSV cell of a value of a command's JSON output."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


@pytest.mark.parametrize("cmd,keys,options", [
    ("count", {"a": "G(2,M/2)", "b": "G(M/2,2)"}, ["--a", "G(2,M/2)", "--b", "G(M/2,2)"]),
    ("moment", {"word": "G(2,M/2),T"}, ["--word", "G(2,M/2),T"]),
    ("cumulant", {"word": "G(2,M/2),G(M/2,2)"}, ["--word", "G(2,M/2),G(M/2,2)"]),
    ("covariance", {"word1": "G(2,M/2)", "word2": "T"}, ["--word1", "G(2,M/2)", "--word2", "T"]),
    ("covariance", {"word1": "G(2,M/2)", "word2": "T", "samples": 40, "seed": 7},
     ["--word1", "G(2,M/2)", "--word2", "T", "--mc", "--samples", "40", "--seed", "7"]),
    ("moment", {"word": "G(2,M/2),I", "samples": 40, "seed": 7},
     ["--word", "G(2,M/2),I", "--mc", "--samples", "40", "--seed", "7"]),
    ("cumulant", {"word": "G(2,M/2),T,I", "samples": 40, "seed": 7},
     ["--word", "G(2,M/2),T,I", "--mc", "--samples", "40", "--seed", "7"]),
])
def test_sweep_rows_are_the_commands_own_output(tmp_path, capsys, cmd, keys, options):
    grid = [{"M": 4}, {"M": 8}] if cmd == "count" else [{"M": 4}, {"M": 8, "P": 6}]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"command": cmd, **keys, "grid": grid}))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == len(grid)
    for point, row in zip(grid, rows):
        code, text, _ = run(capsys, cmd, *options,
                            *(x for k, v in point.items() for x in (f"--{k}", str(v))))
        assert code == 0
        assert row == {"command": cmd, **{k: as_cell(v) for k, v in json.loads(text).items()}}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_moment_mc_prints_what_simulate_printed(capsys, fmt):
    # the bytes that the retired `simulate` command printed for these arguments
    printed = {
        "json": '{\n  "M": 8,\n  "P": 6,\n  "mean": 0.918744195330713,\n  "samples": 64,\n'
                '  "seed": 5,\n  "std_error": 0.0346284759268126,\n  "word": "G(2,4),T"\n}\n',
        "csv": 'word,M,P,samples,seed,mean,std_error\n'
               '"G(2,4),T",8,6,64,5,0.91874419533071305,0.034628475926812598\n',
    }[fmt]
    argv = ["--M", "8", "--P", "6", "--word", "G(2,4),T", "--samples", "64", "--seed", "5"]
    assert run(capsys, "moment", "--mc", *argv, "--format", fmt) == (0, printed, "")


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("ptlab ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # exits on a bad line


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--criteria", "9")
    assert code == 0
    assert "criterion 9: PASS" in out
    assert cli.main(["selftest", "--criteria", "12"]) == 2


def test_selftest_refuses_an_empty_criteria_list_or_item(capsys):
    # an empty list ran the deterministic suite, and an empty item printed
    # int()'s message; both now exit 2 naming what is empty, and run nothing
    for value, message in (("", "--criteria is empty"), (" ", "--criteria is empty"),
                           ("1,,2", "--criteria '1,,2' has an empty item"),
                           ("9,", "--criteria '9,' has an empty item")):
        code, out, err = run(capsys, "selftest", "--criteria", value)
        assert (code, out) == (2, ""), value
        assert err.startswith(f"error: {message}"), (value, err)


def test_selftest_is_imported_by_its_command_only():
    # a fresh process that imports the CLI compiles no selftest module; the
    # selftest command imports it and still passes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    script = ("import sys\nfrom ptlab import cli\n"
              "print('ptlab.selftest' in sys.modules)\n"
              "code = cli.main(sys.argv[1:])\n"
              "print('ptlab.selftest' in sys.modules)\nsys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, "selftest", "--criteria", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "True"
    assert "criterion 1: PASS" in proc.stdout


def test_errors_name_the_flag_or_file_line_they_come_from(tmp_path, capsys):
    # each of these once printed int()'s own message, naming neither the
    # flag nor the file; all still exit 2
    code, out, err = run(capsys, "selftest", "--criteria", "a")
    assert (code, out) == (2, "")
    assert err.startswith("error: --criteria 'a' has an item that is not an integer")
    for flag, value in (("--b", "2.5"), ("--d", "2.5"), ("--b", "0")):
        sides = {"--b": "2", "--d": "2", flag: value}
        code, _, err = run(capsys, "limit", *itertools.chain(*sides.items()))
        assert code == 2 and f"error: {flag} '{value}' is not a positive integer or inf" in err
    dfile = tmp_path / "theta.txt"
    dfile.write_text("2\n\n1.5\n4\n")
    code, _, err = run(capsys, "moment", "--M", "4", "--word", f"D({dfile})")
    assert code == 2 and f"error: D-file {dfile} line 3: '1.5' is not 1 integer" in err
    pfile = tmp_path / "table.txt"
    pfile.write_text("1 1 1 1\n1 2 x 1\n")
    code, _, err = run(capsys, "count", "--M", "2", "--a", f"P({pfile})", "--b", "I")
    assert code == 2 and f"error: P-file {pfile} line 2: '1 2 x 1' is not 4 integers" in err


def test_mc_cumulant_takes_words_up_to_the_noncrossing_cap(capsys):
    # a sampled cumulant lists no pairing, so it takes up to MAX_NC_ORDER = 10
    # letters where the exact one stops at the pairing cap of 8
    code, _, err = run(capsys, "cumulant", "--M", "2", "--word", ",".join("I" * 11),
                       "--mc", "--samples", "2", "--seed", "1")
    assert code == 3 and "m = 11 exceeds the NC enumeration cap 10" in err
    nine = ",".join("I" * 9)
    code, out, _ = run(capsys, "cumulant", "--M", "2", "--word", nine,
                       "--mc", "--samples", "2", "--seed", "1")
    assert code == 0 and json.loads(out)["samples"] == 2
    code, _, err = run(capsys, "cumulant", "--M", "2", "--word", nine)
    assert code == 3 and "9 letters have 9! = 362880 pairings" in err
