import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import uhlenbeck
from uhlenbeck import cli, quiver
from uhlenbeck.bvariety import jordan_triple
from uhlenbeck.calogero import sample_cm
from uhlenbeck.cli import build_parser, dispatch, main
from uhlenbeck.core import RatMatrix
from uhlenbeck.quiver import monad_of_point
from uhlenbeck.serialize import matrix_to_json, pair_to_json, rep_from_json, rep_to_json, triple_to_json


def run_ok(argv):
    code, envelope = dispatch(argv)
    assert code == 0, envelope
    assert envelope["status"] == "ok"
    return envelope


def test_ic_stalk_payload():
    envelope = run_ok(["ic", "stalk", "--n", "3", "--m", "0", "--lambda", "3"])
    assert envelope["payload"] == {"poly": "q^2+q^4+q^6", "total": 3}


def test_quiver_alpha_payload():
    envelope = run_ok(["quiver", "alpha", "--r", "1", "--d", "0", "--n", "2"])
    assert envelope["payload"]["alpha"] == [2, 5, 2]


def test_alpha_precondition_is_domain_error():
    code, envelope = dispatch(["quiver", "alpha", "--r", "1", "--d", "1", "--n", "2"])
    assert code == 1 and envelope["status"] == "error"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2


def test_cm_verify_zero_pair_errors(tmp_path):
    pair = {"X": matrix_to_json_zero(2), "Y": matrix_to_json_zero(2)}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, envelope = dispatch(["cm", "verify", "--tau", "1", "--pair", str(path)])
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["payload"]["rank_plus"] == 2 and envelope["payload"]["rank_minus"] == 2


def matrix_to_json_zero(n):
    from uhlenbeck.core import RatMatrix

    return matrix_to_json(RatMatrix.zero(n))


def test_cm_sample_then_verify_roundtrip(tmp_path):
    envelope = run_ok(["cm", "sample", "--n", "3", "--spectrum", "0,1,3", "--tau", "2"])
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"X": envelope["payload"]["X"], "Y": envelope["payload"]["Y"]}))
    verified = run_ok(["cm", "verify", "--tau", "2", "--pair", str(pair_path)])
    assert verified["payload"]["member"] is True
    assert "minus" in verified["payload"]["signs"]


def test_cm_sample_empty_spectrum_is_the_empty_pair(tmp_path):
    envelope = run_ok(["cm", "sample", "--n", "0", "--spectrum="])
    empty = {"rows": 0, "cols": 0, "entries": []}
    assert envelope["payload"] == {"X": empty, "Y": empty, "tau": "1", "sign": "minus"}
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"X": empty, "Y": empty}))
    assert run_ok(["cm", "verify", "--pair", str(pair_path)])["payload"]["member"] is True
    assert run_ok(["cm", "fixed-points", "--n", "0"])["payload"]["count"] == 1
    for argv in (["--n", "1", "--spectrum="], ["--n", "1", "--spectrum", ""], ["--spectrum=", "--n", "1", "--tau=2/3"]):
        code, envelope = dispatch(["cm", "sample", *argv])
        assert code == 1 and envelope["error"] == "spectrum length must equal n"


def test_quiver_check_and_stability(tmp_path):
    rep = monad_of_point((Fraction(1), Fraction(2)), Fraction(1))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_json(rep)))
    checked = run_ok(["quiver", "check", "--tau", "1", "--rep", str(rep_path)])
    assert checked["payload"] == {"ok": True, "failures": []}
    verdict = run_ok(["quiver", "stability", "--theta0=-1,0,1", "--rep", str(rep_path)])
    assert verdict["payload"]["verdict"] == "stable"
    unstable = run_ok(["quiver", "stability", "--theta0", "1,0,-1", "--rep", str(rep_path)])
    assert unstable["payload"]["verdict"] == "unstable"
    assert unstable["payload"]["witness"]["dim"] == [0, 0, 1]


def test_bvar_jordan_check_roundtrip(tmp_path):
    envelope = run_ok(["bvar", "jordan", "--k", "3", "--u", "2", "--tau", "1"])
    payload = dict(envelope["payload"])
    assert payload["support"] == "t^3-6*t^2+12*t-8"
    payload.pop("support")
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(payload))
    checked = run_ok(["bvar", "check", "--tau", "1", "--triple", str(triple_path)])
    assert checked["payload"]["ok"] is True


def test_bvar_components():
    envelope = run_ok(["bvar", "components", "--k", "3"])
    rows = envelope["payload"]["components"]
    assert all(row["total"] == 3 for row in rows)
    assert {row["lambda"] for row in rows} == {"3", "2+1", "1+1+1"}


def test_bvar_components_csv(capsys):
    assert main(["bvar", "components", "--k", "3", "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "lambda,orbit_dim,solution_dim,total"
    assert len(out) == 4


def test_stability_lexicographic_pair(tmp_path):
    # all-zero rep: every theta0 slope vanishes, the tiebreak decides
    from uhlenbeck.core import RatMatrix
    from uhlenbeck.quiver import QuiverRep

    zero = QuiverRep(
        (1, 2, 1),
        {a: RatMatrix.zero(2, 1) for a in ("xi", "eta", "zeta")},
        {a: RatMatrix.zero(1, 2) for a in ("xi", "eta", "zeta")},
        Fraction(1),
    )
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(rep_to_json(zero)))
    out = run_ok(["quiver", "stability", "--theta0", "0,0,0", "--theta1", "1,0,-1", "--rep", str(path)])
    assert out["payload"]["verdict"] == "unstable"
    assert out["payload"]["witness"]["slopes"] == ["0", "-1"]


def write_rep(path, rep) -> str:
    path.write_text(json.dumps(rep_to_json(rep)))
    return str(path)


def test_stability_is_exact_at_alpha_101(tmp_path):
    # (1,3,1) = alpha(1,0,1) with both of its polarizations: no search, no "unknown"
    theta0, theta1 = quiver.polarizations(1, 0, 1)
    verdicts = set()
    reps = [quiver.sample_relation_rep((1, 3, 1), Fraction(3, 7), seed=seed) for seed in range(4)]
    zero = quiver.QuiverRep((1, 3, 1), {a: RatMatrix.zero(3, 1) for a in quiver.ARROWS}, {a: RatMatrix.zero(1, 3) for a in quiver.ARROWS}, Fraction(1))
    for rep in [r for r in reps if r is not None] + [zero]:
        path = write_rep(tmp_path / "rep.json", rep)
        out = run_ok(["quiver", "stability", "--theta0=-1,0,1", "--theta1=3,-2,3", "--rep", path])
        verdict, witness = quiver.decide_stability_121(rep, theta0, theta1)
        assert out["payload"]["verdict"] == verdict != "unknown"
        assert out["payload"].get("witness", {}).get("dim") == (list(witness.dim) if witness else None)
        verdicts.add(verdict)
    assert len(verdicts) >= 2


@pytest.mark.parametrize("dim", [(0, 0, 0), (0, 3, 0), (1, 0, 1), (0, 4, 1), (1, 3, 0), (1, 5, 1), (1, 7, 1)])
def test_stability_never_unknown_where_r1_r3_at_most_one(dim, tmp_path):
    r1, r2, r3 = dim
    rng = random.Random(sum(dim))
    thetas = [(0, 0, 0), (-r3, 0, r1), (r2, -r1 - r3, r2)]
    for _ in range(4):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(random_rep_json(rng, dim)))
        for t0 in thetas:
            for t1 in thetas:
                argv = ["quiver", "stability", "--theta0=" + ",".join(map(str, t0)), "--theta1=" + ",".join(map(str, t1))]
                assert run_ok(argv + ["--rep", str(path)])["payload"]["verdict"] != "unknown"


def test_stability_tiebreak_must_vanish(tmp_path):
    path = write_rep(tmp_path / "rep.json", monad_of_point((Fraction(1), Fraction(2)), Fraction(1)))
    code, envelope = dispatch(["quiver", "stability", "--theta0=-1,0,1", "--theta1=1,1,1", "--rep", path])
    assert code == 1 and envelope["error"] == "total slope of theta1 must vanish on the dimension vector"


def test_bvar_fiber():
    envelope = run_ok(["bvar", "fiber", "--lambda", "2", "--u", "1", "--tau", "1"])
    assert envelope["payload"]["measured"] <= envelope["payload"]["upper_bound"]


def test_nc_normal_form_symbolic():
    envelope = run_ok(["nc", "normal-form", "--word", "yx"])
    assert envelope["payload"]["terms"] == [
        {"mono": "z^2", "coeff": "-tau"},
        {"mono": "x y", "coeff": "1"},
    ]


def test_nc_normal_form_specialized():
    envelope = run_ok(["nc", "normal-form", "--word", "yx", "--tau", "2"])
    assert envelope["payload"]["terms"] == [
        {"mono": "z^2", "coeff": "-2"},
        {"mono": "x y", "coeff": "1"},
    ]


# The whole envelope of `nc normal-form` at a rational --tau, byte for byte:
# perfbench/golden.json runs only the default --tau t.  At --tau 0 the
# vanishing terms are dropped.
NC_NORMAL_FORM_AT_TAU = {
    ("yx", "2"): """\
{
  "meta": {
    "seed": 0,
    "tau": "2",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "-2",
        "mono": "z^2"
      },
      {
        "coeff": "1",
        "mono": "x y"
      }
    ]
  },
  "status": "ok"
}""",
    ("yx", "-3/7"): """\
{
  "meta": {
    "seed": 0,
    "tau": "-3/7",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "3/7",
        "mono": "z^2"
      },
      {
        "coeff": "1",
        "mono": "x y"
      }
    ]
  },
  "status": "ok"
}""",
    ("yx", "0"): """\
{
  "meta": {
    "seed": 0,
    "tau": "0",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "1",
        "mono": "x y"
      }
    ]
  },
  "status": "ok"
}""",
    ("yxzyx", "2"): """\
{
  "meta": {
    "seed": 0,
    "tau": "2",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "4",
        "mono": "z^5"
      },
      {
        "coeff": "-6",
        "mono": "x y z^3"
      },
      {
        "coeff": "1",
        "mono": "x^2 y^2 z"
      }
    ]
  },
  "status": "ok"
}""",
    ("yxzyx", "-3/7"): """\
{
  "meta": {
    "seed": 0,
    "tau": "-3/7",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "9/49",
        "mono": "z^5"
      },
      {
        "coeff": "9/7",
        "mono": "x y z^3"
      },
      {
        "coeff": "1",
        "mono": "x^2 y^2 z"
      }
    ]
  },
  "status": "ok"
}""",
    ("yxzyx", "0"): """\
{
  "meta": {
    "seed": 0,
    "tau": "0",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "1",
        "mono": "x^2 y^2 z"
      }
    ]
  },
  "status": "ok"
}""",
    ("yyxx", "2"): """\
{
  "meta": {
    "seed": 0,
    "tau": "2",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "8",
        "mono": "z^4"
      },
      {
        "coeff": "-8",
        "mono": "x y z^2"
      },
      {
        "coeff": "1",
        "mono": "x^2 y^2"
      }
    ]
  },
  "status": "ok"
}""",
    ("yyxx", "-3/7"): """\
{
  "meta": {
    "seed": 0,
    "tau": "-3/7",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "18/49",
        "mono": "z^4"
      },
      {
        "coeff": "12/7",
        "mono": "x y z^2"
      },
      {
        "coeff": "1",
        "mono": "x^2 y^2"
      }
    ]
  },
  "status": "ok"
}""",
    ("yyxx", "0"): """\
{
  "meta": {
    "seed": 0,
    "tau": "0",
    "version": "0.1.0"
  },
  "payload": {
    "terms": [
      {
        "coeff": "1",
        "mono": "x^2 y^2"
      }
    ]
  },
  "status": "ok"
}""",
}


@pytest.mark.parametrize("word, tau", sorted(NC_NORMAL_FORM_AT_TAU))
def test_nc_normal_form_specialized_bytes(word, tau):
    envelope = run_ok(["nc", "normal-form", "--word", word, f"--tau={tau}"])
    assert json.dumps(envelope, sort_keys=True, indent=2) == NC_NORMAL_FORM_AT_TAU[word, tau]


# The cli-tables benchmark's recorded outputs, read in place: the SHA-256 and
# length of each command's stdout and of each CSV file `report` writes.
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8"))


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_benchmark_golden(monkeypatch, tmp_path, capsys, command):
    # report writes under its relative --out, here inside tmp_path
    monkeypatch.chdir(tmp_path)
    argv = command.split(" ")
    assert main(argv) == 0
    observed = {"stdout": _digest(capsys.readouterr().out.encode("utf-8"))}
    if argv[0] == "report":
        out = tmp_path / argv[argv.index("--out") + 1]
        observed["files"] = {p.name: _digest(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
    assert observed == GOLDEN[command]


def test_nc_dims():
    envelope = run_ok(["nc", "dims", "--max-degree", "4", "--tau", "-2"])
    assert [row["dim"] for row in envelope["payload"]["dims"]] == [1, 3, 6, 10, 15]
    assert all(row["computed"] == row["dim"] for row in envelope["payload"]["dims"])
    assert envelope["payload"]["dual_dims"] == [1, 3, 3, 1, 0]


def test_ic_fixed_points_counts():
    envelope = run_ok(["ic", "fixed-points", "--n", "2"])
    assert envelope["payload"]["count"] == 7 == envelope["payload"]["count_formula"]
    attracting = [p for p in envelope["payload"]["points"] if p["attracting"]]
    assert attracting == [{"m": 0, "lambda": "0", "k0": 2, "kinf": 0, "attracting": True}]


def test_determinism_byte_identical(capsys):
    for _ in range(2):
        assert main(["ic", "strata", "--n", "3"]) == 0
    out = capsys.readouterr().out
    half = len(out) // 2
    assert out[:half] == out[half:]


@pytest.mark.parametrize("value", ["17", "abc"])
def test_seed_variable_is_ignored(capsys, monkeypatch, value):
    # the seed is --seed, or 0: an old UHL_SEED variable changes no byte
    argv = ["bvar", "fiber", "--lambda", "2,1"]
    monkeypatch.delenv("UHL_SEED", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("UHL_SEED", value)
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert json.loads(unset)["meta"]["seed"] == 0
    assert run_ok(["ic", "betti", "--n", "2"])["meta"]["seed"] == 0
    assert run_ok(argv + ["--seed", "4"])["meta"]["seed"] == 4


def test_report_tables(tmp_path):
    envelope = run_ok(["report", "--n", "1", "--out", str(tmp_path / "tables")])
    files = set(envelope["payload"]["files"])
    assert files == {"strata.csv", "stalks.csv", "betti.csv", "fixed_points.csv"}
    strata_lines = (tmp_path / "tables" / "strata.csv").read_text().strip().splitlines()
    assert len(strata_lines) == 3  # header + 2 strata
    stalks = (tmp_path / "tables" / "stalks.csv").read_text()
    assert "q^2" in stalks


def test_report_stalk_column_n3(tmp_path):
    run_ok(["report", "--n", "3", "--out", str(tmp_path / "t3")])
    rows = (tmp_path / "t3" / "stalks.csv").read_text().splitlines()
    assert any(row.startswith("0,3,") and "q^2+q^4+q^6" in row for row in rows)


def test_report_n0(tmp_path):
    run_ok(["report", "--n", "0", "--out", str(tmp_path / "t0")])
    strata_lines = (tmp_path / "t0" / "strata.csv").read_text().strip().splitlines()
    assert len(strata_lines) == 2  # header + single stratum
    assert (tmp_path / "t0" / "betti.csv").read_bytes() == b"n,betti\r\n"  # no rows: header only


def test_csv_output(capsys):
    assert main(["ic", "strata", "--n", "1", "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "m,lambda,dim,open"
    assert len(out) == 3


# The --csv stdout of three tables (SHA-256 and length), recorded while their
# rows were still written out by hand, so that the field-path rows must match them.
CSV_PINS = {
    "ic strata --n 12 --csv": {"sha256": "ceee8c4a8a85fa8af99046d59eb3e7c7197662f38380034d56f745ecaea8fd3a", "bytes": 5552},
    "ic audit --n 12 --csv": {"sha256": "fe1d6253510a790a8aeaf4827ce64ab7e8b13ce63ea4639bdb1aaab9ce635a02", "bytes": 6636},
    "bvar components --k 6 --csv": {"sha256": "ecbd5c79003b32a801fe21a07a5fa2684a6665d3275c00c7d99867921d262ebb", "bytes": 203},
}


@pytest.mark.parametrize("command", sorted(CSV_PINS))
def test_csv_stdout_matches_its_pin(capsys, command):
    assert main(command.split(" ")) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == CSV_PINS[command]


# recorded while the fiber probe still built its orbit span; the golden outputs
# reach only 3,2 and 2,2,1 at 8 samples.  The last two were recorded while it
# still ran a Krylov closure on each draw: k = 0, and 1,1,1, where 6 of the 16
# stratum members have no cyclic vector
FIBER_CAP_PINS = {
    "bvar fiber --lambda 4,3,2,1 --samples 16": {"sha256": "a314177ebf25a00c465f735cef9e33fe150fadf6a85fa9338526848f9c442238", "bytes": 401},
    "bvar fiber --lambda 1,1,1,1,1,1,1,1,1,1 --samples 16": {"sha256": "f5d53d253c2a7e6ebcf9e45c7ff75c5be752444e089438e410727189d97eda6b", "bytes": 314},
    "bvar fiber --lambda 3,3,2,2 --samples 16 --u=-7/3 --tau 3/5 --seed 5": {
        "sha256": "e15a6692dfbd1679200fa241ca03672fab845ee2276e6d82f0e1cd6819dceb68",
        "bytes": 439,
    },
    "bvar fiber --lambda 0": {"sha256": "1e259e024a2455d44c85e688a7d41f02fa1191fa01713a6088b887585195b39a", "bytes": 330},
    "bvar fiber --lambda 1,1,1 --samples 16": {"sha256": "35f8d423de9a21eaa8e8a25aca80046df224ff82dacca1408466b759bf9f3569", "bytes": 352},
}


@pytest.mark.parametrize("command", sorted(FIBER_CAP_PINS))
def test_bvar_fiber_at_its_caps_matches_its_pin(capsys, command):
    assert main(command.split(" ")) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == FIBER_CAP_PINS[command]


@pytest.mark.parametrize("u", ["0", "5"])
@pytest.mark.parametrize("command", sorted(FIBER_CAP_PINS))
def test_bvar_fiber_output_does_not_depend_on_u(capsys, command, u):
    # --u names the divisor k u; the stratum of N = Y - uI is the same for every u
    argv = [arg for arg in command.split(" ") if not arg.startswith("--u=")] + [f"--u={u}"]
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == FIBER_CAP_PINS[command]


def test_nc_dims_at_the_degree_cap_matches_its_pin(capsys):
    # recorded while the graded-dimension rows were still built from Fractions;
    # the golden outputs reach only degree 24
    assert main(["nc", "dims", "--max-degree", "48", "--tau=-355/113"]) == 0
    pin = {"sha256": "bc33328183a62278fdda9025696bf76c5a7a937f8636fb4573c4e6bfad2c11ac", "bytes": 4243}
    assert _digest(capsys.readouterr().out.encode("utf-8")) == pin


def test_dumps_writes_json_dumps_indent_text():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # raw row boundaries of every depth inside strings, non-ASCII and control characters
    boundaries = [f"{c},\n{' ' * k}{o}" for o, c in ("{}", "[]") for k in range(2, 9, 2)]
    text = st.sampled_from(boundaries + ["", "é", "\x00\x1f", "\u2028", '"\\']) | st.text(max_size=6)
    scalars = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | text
    empty = st.sampled_from([[], {}])
    flat = st.one_of(scalars, empty)
    flat_dict = st.dictionaries(text, flat, min_size=1, max_size=4)
    flat_list = st.lists(flat, min_size=1, max_size=4)

    def with_one_nested(rows, nested):
        # a row list that would be flat but for one nested row
        return st.tuples(st.lists(rows, min_size=1, max_size=4), nested, st.integers(0, 4)).map(
            lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :]
        )

    values = st.recursive(
        scalars | empty,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(text, children, max_size=4),
            st.lists(flat_dict, min_size=1, max_size=4),
            st.lists(flat_list, min_size=1, max_size=4),
            with_one_nested(flat_dict, st.dictionaries(text, children, min_size=1, max_size=3)),
            with_one_nested(flat_list, st.lists(children, min_size=1, max_size=3)),
        ),
        max_leaves=24,
    )

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(values)
    def check(value):
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    check()
    assert cli._dumps([[[], []], [[]]]) == json.dumps([[[], []], [[]]], indent=2)


def csv_rows(capsys, argv) -> list[dict]:
    assert main(argv) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


@pytest.mark.parametrize("n", range(7))
def test_report_and_audit_tables_agree_with_ic_strata(tmp_path, capsys, n):
    strata = csv_rows(capsys, ["ic", "strata", "--n", str(n), "--csv"])
    run_ok(["report", "--n", str(n), "--out", str(tmp_path)])
    with open(tmp_path / "strata.csv", newline="", encoding="utf-8") as fh:
        reported = list(csv.DictReader(fh))
    assert reported == [{**row, "codim": str(2 * n - int(row["dim"]))} for row in strata]
    with open(tmp_path / "fixed_points.csv", newline="", encoding="utf-8") as fh:
        fixed = list(csv.DictReader(fh))
    points = run_ok(["ic", "fixed-points", "--n", str(n)])["payload"]["points"]
    assert fixed == [{key: str(value) for key, value in point.items()} for point in points]
    if n >= 1:
        audit = csv_rows(capsys, ["ic", "audit", "--n", str(n), "--csv"])
        columns = ("m", "lambda", "dim")
        assert [[row[c] for c in columns] for row in audit] == [[row[c] for c in columns] for row in strata]


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "dims", "--max-degree", "3", "--tau", "1/0"],
        ["cm", "sample", "--n", "2", "--spectrum", "1,1/0"],
    ],
)
def test_zero_denominator_is_domain_error(argv, capsys):
    assert main(argv) == 1
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["status"] == "error" and "zero denominator" in envelope["error"]


def test_meta_tau_comes_from_the_input_file(tmp_path):
    rep = monad_of_point((Fraction(1), Fraction(2)), Fraction(3, 7))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_json(rep)))
    assert run_ok(["quiver", "check", "--rep", str(rep_path)])["meta"]["tau"] == "3/7"
    stability = run_ok(["quiver", "stability", "--theta0=-1,0,1", "--rep", str(rep_path)])
    assert stability["meta"]["tau"] == "3/7"
    triple = run_ok(["bvar", "jordan", "--k", "2", "--tau=-2/3"])["payload"]
    triple.pop("support")
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(triple))
    assert run_ok(["bvar", "check", "--triple", str(triple_path)])["meta"]["tau"] == "-2/3"
    assert run_ok(["ic", "betti", "--n", "2"])["meta"]["tau"] == "1"


@pytest.mark.parametrize(
    "command, flag, content, kind",
    [
        (["quiver", "check"], "--rep", rep_to_json(monad_of_point((1, 2), 1)), "representation"),
        (["bvar", "check"], "--triple", triple_to_json(jordan_triple(2, 0, 1)), "triple"),
    ],
)
def test_tau_flag_that_disagrees_with_the_file_is_domain_error(tmp_path, command, flag, content, kind):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert dispatch(command + [flag, str(path), "--tau", "2"]) == (
        1,
        {
            "status": "error",
            "error": f"--tau disagrees with the tau stored in the {kind} file",
            "payload": None,
            "meta": {"seed": 0, "tau": "2", "version": uhlenbeck.__version__},
        },
    )


def test_size_cap_is_checked_before_the_tau_flag(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(triple_to_json(jordan_triple(51, 0, 1))))
    code, envelope = dispatch(["bvar", "check", "--triple", str(path), "--tau", "2"])
    assert (code, envelope["error"]) == (1, "bvar check is limited to triple size <= 50")


@pytest.mark.parametrize(
    "argv_head, content, field",
    [
        (["quiver", "check", "--rep"], [1, 2], "input"),
        (["cm", "verify", "--tau", "1", "--pair"], {"X": {"rows": 1, "cols": 1, "entries": 5}, "Y": {}}, "X.entries"),
    ],
)
def test_wrong_shape_input_file_is_domain_error(argv_head, content, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(argv_head + [str(path)]) == 1
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["status"] == "error" and field in envelope["error"]


# ---------------------------------------------------------------------------
# size caps and deep counting arguments

DATA = Path(__file__).resolve().parent / "data"


class SizedText:
    """An argv item that ``format(n)`` expands to a text argument of size n."""

    def __init__(self, expand):
        self.format = expand


# Each capped command with its most expensive choice of the other flags.
CAPPED = [
    (["nc", "dims", "--max-degree", "{}"], "max-degree", 48),
    (["ic", "stalk", "--n", "{}", "--m", "0", "--lambda", "{}"], "n", 40),
    (["ic", "strata", "--n", "{}"], "n", 26),
    (["ic", "audit", "--n", "{}"], "n", 26),
    (["ic", "fixed-points", "--n", "{}"], "n", 22),
    (["ic", "betti", "--n", "{}"], "n", 6000),
    (["cm", "fixed-points", "--n", "{}"], "n", 4000),
    (
        ["cm", "sample", "--tau", "3/7", "--n", "{}", "--spectrum", SizedText(lambda n: ",".join(f"{i}/{i + 2}" for i in range(n)))],
        "n",
        100,
    ),
    (["bvar", "components", "--k", "{}", "--tau", "3/7"], "k", 12),
    (["bvar", "jordan", "--k", "{}", "--u=-7/3", "--tau", "5/7"], "k", 80),
    (["bvar", "fiber", "--samples", "16", "--lambda", SizedText(lambda n: ",".join(["2"] + ["1"] * (n - 2)))], "lambda size", 10),
    (["bvar", "fiber", "--lambda", "2,1,1,1,1,1,1,1,1", "--samples", "{}"], "samples", 16),
    (["nc", "normal-form", "--tau", "3/7", "--word", SizedText(lambda n: ("yyxx" * n)[:n])], "word length", 800),
    (
        ["quiver", "stability", "--rep", str(DATA / "rep_252.json"), "--theta0=-5,0,5", "--theta1=1,0,-1", "--budget", "{}"],
        "budget",
        32,
    ),
]


@pytest.mark.parametrize("argv, flag, cap", CAPPED, ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v))
def test_size_caps(argv, flag, cap):
    assert dispatch([a.format(cap) for a in argv])[0] == 0
    code, envelope = dispatch([a.format(cap + 1) for a in argv])
    assert code == 1 and envelope["status"] == "error"
    assert envelope["error"] == f"{argv[0]} {argv[1]} is limited to {flag} <= {cap}"


# the capped integer flags (the other caps measure a text or a file, never negative)
CAPPED_INTEGERS = [case for case in CAPPED if "{}" in case[0]]


@pytest.mark.parametrize("argv, flag, cap", CAPPED_INTEGERS, ids=[" ".join(case[0][:2]) + " " + case[1] for case in CAPPED_INTEGERS])
def test_negative_capped_integers_are_rejected(argv, flag, cap):
    code, envelope = dispatch([a.format(-1) for a in argv])
    assert code == 1 and envelope["status"] == "error"
    assert envelope["error"] == f"{argv[0]} {argv[1]} needs {flag} >= 0"


def test_negative_budget_envelope_is_pinned(capsys):
    # the cap check stops a negative --budget before the search, which rejects one too
    argv = ["quiver", "stability", "--rep", str(DATA / "rep_252.json"), "--theta0=-1,0,1", "--theta1=5,-4,5", "--budget", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        '{\n  "error": "quiver stability needs budget >= 0",\n  "meta": {\n    "seed": 0,\n    "tau": "1",\n'
        '    "version": "0.1.0"\n  },\n  "payload": null,\n  "status": "error"\n}\n'
    )
    with pytest.raises(ValueError, match="^budget must be nonnegative$"):
        quiver.find_destabilizer(rep_from_json(json.loads((DATA / "rep_252.json").read_text())), quiver.Polarization(-1, 0, 1), budget=-1)


def test_negative_report_size_is_rejected(tmp_path):
    code, envelope = dispatch(["report", "--n", "-1", "--out", str(tmp_path / "t")])
    assert code == 1 and envelope["error"] == "report needs n >= 0"
    assert not (tmp_path / "t").exists()


# contract lines that otherwise only the fuzz tests reach: ic betti and ic audit start at n = 1,
# bvar fiber at --samples 1, the empty partition is written 0, and a polarization has exactly three parts
@pytest.mark.parametrize(
    "argv, error",
    [
        (["ic", "betti", "--n", "0"], "n must be at least 1"),
        (["ic", "audit", "--n", "0"], "n must be at least 1"),
        (["bvar", "fiber", "--lambda", "2,1", "--samples", "0"], "samples must be at least 1"),
        (["quiver", "stability", "--rep", str(DATA / "rep_252.json"), "--theta0=1,2"], "polarization needs three comma-separated rationals"),
    ],
    ids=["ic betti", "ic audit", "bvar fiber", "quiver stability"],
)
def test_boundary_inputs_exit_1_with_their_error(argv, error):
    code, out = run_main(argv)
    envelope = json.loads(out)
    assert code == 1 and envelope["status"] == "error" and envelope["error"] == error


def test_stalk_of_the_empty_partition_is_one():
    code, out = run_main(["ic", "stalk", "--n", "0", "--m", "0", "--lambda", "0"])
    assert code == 0 and json.loads(out)["payload"] == {"poly": "1", "total": 1}


def random_matrix_json(rng, rows, cols) -> dict:
    entries = [[f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in range(cols)] for _ in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


def random_rep_json(rng, dim) -> dict:
    r1, r2, r3 = dim
    return {
        "dim": list(dim),
        "F": {a: random_matrix_json(rng, r2, r1) for a in ("xi", "eta", "zeta")},
        "G": {a: random_matrix_json(rng, r3, r2) for a in ("xi", "eta", "zeta")},
        "tau": "1",
    }


# Each file-reading command with a random input file of size n, the most
# expensive kind measured: dense random matrices with entries p/q, |p| <= 3,
# q <= 3 (random pairs are non-members, random triples fail the checks).
FILE_CAPPED = [
    (["quiver", "check", "--rep"], "rep size", 240, lambda rng, n: random_rep_json(rng, (n // 3, n - 2 * (n // 3), n // 3))),
    (
        ["quiver", "stability", "--theta0=-4,0,2", "--theta1=4,0,-2", "--budget", "32", "--rep"],
        "rep size",
        9,
        lambda rng, n: random_rep_json(rng, (2, 3, n - 5)),
    ),
    (["cm", "verify", "--tau", "1", "--pair"], "pair size", 80, lambda rng, n: {"X": random_matrix_json(rng, n, n), "Y": random_matrix_json(rng, n, n)}),
    (
        ["bvar", "check", "--triple"],
        "triple size",
        50,
        lambda rng, n: {
            "Y": random_matrix_json(rng, n, n),
            "Z": random_matrix_json(rng, n, n),
            "v": [str(rng.randint(-3, 3)) for _ in range(n)],
            "tau": "1",
        },
    ),
]


@pytest.mark.parametrize("argv, size, cap, content", FILE_CAPPED, ids=[" ".join(case[0][:2]) for case in FILE_CAPPED])
def test_file_size_caps(argv, size, cap, content, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content(random.Random(cap), cap)))
    # the command ran to its payload (a random pair is a non-member: exit 1 with its ranks)
    assert dispatch(argv + [str(path)])[1]["payload"] is not None
    path.write_text(json.dumps(content(random.Random(cap), cap + 1)))
    code, envelope = dispatch(argv + [str(path)])
    assert code == 1 and envelope["error"] == f"{argv[0]} {argv[1]} is limited to {size} <= {cap}"


TOO_LONG = "rationals are limited to 50 digits in numerator and denominator"
FIFTY = "7" * 49 + "1/" + "3" * 49 + "1"  # 50 digits over 50 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["bvar", "jordan", "--k", "80", "--u=-" + FIFTY, "--tau", "5/7"],
        ["bvar", "fiber", "--lambda", "2,1,1,1,1,1,1,1,1", "--samples", "16", "--u=" + FIFTY, "--tau=" + FIFTY],
        ["nc", "dims", "--max-degree", "48", "--tau=-" + FIFTY],
    ],
    ids=["bvar jordan", "bvar fiber", "nc dims"],
)
def test_rationals_at_the_digit_bound_run_and_above_it_are_refused(argv):
    # the output of bvar jordan has about k * 50 digits per coefficient, under
    # the 4300 that int -> str allows
    run_ok(argv)
    for longer in ("7" + FIFTY, "7" * 60, "7" * 4000, "7" * 4000 + "/7"):
        code, envelope = dispatch([a.replace(FIFTY, longer) for a in argv])
        assert code == 1 and envelope["error"] == TOO_LONG


def test_joint_digit_caps():
    # nc normal-form: word length * tau digits; each coefficient at tau has
    # about (word length / 2) * (tau digits) digits
    word = "yx" * 400
    run_ok(["nc", "normal-form", "--word", word, "--tau=77777777/11"])
    for tau in ("777777777/11", "777777777777/11"):
        code, envelope = dispatch(["nc", "normal-form", "--word", word, "--tau=" + tau])
        assert code == 1 and envelope["error"] == "nc normal-form is limited to word length * tau digits <= 6400"
    run_ok(["nc", "normal-form", "--word", word, "--tau", "t"])
    # cm sample: the digits of the spectrum and of tau, 2 * 89 + 12 = 190 at the cap
    spectrum = "--spectrum=" + ",".join(str(i) for i in range(10, 99))
    run_ok(["cm", "sample", "--n", "89", spectrum, "--tau=123456789012"])
    code, envelope = dispatch(["cm", "sample", "--n", "89", spectrum, "--tau=1234567890123"])
    assert code == 1 and envelope["error"] == "cm sample is limited to spectrum and tau digits <= 190"


def test_long_integers_in_input_files_are_refused(tmp_path):
    # json would build the integer with int(), which refuses 4300 digits and more
    path = tmp_path / "pair.json"
    for entry in ("7" * 51, "7" * 5000):
        matrix = '{"rows": 1, "cols": 1, "entries": [[%s]]}' % entry
        path.write_text('{"X": %s, "Y": %s}' % (matrix, matrix))
        code, envelope = dispatch(["cm", "verify", "--pair", str(path)])
        assert code == 1 and envelope["error"] == TOO_LONG


@pytest.mark.parametrize(
    "argv", [["quiver", "check", "--tau", "1", "--rep"], ["bvar", "check", "--triple"], ["cm", "verify", "--pair"]]
)
@pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"X": ', "}")])
def test_deeply_nested_input_files_are_domain_errors(argv, opening, closing, tmp_path, capsys):
    # json.load recurses once per level, so 100,000 levels exceed the recursion limit
    path = tmp_path / "deep.json"
    path.write_text(opening * 100_000 + "1" + closing * 100_000)
    assert main(argv + [str(path)]) == 1
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["status"] == "error" and envelope["error"] == f"input file {str(path)!r} is nested too deeply"


def test_report_cap(tmp_path):
    code, envelope = dispatch(["report", "--n", "21", "--out", str(tmp_path / "t")])
    assert code == 1 and envelope["error"] == "report is limited to n <= 20"
    assert not (tmp_path / "t").exists()


def test_deep_counting_arguments_end_in_an_envelope(capsys):
    # the partition counts are bottom-up tables, so no recursion limit is hit
    assert main(["ic", "betti", "--n", "1500"]) == 0
    betti = json.loads(capsys.readouterr().out)["payload"]["betti"]
    # P(n, 2) = floor(n / 2) and P(n, 3) = round(n^2 / 12)
    assert len(betti) == 1500 and betti[:3] == [1, 750, 187500] and betti[-2:] == [1, 1]
    assert main(["cm", "fixed-points", "--n", "2000"]) == 0
    count = json.loads(capsys.readouterr().out)["payload"]["count"]
    assert count == 4720819175619413888601432406799959512200344166  # p(2000)


# ---------------------------------------------------------------------------
# the command table as a whole


def table_commands(parser: argparse.ArgumentParser | None = None) -> dict[str, argparse.ArgumentParser]:
    """Each command's name and parser, read from a parser (the whole command table by default)."""
    found = {}

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    if sub.get_default("run") is None:
                        walk(sub)
                    else:
                        found[sub.get_default("name")] = sub

    walk(parser or build_parser())
    return found


def test_readme_lists_the_declared_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `uhl ([^`]+)` \| (.+?) \| (\d+) \|$", readme, re.M)
    listed = {(command, size.strip("`").removeprefix("--"), int(cap)) for command, size, cap in rows}
    declared = {
        (name, flag, limit) for name, parser in table_commands().items() for flag, limit, *_ in parser.get_default("caps")
    }
    assert listed == declared


def parse_through(parser: argparse.ArgumentParser, argv: list[str]) -> tuple[int, str, str, dict | None]:
    """parser.parse_args(argv) with stdout and stderr captured: (exit code, stdout, stderr, parsed fields)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, fields = 0, vars(parser.parse_args(argv))
        except SystemExit as exc:  # help, and argparse usage errors
            code, fields = exc.code, None
    return code, out.getvalue(), err.getvalue(), fields


def narrowing_corpus() -> list[list[str]]:
    """The golden command lines, help at every level, and the usage errors around a command."""
    names = sorted(table_commands())
    groups = sorted({name.split()[0] for name in names if " " in name})
    return [
        *(command.split(" ") for command in sorted(GOLDEN)),
        ["-h"],
        *([group, "-h"] for group in groups),
        *(name.split() + ["-h"] for name in names),
        [],
        ["ic"],
        ["bogus"],
        ["ic", "bogus"],
        ["ic", "stalk", "--n", "3", "--m", "0"],
        ["report", "--n", "3"],
        ["ic", "betti", "--n", "x"],
        ["ic", "betti", "--n"],
        ["nc", "dims", "--max", "3"],
        ["ic", "betti", "--n", "3", "--bogus"],
        ["ic", "betti", "--n", "3", "stray"],
        ["--n", "3", "ic", "betti"],
        ["ic", "betti", "--n", "3", "ic", "betti"],
        # an error after a command of each other top-level entry prints the whole table's usage line
        ["report", "--n", "3", "--out", "tables", "--bogus"],
        ["cm", "fixed-points", "--n", "3", "--bogus"],
        ["bvar", "jordan", "--k", "2", "stray"],
        ["nc", "dims", "--max-degree", "2", "--bogus"],
        ["quiver", "alpha", "--r", "1", "--d", "0", "--n", "2", "stray"],
    ]


@pytest.mark.parametrize("argv", narrowing_corpus(), ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_narrowed_parser_matches_the_whole_table(monkeypatch, argv):
    # help wraps at the terminal width; pin it so both sides format alike
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_through(build_parser(argv), argv) == parse_through(build_parser(), argv)


def top_level_entries(parser: argparse.ArgumentParser) -> list[str]:
    """The names of the top-level entries a parser holds."""
    (action,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(action.choices)


def test_a_command_line_registers_only_its_command():
    commands = table_commands()
    for name in commands:
        parser = build_parser(name.split() + ["--n", "3"])
        assert list(table_commands(parser)) == [name] and top_level_entries(parser) == name.split()[:1]
    for argv in ([], ["-h"], ["ic", "-h"], ["ic", "bogus"], ["--n", "3", "ic", "betti"]):
        parser = build_parser(argv)
        assert table_commands(parser).keys() == commands.keys() and top_level_entries(parser) == list(cli.TOP_LEVEL)


@pytest.mark.parametrize("argv", [["ic", "betti", "--n", "3"], ["ic", "betti", "--n", "3", "--bogus"]])
def test_main_without_argv_narrows_on_sys_argv(monkeypatch, capsys, argv):
    def exit_code(call):
        try:
            return call()
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    expected = exit_code(lambda: main(argv)), capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: seen.append(argv) or build_parser(argv))
    monkeypatch.setattr(sys, "argv", ["uhl", *argv])
    assert (exit_code(main), capsys.readouterr()) == expected
    assert seen == [argv]


# The entry point of the ``uhl`` console script, run as its own process.
LAUNCH = "import sys; from uhlenbeck.cli import main; sys.exit(main())"
SRC = str(Path(uhlenbeck.__file__).resolve().parents[1])


@pytest.mark.parametrize("argv", [["--help"], ["ic", "betti", "--help"]])
def test_uhl_process_help_is_the_whole_table_help(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True)
    code, out, err, _ = parse_through(build_parser(), argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode("utf-8"), err.encode("utf-8"))


def run_main(argv) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def assert_envelope(argv):
    """Exit 0 or 1 with a JSON envelope (or a CSV table), or exit 2 from argparse."""
    code, out = run_main(argv)
    if code == 2:
        assert out == "", argv
        return
    assert code in (0, 1), argv
    if code == 0 and "--csv" in argv and not out.startswith("{"):
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1, argv
        return
    envelope = json.loads(out)
    assert set(envelope) >= {"status", "payload", "meta"}, argv
    assert envelope["status"] == ("ok" if code == 0 else "error"), argv


def test_fuzz_command_lines(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    rep = monad_of_point((Fraction(1), Fraction(2)), Fraction(1))
    (tmp_path / "rep.json").write_text(json.dumps(rep_to_json(rep)))
    (tmp_path / "junk.json").write_text("{not json")
    paths = st.sampled_from([str(tmp_path / name) for name in ("rep.json", "junk.json", "missing.json")])
    # long rationals: up to the digit bound and past it, past int()'s 4300 digits too
    sevens = st.integers(40, 5000).map(lambda n: "7" * n)
    long_rationals = sevens | sevens.map(lambda s: s + "/7") | sevens.map(lambda s: "-1/" + s)
    rationals = st.sampled_from(["1", "0", "-2", "3/7", "t", "1/0", "x", "", "1e3"]) | long_rationals
    thetas = st.sampled_from(["-1,0,1", "1,0,-1", "0,0,0", "1,0", "a,b,c", "1/0,0,0"])
    text = {
        "tau": rationals,
        "u": rationals,
        "theta0": thetas,
        "theta1": thetas,
        "spectrum": st.sampled_from(["0,1,3", "1,2", "1,1,2", "0,1/0", "", "x"]) | long_rationals.map(lambda s: "0,1," + s),
        "word": st.text("xyz q", max_size=8),
        "lam": st.sampled_from(["", "0", "3", "2,1", "1,2", "2,0", "-1", "x", ","]),
        "rep": paths,
        "pair": paths,
        "triple": paths,
        "out": st.just(str(tmp_path / "report")),
    }
    # measured caps: the flag they measure and a text of a given size
    measured = {"word length": ("word", lambda n: "y" * n), "lambda size": ("lam", str)}
    commands = table_commands()

    def argv_for(name):
        parser = commands[name]
        above = {}  # flag dest -> values above its cap
        for flag, limit, *size in parser.get_default("caps"):
            if size and flag not in measured:
                continue  # read from an input file or joint: test_file_size_caps and test_joint_digit_caps cover it
            dest, build = measured[flag] if size else (flag.replace("-", "_"), str)
            above[dest] = st.integers(limit + 1, limit + 10**6).map(build)
        parts = []
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            option = action.option_strings[0]
            if action.nargs == 0:
                parts.append(st.sampled_from([[], [option]]))
                continue
            values = st.integers(-3, 4).map(str) if action.type is int else text[action.dest]
            if action.dest in above:
                values = values | above[action.dest]
            given_value = values.map(lambda v, option=option: [f"{option}={v}"])
            parts.append(given_value if action.required else st.just([]) | given_value)
        parts.append(st.sampled_from([[], [], [], [], [], ["--bogus"], ["stray"]]))
        return st.tuples(*parts).map(lambda ps: name.split() + [a for p in ps for a in p])

    @settings(max_examples=160, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(sorted(commands)).flatmap(argv_for))
    def check(argv):
        assert_envelope(argv)

    check()


def test_fuzz_input_files(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    rationals = st.one_of(st.integers(-3, 3), st.sampled_from(["1", "-1/2", "3/7", "0", "1/0", "x", "", 1.5, True, None]))
    small = st.integers(0, 2)

    def matrix(rows, cols):
        entries = st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return entries.map(lambda e: {"rows": rows, "cols": cols, "entries": e})

    def rep(dim):
        r1, r2, r3 = dim
        maps = {
            "F": st.fixed_dictionaries({a: matrix(r2, r1) for a in ("xi", "eta", "zeta")}),
            "G": st.fixed_dictionaries({a: matrix(r3, r2) for a in ("xi", "eta", "zeta")}),
        }
        return st.fixed_dictionaries({"dim": st.just(list(dim)), "tau": rationals, **maps})

    def triple(k):
        vector = st.lists(rationals, min_size=k, max_size=k)
        return st.fixed_dictionaries({"Y": matrix(k, k), "Z": matrix(k, k), "v": vector, "tau": rationals})

    def pair(k):
        return st.fixed_dictionaries({"X": matrix(k, k), "Y": matrix(k, k)})

    keys = ["dim", "F", "G", "tau", "X", "Y", "Z", "v", "rows", "cols", "entries", "xi", "eta", "zeta"]
    junk = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3) | st.tuples(small, small).flatmap(lambda rc: matrix(*rc)),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.sampled_from(keys), children, max_size=4),
        max_leaves=8,
    )
    contents = {
        "rep": st.tuples(small, small, small).flatmap(rep),
        "triple": st.integers(0, 3).flatmap(triple),
        "pair": st.integers(0, 3).flatmap(pair),
    }
    heads = {
        "rep": [
            ["quiver", "check"],
            ["quiver", "check", "--tau", "1"],
            ["quiver", "stability", "--theta0=0,0,0"],
            ["quiver", "stability", "--theta0=-1,0,1", "--theta1=1,0,-1", "--budget", "2"],
        ],
        "triple": [["bvar", "check"], ["bvar", "check", "--tau", "1"]],
        "pair": [["cm", "verify"], ["cm", "verify", "--tau", "2"]],
    }
    path = tmp_path / "input.json"
    cases = st.sampled_from(sorted(heads)).flatmap(
        lambda kind: st.tuples(
            st.sampled_from(heads[kind]).map(lambda head: head + [f"--{kind}", str(path)]),
            (contents[kind] | junk).map(json.dumps) | st.text(max_size=12),
        )
    )

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(cases)
    def check(case):
        argv, text = case
        path.write_text(text, encoding="utf-8")
        assert_envelope(argv)

    check()


def test_seeded_commands_are_byte_identical_across_hash_seeds(tmp_path):
    commands = [
        ["bvar", "fiber", "--lambda", "3,2", "--seed", "5"],
        ["quiver", "stability", "--rep", str(DATA / "rep_252.json"), "--theta0=5,-4,5", "--theta1=1,0,-1", "--budget", "8", "--seed", "3"],
        ["ic", "strata", "--n", "6", "--csv"],
        ["nc", "normal-form", "--word", "zyxzyxyx"],
        ["report", "--n", "6", "--out", str(tmp_path / "report")],
    ]
    outputs = {}
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC}
        runs = [subprocess.run([sys.executable, "-c", LAUNCH, *argv], env=env, capture_output=True, check=True) for argv in commands]
        tables = {p.name: p.read_bytes() for p in sorted((tmp_path / "report").iterdir())}
        outputs[hash_seed] = ([run.stdout for run in runs], tables)
    assert len(outputs["0"][1]) == 4
    assert outputs["0"] == outputs["1"]


# ---------------------------------------------------------------------------
# README examples


def readme_examples() -> list[tuple[list[str], str | None]]:
    """The ``uhl ...`` lines of README's Command line block: argv and the ``# ...`` note."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, note = line.partition("#")
        if command.startswith("uhl "):
            examples.append((shlex.split(command)[1:], note.strip() or None))
    return examples


def test_readme_examples_run(tmp_path):
    pair = sample_cm(3, [0, 1, 3], 2)
    files = {
        "rep.json": rep_to_json(monad_of_point((1, 2), 1)),
        "rep131.json": rep_to_json(quiver.sample_relation_rep((1, 3, 1), 1, seed=0)),
        "pair.json": pair_to_json(pair.X, pair.Y),
        "triple.json": triple_to_json(jordan_triple(4, Fraction(1, 2), 1)),
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
    examples = readme_examples()
    assert len(examples) == 19 and sum(bool(files.keys() & set(argv)) for argv, _ in examples) == 5
    for argv, note in examples:
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "tables")
        code, out = run_main(argv)
        assert code == 0, argv
        if note is None:
            continue
        try:
            expected = json.loads(note)
        except ValueError:
            continue  # a remark, not a result
        payload = json.loads(out)["payload"]
        assert expected == payload or expected in payload.values(), argv

