import json
from fractions import Fraction

import pytest

from uhlenbeck.cli import dispatch, main
from uhlenbeck.quiver import monad_of_point
from uhlenbeck.serialize import matrix_to_json, rep_to_json


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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("UHL_SEED", "17")
    envelope = run_ok(["ic", "betti", "--n", "2"])
    assert envelope["meta"]["seed"] == 17


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


def test_csv_output(capsys):
    assert main(["ic", "strata", "--n", "1", "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "m,lambda,dim,open"
    assert len(out) == 3


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
