"""Single command-line entry point; subcommands mirror the library modules.

Every run prints one JSON envelope {"status", "payload", "meta"} (or CSV for
tabular commands with --csv).  Identical flags and seed give byte-identical
output.  Exit codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__, bvariety, calogero, ic, ncalgebra, quiver
from .partitions import Partition, partitions
from .serialize import (
    fraction_to_str,
    matrix_to_json,
    pair_from_json,
    parse_fraction,
    rep_from_json,
    triple_from_json,
    triple_to_json,
)


class DomainError(Exception):
    pass


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text or text == "0":
        return Partition()
    return Partition(tuple(int(p) for p in text.split(",")))


def _parse_theta(text: str) -> quiver.Polarization:
    parts = [parse_fraction(p) for p in text.split(",")]
    if len(parts) != 3:
        raise DomainError("polarization needs three comma-separated rationals")
    return quiver.Polarization(*parts)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _default_seed() -> int:
    return int(os.environ.get("UHL_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uhl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="graded algebra normal forms and dimensions")
    ncsub = nc.add_subparsers(dest="subcommand", required=True)
    p = ncsub.add_parser("normal-form")
    p.add_argument("--tau", default="t", help="rational value, or 't' for symbolic")
    p.add_argument("--word", required=True)
    p = ncsub.add_parser("dims")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--tau", default="1")

    qv = sub.add_parser("quiver", help="quiver representations and stability")
    qvsub = qv.add_subparsers(dest="subcommand", required=True)
    p = qvsub.add_parser("check")
    p.add_argument("--rep", required=True)
    p.add_argument("--tau", default=None)
    p = qvsub.add_parser("stability")
    p.add_argument("--rep", required=True)
    p.add_argument("--theta0", required=True)
    p.add_argument("--theta1", default=None)
    p.add_argument("--budget", type=int, default=48)
    p.add_argument("--seed", type=int, default=None)
    p = qvsub.add_parser("alpha")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    cm = sub.add_parser("cm", help="Calogero-Moser pairs")
    cmsub = cm.add_subparsers(dest="subcommand", required=True)
    p = cmsub.add_parser("verify")
    p.add_argument("--pair", required=True)
    p.add_argument("--tau", default="1")
    p = cmsub.add_parser("sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum", required=True, help="comma-separated distinct rationals")
    p.add_argument("--tau", default="1")
    p = cmsub.add_parser("fixed-points")
    p.add_argument("--n", type=int, required=True)

    bv = sub.add_parser("bvar", help="commutator triples (Y, Z, v)")
    bvsub = bv.add_subparsers(dest="subcommand", required=True)
    p = bvsub.add_parser("check")
    p.add_argument("--triple", required=True)
    p.add_argument("--tau", default=None)
    p = bvsub.add_parser("jordan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", default="0")
    p.add_argument("--tau", default="1")
    p = bvsub.add_parser("components")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", default="1")
    p.add_argument("--csv", action="store_true")
    p = bvsub.add_parser("fiber")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--u", default="0")
    p.add_argument("--tau", default="1")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)

    icp = sub.add_parser("ic", help="strata, stalks, Betti tables, fixed points")
    icsub = icp.add_subparsers(dest="subcommand", required=True)
    p = icsub.add_parser("stalk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p = icsub.add_parser("betti")
    p.add_argument("--n", type=int, required=True)
    p = icsub.add_parser("strata")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p = icsub.add_parser("fixed-points")
    p.add_argument("--n", type=int, required=True)
    p = icsub.add_parser("audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    rp = sub.add_parser("report", help="write strata/stalk/Betti/fixed-point tables")
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommand payloads


def _run_nc(args) -> dict:
    if args.subcommand == "normal-form":
        element = ncalgebra.normal_form(args.word)
        if args.tau == "t":
            terms = [
                {"mono": ncalgebra.monomial_str(m), "coeff": c.to_str()}
                for m, c in element.terms
            ]
        else:
            tau = parse_fraction(args.tau)
            terms = [
                {"mono": ncalgebra.monomial_str(m), "coeff": fraction_to_str(c)}
                for m, c in sorted(element.coefficients_at(tau).items())
            ]
        return {"terms": terms}
    if args.subcommand == "dims":
        tau = parse_fraction(args.tau)
        table = [
            {
                "degree": i,
                "dim": ncalgebra.graded_dim(i),
                "computed": ncalgebra.graded_dim_computed(i, tau),
            }
            for i in range(args.max_degree + 1)
        ]
        return {"dims": table, "dual_dims": list(ncalgebra.dual_graded_dims(tau))}
    raise DomainError(f"unknown nc subcommand {args.subcommand}")


def _run_quiver(args, seed: int, meta: dict) -> dict:
    if args.subcommand == "alpha":
        try:
            return {"alpha": list(quiver.alpha(args.r, args.d, args.n))}
        except ValueError as exc:
            raise DomainError(str(exc))
    rep = rep_from_json(_load_json(args.rep))
    tau_flag = getattr(args, "tau", None)
    if tau_flag is not None and parse_fraction(tau_flag) != rep.tau:
        raise DomainError("--tau disagrees with the tau stored in the representation file")
    meta["tau"] = fraction_to_str(rep.tau)
    if args.subcommand == "check":
        report = quiver.check_relations(rep)
        return {"ok": report.ok, "failures": list(report.failures)}
    if args.subcommand == "stability":
        theta0 = _parse_theta(args.theta0)
        theta1 = _parse_theta(args.theta1) if args.theta1 else None
        if quiver.slope(theta0, rep.dim) != 0:
            raise DomainError("total slope of theta0 must vanish on the dimension vector")
        if rep.dim == (1, 2, 1) and theta1 is None:
            verdict, witness = quiver.decide_stability_121(rep, theta0)
        else:
            witness = quiver.find_destabilizer(rep, theta0, theta1, budget=args.budget, seed=seed)
            verdict = "unstable" if witness else "unknown"
        payload = {"verdict": verdict}
        if witness:
            payload["witness"] = {
                "dim": list(witness.dim),
                "slopes": [fraction_to_str(s) for s in witness.slopes],
            }
        return payload
    raise DomainError(f"unknown quiver subcommand {args.subcommand}")


def _run_cm(args) -> dict:
    if args.subcommand == "verify":
        x, y = pair_from_json(_load_json(args.pair))
        result = calogero.verify_cm(x, y, parse_fraction(args.tau))
        payload = {
            "member": result.member,
            "signs": list(result.signs),
            "rank_plus": result.rank_plus,
            "rank_minus": result.rank_minus,
        }
        if not result.member:
            raise DomainErrorWithPayload("pair is not a member", payload)
        return payload
    if args.subcommand == "sample":
        spectrum = [parse_fraction(s) for s in args.spectrum.split(",")]
        pair = calogero.sample_cm(args.n, spectrum, parse_fraction(args.tau))
        return {
            "X": matrix_to_json(pair.X),
            "Y": matrix_to_json(pair.Y),
            "tau": fraction_to_str(pair.tau),
            "sign": pair.sign,
        }
    if args.subcommand == "fixed-points":
        return {"n": args.n, "count": calogero.cm_fixed_point_count(args.n)}
    raise DomainError(f"unknown cm subcommand {args.subcommand}")


def _run_bvar(args, seed: int, meta: dict) -> dict:
    if args.subcommand == "check":
        triple = triple_from_json(_load_json(args.triple))
        if args.tau is not None and parse_fraction(args.tau) != triple.tau:
            raise DomainError("--tau disagrees with the tau stored in the triple file")
        meta["tau"] = fraction_to_str(triple.tau)
        check = bvariety.check_btriple(triple)
        payload = {
            "ok": check.ok,
            "commutator_ok": check.commutator_ok,
            "nilpotent_ok": check.nilpotent_ok,
            "cyclic_ok": check.cyclic_ok,
        }
        if check.ok:
            payload["support"] = str(bvariety.support(triple).poly)
        return payload
    if args.subcommand == "jordan":
        triple = bvariety.jordan_triple(args.k, parse_fraction(args.u), parse_fraction(args.tau))
        payload = triple_to_json(triple)
        payload["support"] = str(bvariety.support(triple).poly)
        return payload
    if args.subcommand == "components":
        tau = parse_fraction(args.tau)
        rows = []
        for lam in partitions(args.k):
            report = bvariety.component_dimension(lam, tau)
            rows.append(
                {
                    "lambda": lam.key,
                    "orbit_dim": report.orbit_dim,
                    "solution_dim": report.solution_dim,
                    "total": report.total,
                }
            )
        return {"k": args.k, "components": rows}
    if args.subcommand == "fiber":
        lam = _parse_partition(args.lam)
        probe = bvariety.fiber_probe(lam, parse_fraction(args.u), parse_fraction(args.tau), args.samples, seed)
        return {
            "lambda": lam.key,
            "k": probe.k,
            "stratum_dim": probe.stratum_dim,
            "sample_dims": list(probe.sample_dims),
            "measured": probe.measured,
            "upper_bound": probe.upper_bound,
            "cyclic_found": probe.cyclic_found,
        }
    raise DomainError(f"unknown bvar subcommand {args.subcommand}")


def _run_ic(args) -> dict:
    if args.subcommand == "stalk":
        lam = _parse_partition(args.lam)
        try:
            stalk = ic.ic_stalk(args.n, args.m, lam)
        except ValueError as exc:
            raise DomainError(str(exc))
        return {"poly": stalk.to_str(), "total": stalk.total}
    if args.subcommand == "betti":
        return {"n": args.n, "betti": ic.punctual_hilbert_betti(args.n)}
    if args.subcommand == "strata":
        rows = [
            {"m": st.m, "lambda": st.lam.key, "dim": st.dim, "open": st.is_open}
            for st in ic.strata(args.n)
        ]
        return {"n": args.n, "strata": rows}
    if args.subcommand == "fixed-points":
        points = ic.uhlenbeck_fixed_points(args.n)
        return {
            "n": args.n,
            "count": len(points),
            "count_formula": ic.uhlenbeck_fixed_point_count(args.n),
            "points": [
                {"m": p.m, "lambda": p.lam.key, "k0": p.k0, "kinf": p.kinf, "attracting": p.attracting}
                for p in points
            ],
        }
    if args.subcommand == "audit":
        rows = ic.smallness_audit(args.n)
        return {
            "n": args.n,
            "rows": [
                {
                    "m": r.stratum.m,
                    "lambda": r.stratum.lam.key,
                    "dim": r.stratum.dim,
                    "codim": r.codim,
                    "fiber_bound": r.fiber_bound,
                    "strict": r.strict,
                }
                for r in rows
            ],
        }
    raise DomainError(f"unknown ic subcommand {args.subcommand}")


def report_tables(n: int, out_dir: str) -> dict:
    """Write strata, stalk, Betti and fixed-point tables as CSV files."""
    if n > 20:
        raise DomainError("report is limited to n <= 20")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, header: list[str], rows: list[list]):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(name)

    write(
        "strata.csv",
        ["m", "lambda", "dim", "codim", "open"],
        [[st.m, st.lam.key, st.dim, 2 * n - st.dim, st.is_open] for st in ic.strata(n)],
    )
    write(
        "stalks.csv",
        ["m", "lambda", "stalk", "total"],
        [
            [st.m, st.lam.key, ic.ic_stalk(n, st.m, st.lam).to_str(), ic.ic_stalk(n, st.m, st.lam).total]
            for st in ic.strata(n)
        ],
    )
    write(
        "betti.csv",
        ["n", "betti"],
        [[k, " ".join(str(b) for b in ic.punctual_hilbert_betti(k))] for k in range(1, n + 1)],
    )
    write(
        "fixed_points.csv",
        ["m", "lambda", "k0", "kinf", "attracting"],
        [[p.m, p.lam.key, p.k0, p.kinf, p.attracting] for p in ic.uhlenbeck_fixed_points(n)],
    )
    return {"out": out_dir, "files": written}


# ---------------------------------------------------------------------------
# dispatch


class DomainErrorWithPayload(Exception):
    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


def _csv_payload(payload: dict) -> str | None:
    """Render the tabular part of a payload as CSV, if there is one."""
    for key in ("strata", "rows", "components", "points"):
        if key in payload and isinstance(payload[key], list) and payload[key]:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(payload[key][0].keys()))
            writer.writeheader()
            writer.writerows(payload[key])
            return buf.getvalue()
    return None


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Route argv to a subcommand; returns (exit code, result envelope)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
    tau_text = getattr(args, "tau", None)
    meta = {"seed": seed, "tau": tau_text if tau_text is not None else "1", "version": __version__}
    try:
        if args.command == "nc":
            payload = _run_nc(args)
        elif args.command == "quiver":
            payload = _run_quiver(args, seed, meta)
        elif args.command == "cm":
            payload = _run_cm(args)
        elif args.command == "bvar":
            payload = _run_bvar(args, seed, meta)
        elif args.command == "ic":
            payload = _run_ic(args)
        elif args.command == "report":
            payload = report_tables(args.n, args.out)
        else:
            raise DomainError(f"unknown command {args.command}")
    except DomainErrorWithPayload as exc:
        return 1, {"status": "error", "error": str(exc), "payload": exc.payload, "meta": meta}
    except (DomainError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return 1, {"status": "error", "error": str(exc), "payload": None, "meta": meta}
    return 0, {"status": "ok", "payload": payload, "meta": meta}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, envelope = dispatch(argv)
    if envelope.get("status") == "ok" and "--csv" in argv:
        text = _csv_payload(envelope["payload"])
        if text is not None:
            sys.stdout.write(text)
            return code
    json.dump(envelope, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
