"""The ``uhl`` command line, built from one command table.

``COMMANDS`` is the table: each command once, with its arguments, its
payload function ``run(args, meta) -> payload``, the caps on its size
arguments and, for the tabular commands, ``--csv`` storing the payload key
whose rows it prints.  ``build_parser(argv)`` registers, of the table, only the
command argv names and its own top-level entry; where argv names none, as
top-level and group help and usage errors do, it registers the whole table,
so those bytes are the whole table's.  ``run`` is the one validation layer: it
takes the seed from --seed, reads the command's input file once, checks the
declared caps and the file's tau against --tau, calls the payload function
and builds the envelope, so a domain error, a malformed value or a bad input
file ends in exit 1 with an error envelope.  ``dispatch`` and ``main`` parse
argv once through ``build_parser(argv)``; ``main`` prints the envelope as
JSON, or the table as CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import lru_cache
from itertools import chain
from operator import attrgetter

from . import __version__, bvariety, calogero, ic, ncalgebra, quiver
from .partitions import Partition, partitions
from .serialize import (
    digits,
    fraction_to_str,
    pair_from_json,
    pair_to_json,
    parse_fraction,
    rep_from_json,
    triple_from_json,
    triple_to_json,
)

DESCRIPTION = """Single command-line entry point; subcommands mirror the library modules.

Every run prints one JSON envelope {"status", "payload", "meta"} (or CSV for
tabular commands with --csv).  Identical flags and seed give byte-identical
output.  Exit codes: 0 ok, 1 domain error, 2 usage error.
"""


class DomainError(Exception):
    """A request the command rejects (exit 1), optionally with a payload."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload


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
    # JSON integers go through the digit bound before int() meets them
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=lambda text: int(parse_fraction(text)))
        except RecursionError:
            raise ValueError(f"input file {path!r} is nested too deeply") from None


# ---------------------------------------------------------------------------
# payload functions, run(args, meta) -> payload


def _nc_normal_form(args, meta) -> dict:
    # str prints a RatPoly coefficient as poly_str and a Fraction as fraction_to_str do
    element = ncalgebra.normal_form(args.word)
    terms = element.terms if args.tau == "t" else element.coefficients_at(parse_fraction(args.tau)).items()
    return {"terms": [{"mono": ncalgebra.monomial_str(m), "coeff": str(c)} for m, c in terms]}


def _nc_dims(args, meta) -> dict:
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


def _quiver_check(args, meta) -> dict:
    report = quiver.check_relations(args.input)
    return {"ok": report.ok, "failures": list(report.failures)}


def _quiver_stability(args, meta) -> dict:
    rep = args.input
    theta0 = _parse_theta(args.theta0)
    theta1 = _parse_theta(args.theta1) if args.theta1 else None
    if rep.dim[0] <= 1 and rep.dim[2] <= 1:
        verdict, witness = quiver.decide_stability_121(rep, theta0, theta1)
    else:
        witness = quiver.find_destabilizer(rep, theta0, theta1, budget=args.budget, seed=meta["seed"])
        verdict = "unstable" if witness else "unknown"
    payload = {"verdict": verdict}
    if witness:
        payload["witness"] = {
            "dim": list(witness.dim),
            "slopes": [fraction_to_str(s) for s in witness.slopes],
        }
    return payload


def _cm_verify(args, meta) -> dict:
    x, y = args.input
    result = calogero.verify_cm(x, y, parse_fraction(args.tau))
    payload = result._asdict()
    if not result.member:
        raise DomainError("pair is not a member", payload)
    return payload


def _cm_sample(args, meta) -> dict:
    spectrum = [parse_fraction(s) for s in args.spectrum]
    pair = calogero.sample_cm(args.n, spectrum, parse_fraction(args.tau))
    return {**pair_to_json(pair.X, pair.Y), "tau": fraction_to_str(pair.tau), "sign": pair.sign}


def _bvar_check(args, meta) -> dict:
    check = bvariety.check_btriple(args.input)
    payload = check._asdict()
    if check.ok:
        payload["support"] = str(bvariety.support(args.input).poly)
    return payload


def _bvar_jordan(args, meta) -> dict:
    triple = bvariety.jordan_triple(args.k, parse_fraction(args.u), parse_fraction(args.tau))
    payload = triple_to_json(triple)
    payload["support"] = str(bvariety.support(triple).poly)
    return payload


def _bvar_components(args, meta) -> dict:
    tau = parse_fraction(args.tau)
    reports = [bvariety.component_dimension(lam, tau) for lam in partitions(args.k)]
    rows = _rows(reports, "lam.key orbit_dim solution_dim total", "lambda orbit_dim solution_dim total")
    return {"k": args.k, "components": rows}


def _bvar_fiber(args, meta) -> dict:
    lam = _parse_partition(args.lam)
    probe = bvariety.fiber_probe(lam, parse_fraction(args.u), parse_fraction(args.tau), args.samples, meta["seed"])
    fields = "lam.key k stratum_dim sample_dims measured upper_bound cyclic_found"
    row = _rows([probe], fields, "lambda k stratum_dim sample_dims measured upper_bound cyclic_found")[0]
    row["sample_dims"] = list(row["sample_dims"])  # a tuple in the record, a list in the payload
    return row


def _ic_stalk(args, meta) -> dict:
    stalk = ic.ic_stalk(args.n, args.m, _parse_partition(args.lam))
    return {"poly": str(stalk), "total": stalk.total}


# the strata rows of ``ic strata`` and of report's strata.csv
_STRATA = ("m lam.key dim is_open", "m lambda dim open")


def _ic_fixed_points(args, meta) -> dict:
    rows = _rows(ic.uhlenbeck_fixed_points(args.n), "m lam.key k0 kinf attracting", "m lambda k0 kinf attracting")
    return {"n": args.n, "count": len(rows), "count_formula": ic.uhlenbeck_fixed_point_count(args.n), "points": rows}


def _ic_audit(args, meta) -> dict:
    fields = "stratum.m stratum.lam.key stratum.dim codim fiber_bound strict"
    return {"n": args.n, "rows": _rows(ic.smallness_audit(args.n), fields, "m lambda dim codim fiber_bound strict")}


def _report(args, meta) -> dict:
    """Write strata, stalk, Betti and fixed-point tables as CSV files."""
    n, out_dir = args.n, args.out
    os.makedirs(out_dir, exist_ok=True)
    strata = ic.strata(n)
    strata_rows = _rows(strata, *_STRATA)
    for row in strata_rows:
        row["codim"] = 2 * n - row["dim"]
    stalks = [(st, ic.ic_stalk(n, st.m, st.lam)) for st in strata]
    stalk_rows = [{"m": st.m, "lambda": st.lam.key, "stalk": str(s), "total": s.total} for st, s in stalks]
    betti_rows = [{"n": k, "betti": " ".join(str(b) for b in ic.punctual_hilbert_betti(k))} for k in range(1, n + 1)]
    tables = [
        ("strata.csv", ["m", "lambda", "dim", "codim", "open"], strata_rows),
        ("stalks.csv", ["m", "lambda", "stalk", "total"], stalk_rows),
        ("betti.csv", ["n", "betti"], betti_rows),
        ("fixed_points.csv", ["m", "lambda", "k0", "kinf", "attracting"], _ic_fixed_points(args, meta)["points"]),
    ]
    for name, header, rows in tables:
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, header, rows)
    return {"out": out_dir, "files": [name for name, _, _ in tables]}


def _rows(records, fields: str, columns: str) -> list[dict]:
    """Each record's values at the dotted field paths, named by the columns in order (the --csv header order)."""
    values, names = attrgetter(*fields.split()), columns.split()
    return [dict(zip(names, row)) for row in map(values, records)]


def _write_csv(fh, header: list[str], rows: list[dict]):
    """A header line, then each row's values in header order (a key outside it raises ValueError)."""
    writer = csv.DictWriter(fh, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# the command table

# The entries of ``uhl``: five command groups and the report command.
TOP_LEVEL = {
    "nc": "graded algebra normal forms and dimensions",
    "quiver": "quiver representations and stability",
    "cm": "Calogero-Moser pairs",
    "bvar": "commutator triples (Y, Z, v)",
    "ic": "strata, stalks, Betti tables, fixed points",
    "report": "write strata/stalk/Betti/fixed-point tables",
}

REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}

# Every command once: name -> (payload function, caps, arguments).  A cap
# ``(flag, limit)`` holds an integer flag between 0 and limit; ``(name, limit,
# size)`` holds ``size(args)`` there, measured from a text flag or from
# ``args.input``, the input file as ``run`` read it.  Each limit is set so
# that the most expensive accepted argv takes under two seconds in a
# subprocess on a 2-vCPU x86-64 host; README.md lists the caps.  An argument
# ``(flag, options)`` is ``add_argument(flag, **options)``; a ``--csv`` flag
# stores the payload key whose rows it prints.
COMMANDS = {
    # each coefficient at a rational tau has about (word length / 2) * (tau digits) digits
    "nc normal-form": (
        _nc_normal_form,
        (
            ("word length", 800, lambda a: len(a.word)),
            ("word length * tau digits", 6400, lambda a: len(a.word) * (1 if a.tau == "t" else digits(a.tau))),
        ),
        (("--tau", {"default": "t", "help": "rational value, or 't' for symbolic"}), ("--word", REQUIRED)),
    ),
    "nc dims": (_nc_dims, (("max-degree", 48),), (("--max-degree", REQUIRED_INT), ("--tau", {"default": "1"}))),
    "quiver check": (
        _quiver_check,
        (("rep size", 240, lambda a: sum(a.input.dim)),),
        (("--rep", REQUIRED), ("--tau", {})),
    ),
    # the search cost grows with both, so the two caps go together; at both, tests/data/rep_252.json takes
    # 0.10 s with --theta0=-1,0,1 --theta1=5,-4,5, tests/data/rep_234.json 0.09 s, each 0.07-0.08 s in the
    # other order and 0.07 s for a bare start (median of 5 subprocesses, 2-vCPU x86-64, Python 3.11)
    "quiver stability": (
        _quiver_stability,
        (("rep size", 9, lambda a: sum(a.input.dim)), ("budget", 32)),
        (
            ("--rep", REQUIRED),
            ("--theta0", REQUIRED),
            ("--theta1", {}),
            ("--budget", {"type": int, "default": 32}),
            ("--seed", {"type": int}),
        ),
    ),
    "quiver alpha": (
        lambda a, meta: {"alpha": list(quiver.alpha(a.r, a.d, a.n))},
        (),
        (("--r", REQUIRED_INT), ("--d", REQUIRED_INT), ("--n", REQUIRED_INT)),
    ),
    "cm verify": (
        _cm_verify,
        (("pair size", 80, lambda a: a.input[0].rows),),
        (("--pair", REQUIRED), ("--tau", {"default": "1"})),
    ),
    # the integer form of the entries tau / (x_i - x_j) grows with these digits
    "cm sample": (
        _cm_sample,
        (("n", 100), ("spectrum and tau digits", 190, lambda a: sum(map(digits, [a.tau, *a.spectrum])))),
        (
            ("--n", REQUIRED_INT),
            # an empty --spectrum= is no values, for n = 0
            (
                "--spectrum",
                {
                    "required": True,
                    "type": lambda s: s.split(",") if s else [],
                    "help": "comma-separated distinct rationals",
                },
            ),
            ("--tau", {"default": "1"}),
        ),
    ),
    "cm fixed-points": (
        lambda a, meta: {"n": a.n, "count": calogero.cm_fixed_point_count(a.n)},
        (("n", 4000),),
        (("--n", REQUIRED_INT),),
    ),
    "bvar check": (
        _bvar_check,
        (("triple size", 50, lambda a: a.input.size),),
        (("--triple", REQUIRED), ("--tau", {})),
    ),
    "bvar jordan": (
        _bvar_jordan,
        (("k", 80),),
        (("--k", REQUIRED_INT), ("--u", {"default": "0"}), ("--tau", {"default": "1"})),
    ),
    "bvar components": (
        _bvar_components,
        (("k", 12),),
        (
            ("--k", REQUIRED_INT),
            ("--tau", {"default": "1"}),
            ("--csv", {"action": "store_const", "const": "components"}),
        ),
    ),
    # --samples multiplies the cost of every lambda, so the two caps go together
    "bvar fiber": (
        _bvar_fiber,
        (("lambda size", 10, lambda a: _parse_partition(a.lam).size), ("samples", 16)),
        (
            ("--lambda", {"dest": "lam", "required": True}),
            ("--u", {"default": "0"}),
            ("--tau", {"default": "1"}),
            ("--samples", {"type": int, "default": 8}),
            ("--seed", {"type": int}),
        ),
    ),
    "ic stalk": (
        _ic_stalk,
        (("n", 40),),
        (("--n", REQUIRED_INT), ("--m", REQUIRED_INT), ("--lambda", {"dest": "lam", "required": True})),
    ),
    "ic betti": (
        lambda a, meta: {"n": a.n, "betti": ic.punctual_hilbert_betti(a.n)},
        (("n", 6000),),
        (("--n", REQUIRED_INT),),
    ),
    "ic strata": (
        lambda a, meta: {"n": a.n, "strata": _rows(ic.strata(a.n), *_STRATA)},
        (("n", 26),),
        (("--n", REQUIRED_INT), ("--csv", {"action": "store_const", "const": "strata"})),
    ),
    "ic fixed-points": (_ic_fixed_points, (("n", 22),), (("--n", REQUIRED_INT),)),
    "ic audit": (
        _ic_audit,
        (("n", 26),),
        (("--n", REQUIRED_INT), ("--csv", {"action": "store_const", "const": "rows"})),
    ),
    "report": (_report, (("n", 20),), (("--n", REQUIRED_INT), ("--out", REQUIRED))),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv: only the command argv names, under its own top-level entry.

    Where argv names no command (help, an unknown command, options before the
    command), and with no argv, it is the whole table, with no metavar: argparse
    names the action by it in a missing or unknown command error.  A narrowed
    parser spells every top-level choice as its metavar, so that an error after
    its command, such as an unrecognized argument, prints the whole table's usage.
    """
    head = list(argv or ())[:2]
    named = [name for name in COMMANDS if name.split() in (head[:1], head)]
    parser = argparse.ArgumentParser(prog="uhl", description=DESCRIPTION)
    whole_usage = {"metavar": "{" + ",".join(TOP_LEVEL) + "}"} if named else {}
    sub = parser.add_subparsers(dest="command", required=True, **whole_usage)
    entries = {name: sub.add_parser(name, help=TOP_LEVEL[name]) for name in (head[:1] if named else TOP_LEVEL)}
    groups = {name: p.add_subparsers(dest="subcommand", required=True) for name, p in entries.items() if name not in COMMANDS}
    for name in named or COMMANDS:
        run, caps, arguments = COMMANDS[name]
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf) if group else entries[leaf]
        p.set_defaults(name=name, run=run, caps=caps)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


# ---------------------------------------------------------------------------
# the boundary


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Run a parsed command line; returns (exit code, result envelope).

    The seed is --seed, or 0.  The file named by --rep, --triple or --pair is
    read and validated once, into ``args.input``, before the caps; after them
    a tau stored in the file must agree with --tau, and goes into meta.
    """
    tau_text, seed = getattr(args, "tau", None), getattr(args, "seed", None)
    meta = {"seed": 0 if seed is None else seed, "tau": "1" if tau_text is None else tau_text, "version": __version__}
    try:
        for flag, reader in (("rep", rep_from_json), ("triple", triple_from_json), ("pair", pair_from_json)):
            if flag in vars(args):
                args.input = reader(_load_json(getattr(args, flag)))
        for flag, limit, *size in args.caps:
            value = size[0](args) if size else getattr(args, flag.replace("-", "_"))
            if value > limit:
                raise DomainError(f"{args.name} is limited to {flag} <= {limit}")
            if value < 0:
                raise DomainError(f"{args.name} needs {flag} >= 0")
        stored = getattr(vars(args).get("input"), "tau", None)
        if stored is not None:
            if tau_text is not None and parse_fraction(tau_text) != stored:
                kind = "representation" if "rep" in vars(args) else "triple"
                raise DomainError(f"--tau disagrees with the tau stored in the {kind} file")
            meta["tau"] = fraction_to_str(stored)
        payload = args.run(args, meta)
    except (DomainError, ValueError, OSError, KeyError) as exc:
        return 1, {"status": "error", "error": str(exc), "payload": getattr(exc, "payload", None), "meta": meta}
    return 0, {"status": "ok", "payload": payload, "meta": meta}


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Parse argv and run its command; returns (exit code, result envelope)."""
    return run(build_parser(argv).parse_args(argv))


_SCALARS = frozenset((str, int, bool, float, type(None)))


@lru_cache(maxsize=None)
def _encoder(level: int):
    """The C encoder for a flat container at indent level ``level``: its items
    on their own lines at level + 1, its brackets left on the first and last."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": ")).encode


def _flat(values) -> bool:
    """Whether each of a list of values is a scalar or an empty container."""
    return _SCALARS.issuperset(map(type, values)) or all(type(v) in _SCALARS or not v for v in values)


def _dumps(value, level: int = 0) -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)`` for a JSON value
    with string keys, written at indent level ``level``.

    A flat container is one call to ``_encoder``, with its brackets moved to
    their own lines.  A list of non-empty flat dicts, or of non-empty lists of
    scalars (every table and matrix), is one call at its rows' level; one
    ``replace`` then puts each row boundary on its lines.  A boundary is the only
    raw ``},`` or ``],`` newline and indent before a bracket, since JSON escapes
    a newline inside a string.  Anything else recurses.
    """
    encode = _encoder(level)
    if not value or not isinstance(value, (dict, list, tuple)):
        return encode(value)
    pad, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        if _flat(list(value.values())):
            return "{" + inner + encode(value)[1:-1] + pad + "}"
        body = [encode(k) + ": " + _dumps(v, level + 1) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if _flat(value):
        return "[" + inner + encode(value)[1:-1] + pad + "]"
    kinds = set(map(type, value))
    if kinds == {dict}:
        table = all(value) and _flat(list(chain.from_iterable(map(dict.values, value))))
    else:
        # no empty list in a list row: [], [] inside one would read as a boundary
        table = kinds <= {list, tuple} and all(value) and _SCALARS.issuperset(map(type, chain.from_iterable(value)))
    if table:
        deeper = inner + "  "
        opening, closing = "{}" if kinds == {dict} else "[]"
        boundary = closing + "," + deeper + opening
        body = _encoder(level + 1)(value)[2:-2].replace(boundary, inner + closing + "," + inner + opening + deeper)
        return "[" + inner + opening + deeper + body + inner + closing + pad + "]"
    return "[" + inner + ("," + inner).join(_dumps(v, level + 1) for v in value) + pad + "]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    code, envelope = run(args)
    table = envelope["payload"][args.csv] if code == 0 and getattr(args, "csv", None) else None
    if table:
        _write_csv(sys.stdout, list(table[0]), table)
    else:
        print(_dumps(envelope))
    return code


if __name__ == "__main__":
    sys.exit(main())
