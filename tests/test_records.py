"""The field-only records and the value classes keep the contract of a frozen dataclass.

Each record and each value class is pinned against a frozen-dataclass twin
with the same name and fields: ``repr``, ``hash``, ``==`` and immutability
match, and a record's ``_asdict()`` has the twin's field names as keys.  A
record is a tuple whose instances hold no ``__dict__``.
"""

import ast
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import uhlenbeck
from uhlenbeck import bvariety, calogero, ic, ncalgebra, quiver
from uhlenbeck.core import RatMatrix, RatPoly, Subspace
from uhlenbeck.partitions import Partition

LAM = Partition((2, 1))
TAU = Fraction(3, 7)
PAIR = calogero.sample_cm(2, [0, 1], TAU)
SPACES = (Subspace(1), Subspace(2, [[1, -1]]), Subspace.full(1))

# (record, field names in order, sample values, index of the field to change, changed value)
RECORDS = [
    (bvariety.TripleCheck, ("ok", "commutator_ok", "nilpotent_ok", "cyclic_ok"), (False, True, True, False), 3, True),
    (bvariety.ComponentReport, ("lam", "k", "orbit_dim", "solution_dim", "total"), tuple(bvariety.component_dimension(LAM, TAU)), 0, Partition((3,))),
    (
        bvariety.FiberProbe,
        ("lam", "k", "u", "tau", "solution_dim", "stratum_dim", "sample_dims", "measured", "upper_bound", "cyclic_found"),
        tuple(bvariety.fiber_probe(LAM, 0, TAU, samples=2)),
        7,
        None,
    ),
    (calogero.CMPair, ("X", "Y", "tau", "sign"), (PAIR.X, PAIR.Y, TAU, "minus"), 3, "plus"),
    (calogero.CMVerifyResult, ("member", "signs", "rank_plus", "rank_minus"), (True, ("minus",), 2, 1), 1, ("plus",)),
    (ic.Stratum, ("m", "lam"), (1, LAM), 0, 2),
    (ic.SmallnessRow, ("stratum", "codim", "fiber_bound", "strict"), (ic.Stratum(1, LAM), 4, 1, True), 0, ic.Stratum(0, LAM)),
    (ic.UhlenbeckFixedPoint, ("m", "lam", "k0", "kinf", "attracting"), (2, LAM, 0, 1, False), 4, True),
    (quiver.RelationReport, ("ok", "failures"), (False, ("xi.xi",)), 1, ("eta.eta",)),
    (quiver.StabilityWitness, ("dim", "slopes", "subspaces"), ((0, 1, 1), (Fraction(-1, 2),), SPACES), 1, (Fraction(1, 2),)),
]


@pytest.mark.parametrize("cls, names, values, index, changed", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_matches_its_frozen_dataclass_twin(cls, names, values, index, changed):
    twin = make_dataclass(cls.__name__, names, frozen=True)
    record, copy, twin_record = cls(*values), cls(*values), twin(*values)
    other = cls(*values[:index], changed, *values[index + 1 :])
    assert cls._fields == names == tuple(f.name for f in fields(twin))
    # a tuple with no instance dict: a subclass that adds a property keeps __slots__ = ()
    assert issubclass(cls, tuple) and not hasattr(record, "__dict__")
    assert repr(record) == repr(twin_record)
    assert hash(record) == hash(twin_record) == hash(copy)
    assert record == copy and not record != copy
    assert record != other and (twin_record != twin(*other)) and hash(other) == hash(twin(*other))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, changed)
        with pytest.raises(FrozenInstanceError):
            setattr(twin_record, name, changed)
    assert list(record._asdict()) == list(names)
    assert record._asdict() == {name: getattr(twin_record, name) for name in names}


def test_record_properties_are_kept():
    assert calogero.CMVerifyResult(True, ("minus", "plus"), 1, 1).sign == "minus"
    assert calogero.CMVerifyResult(False, (), 2, 2).sign is None
    assert ic.Stratum(1, LAM).dim == 4 and not ic.Stratum(1, LAM).is_open
    assert ic.Stratum(3, Partition()).is_open


REP = quiver.monad_of_point((Fraction(1), Fraction(2)), TAU)
TRIPLE = bvariety.jordan_triple(3, 0, TAU)
TERMS = (((0, 0, 0), ncalgebra.tau_poly(2)), ((1, 0, 0), ncalgebra.tau_poly(Fraction(1, 3), 1)))

# (class, field names in order, field values -> instance, sample values, index of the field to change, changed value)
VALUES = [
    (RatMatrix, ("rows", "cols", "_d", "_a"), RatMatrix._of, (2, 2, 2, (2, 4, 6, 1)), 3, (2, 4, 6, 3)),
    (ncalgebra.TauCombination, ("terms",), ncalgebra.TauCombination, (TERMS,), 0, TERMS[:1]),
    (ncalgebra.NCElement, ("terms",), ncalgebra.NCElement, (TERMS,), 0, TERMS[1:]),
    (ncalgebra.DualElement, ("terms",), ncalgebra.DualElement, (TERMS,), 0, ()),
    (ncalgebra.MPoly, ("terms",), ncalgebra.MPoly, (TERMS,), 0, TERMS[:1]),
    (Partition, ("parts",), Partition, ((2, 1),), 0, (3,)),
    (quiver.Polarization, ("theta",), lambda theta: quiver.Polarization(*theta), ((Fraction(1), Fraction(-1, 2), TAU),), 0, (TAU,) * 3),
    (quiver.QuiverRep, ("dim", "F", "G", "tau"), quiver.QuiverRep, (REP.dim, REP.F, REP.G, TAU), 3, Fraction(1)),
    (ic.GradedStalk, ("coeffs",), ic.GradedStalk, ((1, 0, 2),), 0, (1,)),
    (bvariety.BTriple, ("Y", "Z", "v", "tau"), bvariety.BTriple, (TRIPLE.Y, TRIPLE.Z, TRIPLE.v, TAU), 2, (0, 0, 1)),
    (bvariety.SupportDivisor, ("poly",), bvariety.SupportDivisor, (RatPoly((0, 0, 1), var="y"),), 0, RatPoly((1, 1), var="y")),
]


@pytest.mark.parametrize("cls, names, build, values, index, changed", VALUES, ids=[case[0].__name__ for case in VALUES])
def test_value_class_matches_its_frozen_dataclass_twin(cls, names, build, values, index, changed):
    twin = make_dataclass(cls.__name__, names, frozen=True)
    changed_values = (*values[:index], changed, *values[index + 1 :])
    record, copy, other, twin_record = build(*values), build(*values), build(*changed_values), twin(*values)
    assert cls._fields == names and all(getattr(record, name) == value for name, value in zip(names, values))
    if cls is not RatMatrix:  # RatMatrix prints its entries, not its integer form
        assert repr(record) == repr(twin_record) and repr(other) == repr(twin(*changed_values))
    if build is cls:
        assert cls(**dict(zip(names, values))) == record
    try:
        expected = hash(twin_record)
    except TypeError:  # QuiverRep holds dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(copy) and hash(other) == hash(twin(*changed_values))
    assert record == copy and not record != copy
    assert record != other and not record == other and twin_record != twin(*changed_values)
    assert record.__eq__(twin_record) is NotImplemented and record.__eq__(values[0]) is NotImplemented
    assert record != twin_record and record != values[0]
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, changed)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(twin_record, name, changed)
    assert all(getattr(record, name) == value for name, value in zip(names, values))


def test_value_classes_of_one_field_differ_by_class():
    nc, dual = ncalgebra.NCElement(TERMS), ncalgebra.DualElement(TERMS)
    assert nc != dual and not nc == dual and nc.terms == dual.terms
    assert ncalgebra.TauCombination(TERMS) != nc


def test_check_is_cached_on_a_frozen_triple():
    checked, fresh = (bvariety.BTriple(TRIPLE.Y, TRIPLE.Z, TRIPLE.v, TAU) for _ in range(2))
    assert checked.check is checked.check and checked.check.ok
    assert "check" not in vars(fresh) and checked == fresh and hash(checked) == hash(fresh)


def test_package_import_loads_no_module_and_holds_only_the_version():
    # each name is imported from its own module; the package holds only __version__
    src = str(Path(uhlenbeck.__file__).resolve().parents[1])
    probe = (
        "import sys, types, uhlenbeck; "
        "print(sorted(m for m in sys.modules if m.startswith('uhlenbeck'))); "
        "module = {*vars(types.ModuleType('m')), '__builtins__', '__cached__', '__file__', '__path__'}; "
        "print(sorted(set(vars(uhlenbeck)) - module))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "['uhlenbeck']\n['__version__']\n"


def package_modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(Path(uhlenbeck.__file__).resolve().parent.glob("*.py"))}


def package_trees() -> list[ast.Module]:
    return list(package_modules().values())


def test_every_private_function_has_a_caller_in_the_package():
    # a private helper that nothing in the package names is a leftover of a deleted route
    trees = package_trees()
    nodes = [node for tree in trees for node in ast.walk(tree)]
    private = {n.name for n in nodes if isinstance(n, ast.FunctionDef) and n.name.startswith("_") and not n.name.endswith("__")}
    named = {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert private and sorted(private - named) == []


def test_every_private_module_name_is_read_in_the_package():
    # a private constant or cache that nothing in the package reads is a leftover of a deleted route
    trees = package_trees()
    statements = [s for tree in trees for s in tree.body if isinstance(s, (ast.Assign, ast.AnnAssign))]
    targets = [t for s in statements for t in (s.targets if isinstance(s, ast.Assign) else [s.target])]
    assigned = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in assigned if name.startswith("_") and not name.endswith("__")}
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert {"_LIMIT", "_JSON_TYPES", "_DUAL_ORDER"} <= private and sorted(private - read) == []


def test_every_module_level_import_is_read_in_its_module():
    # an import that its own module never reads is a leftover of a deleted route
    unread, imported = [], 0
    for name, tree in package_modules().items():
        imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
        bound = {(a.asname or a.name).split(".")[0] for s in imports if getattr(s, "module", None) != "__future__" for a in s.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}: {b}" for b in sorted(bound - read)]
        imported += len(bound)
    assert imported > 50 and unread == []


def test_the_test_extra_lists_every_package_the_tests_import():
    # pip install -e .[test] must bring every third-party package a test module imports or
    # importorskips, or its tests skip without a word; sympy is the documented optional oracle
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    extra = tomllib.loads((root / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    local = {p.stem for p in (root / "tests").glob("*.py")} | {"uhlenbeck"}
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                imported.add(node.args[0].value)
    third_party = {name.partition(".")[0] for name in imported} - set(sys.stdlib_module_names) - local - {"sympy"}
    assert {"pytest", "hypothesis"} <= third_party and sorted(third_party - listed) == []


def test_fresh_import_loads_neither_dataclasses_nor_inspect():
    # one @dataclass in the package would bring the first two back into every fresh uhl process,
    # and one typing.NamedTuple record or typing import the third; -S leaves site-packages out,
    # so only the package's own imports count
    src = str(Path(uhlenbeck.__file__).resolve().parents[1])
    probe = "import sys, uhlenbeck.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
