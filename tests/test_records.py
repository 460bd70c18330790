"""The field-only records keep the contract of a frozen dataclass.

Each record is pinned against a frozen-dataclass twin with the same name and
fields: ``repr``, ``hash``, ``==`` between records and immutability match,
and ``_asdict()`` has the twin's field names as keys.
"""

from dataclasses import FrozenInstanceError, fields, make_dataclass
from fractions import Fraction

import pytest

from uhlenbeck import bvariety, calogero, ic, quiver
from uhlenbeck.core import Subspace
from uhlenbeck.partitions import Partition

LAM = Partition((2, 1))
TAU = Fraction(3, 7)
PAIR = calogero.sample_cm(2, [0, 1], TAU)
SPACES = (Subspace.zero(1), Subspace(2, [[1, -1]]), Subspace.full(1))

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
