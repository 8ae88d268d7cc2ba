"""The package's frozen records: construction, equality, hashing, immutability, pickling and reprs."""

import math
import pickle

import numpy as np
import pytest

from bellxtalk._verify import OutcomeFrame, VerificationResult, outcome_frame
from bellxtalk.bipartite import BellLabel, JointDistribution, ObservablePair
from bellxtalk.independence import ConditionKind, IndependenceRoot, PlaneCondition
from bellxtalk.information import CrosstalkReport, crosstalk_report
from bellxtalk.observables import BlochDirection, Observable, Plane, PlaneClass, Record
from bellxtalk.sampler import SampleCounts

#: each record class with one valid set of field values, by name in field order
RECORDS = [
    (BellLabel, {"s": 1, "t": 0}),
    (ObservablePair, {"a": Observable(0.5, 1.0), "b": Observable(1.0, 2.0)}),
    (JointDistribution, {"p": (0.125, 0.25, 0.375, 0.25)}),
    (OutcomeFrame, {"vectors": np.eye(4, dtype=np.complex128)}),
    (Observable, {"mu": 0.5, "eta": 1.0}),
    (BlochDirection, {"x": 0.0, "y": 0.6, "z": 0.8}),
    (PlaneClass, {"planes": (Plane.X_ZERO, Plane.Y_ZERO), "tolerance": 1e-9}),
    (CrosstalkReport, {"theta": 0.25, "entropy": 2 * math.log(2), "mutual_info": 0.0, "degree": 0.0,
                       "independent": True, "tolerance": 1e-9}),
    (PlaneCondition, {"plane": Plane.X_ZERO, "label": BellLabel(0, 0), "condition_kind": ConditionKind.SUM,
                      "target_values": (math.pi / 2, 3 * math.pi / 2)}),
    (IndependenceRoot, {"sweep_parameter": 0.5, "theta_at_root": 0.25, "bracket_width": 1e-12}),
    (SampleCounts, {"n": 10, "counts": (1, 2, 3, 4), "seed": 7}),
    (VerificationResult, {"samples": 5, "seed": 1, "maxima": (0.0,) * 6, "worst_tuple": (0.1, 0.2, 0.3, 0.4, 0, 1)}),
]

each_record = pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])


@each_record
def test_positional_and_keyword_construction_agree(cls, fields):
    record = cls(*fields.values())
    assert isinstance(record, Record)
    assert cls(**fields) == record


@each_record
def test_a_record_is_not_equal_to_the_tuple_of_its_values(cls, fields):
    record = cls(**fields)
    values = tuple(getattr(record, name) for name in fields)
    assert record != values
    assert values != record


def test_records_of_different_types_are_not_equal():
    assert BlochDirection(0.0, 0.5, 1.0) != IndependenceRoot(0.0, 0.5, 1.0)


@each_record
def test_equal_records_hash_equal(cls, fields):
    record = cls(**fields)
    if cls is OutcomeFrame:  # an ndarray field is unhashable, as it was in the frozen dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*fields.values()))


@each_record
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 0
    assert repr(record) == repr(cls(**fields))


@each_record
def test_pickle_round_trips(cls, fields):
    record = cls(**fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert repr(copy) == repr(record)
    assert copy == record


def test_outcome_frames_compare_by_their_vectors():
    pair = ObservablePair(Observable(0.5, 1.0), Observable(1.0, 2.0))
    assert outcome_frame(pair) == outcome_frame(pair)
    assert outcome_frame(pair) != outcome_frame(ObservablePair(Observable(0.5, 1.0), Observable(1.0, 2.5)))


def test_unpickling_validates_the_fields_again():
    dist = JointDistribution((0.25, 0.25, 0.25, 0.25))
    object.__setattr__(dist, "p", (0.5, 0.5, 0.5, 0.5))
    data = pickle.dumps(dist)
    with pytest.raises(ValueError, match="sum to 2.0"):
        pickle.loads(data)


@each_record
def test_a_missing_or_unknown_field_is_a_type_error_naming_the_class(cls, fields):
    *given, missing = fields
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing 1 required positional "
                                        rf"argument: '{missing}'$"):
        cls(**{name: fields[name] for name in given})
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an unexpected keyword argument 'extra'$"):
        cls(**fields, extra=0)


def test_reprs_keep_the_frozen_dataclass_text():
    assert repr(BellLabel(1, 0)) == "BellLabel(s=1, t=0)"
    assert repr(Observable(0.5, 7.0)) == "Observable(mu=0.5, eta=0.7168146928204138)"
    report = crosstalk_report(ObservablePair(Observable(0.5, 0.25), Observable(1.0, 2.0)), BellLabel(0, 1))
    assert repr(report) == (
        "CrosstalkReport(theta=0.11348290418289247, entropy=1.228731201682356, mutual_info=0.1575631594375348, "
        "degree=0.22731558874732852, independent=False, tolerance=1e-09)"
    )
