"""The package's result and parameter records, all ``typing.NamedTuple``.

Each record keeps the ``repr`` its fields give (error messages such as
``channel._OVERFLOW`` embed it), refuses assignment, and survives
``copy.copy`` and a ``pickle`` round trip.  The five validated records
check their fields in ``__new__``, which both of those call again, while
namedtuple's ``_replace`` and ``_make`` skip it.
"""

import copy
import math
import pickle
import re

import pytest

import gicap as g
from gicap.channel import InterferenceTag as Tag
from gicap.errors import DomainError, InvalidParameterError, InvalidSplitError
from gicap.gap import _Chunk, _Judgment

_PARAMS = g.ChannelParams(100.0, 10.0, 20.0, 5.0)
_PARAMS_REPR = "ChannelParams(snr1=100.0, snr2=10.0, inr1=20.0, inr2=5.0)"
_ROWS = (g.RateConstraint(1.0, 0.0, 1.0), g.RateConstraint(0.0, 1.0, 2.0))
_ROWS_REPR = "(RateConstraint(c1=1.0, c2=0.0, rhs=1.0), RateConstraint(c1=0.0, c2=1.0, rhs=2.0))"

# (record, its repr, None or (field, bad value, error, message fragment))
RECORDS = [
    (_PARAMS, _PARAMS_REPR, ("inr1", math.nan, InvalidParameterError, "inr1=nan")),
    (
        g.InterferenceClass(Tag.WEAK, None),
        "InterferenceClass(tag=<InterferenceTag.WEAK: 'weak'>, very_strong=None)",
        None,
    ),
    (g.SymmetricRegime(3, "B1"), "SymmetricRegime(regime=3, bset='B1')", None),
    (
        g.SymmetricBoundSet(4.5, 4.25, None, 4.25),
        "SymmetricBoundSet(genie_ub=4.5, new_ub=4.25, kramer_ub=None, best=4.25)",
        None,
    ),
    (
        g.GdofParams(1.0, 0.5, 0.25),
        "GdofParams(alpha1=1.0, alpha2=0.5, alpha3=0.25)",
        ("alpha1", 0.0, DomainError, "alpha1=0.0"),
    ),
    (
        g.PowerSplit(1.0, 0.5),
        "PowerSplit(inr_p2=1.0, inr_p1=0.5)",
        ("inr_p1", -1.0, InvalidSplitError, "inr_p1=-1.0"),
    ),
    (
        g.RateConstraint(1.0, 2.0, 3.5),
        "RateConstraint(c1=1.0, c2=2.0, rhs=3.5)",
        ("c2", -1.0, InvalidParameterError, "RateConstraint(c1=1.0, c2=-1.0, rhs=3.5)"),
    ),
    (
        g.RateRegion(list(_ROWS)),
        f"RateRegion(constraints={_ROWS_REPR})",
        ("constraints", (), InvalidParameterError, "at least one constraint"),
    ),
    (
        g.GapReport(_PARAMS, Tag.MIXED_STRONG_AT_1, 0.0, 0.5, 0.25, None, 1.5, {"r1": (0.0,)}, True),
        f"GapReport(params={_PARAMS_REPR}, tag=<InterferenceTag.MIXED_STRONG_AT_1: "
        "'mixed_strong_at_1'>, delta_r1=0.0, delta_r2=0.5, delta_sum=0.25, "
        "delta_2r1_r2=None, delta_r1_2r2=1.5, paired_deltas={'r1': (0.0,)}, passed=True)",
        None,
    ),
    (
        g.Audit(Tag.WEAK, g.RateRegion(_ROWS), g.RateRegion(_ROWS[:1]), None, True, False),
        f"Audit(tag=<InterferenceTag.WEAK: 'weak'>, inner=RateRegion(constraints={_ROWS_REPR}), "
        "outer=RateRegion(constraints=(RateConstraint(c1=1.0, c2=0.0, rhs=1.0),)), "
        "report=None, one_bit=True, within_half=False)",
        None,
    ),
    (
        g.SweepResult(1, 7, "weak", (), (), {"r1": None}),
        "SweepResult(n=1, seed=7, class_filter='weak', records=(), failures=(), "
        "worst_deltas={'r1': None})",
        None,
    ),
    (g.Vertex(1.0, 0.5), "Vertex(r1=1.0, r2=0.5)", None),
    (
        g.SweepRecord(10.0, 20.0, 5.0, -3.0, "weak", 0.5, 0.25, 1.0, 1.5, 2.0, True, True, False),
        "SweepRecord(snr1_db=10.0, snr2_db=20.0, inr1_db=5.0, inr2_db=-3.0, tag='weak', "
        "delta_r1=0.5, delta_r2=0.25, delta_sum=1.0, delta_2r1_r2=1.5, delta_r1_2r2=2.0, "
        "delta_pass=True, one_bit=True, within_half=False)",
        None,
    ),
    (
        _Judgment((1.0,), ((1.0, 0.0),), (2.0,), [1.0], True, True, True, True, False),
        "_Judgment(inner=(1.0,), outer_coeffs=((1.0, 0.0),), outer=(2.0,), deltas=[1.0], "
        "passed=True, finite=True, contained=True, one_bit=True, within_half=False)",
        None,
    ),
    (_Chunk(b"\x04", [None]), "_Chunk(frame=b'\\x04', worst=[None])", None),
    (
        g.FiniteSnrSandwich(0.5, 0.75, 0.625),
        "FiniteSnrSandwich(lower=0.5, upper=0.75, d_limit=0.625)",
        None,
    ),
    (g.DifferentialRatePair(0.25, 0.5), "DifferentialRatePair(r1=0.25, r2=0.5)", None),
]


@pytest.mark.parametrize(
    "record, text, bad", RECORDS, ids=[type(record).__name__ for record, _, _ in RECORDS]
)
def test_record(record, text, bad):
    assert repr(record) == str(record) == text
    assert record == tuple(record) and len(record) == len(record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
    if bad is not None:
        field, value, error, fragment = bad
        broken = record._replace(**{field: value})  # namedtuple's unchecked constructor
        for rebuild in (copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(error, match=re.escape(fragment)):
                rebuild(broken)
        with pytest.raises(error):
            type(record)(*broken)


def test_validated_records_take_keywords():
    assert g.ChannelParams(snr1=1.0, snr2=2.0, inr1=3.0, inr2=4.0) == (1.0, 2.0, 3.0, 4.0)
    assert g.PowerSplit(inr_p2=1.0, inr_p1=0.5) == (1.0, 0.5)
    assert g.GdofParams(alpha1=1.0, alpha2=0.5, alpha3=0.25) == (1.0, 0.5, 0.25)
    assert g.RateConstraint(c1=1.0, c2=0.0, rhs=2.0) == (1.0, 0.0, 2.0)
    assert g.RateRegion(constraints=iter(_ROWS)).constraints == _ROWS


def test_records_are_hashed_as_tuples():
    assert hash(_PARAMS) == hash(tuple(_PARAMS))
    assert len({_PARAMS, (100.0, 10.0, 20.0, 5.0)}) == 1
