"""The library's records: immutable values whose constructors check and
normalise their fields, on every path that builds one (_replace and
unpickling too), with equality, hashing and repr by value."""

import pickle
from fractions import Fraction

import pytest

from seqident.conjecture import ConjecturedIdentity, Recurrence, ResidualRule
from seqident.expansion import CollectedWeights, LinearForm
from seqident.sequences import FIBONACCI, TRIBONACCI, SequenceSpec
from seqident.verify import Failure, IdentityReport

F_REPR = "SequenceSpec(name='F', coeffs=(1, 1), seeds=(1, 1), seed_start=1)"
T_REPR = "SequenceSpec(name='T', coeffs=(1, 1, 1), seeds=(0, 0, 1), seed_start=0)"
REC = Recurrence(3, (1, 1, Fraction(1, 2)))
REC_REPR = "Recurrence(order=3, coeffs=(1, 1, Fraction(1, 2)))"
RULE = ResidualRule(1, REC, (1,), 2, Fraction(-1, 3))
RULE_REPR = (f"ResidualRule(offset=1, recurrence={REC_REPR}, seeds=(1,), start_n=2, "
             "constant=Fraction(-1, 3))")
FAIL = Failure(5, 16, 17)

# Each record, its repr as written when the records were frozen dataclasses,
# and whether it hashes (a dict field makes it unhashable, as it did then).
RECORDS = [
    (SequenceSpec("G", [2, -1], [Fraction(1, 2), 3], seed_start=-2),
     "SequenceSpec(name='G', coeffs=(2, -1), seeds=(Fraction(1, 2), 3), seed_start=-2)", True),
    (FIBONACCI, F_REPR, True),
    (LinearForm(FIBONACCI, {3: 2, 1: 1, 2: 0}), f"LinearForm(spec={F_REPR}, terms={{1: 1, 3: 2}})",
     False),
    (CollectedWeights(6, (1, 3, 4, 7, 11), {6: 5}),
     "CollectedWeights(n=6, weights=(1, 3, 4, 7, 11), residual={6: 5})", False),
    (FAIL, "Failure(n=5, lhs=16, rhs=17)", True),
    (IdentityReport(2, 6, False, FAIL, 1.5),
     "IdentityReport(lo=2, hi=6, passed=False, first_failure=Failure(n=5, lhs=16, rhs=17), "
     "elapsed=1.5)", True),
    (REC, REC_REPR, True),
    (RULE, RULE_REPR, True),
    (ConjecturedIdentity(TRIBONACCI, None, (), (), 2, 10, "undetermined"),
     f"ConjecturedIdentity(spec={T_REPR}, weight_recurrence=None, weight_seeds=(), "
     "residual_rules=(), verified_lo=2, verified_hi=10, status='undetermined', "
     "first_failure=None)", True),
    (ConjecturedIdentity(TRIBONACCI, REC, (1, 3, 7), (RULE,), 2, 10, "refuted", FAIL),
     f"ConjecturedIdentity(spec={T_REPR}, weight_recurrence={REC_REPR}, weight_seeds=(1, 3, 7), "
     f"residual_rules=({RULE_REPR},), verified_lo=2, verified_hi=10, status='refuted', "
     "first_failure=Failure(n=5, lhs=16, rhs=17))", True),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, _", RECORDS, ids=IDS)
def test_repr_is_unchanged(record, text, _):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS], ids=IDS)
def test_fields_cannot_be_set_or_added(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_and_hash_are_by_value():
    records = [r for r, _, _ in RECORDS]
    for i, (record, _, hashable) in enumerate(RECORDS):
        twin = type(record)(*record)
        assert twin == record and twin is not record
        assert [record == other for other in records] == [j == i for j in range(len(records))]
        if hashable:
            assert hash(twin) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS], ids=IDS)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS], ids=IDS)
def test_wrong_arguments_raise(record):
    with pytest.raises(TypeError):
        type(record)()
    with pytest.raises(TypeError):
        type(record)(*record, "surplus")
    # namedtuple._replace raises ValueError before Python 3.13, TypeError from it.
    with pytest.raises((TypeError, ValueError)):
        record._replace(no_such_field=1)


def test_spec_checks_run_through_replace():
    for bad in ({"name": ""}, {"coeffs": ()}, {"seeds": (1,)}, {"coeffs": (1, 0)}):
        with pytest.raises(ValueError):
            FIBONACCI._replace(**bad)
    spec = FIBONACCI._replace(coeffs=[2, 1], seeds=iter((3, 4)))
    assert spec == SequenceSpec("F", (2, 1), (3, 4), seed_start=1)
    assert type(spec.coeffs) is tuple and type(spec.seeds) is tuple


def test_report_check_runs_through_replace():
    passed = IdentityReport(2, 6, True, None, 0.0)
    with pytest.raises(ValueError):
        passed._replace(passed=False)
    with pytest.raises(ValueError):
        passed._replace(first_failure=FAIL)
    assert passed._replace(passed=False, first_failure=FAIL) == IdentityReport(
        2, 6, False, FAIL, 0.0)


def test_linear_form_normalises_through_replace():
    form = LinearForm(FIBONACCI)._replace(terms={4: 1, 2: 0, 1: -3})
    assert form.terms == {1: -3, 4: 1} and list(form.terms) == [1, 4]
