"""The result types behave as frozen dataclasses would.

Each value class is checked against a twin built here with
dataclasses.make_dataclass from the same name, fields and defaults:
construction, validation messages, repr, equality, hash, immutability,
pattern-matching order, copy and pickle.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from reachcalc.entropy import EntropyVariation, FiniteDistribution
from reachcalc.errors import DomainError, InvalidProgram
from reachcalc.lambertw import BranchChoice, WEvaluation
from reachcalc.loss import ConvexityCertificate, LossEvaluation
from reachcalc.machine import ComplexityBound, Problem, Program, Scheme, SolutionSet
from reachcalc.reachability import ReachabilityRecord
from reachcalc.search import Budget, SearchPolicy, SearchTrace

REQUIRED = dataclasses.MISSING

# (class, fields in order as (name, default), sample positional arguments)
CASES = [
    (FiniteDistribution, [("probabilities", REQUIRED)], ((0.25, 0.75),)),
    (
        EntropyVariation,
        [("index", REQUIRED), ("total_entropy", REQUIRED), ("partial_entropy", REQUIRED),
         ("variation", REQUIRED)],
        (1, 0.81, 0.31, 0.5),
    ),
    (
        WEvaluation,
        [("argument", REQUIRED), ("value", REQUIRED), ("branch", REQUIRED),
         ("residual", REQUIRED), ("iterations", REQUIRED)],
        (-0.2, -0.2591711018190738, BranchChoice.PRINCIPAL, 2.7e-17, 3),
    ),
    (
        LossEvaluation,
        [("z_hat", REQUIRED), ("z", REQUIRED), ("f_z_hat", REQUIRED), ("f_z", REQUIRED),
         ("divergence", REQUIRED)],
        (0.3, 0.7, 0.8, 0.6, 0.01),
    ),
    (
        ConvexityCertificate,
        [("ok", REQUIRED), ("min_second_difference", REQUIRED), ("points", REQUIRED),
         ("lo", REQUIRED), ("hi", REQUIRED), ("step", REQUIRED)],
        (True, 1e-9, 5, -0.3, 1.0, 0.325),
    ),
    (
        ReachabilityRecord,
        [("program_id", REQUIRED), ("p_i", REQUIRED), ("variation", REQUIRED),
         ("reachability", REQUIRED), ("branch", REQUIRED), ("energy", REQUIRED),
         ("temperature", REQUIRED), ("normalized", None), ("degenerate", False)],
        ("0011", 0.5, 0.5, 0.25, BranchChoice.LOWER, 1.4e-21, 300.0, 1.0, True),
    ),
    (Program, [("bits", REQUIRED)], ("0011",)),
    (Problem, [("target", REQUIRED)], ("0101",)),
    (
        SolutionSet,
        [("problem", REQUIRED), ("classes", REQUIRED), ("scheme", REQUIRED)],
        (Problem("0"), ((2, ("0011",)),), Scheme.UNIFORM),
    ),
    (ComplexityBound, [("bits", REQUIRED), ("witness", REQUIRED)], (4, Program("0011"))),
    (Budget, [("programs", 100_000), ("energy", math.inf)], (5, 1.0)),
    (
        SearchTrace,
        [("policy", REQUIRED), ("segments", REQUIRED), ("programs_run", REQUIRED),
         ("energy_charged", REQUIRED), ("bits_reduced", REQUIRED), ("best_found", REQUIRED),
         ("temperature", REQUIRED), ("budget_exhausted", REQUIRED)],
        (SearchPolicy.SIZE_DESCENDING, ((1, 2, (1,)),), 2, 0.0, 0, Program("0011"), 300.0, False),
    ),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


def _twin(cls, fields):
    specs = [
        (name, object) if default is REQUIRED else (name, object, dataclasses.field(default=default))
        for name, default in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _shape(signature):
    return [(p.name, p.kind, p.default) for p in signature.parameters.values()]


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_construction_matches_the_twin(cls, fields, args):
    twin = _twin(cls, fields)
    assert _shape(inspect.signature(cls)) == _shape(inspect.signature(twin))
    names = [name for name, _ in fields]
    record = cls(*args)
    assert cls(**dict(zip(names, args))) == record
    assert cls.__match_args__ == twin.__match_args__
    required = [a for a, (_, default) in zip(args, fields) if default is REQUIRED]
    bare = cls(*required)
    for name, default in fields:
        if default is not REQUIRED:
            assert getattr(bare, name) == default


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_repr_eq_and_hash_match_the_twin(cls, fields, args):
    record = cls(*args)
    values = tuple(getattr(record, name) for name, _ in fields)
    twin = _twin(cls, fields)(*values)
    assert repr(record) == repr(twin)
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(twin) == hash(values)
    assert record != values and record != twin and record != object()
    assert record.__eq__(values) is NotImplemented


def test_records_of_different_classes_are_never_equal():
    records = [cls(*args) for cls, _, args in CASES]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) == (i == j)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_records_are_frozen(cls, fields, args):
    record = cls(*args)
    for name, _ in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*args)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(cls, fields, args):
    record = cls(*args)
    clones = [copy.copy(record), copy.deepcopy(record)]
    clones += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record) and repr(clone) == repr(record)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Program("1"), InvalidProgram, "program length must be even, got 1 bits"),
        (lambda: Problem("2"), DomainError, "target must be over {0,1}, got '2'"),
        (lambda: Budget(programs=2.5), DomainError, "program budget must be an int, got 2.5"),
        (lambda: Budget(programs=0), DomainError, "program budget must be >= 1, got 0"),
        (lambda: Budget(energy=float("nan")), DomainError, "energy budget must be > 0 J, got nan"),
    ],
    ids=["program", "problem-bits", "budget-int", "budget-count", "budget-nan"],
)
def test_validation_messages_are_unchanged(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_match_statement_binds_fields_in_order():
    match Budget(5, 1.0):
        case Budget(programs, energy):
            assert (programs, energy) == (5, 1.0)
        case _:
            pytest.fail("Budget did not match its own class pattern")
