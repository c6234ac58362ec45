"""The package's records: their fields, repr, equality, hashing, immutability, copies and checks."""

import copy
import inspect
import math
import pickle
import re

import pytest

from itmflow import (SIMILARITY_SYSTEM, GammaEvaluation, ItmConfig, ItmIterate, ItmResult,
                     IvpSpec, OdeSystem, ScanGrid, ScanReport, ScanSample, StepControl, TopferResult,
                     Trajectory, augmented_ic, evaluate_gamma_at, sakiadis_star_ic)
from itmflow.cli import Report

STEP_CONTROL_REPR = ("StepControl(abs_tol=1e-06, rel_tol=1e-06, initial_step=0.01, "
                     "min_step=1e-12, max_step=None, max_steps=1000000, stop=None)")

RECORDS = [
    SIMILARITY_SYSTEM,
    IvpSpec(0.0, 10.0, (0.0, 1.0, -1.0), SIMILARITY_SYSTEM),
    StepControl(),
    GammaEvaluation.from_far_field(2.5, -0.45),
    ItmConfig(),
    ItmIterate(0, 2.5, 1.06, 0.97, -0.84),
    ScanGrid(0.5, 3.5, 4),
    ScanSample(2.5, 0.125, 1.0, False),
    Trajectory([(0.0, 0.0, 1.0, -1.0), (0.5, 0.4, 0.6, -0.5)]),
    ItmResult([], False),
    TopferResult([], 10.0, 1.0, 0.33, None),
    ScanReport([], [], "no_zero"),
    Report({}, [], {}, "", [], None, ""),
]

# The records whose fields hold lists or dicts.
UNHASHABLE = {"ItmResult", "TopferResult", "ScanReport", "Report"}


def test_repr():
    assert repr(StepControl()) == STEP_CONTROL_REPR
    assert repr(ItmConfig()) == (
        "ItmConfig(root_finder='secant', h0=2.5, h1=3.5, sign=-1, eta_inf_star=10.0, "
        f"gamma_tol=1e-09, max_iterations=50, step_control={STEP_CONTROL_REPR})")
    assert repr(ScanSample(2.5, 0.125, 1.0, False)) == (
        "ScanSample(h_star=2.5, gamma=0.125, lam=1.0, failed=False)")
    assert repr(ScanSample(2.5, math.nan, math.nan, True)) == (
        "ScanSample(h_star=2.5, gamma=nan, lam=nan, failed=True)")
    assert repr(Trajectory([(0, 1), (1, 2)])) == "Trajectory(rows=((0.0, 1.0), (1.0, 2.0)))"


def test_equality_and_hash():
    a, b = ScanSample(2.5, 0.125, 1.0, False), ScanSample(2.5, 0.125, 1.0, False)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ScanSample(2.5, 0.125, 1.0, True)
    assert a != (2.5, 0.125, 1.0, False)
    assert StepControl(max_steps=7) == StepControl(max_steps=7)
    assert hash(ItmConfig(h0=2.0)) == hash(ItmConfig(h0=2.0))
    assert ItmConfig() != ItmConfig(sign=1)
    assert ItmResult([], False) == ItmResult([], False)
    one, two = Trajectory([(0, 1), (1, 2)]), Trajectory([(0.0, 1.0), (1.0, 2.0)])
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != Trajectory([(0.0, 1.0), (1.0, 3.0)])
    assert one != ((0.0, 1.0), (1.0, 2.0))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    _assert_refuses_assignment(record)


def _assert_refuses_assignment(record):
    field = type(record).__match_args__[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_hash(record):
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(getattr(record, f) for f in type(record).__match_args__))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_unchecked_record_is_the_checked_one(record):
    cls = type(record)
    built = cls._unchecked({f: getattr(record, f) for f in cls.__match_args__})
    assert type(built) is cls and built is not record
    assert built == record and repr(built) == repr(record)
    if cls.__name__ not in UNHASHABLE:
        assert hash(built) == hash(record)
    _assert_refuses_assignment(built)


def test_match_args():
    match ScanSample(2.5, 0.125, 1.0, False):
        case ScanSample(h, gamma, lam, failed):
            assert (h, gamma, lam, failed) == (2.5, 0.125, 1.0, False)


def test_step_control_signature():
    params = inspect.signature(StepControl).parameters
    assert {name: p.default for name, p in params.items()} == {
        "abs_tol": 1e-6, "rel_tol": 1e-6, "initial_step": 0.01, "min_step": 1e-12,
        "max_step": None, "max_steps": 10 ** 6, "stop": None}
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert StepControl(1e-8, 1e-9).rel_tol == 1e-9


@pytest.mark.parametrize("record", [
    StepControl(abs_tol=1e-8, max_steps=100),
    ItmConfig(root_finder="newton", h0=3.0, step_control=StepControl(rel_tol=1e-9)),
    IvpSpec(0.0, 10.0, (0.0, 1.0, -1.0), SIMILARITY_SYSTEM),
    Trajectory([(0.0, 0.0, 1.0, -1.0), (0.5, 0.4, 0.6, -0.5)]),
], ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)


# One bad value for each argument check, with the full message it must raise.
CHECKS = [
    (lambda: OdeSystem(SIMILARITY_SYSTEM.rhs, 0), "system dimension must be positive"),
    (lambda: OdeSystem(SIMILARITY_SYSTEM.rhs, 1.5), "system dimension must be an integer, got 1.5"),
    (lambda: StepControl(abs_tol=0.0), "abs_tol must be positive and finite, got 0.0"),
    (lambda: StepControl(rel_tol=math.nan), "rel_tol must be positive and finite, got nan"),
    (lambda: StepControl(initial_step=-1.0), "initial_step must be positive and finite, got -1.0"),
    (lambda: StepControl(min_step=math.inf), "min_step must be positive and finite, got inf"),
    (lambda: StepControl(max_step=math.inf), "max_step must be positive and finite, got inf"),
    (lambda: StepControl(max_steps=0), "max_steps must be positive"),
    (lambda: StepControl(max_steps=2.5), "max_steps must be an integer, got 2.5"),
    (lambda: ItmConfig(h0=0.0), "h0 must be positive and finite, got 0.0"),
    (lambda: ItmConfig(h1=math.nan), "h1 must be positive and finite, got nan"),
    (lambda: ItmConfig(eta_inf_star=-1.0), "eta_inf_star must be positive and finite, got -1.0"),
    (lambda: ItmConfig(gamma_tol=math.inf), "gamma_tol must be positive and finite, got inf"),
    (lambda: ItmConfig(max_iterations=0), "max_iterations must be positive"),
    (lambda: ItmConfig(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
    (lambda: ScanGrid(0.0, 1.0, 4), "h_min must be positive and finite, got 0.0"),
    (lambda: ScanGrid(0.5, 1.0, 1), "count must be at least 2"),
    (lambda: ScanGrid(0.5, 1.0, "4"), "count must be an integer, got '4'"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[message for _, message in CHECKS])
def test_checks_give_their_full_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# Each function that takes an h* checks it as the records check their values.  A table
# of its own: the message table's ids are its messages, which would repeat here.
H_STAR_TAKERS = {
    "sakiadis_star_ic": sakiadis_star_ic,
    "augmented_ic": augmented_ic,
    "evaluate_gamma_at": evaluate_gamma_at,
    "GammaEvaluation.from_far_field": lambda h_star: GammaEvaluation.from_far_field(h_star, 1.0),
}


@pytest.mark.parametrize("h_star", [math.inf, 0.0])
@pytest.mark.parametrize("take", H_STAR_TAKERS.values(), ids=H_STAR_TAKERS)
def test_h_star_checks_give_their_full_message(take, h_star):
    message = f"h* must be positive and finite, got {h_star}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(h_star)
