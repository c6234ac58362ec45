"""The package's records: their fields, repr, equality, hashing, immutability and copies."""

import copy
import inspect
import math
import pickle

import pytest

from itmflow import (SIMILARITY_SYSTEM, GammaEvaluation, ItmConfig, ItmIterate, ItmResult,
                     IvpSpec, ScanGrid, ScanReport, ScanSample, StepControl, TopferResult)
from itmflow.cli import Report

STEP_CONTROL_REPR = ("StepControl(abs_tol=1e-06, rel_tol=1e-06, initial_step=0.01, "
                     "min_step=1e-12, max_step=None, max_steps=1000000, stop=None)")

FROZEN = [
    SIMILARITY_SYSTEM,
    IvpSpec(0.0, 10.0, (0.0, 1.0, -1.0), SIMILARITY_SYSTEM),
    StepControl(),
    GammaEvaluation.from_far_field(2.5, -0.45),
    ItmConfig(),
    ItmIterate(0, 2.5, 1.06, 0.97, -0.84),
    ScanGrid(0.5, 3.5, 4),
    ScanSample(2.5, 0.125, 1.0, False),
]

MUTABLE = [
    ItmResult([], False),
    TopferResult([], 10.0, 1.0, 0.33, None),
    ScanReport([], [], "no_zero"),
    Report({}, [], {}, "", [], None, ""),
]


def test_repr():
    assert repr(StepControl()) == STEP_CONTROL_REPR
    assert repr(ItmConfig()) == (
        "ItmConfig(root_finder='secant', h0=2.5, h1=3.5, sign=-1, eta_inf_star=10.0, "
        f"gamma_tol=1e-09, max_iterations=50, step_control={STEP_CONTROL_REPR})")
    assert repr(ScanSample(2.5, 0.125, 1.0, False)) == (
        "ScanSample(h_star=2.5, gamma=0.125, lam=1.0, failed=False)")
    assert repr(ScanSample(2.5, math.nan, math.nan, True)) == (
        "ScanSample(h_star=2.5, gamma=nan, lam=nan, failed=True)")


def test_equality_and_hash():
    a, b = ScanSample(2.5, 0.125, 1.0, False), ScanSample(2.5, 0.125, 1.0, False)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ScanSample(2.5, 0.125, 1.0, True)
    assert a != (2.5, 0.125, 1.0, False)
    assert StepControl(max_steps=7) == StepControl(max_steps=7)
    assert hash(ItmConfig(h0=2.0)) == hash(ItmConfig(h0=2.0))
    assert ItmConfig() != ItmConfig(sign=1)
    assert ItmResult([], False) == ItmResult([], False)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    field = type(record).__match_args__[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
    hash(record)


@pytest.mark.parametrize("record", MUTABLE, ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)
    field = type(record).__match_args__[-1]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"


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
], ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)
