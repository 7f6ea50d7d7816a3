"""encloop's records (`encloop.records.Record`) against the dataclasses they
stand for: each record's repr, equality and hash equal those of a dataclass
of the same fields and values, frozen where the record is, and `replace`
builds a new record through the class's validation.  No numpy."""

import dataclasses
from fractions import Fraction

import pytest

import encloop.fixtures  # noqa: F401  (its Scenario is a record)
from encloop import he, loop, planner, records, replace
from encloop.exactmat import RationalMatrix, is_integer_after_scale
from encloop.quantizer import QuantizerSpec
from encloop.records import FrozenRecordError, fields


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted((c for c in _subclasses(records.Record) if fields(c)),
                 key=lambda c: c.__qualname__)
MUTABLE = {he.Ciphertext, loop.ClosedLoopTrace, loop.RunConfig, loop.StepRecord}


def _step_record(**changes):
    return loop.StepRecord(**{
        "t": 0, "u_true": (0.5,), "u_a": (0.25,), "diff_inf": 0.25, "log2_alpha": 1.0,
        "msgs_ctrl_to_act": 1, "enc_ops": 2, "dec_ops": 1, "recovery_failure": False,
        **changes})


@pytest.fixture(scope="module")
def samples(tanks, tanks_plan, tanks_main_plan):
    """One record of each class, by class."""
    mock, lattice = he.SchemeParams.mock(8), he.LatticeParams(pad_bits=3)
    design = planner.design_deadbeat_observer(tanks.plant.A, tanks.plant.C)
    made = [
        is_integer_after_scale(RationalMatrix.from_rows([[1, 2]]), 1)[1],
        tanks, tanks.plant, tanks.ctrl, planner.check_prelim_feasible(tanks.plant, tanks.ctrl),
        tanks_plan, design, planner.CeResult(value=Fraction(1, 2), tail_sound=True),
        planner.MainPlanOptions(L=design.L), tanks_main_plan, QuantizerSpec(range_level=3),
        lattice, he.SchemeParams(q=8, backend="lattice", lattice=lattice),
        he.KeyMaterial("public", mock), he.Ciphertext(mock, 1, (3,), noise_bound=0),
        he.NoiseReport(1.0, 2.0, 1.0), _step_record(),
        loop.ClosedLoopTrace("main", {"ctrl_to_act": 1}, [_step_record()]),
        loop.RunConfig(plant=tanks.plant, ctrl=tanks.ctrl, reference=tanks.reference,
                       x_p0=tanks.x_p0, horizon=3, params=mock),
    ]
    return {type(r): r for r in made}


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_as_its_dataclass(self, samples, cls):
        """repr, equality and hash read as those of a dataclass of the same
        fields, frozen unless the record is mutable, with the same values."""
        record = samples[cls]
        values = {name: getattr(record, name) for name in fields(cls)}
        twin = dataclasses.make_dataclass(cls.__qualname__, fields(cls),
                                          frozen=cls not in MUTABLE)(**values)
        assert repr(record) == repr(twin)
        assert _hash_or_error(record) == _hash_or_error(twin)
        copy = replace(record)
        assert copy is not record and copy == record and not copy != record
        assert _hash_or_error(copy) == _hash_or_error(record)

    def test_another_class_with_equal_values_is_unequal(self, samples, cls):
        record = samples[cls]
        other = type("Other", (cls,), {})(**{name: getattr(record, name) for name in fields(cls)})
        assert record != other and other != record and not record == other

    def test_frozen_records_refuse_set_and_del(self, samples, cls):
        record, name = samples[cls], fields(cls)[0]
        if cls in MUTABLE:
            copy = replace(record)
            setattr(copy, name, None)
            assert getattr(copy, name) is None and copy != record
            return
        for change in (lambda: setattr(record, name, None), lambda: delattr(record, name),
                       lambda: setattr(record, "extra", None)):
            with pytest.raises(FrozenRecordError):
                change()
        assert issubclass(FrozenRecordError, AttributeError)


def test_field_order_is_pinned():
    """The plans' JSON keys and the trace CSV's columns follow these."""
    assert fields(planner.MainPlan) == (
        "L", "omega", "s1", "s2", "l0", "q", "q_bound", "C_e", "range_level", "certificates",
        "rho_observer", "rho_observer_eig", "rho_observer_grid", "deadbeat_index",
        "tail_sound", "bootstrap_bound", "dims")
    assert fields(planner.PrelimPlan) == (
        "omega", "s1", "s2", "l0", "q", "M_bound", "window_bound", "u0_bound", "certificates",
        "rho_c", "s_F")
    assert fields(loop.StepRecord) == (
        "t", "u_true", "u_a", "diff_inf", "log2_alpha", "log2_beta", "log2_gamma",
        "log2_sensor_gap", "saturated", "msgs_ctrl_to_act", "enc_ops", "dec_ops",
        "recovery_failure")
    assert loop.CSV_COLUMNS_SUFFIX == list(fields(loop.StepRecord)[3:-1])


def test_replace_validates_anew():
    with pytest.raises(he.BadParamsError, match="pad_bits"):
        replace(he.LatticeParams(pad_bits=3), pad_bits=0)
    with pytest.raises(ValueError, match="range_level"):
        replace(QuantizerSpec(range_level=3), range_level=0)
    with pytest.raises(TypeError, match="'modulus'"):
        replace(he.SchemeParams.mock(8), modulus=16)
    assert replace(he.SchemeParams.mock(8), q=16) == he.SchemeParams(16)


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, "missing the argument 'q'"),
    ((8, "mock", None, 1), {}, "takes 3 arguments, 4 given"),
    ((8,), {"q": 8}, "repeated argument 'q'"),
    ((8,), {"modulus": 8}, "unknown argument 'modulus'"),
])
def test_init_refuses_a_missing_extra_repeated_or_unknown_argument(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        he.SchemeParams(*args, **kwargs)


def test_defaults_and_keywords():
    """Defaults fill the fields not given; an unannotated class attribute
    is no field."""
    params = he.SchemeParams(8)
    assert (params.backend, params.lattice) == ("mock", None)
    assert "scheme" not in fields(planner.MainPlan) and planner.MainPlan.scheme == "main"
    record = _step_record()
    assert (record.log2_beta, record.saturated) == (float("-inf"), False)
    first, second = loop.ClosedLoopTrace("main", {}), loop.ClosedLoopTrace("main", {})
    assert first.records == first.detail == [] and first.records is not second.records


def test_step_record_is_keyword_only():
    with pytest.raises(TypeError):
        loop.StepRecord(*(getattr(_step_record(), name) for name in fields(loop.StepRecord)))


def test_a_frozen_record_caches_a_property():
    params = he.SchemeParams(8, "lattice", he.LatticeParams(pad_bits=3))
    assert params._slots is params._slots
    assert params == he.SchemeParams(8, "lattice", he.LatticeParams(pad_bits=3))
