"""The config schema: one rule (``model.check_value``) for every field of
``SpmParams``, the signal models and ``ExperimentConfig`` and for every
checked function argument, bounds included, and one writer
(``model.as_json``) whose output ``from_dict`` reads back."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import atoms, bounds, filters, model, sde_sim
from spinfid.errors import InvalidParametersError
from spinfid.harness import BOUNDS, ESTIMATORS, ExperimentConfig
from spinfid.model import (Constant, OrnsteinUhlenbeck, Sinusoid, SpmParams,
                           Step, Wiener)

# each config class with the fewest arguments that build a valid one
VALID = {
    SpmParams: {},
    Constant: {"omega0": 1.0},
    OrnsteinUhlenbeck: {"omega_bar": 1.0, "tau": 1.0, "d_c": 1.0},
    Wiener: {"omega0": 1.0, "d_c": 1.0},
    Sinusoid: {"omega_bar": 1.0, "amplitude": 1.0, "mod_freq": 1.0},
    Step: {"omega_bar": 1.0},
    ExperimentConfig: {},
}


def _from_dict(cls, d):
    if cls in model._KIND_OF:
        return model.signal_from_dict({"kind": model._KIND_OF[cls], **d})
    return cls.from_dict(d)


def _round_trip(cfg):
    # through JSON text, which holds no NaN or Infinity
    return json.loads(json.dumps(model.as_json(cfg), allow_nan=False))


class TestLint:
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
    def test_every_annotation_has_a_rule(self, cls):
        # a new field must not escape validation silently
        unknown = {f.name: f.type for f in dataclasses.fields(cls)
                   if f.type not in model._SCHEMA}
        assert not unknown

    def test_item_annotations_have_rules(self):
        items = {a for _, _, places, _ in model._SCHEMA.values()
                 for a in places or ()}
        assert items - {...} <= model._SCHEMA.keys()


# (value, the annotations it suits); a bool and a non-finite number suit none
BAD = [
    ("1.0", {"str"}),
    (True, set()),
    ([1.0], {"tuple[Positive, ...]"}),
    (math.nan, set()),
    (math.inf, set()),
]
FIELD_CASES = [
    pytest.param(cls, f, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in VALID for f in dataclasses.fields(cls)
    for value, suits in BAD if f.type not in suits]


class TestBadValues:
    @pytest.mark.parametrize("cls, f, value", FIELD_CASES)
    def test_rejected_in_code_and_in_json(self, cls, f, value):
        kwargs = {**VALID[cls], f.name: value}
        with pytest.raises(InvalidParametersError) as in_code:
            cls(**kwargs)
        assert f.name in str(in_code.value)
        with pytest.raises(InvalidParametersError) as in_json:
            _from_dict(cls, kwargs)
        if f.type not in ("SpmParams", "Optional[SignalModel]"):
            # a nested config is read as an object before it is built
            assert str(in_json.value) == str(in_code.value)

    @pytest.mark.parametrize("build", [
        lambda: SpmParams(N="1e12"),
        lambda: Constant("3"),
        lambda: SpmParams(N=True),
        lambda: Wiener(True, 1.0),
        lambda: Step(1.0, ((0.5, "2.0"),)),
        lambda: Step(1.0, ((0.5, 2.0, 3.0),)),
        lambda: Step(1.0, (0.5, 2.0)),
        lambda: SpmParams(N=10 ** 400),
        lambda: ExperimentConfig(estimators=("ekf", 1)),
        lambda: ExperimentConfig(sweep_values=np.array([1e-4])),
    ])
    def test_mistyped(self, build):
        with pytest.raises(InvalidParametersError):
            build()

    def test_messages(self):
        with pytest.raises(InvalidParametersError,
                           match="Step 'jumps' must be a list of number pairs"):
            Step(1.0, [[0.5, "2.0"]])
        with pytest.raises(InvalidParametersError,
                           match=r"SpmParams T2_override must be finite, got nan"):
            SpmParams(T2_override=math.nan)


# each number annotation: (the values it takes, what they are, its bounds,
# each (">", ">=" or "<=", limit)), written out apart from ``_SCHEMA``
SIZE_MAX = int(np.iinfo(np.intp).max)
NUMBERS = {
    "float": ((int, float), "a number", ()),
    "Optional[float]": ((int, float, type(None)), "a number or null", ()),
    "Positive": ((int, float), "a number", ((">", 0),)),
    "Optional[Positive]": ((int, float, type(None)), "a number or null",
                           ((">", 0),)),
    "NonNegative": ((int, float), "a number", ((">=", 0),)),
    "int": (int, "an integer", ()),
    "Count": (int, "an integer", ((">=", 1), ("<=", SIZE_MAX))),
    "Index": (int, "an integer", ((">=", 0),)),
}
# the lower boundary value, which each bounded number takes
BOUNDARY = {(">", 0): 5e-324, (">=", 0): 0, (">=", 1): 1}
# beyond np.intp's range, and numpy's integers' (2**64): a size refuses
# them, a float or seed takes them
PROBES = [0, -0.0, -1, math.nan, math.inf, 10 ** 400, True, "1", SIZE_MAX + 1,
          2 ** 64]


def _probes(annotation):
    bounds = NUMBERS[annotation][2]
    return PROBES + ([BOUNDARY[bounds[0]]] if bounds else [])


_WITHIN = {">": lambda v, limit: v > limit, ">=": lambda v, limit: v >= limit,
           "<=": lambda v, limit: v <= limit}


def _rejection(owner, name, annotation, value, what=None):
    """The message that rejects ``value``, None if it is taken; ``what``
    replaces the annotation's own in a type error."""
    types, own_what, bounds = NUMBERS[annotation]
    if isinstance(value, bool) or not isinstance(value, types):
        return f"{owner} {name!r} must be {what or own_what}, got "
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        return f"{owner} {name} must be finite, got "
    for op, limit in bounds:
        if not _WITHIN[op](value, limit):
            return f"{owner} {name} must be {op} {limit}, got "
    return None


def _number(annotation):
    """A number annotation, or that of the items of a list of numbers."""
    return annotation.removeprefix("tuple[").removesuffix(", ...]")


# every number field and every list of numbers, the latter given each probe
# as its one item
FIELD_PROBES = [
    pytest.param(cls, f.name, f.type, value,
                 id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in VALID for f in dataclasses.fields(cls)
    if _number(f.type) in NUMBERS for value in _probes(_number(f.type))]

_P = SpmParams()
_REC = sde_sim.MeasurementRecord(_P.Delta, np.ones(3))
_PRIOR = filters.default_prior(_P, 1e3)
# every function argument that the rule checks, with a call that passes it
ARGUMENTS = [
    (sde_sim.simulate, "substeps",
     lambda v: sde_sim.simulate(_P, Constant(1.0), _P.Delta, substeps=v)),
    (sde_sim.MeasurementRecord, "delta",
     lambda v: sde_sim.MeasurementRecord(v, np.ones(3))),
    (atoms.sample_steady_state_outcomes, "k",
     lambda v: atoms.sample_steady_state_outcomes(_P, 1.0, v)),
    (atoms.sample_steady_state_outcomes, "omega",
     lambda v: atoms.sample_steady_state_outcomes(_P, v, 2)),
    (bounds.neg_log_joint_gradient, "h",
     lambda v: bounds.neg_log_joint_gradient(1.0, _REC, _P, _PRIOR, v)),
    (bounds.fi_short_time, "omega", lambda v: bounds.fi_short_time(v, 1.0, _P)),
    (bounds.fi_short_time, "t", lambda v: bounds.fi_short_time(1.0, v, _P)),
    (bounds.fi_no_decoherence, "t",
     lambda v: bounds.fi_no_decoherence(1.0, v, _P)),
    (bounds.fi_asymptotic, "omega", lambda v: bounds.fi_asymptotic(v, _P)),
    (filters.default_prior, "sigma_omega",
     lambda v: filters.default_prior(_P, v)),
]
ARGUMENT_PROBES = [
    pytest.param(fn.__name__, name, annotation, call, value,
                 id=f"{fn.__name__}.{name}={value!r}")
    for fn, name, call in ARGUMENTS
    for annotation in [inspect.signature(fn).parameters[name].annotation]
    for value in _probes(annotation)]


class TestBounds:
    """Each number field and each checked argument against the same probes
    and its boundary value, with the outcome that ``NUMBERS`` predicts."""

    def test_every_number_annotation_is_predicted(self):
        numbers = {a for a, (_, what, items, _) in model._SCHEMA.items()
                   if items is None and what.startswith(("a num", "an int"))}
        assert numbers == NUMBERS.keys()

    @pytest.mark.parametrize("cls, name, annotation, value", FIELD_PROBES)
    def test_fields(self, cls, name, annotation, value):
        if annotation in NUMBERS:
            given, what = value, None
        else:
            given, what = (value,), "a list of numbers"
        expected = _rejection(cls.__name__, name, _number(annotation), value,
                              what)
        if expected is None:
            assert getattr(cls(**{**VALID[cls], name: given}), name) == given
            return
        with pytest.raises(InvalidParametersError) as exc:
            cls(**{**VALID[cls], name: given})
        assert str(exc.value) == expected + repr(given)

    @pytest.mark.parametrize("owner, name, annotation, call, value",
                             ARGUMENT_PROBES)
    def test_arguments(self, owner, name, annotation, call, value):
        expected = _rejection(owner, name, annotation, value)
        if expected is None:
            call(value)
            return
        with pytest.raises(InvalidParametersError) as exc:
            call(value)
        assert str(exc.value) == expected + repr(value)


class TestStorage:
    def test_sequences_become_tuples(self):
        cfg = ExperimentConfig(estimators=["ekf"], bounds=["floor"],
                               sweep_axis="time", sweep_values=[1e-4])
        assert (cfg.estimators, cfg.bounds, cfg.sweep_values) == \
            (("ekf",), ("floor",), (1e-4,))
        assert hash(cfg) == hash(dataclasses.replace(cfg))
        assert Step(1.0, [[0.5, 2.0]]).jumps == ((0.5, 2.0),)

    def test_numbers_are_kept(self):
        # ints and numpy scalars are numbers; nothing is converted
        p = SpmParams(N=10 ** 12, Delta=np.float64(5e-6))
        assert type(p.N) is int and type(p.Delta) is np.float64
        assert model.as_json(p)["N"] == 10 ** 12
        runs = model.as_json(ExperimentConfig(runs=np.int64(3)))["runs"]
        assert type(runs) is int

    def test_signals_written_with_their_kind(self):
        d = model.as_json(ExperimentConfig(
            true_signal=OrnsteinUhlenbeck(1.0, 2.0, 3.0)))
        assert d["true_signal"] == {"kind": "ou", "omega_bar": 1.0,
                                    "tau": 2.0, "d_c": 3.0,
                                    "omega_start": None}
        assert "kind" not in d and "kind" not in d["params"]
        assert d["assumed_signal"] is None


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
non_negative = st.floats(min_value=0.0, max_value=1e300)
params = st.builds(
    SpmParams, omega_bar=finite, g_D=positive, R=positive,
    N=positive | st.integers(1, 10 ** 15), q=non_negative, Gamma=non_negative,
    alpha=non_negative, Delta=positive, T2_override=st.none() | positive)
jumps = st.lists(finite, unique=True, max_size=4).flatmap(
    lambda times: st.tuples(*[st.tuples(st.just(t), finite)
                              for t in sorted(times)]))
signals = st.one_of(
    st.builds(Constant, finite),
    st.builds(OrnsteinUhlenbeck, finite, positive, non_negative,
              st.none() | finite),
    st.builds(Wiener, finite, non_negative),
    st.builds(Sinusoid, finite, finite, finite),
    st.builds(Step, finite, jumps))


@st.composite
def configs(draw):
    axis = draw(st.sampled_from(["none", "time", "atoms", "sampling"]))
    bounds = draw(st.lists(st.sampled_from(BOUNDS), unique=True))
    return ExperimentConfig(
        params=draw(params),
        true_signal=draw(st.none() | signals),
        assumed_signal=draw(st.none() | signals),
        sigma_omega=draw(positive), duration=draw(positive),
        substeps=draw(st.integers(1, 50)), runs=draw(st.integers(1, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 64)),
        estimators=tuple(draw(st.lists(st.sampled_from(ESTIMATORS),
                                       unique=True))),
        bounds=tuple(bounds),
        bound_samples=draw(st.integers(2 if "bcrb_numeric" in bounds else 0,
                                       10 ** 4)),
        sweep_axis=axis,
        sweep_values=tuple(draw(st.lists(positive, min_size=int(axis != "none"),
                                         max_size=5))))


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(configs())
    def test_written_config_reads_back_equal(self, cfg):
        assert ExperimentConfig.from_dict(_round_trip(cfg)) == cfg

    @pytest.mark.parametrize("signal", [
        Constant(1.0), OrnsteinUhlenbeck(1.0, 2.0, 3.0),
        OrnsteinUhlenbeck(1.0, 2.0, 3.0, omega_start=4.0), Wiener(1.0, 0.0),
        Sinusoid(1.0, 2.0, 3.0), Step(1.0), Step(1.0, ((0.5, 2.0), (1, 3))),
    ], ids=repr)
    def test_every_signal_kind(self, signal):
        assert model.signal_from_dict(_round_trip(signal)) == signal
        cfg = ExperimentConfig(true_signal=signal, assumed_signal=None,
                               params=SpmParams(T2_override=None))
        assert ExperimentConfig.from_dict(_round_trip(cfg)) == cfg
