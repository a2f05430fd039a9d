"""The config schema: one rule (``model.check_value``) for every field of
``SpmParams``, the signal models and ``ExperimentConfig`` and for every
checked function argument, bounds included, and one writer
(``model.as_json``) whose output one reader, ``model._Config.from_dict``,
reads back."""

import __future__
import dataclasses
import inspect
import json
import math
import re

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
# how each config class is named in the messages of its reader
NOUN = {SpmParams: "parameter", ExperimentConfig: "config",
        **{cls: f"{kind} signal" for cls, kind in model._KIND_OF.items()}}


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

    @pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
    def test_unknown_keys(self, cls):
        d = {**VALID[cls], "other": 2, "bogus": 1}
        for read in (cls.from_dict, lambda d: _from_dict(cls, d)):
            with pytest.raises(InvalidParametersError) as exc:
                read(d)
            assert str(exc.value) == \
                f"unknown {NOUN[cls]} keys: ['bogus', 'other']"

    @pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("d", [[("seed", 1)], "{}", None, 1.0],
                             ids=repr)
    def test_not_an_object(self, cls, d):
        with pytest.raises(InvalidParametersError) as exc:
            cls.from_dict(d)
        assert str(exc.value) == f"{NOUN[cls]} must be an object, got {d!r}"
        if cls in model._KIND_OF:
            # the reader of the form tagged with a kind finds no kind
            with pytest.raises(InvalidParametersError) as exc:
                model.signal_from_dict(d)
            assert str(exc.value) == f"signal must be an object, got {d!r}"

    @pytest.mark.parametrize("cls", [c for c in VALID if VALID[c]],
                             ids=lambda c: c.__name__)
    def test_missing_field(self, cls):
        with pytest.raises(TypeError) as in_code:
            cls()
        for read in (cls.from_dict, lambda d: _from_dict(cls, d)):
            with pytest.raises(InvalidParametersError) as in_json:
                read({})
            assert str(in_json.value) == f"{NOUN[cls]}: {in_code.value}"

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
    "Samples": (int, "an integer", ((">=", 2), ("<=", SIZE_MAX))),
    "Index": (int, "an integer", ((">=", 0),)),
    "Seed": ((int, np.random.Generator, np.random.BitGenerator,
              np.random.SeedSequence),
             "an integer, a numpy Generator, BitGenerator or SeedSequence",
             ((">=", 0),)),
}
# the lower boundary value, which each bounded number takes
BOUNDARY = {(">", 0): 5e-324, (">=", 0): 0, (">=", 1): 1, (">=", 2): 2}
# beyond np.intp's range, and numpy's integers' (2**64): a size refuses
# them, a float or seed takes them; 10**400 is beyond float range too,
# which only a number that may be a non-integer refuses as not finite
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
    if isinstance(0.5, types):  # an integer annotation's numbers are finite
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
# every function argument that the rule checks, with a call that passes it;
# a seed's call draws from it
ARGUMENTS = [
    (sde_sim.simulate, "substeps",
     lambda v: sde_sim.simulate(_P, Constant(1.0), _P.Delta, substeps=v)),
    (sde_sim.simulate, "seed",
     lambda v: sde_sim.simulate(_P, Constant(1.0), 3 * _P.Delta, seed=v)),
    (sde_sim.MeasurementRecord, "delta",
     lambda v: sde_sim.MeasurementRecord(v, np.ones(3))),
    (atoms.sample_steady_state_outcomes, "k",
     lambda v: atoms.sample_steady_state_outcomes(_P, 1.0, v)),
    (atoms.sample_steady_state_outcomes, "omega",
     lambda v: atoms.sample_steady_state_outcomes(_P, v, 2)),
    (atoms.sample_steady_state_outcomes, "seed",
     lambda v: atoms.sample_steady_state_outcomes(_P, 1.0, 3, seed=v)),
    (bounds.bcrb_numeric_curve, "n_samples",
     lambda v: bounds.bcrb_numeric_curve(_P, _PRIOR, [_P.Delta], v)),
    (bounds.bcrb_numeric_curve, "seed",
     lambda v: bounds.bcrb_numeric_curve(_P, _PRIOR, [_P.Delta], 2, seed=v)),
    (bounds.neg_log_joint_gradient, "h",
     lambda v: bounds.neg_log_joint_gradient(1.0, _REC, _P, _PRIOR, v)),
    (bounds.fi_short_time, "omega", lambda v: bounds.fi_short_time(v, 1.0, _P)),
    (bounds.fi_short_time, "t", lambda v: bounds.fi_short_time(1.0, v, _P)),
    (bounds.fi_no_decoherence, "t",
     lambda v: bounds.fi_no_decoherence(1.0, v, _P)),
    (bounds.fi_asymptotic, "omega", lambda v: bounds.fi_asymptotic(v, _P)),
    (filters.default_prior, "sigma_omega",
     lambda v: filters.default_prior(_P, v)),
    (sde_sim.simulate, "duration",
     lambda v: sde_sim.simulate(_P, Constant(1.0), v)),
    (bounds.bcrb_numeric, "t",
     lambda v: bounds.bcrb_numeric(_P, _PRIOR, v, 2)),
    (bounds.bcrb_numeric, "n_samples",
     lambda v: bounds.bcrb_numeric(_P, _PRIOR, _P.Delta, v)),
    (bounds.bcrb_numeric, "seed",
     lambda v: bounds.bcrb_numeric(_P, _PRIOR, _P.Delta, 2, seed=v)),
    (bounds.bcrb_numeric, "substeps",
     lambda v: bounds.bcrb_numeric(_P, _PRIOR, _P.Delta, 2, substeps=v)),
    (bounds.bcrb_numeric_curve, "substeps",
     lambda v: bounds.bcrb_numeric_curve(_P, _PRIOR, [_P.Delta], 2,
                                         substeps=v)),
    (bounds.neg_log_joint_gradient, "omega",
     lambda v: bounds.neg_log_joint_gradient(v, _REC, _P, _PRIOR, 1e-3)),
    (bounds.fi_noiseless_discrete, "omega",
     lambda v: bounds.fi_noiseless_discrete(v, 1e-4, _P)),
    (bounds.fi_noiseless_discrete, "t",
     lambda v: bounds.fi_noiseless_discrete(1.0, v, _P)),
    (bounds.fi_noiseless_continuous, "omega",
     lambda v: bounds.fi_noiseless_continuous(v, 1e-4, _P)),
    (bounds.fi_noiseless_continuous, "t",
     lambda v: bounds.fi_noiseless_continuous(1.0, v, _P)),
    (bounds.fi_no_decoherence, "omega",
     lambda v: bounds.fi_no_decoherence(v, 1e-4, _P)),
    (bounds.noiseless_bcrb_floor, "sigma_omega",
     lambda v: bounds.noiseless_bcrb_floor(_P, v)),
    (bounds.bcrb_analytic_gaussian_prior, "sigma_omega",
     lambda v: bounds.bcrb_analytic_gaussian_prior(_P, v, 1e-4)),
    (bounds.bcrb_analytic_gaussian_prior, "t",
     lambda v: bounds.bcrb_analytic_gaussian_prior(_P, 1e3, v)),
]
# past the rule: the message by which a function refuses a value that the
# rule takes, for each argument that has such values among the probes
_SAMPLE_RULE = r"time \S+ (rounds to no sample|holds more than)"
PAST_THE_RULE = {
    ("simulate", "duration"): _SAMPLE_RULE,
    ("bcrb_numeric", "t"): _SAMPLE_RULE,
    # a duration of no sample holds no information
    ("fi_noiseless_discrete", "t"): r"time \S+ holds more than",
    ("fi_noiseless_continuous", "omega"): "fi_noiseless_continuous omega = "
                                          ".* is beyond the physical range",
    ("noiseless_bcrb_floor", "sigma_omega"):
        "noiseless_bcrb_floor is beyond float range",
    ("bcrb_analytic_gaussian_prior", "sigma_omega"):
        "(bcrb_analytic_gaussian_prior is beyond float range"
        "|fi_noiseless_continuous omega = .* is beyond the physical range)",
}
ARGUMENT_PROBES = [
    pytest.param(fn.__name__, name, annotation, call, value,
                 id=f"{fn.__name__}.{name}={value!r}")
    for fn, name, call in ARGUMENTS
    for annotation in [inspect.signature(fn).parameters[name].annotation]
    for value in _probes(annotation)]
# each function that ``model.checked`` decorates, with valid arguments
CHECKED = {
    sde_sim.simulate: (_P, Constant(1.0), _P.Delta),
    atoms.sample_steady_state_outcomes: (_P, 1.0, 2),
    bounds.bcrb_numeric: (_P, _PRIOR, _P.Delta, 2),
    bounds.bcrb_numeric_curve: (_P, _PRIOR, [_P.Delta], 2),
    bounds.neg_log_joint_gradient: (1.0, _REC, _P, _PRIOR, 1e-3),
    bounds.fi_noiseless_discrete: (1.0, 1e-4, _P),
    bounds.fi_noiseless_continuous: (1.0, 1e-4, _P),
    bounds.fi_short_time: (1.0, 1e-4, _P),
    bounds.fi_asymptotic: (1.0, _P),
    bounds.fi_no_decoherence: (1.0, 1e-4, _P),
    bounds.noiseless_bcrb_floor: (_P, 1e3),
    bounds.bcrb_analytic_gaussian_prior: (_P, 1e3, 1e-4),
    filters.default_prior: (_P, 1e3),
}
# the annotations of the bounded arguments, each of which ``ARGUMENTS``
# probes
BOUNDED = {"Positive", "NonNegative", "Count", "Samples", "Index", "Seed"}


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
            try:
                call(value)
            except InvalidParametersError as exc:
                # a value the rule takes, refused by the function's own limit
                if (owner, name) not in PAST_THE_RULE:
                    raise
                assert re.fullmatch(PAST_THE_RULE[owner, name] + ".*",
                                    str(exc))
            return
        with pytest.raises(InvalidParametersError) as exc:
            call(value)
        assert str(exc.value) == expected + repr(value)


# every function that draws from a seed, with a call that passes it and
# reads what it drew; whether it also takes a numpy stream object
SEEDED = {
    "simulate": (lambda seed: sde_sim.simulate(
        _P, Constant(1.0), 3 * _P.Delta, seed=seed)[1].outcomes, True),
    "sample_steady_state_outcomes": (
        lambda seed: atoms.sample_steady_state_outcomes(_P, 1.0, 3, seed=seed),
        True),
    "bcrb_numeric_curve": (lambda seed: np.array([b.value for b in (
        bounds.bcrb_numeric_curve(_P, _PRIOR, [_P.Delta], 2, seed=seed))]),
        False),
    "bcrb_numeric": (lambda seed: np.array([bounds.bcrb_numeric(
        _P, _PRIOR, _P.Delta, 2, seed=seed).value]), False),
}


class TestArgumentRule:
    @pytest.mark.parametrize("module", [sde_sim, atoms, bounds, filters],
                             ids=lambda m: m.__name__)
    def test_every_bounded_argument_is_probed(self, module):
        # without postponed evaluation an annotation is the class it names,
        # float or int, and neither ``model.checked`` nor this test sees it
        assert module.annotations is __future__.annotations
        bounded = {
            (name, arg)
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__
            for arg, param in inspect.signature(fn).parameters.items()
            if param.annotation in BOUNDED}
        probed = {(fn.__name__, name) for fn, name, _ in ARGUMENTS}
        assert bounded - probed == set()

    @pytest.mark.parametrize("fn", list(CHECKED), ids=lambda f: f.__name__)
    def test_a_parameter_argument_is_a_parameter_object(self, fn):
        call = inspect.signature(fn).bind(*CHECKED[fn])
        fn(*call.args, **call.kwargs)
        call.arguments["p"] = {}
        with pytest.raises(InvalidParametersError) as exc:
            fn(*call.args, **call.kwargs)
        assert str(exc.value) == \
            f"{fn.__name__} 'p' must be a parameter object, got {{}}"


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.5, np.float64(2.0),
                                      True, None, "3", [1, 2]], ids=repr)
    @pytest.mark.parametrize("fn", list(SEEDED))
    def test_a_seed_that_is_no_seed_raises(self, fn, seed):
        # once numpy's bare ValueError (a negative integer) or TypeError
        # (a float), or a draw from fresh entropy (None)
        call, streams = SEEDED[fn]
        if isinstance(seed, int) and seed < 0:
            expected = f"{fn} seed must be >= 0, got {seed!r}"
        else:
            what = ("an integer, a numpy Generator, BitGenerator or "
                    "SeedSequence" if streams else "an integer")
            expected = f"{fn} 'seed' must be {what}, got {seed!r}"
        with pytest.raises(InvalidParametersError) as exc:
            call(seed)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("seed", [np.random.default_rng(1),
                                      np.random.SeedSequence(1)], ids=repr)
    @pytest.mark.parametrize("fn", ["bcrb_numeric_curve", "bcrb_numeric"])
    def test_the_bound_takes_no_stream_object(self, fn, seed):
        # its samples are the Monte-Carlo shots of an integer seed; once a
        # bare TypeError from the stream rule's SeedSequence
        with pytest.raises(InvalidParametersError) as exc:
            SEEDED[fn][0](seed)
        assert str(exc.value) == \
            f"{fn} 'seed' must be an integer, got {seed!r}"

    @pytest.mark.parametrize("fn", list(SEEDED))
    def test_every_seed_form_keeps_its_stream(self, fn):
        # each form reaches numpy as it was given: the draws are those of
        # the same seed handed to numpy in any other form
        call, streams = SEEDED[fn]
        kept = call(5)
        assert np.array_equal(call(np.int64(5)), kept)
        assert np.array_equal(call(np.uint8(5)), kept)
        assert np.all(np.isfinite(call(10 ** 400)))
        if streams:
            for form in (np.random.default_rng(5), np.random.SeedSequence(5),
                         np.random.PCG64(5)):
                assert np.array_equal(call(form), kept)
            assert np.array_equal(call(10 ** 400),
                                  call(np.random.default_rng(10 ** 400)))


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
        # a signal class reads its own fields, without the kind
        fields = {k: v for k, v in _round_trip(signal).items() if k != "kind"}
        assert type(signal).from_dict(fields) == signal
        cfg = ExperimentConfig(true_signal=signal, assumed_signal=None,
                               params=SpmParams(T2_override=None))
        assert ExperimentConfig.from_dict(_round_trip(cfg)) == cfg
