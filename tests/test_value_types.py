"""The value types built by ``spectral._value_type`` behave as plain frozen dataclasses.

``Equilibrium``, ``Spectrum`` and ``EquilibriumReport`` get a generated
``__init__`` that sets each slot through its member descriptor.  Each is
checked against a twin: a plain ``@dataclass(frozen=True, slots=True)`` with
the same name and fields.  The checks use plain asserts and the standard
library only, so they also run where pytest is not installed, given these
three classes.
"""

import copy
import dataclasses
import inspect
import pickle

from fraclv.model import Equilibrium
from fraclv.spectral import Spectrum, _value_type
from fraclv.stability import EquilibriumReport, StabilityVerdict

SPECTRUM = Spectrum((complex(-3.0), complex(0.5), complex(2.0)), -6.5, 4.0, -6.25, "three-real")
EQUILIBRIUM = Equilibrium("E2", (0.5, 0.0, 1.5), True, (("a5 >= 1", True), ("a1*a6 >= a2*(a5 - 1)", True)))
REPORT = EquilibriumReport(
    EQUILIBRIUM, SPECTRUM, StabilityVerdict("caputo", False, ("cone", None, None)),
    None, None, (("cf: lambda1 > 1/(1-alpha)", False),))
#: One value of each decorated type, and a second one that differs in its last field.
CASES = (
    (EQUILIBRIUM, dataclasses.replace(EQUILIBRIUM, conditions=())),
    (SPECTRUM, dataclasses.replace(SPECTRUM, branch="repeated")),
    (REPORT, dataclasses.replace(REPORT, table1=())),
)


def _twin(cls):
    """A plain frozen slotted dataclass with ``cls``'s name, qualified name and fields."""
    namespace = {"__annotations__": {f.name: f.type for f in dataclasses.fields(cls)},
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


def _raised(call):
    """The exception ``call()`` raises; AssertionError if it returns."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the caller checks the type
        return exc
    raise AssertionError(f"{call} raised nothing")


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_construction_matches_the_dataclass_twin():
    for obj, other in CASES:
        cls, twin = type(obj), _twin(type(obj))
        kwargs = _fields(obj)
        args = tuple(kwargs.values())
        assert str(inspect.signature(cls)) == str(inspect.signature(twin))
        for value, twin_value in ((cls(*args), twin(*args)), (cls(**kwargs), twin(**kwargs))):
            assert value == obj and value is not obj and _fields(value) == kwargs
            assert repr(value) == repr(twin_value) == repr(obj)
            assert hash(value) == hash(twin_value) == hash(obj)
        assert (obj == other) is (twin(*args) == twin(**_fields(other))) is False
        # the generated __init__ is in place: it looks up no object.__setattr__
        assert "__setattr__" in twin.__init__.__code__.co_names
        assert "__setattr__" not in cls.__init__.__code__.co_names
        # a missing, an extra, an unknown and a repeated argument
        for bad_args, bad_kwargs in ((args[:-1], {}), (args + (None,), {}), (args, {"extra": 1}),
                                     (args, {dataclasses.fields(cls)[0].name: None})):
            error = _raised(lambda: cls(*bad_args, **bad_kwargs))
            twin_error = _raised(lambda: twin(*bad_args, **bad_kwargs))
            assert type(error) is type(twin_error) is TypeError
            assert str(error) == str(twin_error)


def test_values_are_frozen_and_slotted_as_the_twin():
    for obj, _ in CASES:
        cls, twin = type(obj), _twin(type(obj))
        twin_obj = twin(**_fields(obj))
        assert cls.__slots__ == twin.__slots__
        assert not hasattr(obj, "__dict__") and not hasattr(twin_obj, "__dict__")
        for name in _fields(obj):
            for target in (obj, twin_obj):
                assert type(_raised(lambda: setattr(target, name, None))) is dataclasses.FrozenInstanceError
                assert type(_raised(lambda: delattr(target, name))) is dataclasses.FrozenInstanceError
        assert type(_raised(lambda: setattr(obj, "not_a_field", 1))) is type(
            _raised(lambda: setattr(twin_obj, "not_a_field", 1)))


def test_replace_copy_and_pickle_keep_the_value():
    for obj, other in CASES:
        last = dataclasses.fields(obj)[-1].name
        changed = dataclasses.replace(obj, **{last: getattr(other, last)})
        assert type(changed) is type(obj) and changed == other
        assert dataclasses.replace(obj) == obj
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)


def test_value_type_refuses_what_its_init_cannot_do():
    def refused(namespace, annotations=None):
        namespace = dict(namespace, __annotations__=annotations or {"x": "float"})
        error = _raised(lambda: _value_type(type("Refused", (), namespace)))
        assert type(error) is TypeError, error
        return str(error)

    assert "'x'" in refused({"x": 0.0})
    assert "'x'" in refused({"x": dataclasses.field(default_factory=float)})
    assert "'x'" in refused({"x": dataclasses.field(init=False)})
    assert "'y'" in refused({"y": dataclasses.field(kw_only=True)}, {"x": "float", "y": "float"})
    assert "__post_init__" in refused({"__post_init__": lambda self: None})
    accepted = _value_type(type("Accepted", (), {"__annotations__": {"x": "float"}}))
    assert accepted(1.0).x == 1.0 and accepted(x=1.0) == accepted(1.0)
