"""The small value types: built once, validated, compared by value."""

import copy
import pickle

import numpy as np
import pytest

from bispinor import DiracParams, FeatureReport, IonParams, ScenarioConfig
from bispinor.values import ValueType


class Rate(ValueType):
    """A value type of one field, as the package's types are built."""

    __slots__ = ("gamma_rate",)

    def __init__(self, gamma_rate: float):
        super().__init__(gamma_rate)

VALUES = [
    lambda: DiracParams(m=1.0, kappa=0.5, mu=-0.5, E_field=2.0),
    lambda: Rate(0.5),
    lambda: IonParams(1.0, 0.5, (0.1, 0.2), (0.0, 0.4)),
    lambda: FeatureReport(((1.0, 2.0),), 1, 0.0, 0.8, 0.01, 0.6),
    lambda: ScenarioConfig(m_over_p=2.5, initial_state="custom",
                           custom_state=(0.5,) + (0.0,) * 14 + (0.5,), outputs="x"),
]


def type_name(make):
    return type(make()).__name__


@pytest.mark.parametrize("make", VALUES, ids=type_name)
def test_value_types_are_immutable_and_compare_by_value(make):
    value, twin = make(), make()
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert repr(value).startswith(f"{type(value).__name__}({name}=")
    assert value == twin and hash(value) == hash(twin)
    assert value != object()


@pytest.mark.parametrize("make", VALUES, ids=type_name)
def test_value_types_copy_and_pickle(make):
    value = make()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, type(value).__slots__[0], None)


_CAT = (0.5,) + (0.0,) * 14 + (0.5,)

#: the sequence fields of a value type, given as a tuple, a list and an array
SEQUENCE_FIELDS = [
    pytest.param(lambda seq: IonParams(0.5, 0.5, seq((0.1, 0.2)), seq((0.0, 0.0))),
                 id="IonParams"),
    pytest.param(lambda seq: ScenarioConfig(initial_state="custom", custom_state=seq(_CAT)),
                 id="ScenarioConfig"),
]


@pytest.mark.parametrize("make", SEQUENCE_FIELDS)
def test_sequence_fields_are_stored_as_tuples(make):
    # a list or an array field would make the value unhashable, or its ==
    # ambiguous, and unequal to its tuple-built twin
    value = make(tuple)
    for twin in (make(list), make(np.array)):
        assert all(type(field) is tuple for field in twin._fields() if not np.isscalar(field))
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        assert pickle.loads(pickle.dumps(twin)) == value
    # a str, or a list of str, is refused, not parsed entry by entry
    for text in (lambda seq: "1" * len(seq), lambda seq: [str(x) for x in seq]):
        with pytest.raises(TypeError):
            make(text)
