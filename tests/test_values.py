"""The small value types: built once, validated, compared by value."""

import copy
import pickle

import numpy as np
import pytest

from bispinor import (DiracParams, FeatureReport, IonParams, NoiseParams, ScenarioConfig,
                      SpectralData)

VALUES = [
    lambda: DiracParams(1.0, 1.0, 0.5, -0.5, 2.0),
    lambda: NoiseParams(0.5),
    lambda: IonParams(1.0, 0.5, (0.1, 0.2, 0.3), (0.0, 0.0, 0.4)),
    lambda: FeatureReport(((1.0, 2.0),), 1, 0.0, 0.8, 0.01, 0.6),
    lambda: SpectralData(2.0, {(0, 0): 1.0}, {(0, 0): np.eye(4)}),
    lambda: ScenarioConfig(m_over_p=2.5, initial_state="custom",
                           custom_state=(0.5,) + (0.0,) * 14 + (0.5,), outputs="x"),
]
COMPARABLE = [make for make in VALUES if not isinstance(make(), SpectralData)]


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
    if isinstance(value, SpectralData):
        return  # holds arrays, which do not compare to one truth value
    assert value == twin and hash(value) == hash(twin)
    assert value != object()


@pytest.mark.parametrize("make", COMPARABLE, ids=type_name)
def test_value_types_copy_and_pickle(make):
    value = make()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, type(value).__slots__[0], None)
