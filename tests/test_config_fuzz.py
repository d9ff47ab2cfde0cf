"""Hostile configs for `validate_config`, generated from the schema.

Every value a config may hold comes from `PARAMS` and `POTENTIALS`: each
key's default, values no key accepts (None, booleans, numbers past any
float, nan, infinities, strings, objects, empty and nested lists) and the
boundary values of the key's accept rule, read off the numbers its
description names (an integer "from 2 to 9" gives 1, 2, 3, 8, 9 and 10).
Whatever the mix, validation must return a list of strings and never raise.
"""
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.experiments import PARAMS, POTENTIALS, validate_config

HOSTILE = [
    None,
    True,
    False,
    0,
    -1,
    10**400,
    -(10**400),
    2**63,
    1e-300,
    1e300,
    math.nan,
    math.inf,
    -math.inf,
    "",
    "1",
    "abc",
    {},
    {"a": 1},
    [],
    [[]],
    [[1, 2]],
    [math.nan],
]

_NUMBER = re.compile(r"(\d+)\^(\d+)|\d+(?:\.\d+)?")


def boundary_values(what: str) -> list:
    """The numbers the description `what` names, each with its integer
    neighbours and its float twin, plus 0 and the smallest positive float."""
    values = [0, 0.0, 5e-324]
    for match in _NUMBER.finditer(what):
        base, exp = match.group(1), match.group(2)
        b = int(base) ** int(exp) if base else float(match.group(0))
        if b == int(b):
            b = int(b)
            values += [b - 1, b, b + 1, float(b)]
        else:
            values += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    return values


def values(default, what: str):
    """A value for a key of default `default` described as `what`: one of
    its default, the hostile values and its boundary values, or a short
    list of them, which is what a sweep key takes."""
    one = st.sampled_from([default, *HOSTILE, *boundary_values(what)])
    return one | st.lists(one, max_size=3)


def fields(spec: dict):
    """Some of the keys of `spec`, a `PARAMS` or `POTENTIALS` entry, each
    with a value from `values`."""
    return st.fixed_dictionaries(
        {}, optional={key: values(default, what) for key, (default, _, what) in spec.items()}
    )


potentials = st.one_of(
    *(
        st.builds(dict, fields(spec), family=st.just(family))
        for family, spec in POTENTIALS.items()
    ),
    fields(POTENTIALS["gaussian"]),  # no family: gaussian by default
    st.sampled_from(HOSTILE).map(lambda family: {"family": family}),
    st.sampled_from(HOSTILE),
)


def _check(raw) -> None:
    diags = validate_config(raw)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags), raw


@pytest.mark.parametrize("experiment", sorted(PARAMS))
def test_validate_config_takes_each_value_of_each_key_alone(experiment):
    # each key of the experiment and of each potential family set alone to
    # each of its values: a single hostile knob is the commonest bad config
    for key, (default, _, what) in PARAMS[experiment].items():
        for value in [default, *HOSTILE, *boundary_values(what)]:
            _check({"experiment": experiment, key: value})
    for family, spec in POTENTIALS.items():
        for key, (default, _, what) in spec.items():
            for value in [default, *HOSTILE, *boundary_values(what)]:
                _check({"experiment": experiment, "potential": {"family": family, key: value}})


@pytest.mark.parametrize("experiment", sorted(PARAMS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validate_config_returns_diagnostics_and_never_raises(experiment, data):
    raw = {"experiment": experiment, **data.draw(fields(PARAMS[experiment]))}
    extra = st.fixed_dictionaries(
        {},
        optional={
            "potential": potentials,
            "seed": st.sampled_from([0, 7, *HOSTILE]),
            "out": st.sampled_from([None, "out", *HOSTILE]),
            "unknown_key": st.sampled_from(HOSTILE),
        },
    )
    raw.update(data.draw(extra))
    _check(raw)
