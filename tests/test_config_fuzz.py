"""Hostile configs for `validate_config`, generated from the schema.

Every value a config may hold comes from `PARAMS` and `POTENTIALS`: each
key's default, values no key accepts (None, booleans, numbers past any
float, nan, infinities, strings, objects, empty and nested lists) and the
boundary values of the key's accept rule, read off the numbers its
description names (an integer "from 2 to 9" gives 1, 2, 3, 8, 9 and 10).
Whatever the mix, validation must return a list of strings and never raise.
A config that validates clean must also run to a documented exit code: the
run half sets each key of a tiny config to one such value and runs it.
"""
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.cli import main
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


# The run half: configs that validate clean must run to a documented exit.

#: A small base config of each experiment, so that a run takes milliseconds
TINY = {
    "ot-selftest": {"n_clouds": 3},
    "combineq": {"mc_samples": 200},
    "classical-dobrushin": {
        "N": [4, 8],
        "samples": 32,
        "reference_size": 64,
        "times": [0.25],
        "repeats": 4,
    },
    "vlasov-moments": {"cloud_size": 64, "times": [0.25]},
    "mk-bracket": {"epsilon": [0.5], "pairs": 2, "grid_points": 64},
    "toeplitz-identities": {"grid_points": 64, "symbols": 2},
    "quantum-dobrushin": {"t_final": 0.04, "n_times": 3, "epsilon": [0.5]},
}

#: Keys the run half leaves at their TINY value: counts of repeated work and
#: cloud sizes, whose schema extremes cost time in proportion and take no
#: code path a small count does not
REPEATED = {
    "n_clouds",
    "mc_samples",
    "samples",
    "repeats",
    "reference_size",
    "cloud_size",
    "pairs",
    "symbols",
}

#: Rows that fail on correct code at TINY's sizes: N-rate fits over a few
#: small samples (a classical-dobrushin slope over N = 4, 8 from 32 samples,
#: a combineq slope from a handful of Monte Carlo samples)
STATISTICAL_ROWS = {"coupling-distance-scaling-slope", "consistency-scaling-slope"}

#: A lowered memory cap, so that the grid runners' own cap checks reject the
#: large grids the schema allows
RUN_CAP = 2**24


def _run_configs(seed: int) -> list:
    """For each experiment and each key it fuzzes, TINY with that key set to
    one value, drawn with `seed`, of those of its fuzz values that validate
    clean on TINY and differ from TINY's own."""
    rng = random.Random(seed)
    configs = []
    for experiment, base in sorted(TINY.items()):
        tiny = {"experiment": experiment, **base}
        assert validate_config(tiny) == [], experiment
        for key, (default, _, what) in PARAMS[experiment].items():
            if key in REPEATED:
                continue
            clean = []
            for value in [default, *HOSTILE, *boundary_values(what)]:
                raw = dict(tiny, **{key: value})
                if raw != tiny and raw not in clean and validate_config(raw) == []:
                    clean.append(raw)
            if clean:
                configs.append(rng.choice(clean))
    return configs


def test_configs_that_validate_clean_run_to_a_documented_exit(tmp_path, monkeypatch):
    # exit 0, 2 (a statistical row failed at these sizes) or 3 (a resource
    # or guard-band abort), never 1: a config the schema and the check
    # functions accept must not end in a traceback
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", str(RUN_CAP))
    monkeypatch.chdir(tmp_path)  # a checkpoint prefix writes where it points
    for k, raw in enumerate(_run_configs(seed=0)):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out{k}"
        code = main(["run", str(path), "--out", str(out)])
        assert code in (0, 2, 3), raw
        if code == 2:
            jsonl = (out / f"{raw['experiment']}.jsonl").read_text()
            rows = [json.loads(line) for line in jsonl.splitlines()]
            failed = {r["inequality_id"] for r in rows if not r["pass"]}
            assert failed <= STATISTICAL_ROWS, (raw, failed)
