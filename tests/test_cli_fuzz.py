"""Random flag values and mutated code files through cli.main.

Every run must end in a documented exit code, 0, 2, 3 or 4 (argparse's
SystemExit(2) counts as 2); no other exception may escape, and a usage
error prints nothing on stdout. Every scan is bounded with --cap, so the
file stays fast. `bounds` is left out: bounds._nth_root_floor can run
for minutes or overflow on large parameters until its exact integer root
lands.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from burstkit import code_to_dict, field_from_order, rs_code
from burstkit.cli import main

FIELD = st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 7, 8, 9, 13, 16, 2**21]).map(str)
TEXT = st.sampled_from(["", "x", "1.5"])


def number(lo, hi):
    return st.integers(lo, hi).map(str) | TEXT


CSV = st.lists(st.integers(-2, 20), max_size=7).map(lambda xs: ",".join(map(str, xs))) | TEXT
KIND = st.sampled_from(["rs", "ex1", "ex2", "appxa", "nope"])
CODE = {"q": FIELD, "n": number(-2, 17), "r": number(-2, 17), "delta": number(-2, 17), "stars": CSV}
CAP = number(-3, 3000)
LIST = {"construct": KIND, "tau": number(-2, 8), "ell": number(-2, 4)}


def argv(command, flags, switches=()):
    """The command with each drawn flag; a flag drawn as None is left out."""
    values = st.fixed_dictionaries({k: st.none() | v for k, v in flags.items()})
    on = st.fixed_dictionaries({k: st.booleans() for k in switches})
    return st.tuples(values, on).map(
        lambda vo: [command]
        + [x for k, v in vo[0].items() if v is not None for x in (f"--{k}", v)]
        + [f"--{k}" for k, v in vo[1].items() if v]
    )


def capped(args):
    """args with a --cap, so that no drawn code enumerates more than 3000 words."""
    return args.flatmap(lambda a: CAP.map(lambda cap: [*a, "--cap", cap]))


COMMANDS = st.one_of(
    argv("count-bursts", {"q": FIELD, "n": number(-2, 17), "tau": number(-2, 17)}, ["phased"]),
    argv("construct", {**CODE, "kind": KIND}),
    capped(argv("decode", {**CODE, **LIST, "y": CSV}, ["phased"])),
    capped(argv("certify", {**CODE, **LIST})),
    argv("resultant", {"q": FIELD, "alpha": number(-3, 20), "mu": CSV, "beta": CSV,
                       "mode": st.sampled_from(["direct", "closed-form", "both", "witness"])}),
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


def run(capsys, args):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4), args
    if code == 2:
        assert out == "", args


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(COMMANDS)
def test_random_flags_end_in_a_documented_exit_code(capsys, args):
    run(capsys, args)


@pytest.fixture(scope="module")
def rs7():
    """The code file of RS GF(7), n = 6, r = 3."""
    return code_to_dict(rs_code(field_from_order(7), 6, 3), "rs7")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["schema", "field", "n", "meta", "kind", "H", "G", "p", "m", "modulus"]), JSON, CAP)
def test_mutated_code_files_end_in_a_documented_exit_code(capsys, tmp_path, rs7, key, value, cap):
    doc = copy.deepcopy(rs7)
    (doc["field"] if key in ("p", "m", "modulus") else doc)[key] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    run(capsys, ["certify", "--code", str(path), "--tau", "2", "--ell", "1", "--cap", cap])
