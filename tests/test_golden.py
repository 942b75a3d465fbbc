"""CLI reports compared byte for byte with committed reports.

Each file under tests/golden/ is the stdout of one run below. The runs go
through cli.main twice: with numpy importable (the vectorized scan) and
with numpy blocked (the pure-Python scan). A report changes only when its
file is regenerated on purpose.
"""

import json
import pathlib
import sys

import pytest

from burstkit import cli, code_to_dict, expand, field_from_order, rs_code

GOLDEN = pathlib.Path(__file__).parent / "golden"


def certify_rs(q, n, r, tau, ell):
    flags = {"q": q, "n": n, "r": r, "tau": tau, "ell": ell}
    return ["certify", "--construct", "rs", *(f"--{k}={v}" for k, v in flags.items())]


# name -> (argv, exit code); "{ex7}" stands for the explicit RS GF(7) code file.
RUNS = {
    "certify-rs16-r6": (certify_rs(16, 15, 6, 4, 2), 0),
    "certify-rs16-r5": (certify_rs(16, 15, 5, 4, 2), 3),
    "certify-rs13-r6": (certify_rs(13, 12, 6, 4, 2), 0),
    "certify-rs13-r5": (certify_rs(13, 12, 5, 4, 2), 3),
    "certify-ex7": (["certify", "--code", "{ex7}", "--tau", "2", "--ell", "2"], 0),
    "refute-ex1-q5": (["certify", "--construct", "ex1", "--q", "5", "--tau", "2", "--ell", "1"], 3),
    "refute-rs7-r3": (certify_rs(7, 6, 3, 2, 1), 3),
    # the first witness burst starts at position 2, so no solve returns it as is
    "refute-rs11-r3": (certify_rs(11, 10, 3, 2, 1), 3),
    "reproduce-example1": (["reproduce", "example1"], 0),
    "reproduce-example2": (["reproduce", "example2"], 0),
    "reproduce-rs_grid": (["reproduce", "rs_grid"], 0),
}


@pytest.fixture(scope="module")
def ex7_path(tmp_path_factory):
    code = expand(rs_code(field_from_order(7), 6, 3))
    path = tmp_path_factory.mktemp("golden") / "ex7-code.json"
    path.write_text(json.dumps(code_to_dict(code, "ex7", {"q": 7, "n": 6, "r": 3})))
    return str(path)


@pytest.mark.parametrize("numpy_blocked", [False, True], ids=["numpy", "pure"])
def test_reports_match_golden(capsys, monkeypatch, ex7_path, numpy_blocked):
    if numpy_blocked:
        monkeypatch.setitem(sys.modules, "numpy", None)
    for name, (argv, exit_code) in RUNS.items():
        capsys.readouterr()
        assert cli.main([ex7_path if a == "{ex7}" else a for a in argv]) == exit_code, name
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(), name
