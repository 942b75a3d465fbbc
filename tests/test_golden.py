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

from burstkit import LinearCode, Mat, cli, code_to_dict, expand, field_from_order, rs_code

GOLDEN = pathlib.Path(__file__).parent / "golden"


def certify_rs(q, n, r, tau, ell):
    flags = {"q": q, "n": n, "r": r, "tau": tau, "ell": ell}
    return ["certify", "--construct", "rs", *(f"--{k}={v}" for k, v in flags.items())]


def bounds(q, n, tau, ell, size):
    flags = {"q": q, "n": n, "tau": tau, "ell": ell, "size": size}
    return ["bounds", *(f"--{k}={v}" for k, v in flags.items())]


# file name -> (argv, exit code); "{ex7}" stands for the explicit RS GF(7) code
# file, "{lin81}" for the linear GF(81) code file of lin81_code and "{rs7r0}" for
# the file of `construct --kind rs --q 7 --n 6 --r 0`.
RUNS = {
    "certify-rs16-r6.json": (certify_rs(16, 15, 6, 4, 2), 0),
    "certify-rs16-r5.json": (certify_rs(16, 15, 5, 4, 2), 3),
    "certify-rs13-r6.json": (certify_rs(13, 12, 6, 4, 2), 0),
    "certify-rs13-r5.json": (certify_rs(13, 12, 5, 4, 2), 3),
    "certify-ex7.json": (["certify", "--code", "{ex7}", "--tau", "2", "--ell", "2"], 0),
    "refute-ex1-q5.json": (["certify", "--construct", "ex1", "--q", "5", "--tau", "2", "--ell", "1"], 3),
    "refute-rs7-r3.json": (certify_rs(7, 6, 3, 2, 1), 3),
    # the first witness burst starts at position 2, so no solve returns it as is
    "refute-rs11-r3.json": (certify_rs(11, 10, 3, 2, 1), 3),
    # odd p^m, one int64 word of ten 4-bit lanes per key
    "refute-rs25-r4.json": (certify_rs(25, 24, 4, 3, 2), 3),
    # 24 three-bit lanes, two int64 words per key; the worst word's syndrome
    # is a multiple of column 3 whose top row is 1, not column 3 itself
    "refute-lin81-r6.json": (["certify", "--code", "{lin81}", "--tau", "2", "--ell", "1"], 3),
    # r = 0: the code is all of GF(7)^6, so it detects no burst and every
    # syndrome is 0; the witness is the zero burst and the first 2-burst
    "refute-rs7-r0.json": (["certify", "--code", "{rs7r0}", "--tau", "2", "--ell", "1"], 3),
    "reproduce-example1.json": (["reproduce", "example1"], 0),
    "reproduce-example2.json": (["reproduce", "example2"], 0),
    "reproduce-rs_grid.json": (["reproduce", "rs_grid"], 0),
    "reproduce-appendix_a.json": (["reproduce", "appendix_a", "--q", "2"], 0),
    "reproduce-resultant_grid.csv": (
        ["reproduce", "resultant_grid", "--count", "30", "--format", "csv"], 0
    ),
    # n = 2 ell and tau = ell, the only parameters where lemma_Mell applies
    "bounds-q3-n4-all.json": (bounds(3, 4, 2, 2, 4), 0),
    "bounds-q16-n15-all.json": (bounds(16, 15, 4, 2, 16**9), 0),
    # 100 is not a power of 3, so reiger_linear is inapplicable
    "bounds-q3-size100-all.json": (bounds(3, 8, 2, 2, 100), 0),
    "bounds-q5-n12-ell3-all.json": (bounds(5, 12, 3, 3, 125), 0),
    "bounds-lemma_Mell-n6.json": ([*bounds(3, 6, 2, 2, 4), "--bound", "lemma_Mell"], 0),
    "count-bursts-phased.json": (["count-bursts", "--q", "4", "--n", "9", "--tau", "3", "--phased"], 0),
    "construct-appxa.json": (["construct", "--kind", "appxa", "--q", "3", "--stars", "1,0,2,0,1,1"], 0),
    "decode-rs8-phased.json": (
        ["decode", "--construct", "rs", "--q", "8", "--n", "7", "--r", "3",
         "--y", "0,0,0,5,1,0,3", "--tau", "3", "--ell", "2", "--phased"], 0
    ),
    "decode-ex7.json": (["decode", "--code", "{ex7}", "--y", "6,4,0,2,2,6", "--tau", "2", "--ell", "2"], 0),
    "resultant-both.json": (
        ["resultant", "--q", "13", "--alpha", "2", "--mu", "2,2", "--beta", "1,3", "--mode", "both"], 0
    ),
    "resultant-witness.json": (
        ["resultant", "--q", "13", "--alpha", "2", "--mu", "1,1", "--beta", "5,5", "--witness"], 0
    ),
    # a 5-dimensional left kernel: the relation is its first canonical basis vector
    "resultant-witness-kernel5.json": (
        ["resultant", "--q", "16", "--alpha", "2", "--mu", "2,2,2,2", "--beta", "1,2,1,2", "--witness"], 0
    ),
    # odd p^m, r = 10: the widest block is the last one, and beta_3 = beta_1 * alpha^2
    "resultant-witness-gf81.json": (
        ["resultant", "--q", "81", "--alpha", "3", "--mu", "2,3,1,4", "--beta", "1,5,7,45", "--witness"], 0
    ),
    # ell = 3, r = 10, the widest blocks tie (0 and 2); beta_2 = beta_0 * alpha^-2
    "resultant-both-gf81.json": (
        ["resultant", "--q", "81", "--alpha", "7", "--mu", "3,2,3,2", "--beta", "4,9,15,2", "--mode", "both"], 0
    ),
}


def lin81_code():
    """RS over GF(81) with n = 10 and r = 6, plus an eleventh column that
    is the generator times column 3."""
    ctx = field_from_order(81)
    rows = [row + [ctx.mul(ctx.generator, row[3])] for row in rs_code(ctx, 10, 6).H.to_rows()]
    return LinearCode(ctx, 11, Mat.from_rows(ctx, rows, cols=11))


@pytest.fixture(scope="module")
def code_paths(tmp_path_factory):
    codes = {
        "{ex7}": code_to_dict(expand(rs_code(field_from_order(7), 6, 3)), "ex7", {"q": 7, "n": 6, "r": 3}),
        "{lin81}": code_to_dict(lin81_code(), "lin81", {"q": 81, "n": 11, "r": 6}),
        "{rs7r0}": code_to_dict(rs_code(field_from_order(7), 6, 0), "rs", {"q": 7, "n": 6, "r": 0}),
    }
    folder = tmp_path_factory.mktemp("golden")
    for name, code in codes.items():
        (folder / f"{name[1:-1]}-code.json").write_text(json.dumps(code))
    return {name: str(folder / f"{name[1:-1]}-code.json") for name in codes}


@pytest.mark.parametrize("numpy_blocked", [False, True], ids=["numpy", "pure"])
def test_reports_match_golden(capsys, monkeypatch, code_paths, numpy_blocked):
    if numpy_blocked:
        monkeypatch.setitem(sys.modules, "numpy", None)
    for name, (argv, exit_code) in RUNS.items():
        capsys.readouterr()
        assert cli.main([code_paths.get(a, a) for a in argv]) == exit_code, name
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
