import decimal
import json

import pytest

from burstkit import BOUND_IDS, BurstPattern, code_from_dict, count_bursts, replay_witness
from burstkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_count_bursts_json(capsys):
    code, payload = run_cli(
        capsys, "count-bursts", "--q", "2", "--n", "5", "--tau", "2"
    )
    assert code == 0
    assert payload["count"] == "10"
    assert payload["schema"] == "burstkit-report/1"
    assert payload["config"] == {"n": 5, "phased": False, "q": 2, "tau": 2}


def test_count_bursts_phased(capsys):
    code, payload = run_cli(
        capsys, "count-bursts", "--q", "2", "--n", "4", "--tau", "2", "--phased"
    )
    assert code == 0 and payload["count"] == "7"


def test_output_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["reproduce", "resultant_grid", "--seed", "7", "--count", "40"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_construct_and_decode_round_trip(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    code, _ = run_cli(
        capsys,
        "construct", "--kind", "ex2", "--q", "3", "--delta", "1",
        "--output", str(path),
    )
    assert code == 0
    handle = code_from_dict(json.loads(path.read_text()))
    assert handle.kind == "explicit" and handle.size == 6

    code, payload = run_cli(
        capsys,
        "decode", "--code", str(path), "--y", "1,1,0,1", "--tau", "2", "--ell", "2",
    )
    assert code == 0
    assert payload["list_size"] == 2 and payload["within_ell"] is True
    assert payload["candidates"][0]["codeword"] == [1, 0, 0, 1]
    assert payload["candidates"][0]["burst"] == {"start": 1, "payload": [1, 0]}


def test_certify_exit_codes_and_witness(capsys):
    code, payload = run_cli(
        capsys,
        "certify", "--construct", "rs", "--q", "16", "--n", "15", "--r", "6",
        "--tau", "4", "--ell", "2",
    )
    assert code == 0
    assert payload["detects"] is True and payload["decodable"] is True

    code, payload = run_cli(
        capsys,
        "certify", "--construct", "rs", "--q", "16", "--n", "15", "--r", "5",
        "--tau", "4", "--ell", "2",
    )
    assert code == 3
    assert payload["max_list"] >= 3
    witness = payload["witness"]
    assert len(witness) == 3
    # replay the emitted witness through library calls
    from burstkit import field_new, rs_code

    rs = rs_code(field_new(2, 4), 15, 5)
    pairs = tuple(
        (
            tuple(entry["codeword"]),
            BurstPattern(entry["burst"]["start"], tuple(entry["burst"]["payload"])),
        )
        for entry in witness
    )
    assert replay_witness(rs, pairs, 4)


def test_bounds_all(capsys):
    code, payload = run_cli(
        capsys,
        "bounds", "--q", "3", "--n", "4", "--tau", "2", "--ell", "2", "--size", "4",
    )
    assert code == 0
    by_id = {v["bound_id"]: v for v in payload["verdicts"]}
    assert len(by_id) == 8
    v = by_id["general_ell2"]
    assert v["satisfied"] and v["exact_terms"] == {
        "lhs": "4",
        "relation": "<=",
        "rhs": "4",
    }
    assert by_id["lemma_Mell"]["applicable"] is True


@pytest.mark.parametrize("bound_id", BOUND_IDS)
def test_bounds_single_id_matches_all(capsys, bound_id):
    params = ("--q", "3", "--n", "4", "--tau", "2", "--ell", "2", "--size", "4")
    _, every = run_cli(capsys, "bounds", *params)
    code, single = run_cli(capsys, "bounds", *params, "--bound", bound_id)
    assert code == 0
    by_id = {v["bound_id"]: v for v in every["verdicts"]}
    assert single["verdicts"] == [by_id[bound_id]]


def test_integers_past_4300_digits_print_exactly(capsys):
    """Counts and exact terms print in full where str() refuses them: the
    burst count at q = 2, n = tau = 15000 and the sphere-packing rhs
    2 * 2^15000 have 4,516 digits each."""
    code, payload = run_cli(capsys, "count-bursts", "--q", "2", "--n", "15000", "--tau", "15000")
    count = payload["count"]
    assert code == 0 and count.isdecimal() and len(count) > 4300
    assert decimal.Decimal(count) == count_bursts(2, 15000, 15000)
    code, payload = run_cli(
        capsys, "bounds", "--q", "2", "--n", "15000", "--tau", "3", "--ell", "2", "--size", "4", "--bound", "sphere_packing"
    )
    (v,) = payload["verdicts"]
    assert code == 0 and v["satisfied"] is True
    assert decimal.Decimal(v["exact_terms"]["rhs"]) == 2 * 2**15000


def test_sphere_packing_past_the_float_range(capsys):
    """V_2(2000, 2000) = 2^2000 - 1 overflows a float; the advisory
    redundancy log_2(V / ell) is then read from each integer's log."""
    code, payload = run_cli(capsys, "bounds", "--q", "2", "--n", "2000", "--tau", "2000", "--ell", "2", "--size", "4")
    assert code == 0
    v = {v["bound_id"]: v for v in payload["verdicts"]}["sphere_packing"]
    assert v["satisfied"] is False and v["min_redundancy"] == pytest.approx(1999)


def test_bounds_unknown_id_usage_error(capsys):
    code, _ = run_cli(
        capsys,
        "bounds", "--q", "3", "--n", "4", "--tau", "2", "--ell", "2",
        "--size", "4", "--bound", "nope",
    )
    assert code == 2


def test_resultant_modes(capsys):
    code, payload = run_cli(
        capsys,
        "resultant", "--q", "13", "--alpha", "2", "--mu", "2,2", "--beta", "1,3",
        "--mode", "both",
    )
    assert code == 0
    assert payload["match"] is True
    assert payload["delta_direct"] == payload["delta_closed_form"]

    code, payload = run_cli(
        capsys,
        "resultant", "--q", "13", "--alpha", "2", "--mu", "1,1", "--beta", "5,5",
        "--mode", "witness",
    )
    assert code == 0
    assert payload["condition_ii"] == [0, 1, 0]
    assert payload["relation"] is not None


def test_resultant_invalid_instance_usage_error(capsys):
    code, _ = run_cli(
        capsys,
        "resultant", "--q", "13", "--alpha", "2", "--mu", "2,2", "--beta", "1,0",
    )
    assert code == 2


def test_cap_exceeded_exit(capsys):
    code, _ = run_cli(
        capsys,
        "certify", "--construct", "rs", "--q", "16", "--n", "15", "--r", "6",
        "--tau", "4", "--ell", "2", "--cap", "1000",
    )
    assert code == 4


def test_resultant_field_flag_and_mode_aliases(capsys):
    code, payload = run_cli(
        capsys,
        "resultant", "--field", "13", "--alpha", "2", "--mu", "1,1",
        "--beta", "1,2", "--direct",
    )
    assert code == 0 and "delta_direct" in payload and "kappa" not in payload


def test_reproduce_example1(capsys):
    code, payload = run_cli(capsys, "reproduce", "example1", "--q", "3")
    assert code == 0
    assert payload["all_pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "bound_attained_exactly" in names


def test_reproduce_example2(capsys):
    code, payload = run_cli(capsys, "reproduce", "example2", "--q", "4")
    assert code == 0 and payload["all_pass"]


def test_reproduce_rs_grid_small(capsys):
    code, payload = run_cli(capsys, "reproduce", "rs_grid", "--q", "7", "--n", "6")
    assert code == 0 and payload["all_pass"]
    names = [c["name"] for c in payload["checks"]]
    assert any(n.startswith("attain_") for n in names)
    assert any(n.startswith("converse_") for n in names)


def test_reproduce_appendix_a_samples_when_the_grid_is_large(capsys):
    # 4^6 = 4096 star vectors exceed 1000, so --samples of them are drawn
    code, payload = run_cli(capsys, "reproduce", "appendix_a", "--q", "4", "--samples", "3", "--seed", "1")
    assert code == 0 and payload["all_pass"] is True
    assert payload["checks"][0] == {
        "name": "all_star_vectors_certified", "pass": True, "total": 3, "failures": 0
    }


def test_main_keeps_no_flag_from_one_call_to_the_next(capsys):
    """The parser is built once per process; each call's report must be
    the one that the same flags give when they come first."""
    decode = ["decode", "--construct", "rs", "--q", "7", "--n", "6", "--r", "2", "--y", "0,1,0,0,0,0", "--tau", "2"]
    grid = ["reproduce", "rs_grid", "--q", "7"]
    for earlier, later, flag, default in (
        (decode + ["--phased"], decode, "phased", False),
        (grid + ["--n", "6"], grid, "n", None),
    ):
        _, first = run_cli(capsys, *later)
        run_cli(capsys, *earlier)
        _, again = run_cli(capsys, *later)
        assert again == first and again["config"][flag] == default


def _rs7_file(tmp_path, edit):
    """An RS GF(7) code file after edit, which changes the document in
    place or returns the one to write instead."""
    path = tmp_path / "rs7.json"
    argv = ["construct", "--kind", "rs", "--q", "7", "--n", "6", "--r", "3"]
    assert main([*argv, "--output", str(path)]) == 0
    d = json.loads(path.read_text())
    path.write_text(json.dumps(edit(d) or d))
    return str(path)


def _explicit(d):
    del d["H"]
    d["kind"] = "explicit"
    d["codewords"] = [[0] * 6, [1, 1, 1, 1, 1, -1]]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["H"][0].__setitem__(2, 99), "error: H entry 99 is not an element of GF(7)"),
        (lambda d: d["H"][1].__setitem__(0, -1), "error: H entry -1 is not an element of GF(7)"),
        (lambda d: d.update(G=[[7] * 6] * 3), "error: G entry 7 is not an element of GF(7)"),
        (_explicit, "error: codeword entry -1 is not an element of GF(7)"),
    ],
    ids=["H-99", "H-minus-1", "G-7", "codeword-minus-1"],
)
def test_code_file_entries_outside_the_field_are_usage_errors(
    capsys, tmp_path, edit, message
):
    path = _rs7_file(tmp_path, edit)
    assert main(["certify", "--code", path, "--tau", "2", "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_received_word_outside_the_field_is_a_usage_error(capsys):
    argv = ["decode", "--construct", "rs", "--q", "7", "--n", "6", "--r", "3", "--tau", "2"]
    assert main([*argv, "--y", "9,0,0,0,0,-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: received word [9, 0, 0, 0, 0, -3] has an entry outside GF(7)\n"


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


ROWS = "error: H entries must be given as a list of rows"
SCALARS = "error: code file 'n' must be an integer and 'meta' an object"
FIELD_SCALARS = "error: field 'p' and 'm' must be integers and 'modulus' a list of integers"
MODULUS = "error: modulus must be monic of degree m"
MODULUS_RANGE = "error: modulus {} has a coefficient outside GF(3)"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: _without(d, "kind"), "error: code file has no 'kind' key"),
        (lambda d: _without(d, "n"), "error: code file has no 'n' key"),
        (lambda d: _without(d, "field"), "error: code file has no 'field' key"),
        (lambda d: _without(d, "H"), "error: code file has no 'H' key"),
        (
            lambda d: {**d, "field": _without(d["field"], "m")},
            "error: field must be an object with keys 'p', 'm' and 'modulus'",
        ),
        (lambda d: {**d, "H": 5}, ROWS),
        (lambda d: {**d, "H": d["H"][0]}, ROWS),
        (lambda d: [d], "error: a code file must hold a JSON object, not a list"),
        (lambda d: {**d, "meta": 5}, SCALARS),
        (lambda d: {**d, "n": None}, SCALARS),
        (lambda d: {**d, "field": {**d["field"], "p": None}}, FIELD_SCALARS),
        (lambda d: {**d, "field": {**d["field"], "modulus": 5}}, FIELD_SCALARS),
        (
            lambda d: {**d, "field": {**d["field"], "m": 10_000_000}},
            "error: field size 7^10000000 exceeds the cap 1048576",
        ),
        (lambda d: {**d, "kind": "foo"}, "error: unknown code kind 'foo'"),
        (lambda d: d.update(G=[[1] * 6] * 3), "error: generator matrix does not have full row rank"),
        (
            lambda d: d.update(G=[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),
            "error: generator and parity-check ranks disagree",
        ),
        # GF(9) files whose modulus has degree 3, or leading coefficient 2
        (lambda d: {**d, "field": {"p": 3, "m": 2, "modulus": [2, 0, 0, 1]}}, MODULUS),
        (lambda d: {**d, "field": {"p": 3, "m": 2, "modulus": [2, 0, 2]}}, MODULUS),
        # GF(9) files whose modulus reads as x^2 + 1 only once reduced mod 3
        (lambda d: {**d, "field": {"p": 3, "m": 2, "modulus": [4, 0, 1]}}, MODULUS_RANGE.format("[4, 0, 1]")),
        (lambda d: {**d, "field": {"p": 3, "m": 2, "modulus": [-2, 0, 1]}}, MODULUS_RANGE.format("[-2, 0, 1]")),
        (lambda d: {**d, "field": {"p": 3, "m": 2, "modulus": [1, 0, 4]}}, MODULUS_RANGE.format("[1, 0, 4]")),
    ],
    ids=[
        "no-kind", "no-n", "no-field", "no-H", "field-no-m", "H-5", "H-flat-row", "list",
        "meta-5", "n-null", "field-p-null", "field-modulus-5", "field-m-huge",
        "kind-foo", "G-rank-deficient", "G-rows-not-n-minus-r", "gf9-modulus-degree-3", "gf9-modulus-not-monic",
        "gf9-modulus-4", "gf9-modulus-minus-2", "gf9-modulus-leading-4",
    ],
)
def test_malformed_code_files_are_usage_errors(capsys, tmp_path, edit, message):
    path = _rs7_file(tmp_path, edit)
    assert main(["certify", "--code", path, "--tau", "2", "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def _explicit_true(d):
    _explicit(d)
    d["codewords"][1][0] = True


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["H"][0].__setitem__(0, True), "error: H entry True is not an element of GF(7)"),
        (lambda d: d.update(G=[[True] * 6] * 3), "error: G entry True is not an element of GF(7)"),
        (_explicit_true, "error: codeword entry True is not an element of GF(7)"),
        (lambda d: {**d, "n": True}, SCALARS),
        (lambda d: {**d, "field": {**d["field"], "p": True}}, FIELD_SCALARS),
        (lambda d: {**d, "field": {**d["field"], "m": True}}, FIELD_SCALARS),
        (lambda d: d["field"]["modulus"].__setitem__(-1, True), FIELD_SCALARS),
    ],
    ids=["H", "G", "codeword", "n", "field-p", "field-m", "field-modulus"],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, edit, message):
    """JSON true is a Python int to isinstance, but no entry of a code
    file may be one: each is refused with exit 2 and nothing on stdout."""
    path = _rs7_file(tmp_path, edit)
    assert main(["certify", "--code", path, "--tau", "2", "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_failed_witness_replay_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr("burstkit.cli.replay_witness", lambda *a: False)
    argv = ["certify", "--construct", "rs", "--q", "7", "--n", "6", "--r", "3", "--tau", "2", "--ell", "1"]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant failed: emitted witness failed replay\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count-bursts", "--q", "2", "--n", "5", "--tau", "2"],
        ["construct", "--kind", "ex1", "--q", "3"],
        ["bounds", "--q", "3", "--n", "4", "--tau", "2", "--ell", "2", "--size", "4"],
        ["resultant", "--q", "13", "--alpha", "2", "--mu", "2,2", "--beta", "1,3"],
        ["reproduce", "example1"],
    ],
    ids=lambda argv: argv[0],
)
def test_cap_is_rejected_where_no_cap_applies(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_decode_cap_exceeded_exit(capsys):
    # every window of three columns of a rank-2 H has q^1 = 7 solutions
    argv = ["decode", "--construct", "rs", "--q", "7", "--n", "6", "--r", "2", "--y", "0,0,0,0,0,0", "--tau", "3"]
    assert main([*argv, "--cap", "7"]) == 0
    assert main([*argv, "--cap", "6"]) == 4
    assert capsys.readouterr().err == "cap exceeded: window solution set q^b needs 7 > cap 6\n"


RS7 = ["--construct", "rs", "--q", "7", "--n", "6", "--r", "2"]
NON_NEGATIVE = "--cap must be a non-negative integer, got "
# every flag but --ell; three bounds read no --ell of their own
BOUNDS = ["bounds", "--q", "3", "--n", "4", "--tau", "2", "--size", "4"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["certify", *RS7, "--tau", "2", "--ell", "1", "--cap", "-1"], NON_NEGATIVE + "'-1'"),
        (["decode", *RS7, "--y", "0,0,0,0,0,0", "--tau", "2", "--cap", "abc"], NON_NEGATIVE + "'abc'"),
        (
            ["resultant", "--q", "13", "--alpha", "99", "--mu", "2,2", "--beta", "1,3"],
            "alpha 99 is not an element of GF(13)",
        ),
        (
            ["resultant", "--q", "13", "--alpha", "-2", "--mu", "2,2", "--beta", "1,3"],
            "alpha -2 is not an element of GF(13)",
        ),
        (
            ["resultant", "--q", "13", "--alpha", "2", "--mu", "2,2", "--beta", "1,-3"],
            "beta entry -3 is not an element of GF(13)",
        ),
        (
            ["construct", "--kind", "ex2", "--q", "3", "--delta", "5"],
            "delta must be a nonzero element of GF(3), got 5",
        ),
        (
            ["bounds", "--q", "1", "--n", "4", "--tau", "2", "--ell", "2", "--size", "4"],
            "the alphabet size q must be at least 2, got 1",
        ),
        (
            ["bounds", "--q", "3", "--n", "-4", "--tau", "2", "--ell", "1", "--size", "4", "--bound", "reiger_group"],
            "n must be at least 1, got -4",
        ),
        (
            ["bounds", "--q", "3", "--n", "-4", "--tau", "-2", "--ell", "2", "--size", "4", "--bound", "lemma_Mell"],
            "n must be at least 1, got -4",
        ),
        ([*BOUNDS, "--ell", "-5", "--bound", "general_ell2"], "ell must be at least 1, got -5"),
        ([*BOUNDS, "--ell", "-5", "--bound", "no_detection_ell2"], "ell must be at least 1, got -5"),
        ([*BOUNDS, "--ell", "-5", "--bound", "lemma_Mell"], "ell must be at least 1, got -5"),
        (["count-bursts", "--q", "3", "--n", "4", "--tau", "0"], "tau must satisfy 1 <= tau <= 4, got 0"),
        (["count-bursts", "--q", "-3", "--n", "4", "--tau", "2"], "the alphabet size q must be at least 2, got -3"),
        (["count-bursts", "--q", "1", "--n", "4", "--tau", "2"], "the alphabet size q must be at least 2, got 1"),
        (["certify", "--construct", "ex1", "--tau", "2", "--ell", "1"], "a construction needs --q"),
        (["certify", "--tau", "2", "--ell", "1"], "either --code or --construct is required"),
        (["decode", "--y", "1,2,3", "--tau", "2"], "either --code or --construct is required"),
        (["certify", "--construct", "rs", "--q", "7", "--tau", "2", "--ell", "1"], "rs construction needs --n and --r"),
        (["decode", *RS7, "--y", "1,2,3,4,5,6", "--tau", "2", "--ell", "0"], "the list size bound must be at least 1"),
        (["certify", *RS7, "--tau", "2", "--ell", "0"], "the list size bound must be at least 1"),
        (["decode", *RS7, "--y", "1,2,3,4,5,6", "--tau", "2", "--ell", "-1"], "the list size bound must be at least 1"),
        # a flag that is present is used as given, even when it is 0
        (["reproduce", "example1", "--q", "0"], "0 is not a prime power"),
        (["reproduce", "rs_grid", "--q", "0"], "0 is not a prime power"),
        (["reproduce", "rs_grid", "--q", "7", "--n", "0"], "reproduce rs_grid has no checks to run for these flags"),
        (["reproduce", "rs_grid", "--q", "7", "--n", "2"], "reproduce rs_grid has no checks to run for these flags"),
        (["reproduce", "resultant_grid", "--count", "-5"], "--count must be at least 1, got -5"),
        (["reproduce", "appendix_a", "--q", "5", "--samples", "0"], "--samples must be at least 1, got 0"),
        # an empty list entry is refused, not dropped
        (["decode", *RS7, "--y", "1,2,,3,4,5,6", "--tau", "2"], "--y has an empty entry: '1,2,,3,4,5,6'"),
        (["decode", *RS7, "--y", "1,2,3,4,5,6,", "--tau", "2"], "--y has an empty entry: '1,2,3,4,5,6,'"),
        (["resultant", "--q", "13", "--alpha", "2", "--mu", "1,,1", "--beta", "1,3"], "--mu has an empty entry: '1,,1'"),
        (["resultant", "--q", "13", "--alpha", "2", "--mu", "1,1", "--beta", "1,,1"], "--beta has an empty entry: '1,,1'"),
        (["construct", "--kind", "appxa", "--q", "3", "--stars", "1,,2,0,1,1,0"], "--stars has an empty entry: '1,,2,0,1,1,0'"),
        (["construct", "--kind", "appxa", "--q", "3", "--stars", ""], "--stars has an empty entry: ''"),
    ],
    ids=[
        "cap-negative", "cap-text", "alpha-99", "alpha-minus-2", "beta-minus-3", "delta-5",
        "bounds-q1", "bounds-n-minus-4", "lemma_Mell-n-minus-4", "general_ell2-ell-minus-5",
        "no_detection_ell2-ell-minus-5", "lemma_Mell-ell-minus-5", "tau-0", "count-q-minus-3", "count-q1", "no-q",
        "certify-no-code", "decode-no-code",
        "rs-no-n-r", "decode-ell-0", "certify-ell-0", "decode-ell-minus-1",
        "reproduce-example1-q0", "reproduce-rs_grid-q0", "reproduce-rs_grid-n0", "reproduce-rs_grid-n2",
        "reproduce-count-minus-5", "reproduce-samples-0",
        "y-empty-entry", "y-trailing-comma", "mu-empty-entry", "beta-empty-entry", "stars-empty-entry",
        "stars-empty",
    ],
)
def test_out_of_range_flags_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_stars_left_out_mean_six_zeros(capsys):
    argv = ["construct", "--kind", "appxa", "--q", "3"]
    code, left_out = run_cli(capsys, *argv)
    assert code == 0 and (0, left_out) == run_cli(capsys, *argv, "--stars", "0,0,0,0,0,0")


# one scan of each cap kind: a value of BURSTKIT_CAP_<kind> that refuses it,
# and the refusal
CAP_KINDS = {
    "ENUM": ("100", ["certify", *RS7, "--tau", "2", "--ell", "1"], "burst bucketing q^tau * n needs 294 > cap 100"),
    "SOLUTIONS": ("0", ["decode", *RS7, "--tau", "2", "--y", "1,2,3,4,5,6"], "window solution set q^b needs 1 > cap 0"),
    "CODEWORDS": (
        "1",
        ["decode", "--construct", "ex1", "--q", "5", "--tau", "2", "--y", "0,0,0,0"],
        "explicit codeword scan needs 8 > cap 1",
    ),
}


@pytest.mark.parametrize("kind", CAP_KINDS)
def test_cap_env_override(capsys, monkeypatch, kind):
    raw, argv, message = CAP_KINDS[kind]
    monkeypatch.setenv(f"BURSTKIT_CAP_{kind}", raw)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"cap exceeded: {message}\n"


@pytest.mark.parametrize("kind", CAP_KINDS)
@pytest.mark.parametrize("raw", ["-5", "abc"])
def test_cap_variable_must_be_a_non_negative_integer(capsys, monkeypatch, raw, kind):
    monkeypatch.setenv(f"BURSTKIT_CAP_{kind}", raw)
    assert main(CAP_KINDS[kind][1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: BURSTKIT_CAP_{kind} must be a non-negative integer, got {raw!r}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["certify", "--construct", "rs", "--q", "64", "--n", "63", "--r", "6", "--tau", "4", "--ell", "2"],
            "burst bucketing q^tau * n needs 1056964608 > cap 67108864",
        ),
        (
            ["decode", "--construct", "rs", "--q", "17", "--n", "16", "--r", "0", "--tau", "4", "--y", ",".join("0" * 16)],
            "window solution set q^b needs 83521 > cap 65536",
        ),
        # q^tau * n passes 4,300 digits, which str() refuses to print
        (
            ["certify", "--construct", "rs", "--q", "65536", "--n", "1285", "--r", "2", "--tau", "1285", "--ell", "1"],
            "burst bucketing q^tau * n needs at least 2^20570 > cap 67108864",
        ),
    ],
    ids=["ENUM", "SOLUTIONS", "ENUM-unprintable"],
)
def test_default_caps(capsys, monkeypatch, argv, message):
    """With no BURSTKIT_CAP_* set, each scan is refused at its kind's
    default before it starts."""
    for kind in CAP_KINDS:
        monkeypatch.delenv(f"BURSTKIT_CAP_{kind}", raising=False)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"cap exceeded: {message}\n"
