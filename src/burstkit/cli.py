"""Command-line entry point.

Subcommands wire the library into reproducible experiments with
machine-readable JSON reports. Counts and thresholds are string-encoded
(they exceed 64 bits on large grids), every report echoes its config
and schema tag, and identical flags plus seed produce byte-identical
output.

Exit codes: 0 success / certified, 2 usage error, 3 refuted (a witness
is included and replay-verified), 4 enumeration cap exceeded, 5 internal
invariant failed (a library self-check, such as the witness replay, did
not hold).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import _caps, bounds as bounds_mod
from ._caps import CapExceeded
from .burst import BurstSpace
from .codes import (
    CodeHandle,
    appendix_a_code,
    code_from_dict,
    code_to_dict,
    example_code_1,
    example_code_2,
    rs_code,
)
from .gf import field_from_order
from .listdec import CertReport, certify, decode, max_list_size, replay_witness
from .resultant import (
    ResultantInstance,
    det_product_form,
    det_stacked,
    find_kernel_relation,
    find_ratio_collision,
    leading_constant,
    sample_instance,
)

SCHEMA = "burstkit-report/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2), args)


def _write(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _digits(x: int) -> str:
    """x in decimal, exactly at any size: str() refuses ints past 4,300
    digits, Decimal's conversion does not. decimal is imported on first
    use, as only count and bound reports need it."""
    import decimal

    return str(decimal.Decimal(x))


def _report(command: str, config: dict, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config, **body}


def _pattern_json(pat) -> dict:
    return {
        "start": pat.start,
        "payload": list(pat.payload),
    }


def _witness_json(code, witness) -> list | None:
    if witness is None:
        return None
    n = code.n
    return [
        {
            "codeword": list(c),
            "burst": _pattern_json(p),
            "burst_word": list(p.expand(n)),
        }
        for c, p in witness
    ]


def _cert_json(code, rep: CertReport) -> dict:
    return {
        "detects": rep.detects,
        "max_list": rep.max_list,
        "ell": rep.ell,
        "decodable": rep.decodable,
        "witness": _witness_json(code, rep.witness),
        "work": rep.work,
    }


def _verdict_json(v) -> dict:
    return {
        "bound_id": v.bound_id,
        "applicable": v.applicable,
        "satisfied": v.satisfied,
        "max_size": None if v.max_size is None else _digits(v.max_size),
        "exact_terms": None
        if v.exact_terms is None
        else {
            "lhs": _digits(v.exact_terms["lhs"]),
            "relation": v.exact_terms["relation"],
            "rhs": _digits(v.exact_terms["rhs"]),
        },
        "inputs": {k: (_digits(x) if isinstance(x, int) else x) for k, x in v.inputs.items()},
        "min_redundancy": v.min_redundancy,
    }


def _csv_ints(text: str, flag: str) -> list[int]:
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    return [int(x) for x in items]


def _given(value, default):
    """A flag's value when the flag is present (0 included), else default."""
    return default if value is None else value


def _construct_rs(ctx, args):
    if args.n is None or args.r is None:
        raise ValueError("rs construction needs --n and --r")
    return rs_code(ctx, args.n, args.r), {"q": args.q, "n": args.n, "r": args.r}


def _construct_ex2(ctx, args):
    delta = _given(args.delta, 1)
    return example_code_2(ctx, delta), {"q": args.q, "delta": delta}


def _construct_appxa(ctx, args):
    stars = [0] * 6 if args.stars is None else _csv_ints(args.stars, "--stars")
    return appendix_a_code(ctx, stars), {"q": args.q, "stars": stars}


# construction name -> (field, flags) -> (code, params)
_CONSTRUCTIONS = {
    "rs": _construct_rs,
    "ex1": lambda ctx, args: (example_code_1(ctx), {"q": args.q}),
    "ex2": _construct_ex2,
    "appxa": _construct_appxa,
}


def _build_construct(args) -> CodeHandle:
    if args.q is None:
        raise ValueError("a construction needs --q")
    code, params = _CONSTRUCTIONS[args.construct](field_from_order(args.q), args)
    return CodeHandle(code, args.construct, params)


def _load_code(args) -> CodeHandle:
    if getattr(args, "code", None):
        with open(args.code) as fh:
            return code_from_dict(json.load(fh))
    if getattr(args, "construct", None):
        return _build_construct(args)
    raise ValueError("either --code or --construct is required")


# -- subcommands --------------------------------------------------------

def cmd_count_bursts(args) -> int:
    count = BurstSpace(args.n, args.tau, args.phased).count(args.q)
    cfg = {"q": args.q, "n": args.n, "tau": args.tau, "phased": args.phased}
    _emit(_report("count-bursts", cfg, {"count": _digits(count)}), args)
    return EXIT_OK


def cmd_construct(args) -> int:
    handle = _build_construct(args)
    _emit(code_to_dict(handle), args)
    return EXIT_OK


def cmd_decode(args) -> int:
    handle = _load_code(args)
    if args.ell is not None and args.ell < 1:
        raise ValueError("the list size bound must be at least 1")
    y = _csv_ints(args.y, "--y")
    res = decode(handle, y, args.tau, phased=args.phased, cap=args.cap)
    cfg = {
        "code": handle.name or args.code,
        "y": y,
        "tau": args.tau,
        "ell": args.ell,
        "phased": args.phased,
    }
    body = {
        "list_size": res.list_size,
        "within_ell": None if args.ell is None else res.list_size <= args.ell,
        "candidates": [
            {"codeword": list(c), "burst": _pattern_json(p)} for c, p in res.candidates
        ],
        "window_stats": {str(k): v for k, v in sorted(res.window_stats.items())},
    }
    _emit(_report("decode", cfg, body), args)
    return EXIT_OK


def cmd_certify(args) -> int:
    handle = _load_code(args)
    rep = certify(handle, args.tau, args.ell, cap=args.cap)
    cfg = {
        "code": handle.name or args.code,
        "params": handle.params,
        "tau": args.tau,
        "ell": args.ell,
    }
    body = _cert_json(handle, rep)
    if rep.witness is not None and not replay_witness(handle, rep.witness, args.tau):
        raise AssertionError("emitted witness failed replay")
    _emit(_report("certify", cfg, body), args)
    return EXIT_OK if rep.decodable else EXIT_REFUTED


def cmd_bounds(args) -> int:
    params = (args.q, args.n, args.tau, args.ell, args.size)
    # every flag checked as given, also those a single bound ignores
    cfg = bounds_mod._inputs(*params)
    if args.bound == "all":
        verdicts = bounds_mod.all_verdicts(*params)
    elif args.bound in bounds_mod.BOUNDS:
        verdicts = [bounds_mod.BOUNDS[args.bound](*params)]
    else:
        raise ValueError(f"unknown bound id {args.bound!r}")
    _emit(_report("bounds", cfg, {"verdicts": [_verdict_json(v) for v in verdicts]}), args)
    return EXIT_OK


def cmd_resultant(args) -> int:
    ctx = field_from_order(args.q)
    mu = _csv_ints(args.mu, "--mu")
    beta = _csv_ints(args.beta, "--beta")
    inst = ResultantInstance(ctx, args.alpha, tuple(mu), tuple(beta))
    cfg = {"q": args.q, "alpha": args.alpha, "mu": mu, "beta": beta, "mode": args.mode}
    body: dict = {"r": inst.r, "taus": list(inst.taus)}
    if args.mode in ("direct", "both"):
        body["delta_direct"] = det_stacked(inst)
    if args.mode in ("closed-form", "both"):
        body["delta_closed_form"] = det_product_form(inst)
        body["kappa"] = leading_constant(ctx, inst.alpha, inst.mu)
    if args.mode == "both":
        body["match"] = body["delta_direct"] == body["delta_closed_form"]
    coll = find_ratio_collision(inst)
    body["condition_ii"] = None if coll is None else list(coll)
    if args.mode in ("witness", "both"):
        rel = find_kernel_relation(inst)
        body["relation"] = None if rel is None else [list(p) for p in rel.polys]
    _emit(_report("resultant", cfg, body), args)
    return EXIT_OK


# -- reproduce ------------------------------------------------------------

def _check(name: str, ok: bool, **details) -> dict:
    return {"name": name, "pass": bool(ok), **details}


def _reproduce_example1(q: int) -> list[dict]:
    ctx = field_from_order(q)
    code = example_code_1(ctx)
    rep = certify(code, 2, 2)
    verdict = bounds_mod.general_code_ell2(q, 4, 2, code.size)
    sp = bounds_mod.sphere_packing(q, 4, 2, 2, code.size)
    return [
        _check("detects_tau2", rep.detects),
        _check("max_list_le_2", rep.max_list <= 2, max_list=rep.max_list),
        _check(
            "bound_attained_exactly",
            verdict.applicable and verdict.satisfied and code.size == verdict.max_size,
            size=code.size,
            max_size=str(verdict.max_size),
        ),
        _check("sphere_packing_holds", sp.satisfied),
    ]


def _reproduce_example2(q: int) -> list[dict]:
    ctx = field_from_order(q)
    checks = []
    for delta in range(1, q):
        code = example_code_2(ctx, delta)
        rep = certify(code, 2, 2)
        verdict = bounds_mod.no_detection_ell2(q, 4, 2, code.size)
        ok = (
            not rep.detects
            and rep.max_list <= 2
            and verdict.applicable
            and verdict.satisfied
            and code.size == verdict.max_size
        )
        checks.append(_check(f"delta_{delta}", ok, max_list=rep.max_list, size=code.size))
    return checks


def _reproduce_appendix_a(q: int, samples: int, seed: int) -> list[dict]:
    ctx = field_from_order(q)
    if q**6 <= 1000:
        star_vectors = [
            [(v // q**i) % q for i in range(6)] for v in range(q**6)
        ]
    else:
        rng = random.Random(seed)
        star_vectors = [[rng.randrange(q) for _ in range(6)] for _ in range(samples)]
    failures = 0
    for stars in star_vectors:
        code = appendix_a_code(ctx, stars)
        rep = certify(code, 3, 2)
        if not (rep.detects and rep.max_list <= 2):
            failures += 1
    size = q**4
    v1 = bounds_mod.reiger_group(q, 8, 3, 2, size)
    v2 = bounds_mod.reiger_group(q, 8, 3, 2, size, relaxed=True)
    v3 = bounds_mod.reiger_linear(q, 8, 3, 2, size)
    return [
        _check("all_star_vectors_certified", failures == 0, total=len(star_vectors), failures=failures),
        _check("reiger_bounds_inapplicable", not (v1.applicable or v2.applicable or v3.applicable)),
    ]


def _reproduce_rs_grid(q: int, n: int | None, ell_max: int, tau_max: int) -> list[dict]:
    ctx = field_from_order(q)
    n = _given(n, q - 1)
    checks = []
    for ell in range(1, ell_max + 1):
        for tau in range(1, tau_max + 1):
            r = bounds_mod.reiger_linear_min_r(tau, ell)
            if r > n - 1:
                continue
            rep = max_list_size(rs_code(ctx, n, r), tau, ell=ell)
            checks.append(
                _check(
                    f"attain_ell{ell}_tau{tau}_r{r}",
                    rep.max_list <= ell,
                    max_list=rep.max_list,
                )
            )
            if (ell + 1) * tau <= n and tau <= r - 1:
                code = rs_code(ctx, n, r - 1)
                rep2 = max_list_size(code, tau, ell=ell)
                ok = rep2.max_list >= ell + 1 and replay_witness(code, rep2.witness, tau)
                checks.append(
                    _check(
                        f"converse_ell{ell}_tau{tau}_r{r - 1}",
                        ok,
                        max_list=rep2.max_list,
                    )
                )
    return checks


def _reproduce_resultant_grid(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    for p, m in ((13, 1), (2, 4), (17, 1)):
        ctx = field_from_order(p**m)
        mismatches = 0
        equiv_breaks = 0
        for _ in range(count):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, min(10, ctx.q - 2))
            inst = sample_instance(ctx, rng, ell, r)
            det = det_stacked(inst)
            if det != det_product_form(inst):
                mismatches += 1
            # a nonzero determinant rules a relation out; a zero one must yield one
            rel = find_kernel_relation(inst) if det == 0 else None
            if (det == 0 and rel is None) or (rel is None) != (find_ratio_collision(inst) is None):
                equiv_breaks += 1
        checks.append(
            _check(
                f"identity_GF{ctx.q}",
                mismatches == 0 and equiv_breaks == 0,
                instances=count,
                mismatches=mismatches,
                equivalence_breaks=equiv_breaks,
            )
        )
    return checks


# reproduce item -> runner of the parsed flags
_REPRODUCE = {
    "example1": lambda args: _reproduce_example1(_given(args.q, 3)),
    "example2": lambda args: _reproduce_example2(_given(args.q, 3)),
    "appendix_a": lambda args: _reproduce_appendix_a(_given(args.q, 2), args.samples, args.seed),
    "rs_grid": lambda args: _reproduce_rs_grid(_given(args.q, 7), args.n, 3, 4),
    "resultant_grid": lambda args: _reproduce_resultant_grid(args.seed, args.count),
}


def _emit_csv(checks: list[dict], args) -> None:
    lines = ["name,pass,details"]
    for c in checks:
        details = ";".join(
            f"{k}={v}" for k, v in sorted(c.items()) if k not in ("name", "pass")
        )
        lines.append(f"{c['name']},{str(c['pass']).lower()},{details}")
    _write("\n".join(lines), args)


def cmd_reproduce(args) -> int:
    item = args.item
    for flag, value in (("--samples", args.samples), ("--count", args.count)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    checks = _REPRODUCE[item](args)
    if not checks:
        raise ValueError(f"reproduce {item} has no checks to run for these flags")
    all_pass = all(c["pass"] for c in checks)
    cfg = {k: getattr(args, k) for k in ("item", "q", "n", "seed", "samples", "count")}
    if args.format == "csv":
        _emit_csv(checks, args)
    else:
        _emit(_report("reproduce", cfg, {"checks": checks, "all_pass": all_pass}), args)
    return EXIT_OK if all_pass else EXIT_REFUTED


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="burstkit", description="burst list decoding certification toolkit"
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name, func, text, required=(), optional=(), parents=(), cap=False):
        """A subcommand with its integer flags, --output, --cap where the
        command applies enumeration caps, and the function it runs."""
        p = sub.add_parser(name, parents=parents, help=text)
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        for flag in optional:
            p.add_argument(f"--{flag}", type=int)
        p.add_argument("--output", help="write the JSON report to this path")
        if cap:
            p.add_argument("--cap", help="one value for every enumeration cap the command "
                           "applies, in place of BURSTKIT_CAP_* and the defaults")
        p.set_defaults(func=func)
        return p

    # where decode and certify take their code from
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--code", help="code file (JSON)")
    source.add_argument("--construct", choices=list(_CONSTRUCTIONS))
    for flag in ("--q", "--n", "--r", "--delta"):
        source.add_argument(flag, type=int)
    source.add_argument("--stars")

    p = command("count-bursts", cmd_count_bursts, "closed-form burst count", ("q", "n", "tau"))
    p.add_argument("--phased", action="store_true")

    p = command("construct", cmd_construct, "emit a code file", ("q",), ("n", "r", "delta"))
    p.add_argument("--kind", dest="construct", required=True, choices=list(_CONSTRUCTIONS))
    p.add_argument("--stars", help="six comma-separated element indices")

    p = command("decode", cmd_decode, "complete list decoding of one word", ("tau",), ("ell",),
                [source], cap=True)
    p.add_argument("--y", required=True, help="received word, comma-separated indices")
    p.add_argument("--phased", action="store_true")

    command("certify", cmd_certify, "detection + list-size certification", ("tau", "ell"),
            parents=[source], cap=True)

    p = command("bounds", cmd_bounds, "evaluate redundancy bounds", ("q", "n", "tau", "ell", "size"))
    p.add_argument("--bound", default="all")

    p = command("resultant", cmd_resultant, "evaluate the determinant identity", ("alpha",))
    p.add_argument("--field", "--q", dest="q", type=int, required=True,
                   help="field order (a prime power)")
    p.add_argument("--mu", required=True, help="comma-separated block sizes")
    p.add_argument("--beta", required=True, help="comma-separated nonzero indices")
    modes = ["direct", "closed-form", "both", "witness"]
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mode", default="both", choices=modes)
    for name in modes:
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name)

    p = command("reproduce", cmd_reproduce, "scripted end-to-end reproductions",
                optional=("q", "n", "seed", "samples", "count"))
    p.set_defaults(seed=0, samples=500, count=1000)
    p.add_argument("item", choices=list(_REPRODUCE))
    p.add_argument("--format", default="json", choices=["json", "csv"])

    return top


# Built once per process: parse_args only reads it and fills a new namespace.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "cap", None) is not None:
            args.cap = _caps.parse("--cap", args.cap)
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
