"""The three benchmark workloads.

Each workload builds every input from the seed in `setup`, exposes a
fixed list of operations, and runs one operation either untraced (the
end-to-end run) or traced (spans around each public burstkit call).
Every output is checked after its timer stops; a wrong answer and an
operation abandoned at its deadline both count as failed. Only the
`bounds` calls listed in KNOWN_BOUNDS_HANGS may miss their deadline
without making the run incorrect.

The workloads load different layers on purpose, so that a change to one
layer is predicted to move one workload and leave the others alone:

* certify_grid: the syndrome-bucket scan inside `listdec.certify`,
  reached through `burstkit.cli.main` exactly as a user types it;
* decode_stream: `listdec.decode`, i.e. per-window `matpoly` solves and
  single `gf` operations, with no bucket scan;
* resultant_corpus: square determinants and left null spaces in
  `matpoly` plus the `resultant` closed form, with no burst work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from time import perf_counter

from burstkit import bounds, burst, cli, codes, gf, listdec, matpoly, resultant
from burstkit.burst import BurstPattern
from burstkit.codes import CodeHandle

from harness import Outcome, Tracer, median, percentile, timed

ELL = 2

# Deadlines sit far above each operation's normal cost (slowest certify
# job about 3 s, bounds about 100 us, decode under 15 ms, one resultant
# instance under 5 ms); a call that misses one is abandoned and failed.
CERTIFY_DEADLINE_S = 30.0
BOUNDS_DEADLINE_S = 0.5
DECODE_DEADLINE_S = 0.5
RESULTANT_DEADLINE_S = 0.5


def _word_sub(ctx, a, b):
    return tuple(ctx.sub(x, y) for x, y in zip(a, b))


# -- certify_grid -------------------------------------------------------

@dataclass(frozen=True)
class Job:
    name: str
    q: int
    n: int
    r: int
    tau: int
    explicit: bool = False

    @property
    def size(self) -> int:
        return self.q ** (self.n - self.r)

    @property
    def certified(self) -> bool:
        """The paper's threshold: RS codes attain r = tau + ceil(tau/ell)."""
        return self.r >= self.tau + -(-self.tau // ELL)


# One certified and one refuted job per _syndrome_ops branch (char 2,
# prime, odd p^m), plus the explicit sum-bucketing path.
CERTIFY_JOBS = (
    Job("rs16-r6", 16, 15, 6, 4),
    Job("rs16-r5", 16, 15, 5, 4),
    Job("rs13-r6", 13, 12, 6, 4),
    Job("rs13-r5", 13, 12, 5, 4),
    Job("rs25-r5", 25, 24, 5, 3),
    Job("rs25-r4", 25, 24, 4, 3),
    Job("ex7", 7, 6, 3, 2, explicit=True),
)
# Same names and branches at a size that runs in well under a second.
TINY_CERTIFY_JOBS = (
    Job("rs16-r6", 8, 7, 3, 2),
    Job("rs16-r5", 8, 7, 2, 2),
    Job("rs13-r6", 7, 6, 3, 2),
    Job("rs13-r5", 7, 6, 2, 2),
    Job("rs25-r5", 9, 8, 3, 2),
    Job("rs25-r4", 9, 8, 2, 2),
    Job("ex7", 5, 4, 3, 2, explicit=True),
)
# `bounds.reiger_group` seeds `_nth_root_floor` with a float and then
# steps by one, which for GF(25), n=24, tau=3 takes about 1e11 steps. The
# `bounds` calls of these jobs are expected to miss their deadline; any
# other missed deadline makes the run incorrect.
KNOWN_BOUNDS_HANGS = frozenset({"rs25-r5", "rs25-r4"})
FAMILIES = {
    "char2": ("rs16-r6", "rs16-r5"),
    "prime": ("rs13-r6", "rs13-r5"),
    "odd_pm": ("rs25-r5", "rs25-r4"),
}


def _explicit_rs(tr, q: int, n: int, r: int) -> codes.ExplicitCode:
    ctx = tr.call("gf.field_from_order", gf.field_from_order, q)
    code = tr.call("codes.rs_code", codes.rs_code, ctx, n, r)
    return tr.call("codes.expand", codes.expand, code)


def _cli_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CertifyGrid:
    name = "certify_grid"
    aliases = {
        "work_per_s": ("certify_bursts_per_s", "bursts bucketed plus codeword-burst pairs, per second of the job list"),
        "op_p50_ms": ("certify_job_p50_ms", "one job: certify, then bounds"),
        "op_p99_ms": ("certify_job_p99_ms", "nearest-rank p99 over every job run, 7 per cycle: the slowest"),
    }

    def setup(self, seed: int, out_dir: str, tr, tiny: bool = False):
        # The grid is fixed; the seed only drives the traced run's field
        # micro-benchmarks. Job order stays fixed too, because the heap
        # each scan inherits from the previous job changes its speed.
        jobs = list(TINY_CERTIFY_JOBS if tiny else CERTIFY_JOBS)
        ex = next(j for j in jobs if j.explicit)
        code = _explicit_rs(tr, ex.q, ex.n, ex.r)
        path = os.path.join(out_dir, "ex7-code.json")
        with open(path, "w") as fh:
            json.dump(codes.code_to_dict(code, "ex7", {"q": ex.q, "n": ex.n, "r": ex.r}), fh)
        argv = {}
        for j in jobs:
            tail = ["--tau", str(j.tau), "--ell", str(ELL)]
            source = (
                ["--code", path]
                if j.explicit
                else ["--construct", "rs", "--q", str(j.q), "--n", str(j.n), "--r", str(j.r)]
            )
            argv[j.name] = (
                ["certify", *source, *tail],
                ["bounds", "--q", str(j.q), "--n", str(j.n), *tail, "--size", str(j.size), "--bound", "all"],
            )
        return {"jobs": jobs, "argv": argv, "code_path": path, "check_codes": {}, "tamper": False}

    def ops(self, state):
        return state["jobs"]

    trace_ops = ops

    def _check_code(self, state, job):
        cache = state["check_codes"]
        if job.name not in cache:
            if job.explicit:
                with open(state["code_path"]) as fh:
                    cache[job.name] = codes.code_from_dict(json.load(fh)).code
            else:
                cache[job.name] = codes.rs_code(gf.field_from_order(job.q), job.n, job.r)
        return cache[job.name]

    def _check_certify(self, state, job, decodable, max_list, witness, work) -> bool:
        if state["tamper"]:
            if witness:
                (c, pat), *rest = witness
                witness = (((c[0] + 1) % job.q, *c[1:]), pat), *rest
            else:
                max_list += ELL
        if work.get("bursts") != burst.count_bursts(job.q, job.n, job.tau):
            return False
        if job.explicit and work.get("pairs") != work["bursts"] * job.size:
            return False
        if job.certified:
            return decodable is True and max_list <= ELL and witness is None
        return (
            decodable is False
            and max_list >= ELL + 1
            and witness is not None
            and len(witness) == ELL + 1
            and listdec.replay_witness(self._check_code(state, job), witness, job.tau)
        )

    def _check_bounds(self, job, verdicts) -> bool:
        linear = [v for v in verdicts if v[0] == "reiger_linear"]
        return len(linear) == 1 and linear[0][1] is True and linear[0][2] is job.certified

    @staticmethod
    def _work(job, work) -> int:
        return work["pairs"] if job.explicit else work["bursts"]

    def run(self, state, job) -> Outcome:
        argv_cert, argv_bounds = state["argv"][job.name]
        cert, dt_c, fin_c = timed(CERTIFY_DEADLINE_S, _cli_main, argv_cert)
        bnd, dt_b, fin_b = timed(BOUNDS_DEADLINE_S, _cli_main, argv_bounds)
        out = Outcome()
        ok_c = False
        if fin_c:
            rc, text = cert
            rep = json.loads(text)
            witness = None
            if rep["witness"] is not None:
                witness = tuple(
                    (tuple(w["codeword"]), BurstPattern(w["burst"]["start"], tuple(w["burst"]["payload"])))
                    for w in rep["witness"]
                )
            ok_c = rc in (0, 3) and self._check_certify(
                state, job, {0: True, 3: False}.get(rc), rep["max_list"], witness, rep["work"]
            )
            if ok_c:
                out.work = self._work(job, rep["work"])
        out.record(dt_c, fin_c, ok_c)
        ok_b = False
        if fin_b:
            rc, text = bnd
            verdicts = [(v["bound_id"], v["applicable"], v["satisfied"]) for v in json.loads(text)["verdicts"]]
            ok_b = rc == 0 and self._check_bounds(job, verdicts)
        out.record(dt_b, fin_b, ok_b, known_hang=job.name in KNOWN_BOUNDS_HANGS)
        return out

    def run_traced(self, state, job, tr: Tracer) -> Outcome:
        """The public calls `certify` and `bounds` make, one span each."""
        tr.op = job.name
        with tr.span("bench.certify_job"):
            t0 = perf_counter()
            if job.explicit:
                with open(state["code_path"]) as fh:
                    data = json.load(fh)
                handle = tr.call("codes.code_from_dict", codes.code_from_dict, data)
            else:
                ctx = tr.call("gf.field_from_order", gf.field_from_order, job.q)
                code = tr.call("codes.rs_code", codes.rs_code, ctx, job.n, job.r)
                handle = CodeHandle(code, "rs", {"q": job.q, "n": job.n, "r": job.r})
            rep, dt_c, fin_c = timed(
                CERTIFY_DEADLINE_S, tr.call, "listdec.certify", listdec.certify, handle, job.tau, ELL
            )
            replayed = None
            if fin_c and rep.witness is not None:
                replayed = tr.call(
                    "listdec.replay_witness", listdec.replay_witness, handle, rep.witness, job.tau
                )
            verdicts, dt_b, fin_b = timed(
                BOUNDS_DEADLINE_S, tr.call, "bounds.all_verdicts", bounds.all_verdicts,
                job.q, job.n, job.tau, ELL, job.size,
            )
            seconds = perf_counter() - t0
        out = Outcome(info={"report": rep, "bounds_finished": fin_b})
        ok_c = (
            fin_c
            and replayed is not False
            and self._check_certify(state, job, rep.decodable, rep.max_list, rep.witness, rep.work)
        )
        if ok_c:
            out.work = self._work(job, rep.work)
        # The job's time outside the two calls (code construction, the
        # replay) counts as computing.
        out.record(seconds - dt_b, fin_c, ok_c)
        ok_b = fin_b and self._check_bounds(
            job, [(v.bound_id, v.applicable, v.satisfied) for v in verdicts]
        )
        out.record(dt_b, fin_b, ok_b, known_hang=job.name in KNOWN_BOUNDS_HANGS)
        return out

    def per_layer(self, state, tr: Tracer, outcomes) -> dict:
        by_job = {j.name: j for j in state["jobs"]}
        cert_s = tr.durations("listdec.certify")
        out = {}
        for name, job in by_job.items():
            out[f"burst.bursts.{name}"] = burst.count_bursts(job.q, job.n, job.tau)
            out[f"listdec.certify_s.{name}"] = cert_s.get(name, 0.0)
        for o, job in zip(outcomes, state["jobs"]):
            rep = o.info["report"]
            if rep is not None:
                out[f"listdec.buckets.{job.name}"] = rep.work["buckets"]
                out[f"listdec.max_list.{job.name}"] = rep.max_list
        for fam, (good, bad) in FAMILIES.items():
            if cert_s.get(good):
                out[f"listdec.scan_bursts_per_s.{fam}"] = out[f"burst.bursts.{good}"] / cert_s[good]
            if good in cert_s and bad in cert_s:
                out[f"listdec.witness_extra_s.{fam}"] = cert_s[bad] - cert_s[good]
        ex = next(j for j in state["jobs"] if j.explicit)
        if cert_s.get(ex.name):
            out["listdec.explicit_pairs_per_s"] = out[f"burst.bursts.{ex.name}"] * ex.size / cert_s[ex.name]
        replay = list(tr.durations("listdec.replay_witness").values())
        if replay:
            out["listdec.replay_witness_us"] = sum(replay) / len(replay) * 1e6
        finished = {j.name: o.info["bounds_finished"] for o, j in zip(outcomes, state["jobs"])}
        verdict_s = [s for op, s in tr.durations("bounds.all_verdicts").items() if finished[op]]
        if verdict_s:
            out["bounds.all_verdicts_us"] = sum(verdict_s) / len(verdict_s) * 1e6
        out["bounds.deadline_exceeded"] = sum(not o.info["bounds_finished"] for o in outcomes)
        return out


# -- decode_stream --------------------------------------------------------

@dataclass(frozen=True)
class DecodeCode:
    name: str
    p: int
    m: int
    n: int
    r: int
    tau: int
    explicit: bool = False


DECODE_CODES = (
    DecodeCode("rs65536", 2, 16, 17, 6, 4),
    DecodeCode("rs6561", 3, 8, 20, 5, 4),
    DecodeCode("rs16", 2, 4, 15, 5, 4),
    DecodeCode("ex7", 7, 1, 6, 3, 2, explicit=True),
)
# Smaller fields of the same characteristics, for the smoke test.
TINY_DECODE_CODES = (
    DecodeCode("rs65536", 2, 8, 17, 6, 4),
    DecodeCode("rs6561", 3, 4, 20, 5, 4),
    DecodeCode("rs16", 2, 4, 15, 5, 4),
    DecodeCode("ex7", 7, 1, 6, 3, 2, explicit=True),
)
DECODE_WORDS = 3200
TRACE_DECODE_WORDS = 800


@dataclass(frozen=True)
class Received:
    index: int
    code: str
    y: tuple
    planted: tuple | None


class DecodeStream:
    name = "decode_stream"
    aliases = {
        "work_per_s": ("decode_per_s", "decode calls per second, one closed-loop client"),
        "op_p50_ms": ("decode_p50_ms", "one decode call"),
        "op_p99_ms": ("decode_p99_ms", "one decode call"),
    }

    def setup(self, seed: int, out_dir: str, tr, tiny: bool = False):
        rng = random.Random(seed)
        built = {}
        for spec in TINY_DECODE_CODES if tiny else DECODE_CODES:
            ctx = tr.call("gf.field_new", gf.field_new, spec.p, spec.m)
            code = tr.call("codes.rs_code", codes.rs_code, ctx, spec.n, spec.r)
            if spec.explicit:
                code = tr.call("codes.expand", codes.expand, code)
                gen = None
            else:
                gen = tr.call("codes.generator_matrix", code.generator_matrix)
            built[spec.name] = (spec, code, gen)
        names = list(built)
        words = []
        for i in range(40 if tiny else DECODE_WORDS):
            spec, code, gen = built[names[i % len(names)]]
            ctx = code.ctx
            if (i // len(names)) % 4 == 3:
                words.append(Received(i, spec.name, tuple(rng.randrange(ctx.q) for _ in range(spec.n)), None))
                continue
            if gen is None:
                c = rng.choice(code.codewords)
            else:
                c = [0] * spec.n
                for row in range(gen.rows):
                    a = rng.randrange(ctx.q)
                    c = [ctx.add(x, ctx.mul(a, g)) for x, g in zip(c, gen.row(row))]
                c = tuple(c)
            start = rng.randrange(spec.n - spec.tau + 1)
            y = list(c)
            for j in range(start, start + spec.tau):
                y[j] = ctx.add(y[j], rng.randrange(ctx.q))
            words.append(Received(i, spec.name, tuple(y), c))
        return {"codes": built, "words": words, "tamper": False}

    def ops(self, state):
        return state["words"]

    def trace_ops(self, state):
        return state["words"][:TRACE_DECODE_WORDS]

    def _check(self, state, word: Received, res) -> bool:
        spec, code, _ = state["codes"][word.code]
        ctx = code.ctx
        candidates = list(res.candidates)
        if state["tamper"] and candidates:
            c, pat = candidates[0]
            candidates[0] = ((ctx.add(c[0], 1),) + c[1:], pat)
        for c, pat in candidates:
            e = _word_sub(ctx, word.y, c)
            if not (code.contains(c) and burst.is_burst(e, spec.tau) and pat.expand(spec.n) == e):
                return False
        return word.planted is None or word.planted in {c for c, _ in candidates}

    def _decode(self, state, word: Received, call) -> Outcome:
        spec, code, _ = state["codes"][word.code]
        res, dt, fin = timed(DECODE_DEADLINE_S, call, code, word.y, spec.tau)
        ok = fin and self._check(state, word, res)
        out = Outcome(work=int(ok), info={"code": word.code, "list_size": res.list_size if fin else 0})
        out.record(dt, fin, ok)
        return out

    def run(self, state, word: Received) -> Outcome:
        return self._decode(state, word, listdec.decode)

    def run_traced(self, state, word: Received, tr: Tracer) -> Outcome:
        tr.op = word.index
        return self._decode(state, word, lambda *a: tr.call("listdec.decode", listdec.decode, *a))

    def per_layer(self, state, tr: Tracer, outcomes) -> dict:
        code_of = {w.index: w.code for w in state["words"]}
        per_code: dict[str, list[float]] = {}
        for op, s in tr.durations("listdec.decode").items():
            per_code.setdefault(code_of[op], []).append(s)
        out = {f"listdec.decode_p50_ms.{c}": percentile(v, 0.5) * 1e3 for c, v in per_code.items()}
        out["listdec.decode_candidates"] = sum(o.info["list_size"] for o in outcomes)
        return out


# -- resultant_corpus -----------------------------------------------------

RESULTANT_FIELDS = (13, 16, 17, 81)
BOUNDARY_KINDS = ("-mu_i", "mu_k-1", "mu_k")
RESULTANT_INSTANCES = 6000
TRACE_RESULTANT_INSTANCES = 2000


class ResultantCorpus:
    name = "resultant_corpus"
    aliases = {
        "work_per_s": ("instances_per_s", "instances per second, one closed-loop client"),
        "op_p50_ms": ("instance_p50_ms", "one instance, all five calls"),
        "op_p99_ms": ("instance_p99_ms", "one instance, all five calls"),
    }

    def setup(self, seed: int, out_dir: str, tr, tiny: bool = False):
        rng = random.Random(seed)
        fields = [tr.call("gf.field_from_order", gf.field_from_order, q) for q in RESULTANT_FIELDS]
        corpus = []
        for i in range(40 if tiny else RESULTANT_INSTANCES):
            ctx = rng.choice(fields)
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, 10)
            if i % 4 == 3:
                kind = BOUNDARY_KINDS[(i // 4) % len(BOUNDARY_KINDS)]
                inst = resultant.boundary_instance(ctx, rng, ell, r, kind)
            else:
                kind = None
                inst = resultant.sample_instance(ctx, rng, ell, r)
            corpus.append((i, inst, kind))
        return {"corpus": corpus, "tamper": False}

    def ops(self, state):
        return state["corpus"]

    def trace_ops(self, state):
        return state["corpus"][:TRACE_RESULTANT_INSTANCES]

    @staticmethod
    def _instance(inst):
        det = resultant.det_stacked(inst)
        closed = resultant.det_product_form(inst)
        rel = resultant.find_kernel_relation(inst)
        verified = None if rel is None else resultant.verify_relation(inst, rel)
        return det, closed, rel, verified, resultant.find_ratio_collision(inst)

    @staticmethod
    def _instance_traced(inst, tr):
        a = tr.call("resultant.stacked_matrix", resultant.stacked_matrix, inst)
        det = tr.call("matpoly.determinant", matpoly.determinant, a)
        closed = tr.call("resultant.det_product_form", resultant.det_product_form, inst)
        rel = tr.call("resultant.find_kernel_relation", resultant.find_kernel_relation, inst)
        verified = None
        if rel is not None:
            verified = tr.call("resultant.verify_relation", resultant.verify_relation, inst, rel)
        coll = tr.call("resultant.find_ratio_collision", resultant.find_ratio_collision, inst)
        return det, closed, rel, verified, coll

    def _check(self, state, kind, result) -> bool:
        det, closed, rel, verified, coll = result
        if state["tamper"]:
            closed = (closed + 1) % 2
        return (
            det == closed
            and (rel is None) == (coll is None) == (det != 0)
            and verified in (None, True)
            and (kind != "mu_k-1" or coll is not None)
        )

    def _one(self, state, op, fn) -> Outcome:
        _, inst, kind = op
        res, dt, fin = timed(RESULTANT_DEADLINE_S, fn, inst)
        ok = fin and self._check(state, kind, res)
        out = Outcome(work=int(ok), info={"singular": fin and res[0] == 0})
        out.record(dt, fin, ok)
        return out

    def run(self, state, op) -> Outcome:
        return self._one(state, op, self._instance)

    def run_traced(self, state, op, tr: Tracer) -> Outcome:
        tr.op = op[0]
        return self._one(state, op, lambda inst: self._instance_traced(inst, tr))

    def per_layer(self, state, tr: Tracer, outcomes) -> dict:
        out = {}
        for name in (
            "resultant.stacked_matrix",
            "matpoly.determinant",
            "resultant.det_product_form",
            "resultant.find_kernel_relation",
            "resultant.find_ratio_collision",
            "resultant.verify_relation",
        ):
            spans = list(tr.durations(name).values())
            if spans:
                out[f"{name}_us"] = sum(spans) / len(spans) * 1e6
        out["resultant.singular"] = sum(o.info["singular"] for o in outcomes)
        return out


WORKLOADS = {w.name: w for w in (CertifyGrid(), DecodeStream(), ResultantCorpus())}


# -- per-layer metrics shared by every traced run ---------------------------

def codes_per_layer(tr: Tracer) -> dict:
    """Seconds spent in code construction, wherever the workload does it."""
    return {
        metric: sum(tr.durations(name).values())
        for name, metric in (
            ("codes.rs_code", "codes.rs_code_s"),
            ("codes.expand", "codes.expand_s.ex7"),
            ("codes.code_from_dict", "codes.code_from_dict_s.ex7"),
        )
    }


# -- field micro-benchmarks, identical in every traced run -----------------

GF_PAIRS = 20000


def gf_micro(seed: int) -> dict:
    """Field construction and single add/mul cost over a seeded pair stream."""
    out = {}
    built = {}
    for label, p, m in (("gf65536", 2, 16), ("gf6561", 3, 8), ("gf25", 5, 2), ("gf16", 2, 4)):
        t0 = perf_counter()
        built[label] = gf.field_new(p, m)
        if label in ("gf65536", "gf6561"):
            out[f"gf.field_build_s.{label}"] = perf_counter() - t0
    rng = random.Random(seed)
    for label, op in (("gf6561", "add"), ("gf6561", "mul"), ("gf25", "add"), ("gf16", "add")):
        ctx = built[label]
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(GF_PAIRS)]
        fn = getattr(ctx, op)
        runs = []
        for _ in range(5):
            t0 = perf_counter()
            for a, b in pairs:
                fn(a, b)
            runs.append(perf_counter() - t0)
        out[f"gf.{op}_ns.{label}"] = median(runs) / GF_PAIRS * 1e9
    return out
