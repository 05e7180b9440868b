"""focktiles benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, nothing is installed.  The loop is closed with one client: one
request at a time, each timed pass in a fresh interpreter (the library's
module-level caches would otherwise make every pass after the first warm,
while a CLI user pays the cold cost on every call), no threads.

Workloads (see README.md for the reasons behind each):
  llt_rouquier  llt_G for every e-regular mu of the minimal Rouquier blocks
                (5,3) and (7,2), column order from the seed
  scopes_e10    InductiveEngine(10).column(mu), mu picked by the seed among
                the four 4-increasing partitions of the e=10, core (7),
                weight-3 block
  dnum_batch    `focktiles dnum` processes reading seeded lambda;mu batches:
                closed (e=12), rouquier (e=6) and llt (e=4) slices

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; every answer is checked
against perfbench/expected.json, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("llt_rouquier", "scopes_e10", "dnum_batch")

END_TO_END = {
    "wall_s": "s",
    "first_result_s": "s",
    "setup_s": "s",
    "cli_query_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, key in the traced summary)
PER_LAYER = {
    "ladders.block_ladder_monomials.s": ("s", "_ladders.block_ladder_monomials.s"),
    "ladders.block_ladder_monomials.terms_out": ("count", "_ladders.block_ladder_monomials.terms_out"),
    "ladders.depth_spread": ("ratio", None),
    "canonical.llt_G.self_s": ("s", "canonical.llt_G.self_s"),
    "canonical.llt.elim_steps": ("count", "laurent.bar_symmetric_split.calls"),
    "canonical.ladder_monomial.s": ("s", "canonical.ladder_monomial.s"),
    "fock.apply_F.s": ("s", "fock.apply_F.s"),
    "fock.apply_F.calls": ("count", "fock.apply_F.calls"),
    "fock.apply_F.terms_in": ("count", "fock.apply_F.terms_in"),
    "fock.apply_F.terms_out": ("count", "fock.apply_F.terms_out"),
    "fock.apply_E.s": ("s", "fock.apply_E.s"),
    "fock.apply_E.calls": ("count", "fock.apply_E.calls"),
    "fock.apply_E.terms_in": ("count", "fock.apply_E.terms_in"),
    "fock.apply_E.terms_out": ("count", "fock.apply_E.terms_out"),
    "abacus.weyl_s.s": ("s", "abacus.weyl_s.s"),
    "abacus.weyl_s.calls": ("count", "abacus.weyl_s.calls"),
    "abacus.scopes_chain_blocks.s": ("s", "abacus.scopes_chain_blocks.s"),
    "abacus.chain_len": ("count", "abacus.scopes_chain_blocks.chain_len"),
    "canonical.rouquier_column.s": ("s", "canonical.rouquier_column.s"),
    "canonical.exceptional_family.s": ("s", "canonical.exceptional_family.s"),
    "canonical.exceptional_family.calls": ("count", "canonical.exceptional_family.calls"),
    "canonical.hook_quotient_families.s": ("s", "canonical.hook_quotient_families.s"),
    "canonical.InductiveEngine.column.self_s": ("s", "canonical.InductiveEngine.column.self_s"),
    "canonical.rouquier_d.self_s": ("s", "canonical.rouquier_d.self_s"),
    "canonical.rouquier_d.calls": ("count", "canonical.rouquier_d.calls"),
    "canonical.lr_coefficient.s": ("s", "canonical.lr_coefficient.s"),
    "canonical.lr_coefficient.calls": ("count", "canonical.lr_coefficient.calls"),
    "polytope.d_closed.self_s": ("s", "polytope.d_closed.self_s"),
    "polytope.d_closed.calls": ("count", "polytope.d_closed.calls"),
    "polytope.pi_membership.s": ("s", "polytope.pi_membership.s"),
    "labels.z_label.s": ("s", "labels.z_label.s"),
    "labels.z_label.calls": ("count", "labels.z_label.calls"),
    "labels.hat_z.s": ("s", "labels.hat_z.s"),
    "labels.modified_basis.s": ("s", "labels.modified_basis.s"),
    "abacus.enumerate_block.s": ("s", "abacus.enumerate_block.s"),
    "abacus.enumerate_block.calls": ("count", "abacus.enumerate_block.calls"),
    "abacus.block_of.s": ("s", "abacus.block_of.s"),
    "abacus.block_of.calls": ("count", "abacus.block_of.calls"),
    "partitions.parse_partition.s": ("s", "partitions.parse_partition.s"),
    "cli.run.self_s": ("s", "cli.run.self_s"),
    "abacus.cqw_cache.hit_ratio": ("ratio", "abacus._cqw_cached"),
    "fock.beads_cache.hit_ratio": ("ratio", "fock._beads_data"),
    "labels.z_cache.hit_ratio": ("ratio", "labels._z_cached"),
    "cli.offtheorem.fail_frac": ("ratio", None),
    "trace.overhead_s": ("s", None),
}

MIN_SAMPLES = 6  # least set-up and CLI-query samples per run
CLI_QUERY = ["dnum", "--e", "10", "16,8,1^13", "17,7,2^4,1^5"]
CLI_QUERY_ANSWER = "q^2"
ROUQUIER_LINES = 3000  # sampled from the 65 x 98 pairs of the (6,3) block
DEPTH_PADDINGS = (0, 16, 32, 48, 64, 80, 96, 112)


class BenchError(RuntimeError):
    pass


def _env(unbuffered=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def launch(argv, stdin_path=None, unbuffered=False):
    """Run one process to completion.

    Returns spawn, first-output-line and end times (perf_counter), stdout,
    exit code, stderr and the child's peak RSS in MB (from wait4).
    """
    err_path = os.path.join(WORK, "stderr.txt")
    stdin = open(stdin_path) if stdin_path else subprocess.DEVNULL
    err = open(err_path, "w")
    reaped = False
    try:
        t_spawn = time.perf_counter()
        p = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=err,
                             env=_env(unbuffered), cwd=ROOT, text=True)
        try:
            first = p.stdout.readline()
            t_first = time.perf_counter()
            out = first + p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            t_end = time.perf_counter()
            reaped = True
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            p.stdout.close()
            if not reaped:
                p.kill()
                p.wait()
    finally:
        err.close()
        if stdin_path:
            stdin.close()
    with open(err_path) as fh:
        stderr = fh.read()
    return {"t_spawn": t_spawn, "t_first": t_first if first else None, "t_end": t_end,
            "out": out, "code": p.returncode, "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024.0}


def write_json(name, obj):
    path = os.path.join(WORK, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def write_lines(name, lines):
    path = os.path.join(WORK, name)
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def worker(spec, tag):
    """One worker.py process; returns its record plus spawn time and peak RSS."""
    path = write_json("spec-%s.json" % tag, spec)
    r = launch([sys.executable, os.path.join(HERE, "worker.py"), path])
    if r["code"] != 0:
        raise BenchError("worker %s exited %d:\n%s" % (tag, r["code"], r["stderr"][-2000:]))
    rec = json.loads(r["out"].splitlines()[-1])
    rec["t_spawn"] = r["t_spawn"]
    rec["rss_mb"] = r["rss_mb"]
    return rec


def cli_argv(args):
    return [sys.executable, "-m", "focktiles.cli"] + list(args)


# -- seeded inputs ------------------------------------------------------------


def pairs_of(blocks):
    """(e, 'lam;mu', expected) over every mu and lambda of the blocks."""
    out = []
    for b in blocks:
        for mu in b["mus"]:
            col = b["ref"][mu]
            for lam in b["lams"]:
                out.append((b["block"]["e"], "%s;%s" % (lam, mu), col.get(lam, "0")))
    return out


def make_inputs(workload, seed, exp):
    """Inputs of one run.  The model workloads get a list of worker units
    (spec plus expected columns), dnum_batch a list of stdin slices."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "llt_rouquier":
        blocks, expect = [], {}
        for b in exp["llt_rouquier"]:
            mus = list(b["mus"])
            rng.shuffle(mus)
            blocks.append({"e": b["block"]["e"], "mus": mus})
            expect.update(b["ref"])
        return {"units": [{"spec": {"mode": workload, "blocks": blocks}, "expect": expect}]}
    if workload == "scopes_e10":
        s = exp["scopes_e10"]
        mus = sorted(s["mus"])
        rng.shuffle(mus)
        return {"units": [{"spec": {"mode": workload, "e": s["block"]["e"], "mu": mu},
                           "expect": {mu: s["ref"][mu]}} for mu in mus]}
    slices = []
    for name, method, key, count in (("a", "closed", "dnum_closed", None),
                                     ("b", "rouquier", "dnum_rouquier", ROUQUIER_LINES),
                                     ("c", "llt", "dnum_llt", None)):
        blocks = exp[key] if isinstance(exp[key], list) else [exp[key]]
        pairs = pairs_of(blocks)
        rng.shuffle(pairs)
        if count is not None:
            pairs = pairs[:count]
        slices.append({"name": name, "method": method, "e": pairs[0][0],
                       "lines": [p[1] for p in pairs], "expect": [p[2] for p in pairs]})
    off = []
    pairs = pairs_of(exp["offtheorem"])
    rng.shuffle(pairs)
    for e in sorted({p[0] for p in pairs}):
        mine = [p for p in pairs if p[0] == e]
        off.append({"name": "off%d" % e, "method": "closed", "e": e,
                    "lines": [p[1] for p in mine], "expect": [p[2] for p in mine]})
    return {"slices": slices, "offtheorem": off}


# -- answer checks (outside every timed region) --------------------------------


class Score:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)


def check_columns(score, answers, expected):
    for mu, ref in expected.items():
        got = answers.get(mu)
        score.add(got == ref, "column %s: got %r" % (mu, got))


def check_lines(score, sl, lines, code):
    for i, want in enumerate(sl["expect"]):
        got = lines[i].strip() if i < len(lines) else None
        score.add(code == 0 and got == want,
                  "%s line %r: got %r want %r (exit %s)" % (sl["name"], sl["lines"][i], got, want, code))


# -- passes -------------------------------------------------------------------
#
# A pass is a sequence of fresh processes (units).  Its wall and first-result
# times are sums over the units, its peak RSS the largest unit's.  `tick` runs
# between units, outside their timing, to spread the short set-up and CLI
# samples over the run: the host's speed drifts over seconds, so samples
# taken in one burst would all see the same moment.


def _trace_spec(workload, seed, tag):
    return {"trace": True, "run_id": "%s-%d-%s" % (workload, seed, tag),
            "spans_out": os.path.join(WORK, "spans-%s.json" % tag)}


def _merge(recs):
    layers, caches, missing = {}, {}, []
    for rec in recs:
        for k, v in (rec.get("layers") or {}).items():
            layers[k] = layers.get(k, 0) + v
        for k, (h, m) in (rec.get("caches") or {}).items():
            hm = caches.setdefault(k, [0, 0])
            hm[0] += h
            hm[1] += m
        missing = rec.get("missing", missing)
    return layers, caches, missing


def model_pass(workload, inp, score, tag, seed, trace=False, tick=None):
    """llt_rouquier or scopes_e10: one worker process per unit."""
    out = {"wall": 0.0, "first": 0.0, "rss": 0.0, "setups": []}
    recs = []
    for i, unit in enumerate(inp["units"]):
        t = "%s-%d" % (tag, i)
        spec = dict(unit["spec"])
        if trace:
            spec.update(_trace_spec(workload, seed, t))
        rec = worker(spec, t)
        check_columns(score, rec["answers"], unit["expect"])
        out["wall"] += rec["t_done"] - rec["t_spawn"]
        out["first"] += rec["t_first"] - rec["t_spawn"]
        out["rss"] = max(out["rss"], rec["rss_mb"])
        out["setups"].append(rec["t_ready"] - rec["t_spawn"])
        recs.append(rec)
        if tick:
            tick()
    out["layers"], out["caches"], out["missing"] = _merge(recs)
    return out


def slice_args(sl):
    return ["dnum", "--e", str(sl["e"]), "--method", sl["method"]]


def dnum_pass(inp, score, paths, tick=None):
    """One dnum_batch pass: a CLI process per slice, unbuffered stdout so the
    first answer line is seen when it is printed."""
    out = {"wall": 0.0, "first": 0.0, "rss": 0.0}
    for sl in inp["slices"]:
        r = launch(cli_argv(slice_args(sl)), paths[sl["name"]], unbuffered=True)
        check_lines(score, sl, r["out"].splitlines(), r["code"])
        if r["code"] != 0 or r["t_first"] is None:
            raise BenchError("dnum slice %s exited %d:\n%s" % (sl["name"], r["code"], r["stderr"][-2000:]))
        out["wall"] += r["t_end"] - r["t_spawn"]
        out["first"] += r["t_first"] - r["t_spawn"]
        out["rss"] = max(out["rss"], r["rss_mb"])
        if tick:
            tick()
    return out


def dnum_inprocess_pass(inp, score, paths, tag, seed, trace):
    """dnum_batch through focktiles.cli.run in a fresh worker per slice."""
    out = {"wall": 0.0}
    recs = []
    for sl in inp["slices"]:
        t = "%s-%s" % (tag, sl["name"])
        spec = {"mode": "cli", "argv": slice_args(sl), "stdin": paths[sl["name"]]}
        if trace:
            spec.update(_trace_spec("dnum_batch", seed, t))
        rec = worker(spec, t)
        check_lines(score, sl, rec["lines"], rec["exit"])
        out["wall"] += rec["t_done"] - rec["t_spawn"]
        recs.append(rec)
    out["layers"], out["caches"], out["missing"] = _merge(recs)
    return out


def offtheorem(inp, paths):
    """Closed-method answers off its theorem, scored against LLT; a domain
    refusal (exit 1) counts as a correct outcome.  Returns (wrong, total)."""
    wrong = total = 0
    for sl in inp["offtheorem"]:
        r = launch(cli_argv(slice_args(sl)), paths[sl["name"]])
        if r["code"] not in (0, 1):
            raise BenchError("off-theorem slice %s exited %d:\n%s" % (sl["name"], r["code"], r["stderr"][-2000:]))
        lines = r["out"].splitlines()
        for i, want in enumerate(sl["expect"]):
            got = lines[i].strip() if i < len(lines) else None
            wrong += not (got == want or (got is None and r["code"] == 1))
        total += len(sl["expect"])
    return wrong, total


def setup_sample(workload, inp):
    """Set-up time of one fresh process: start, import and input parsing (the
    model workloads), or a trivial CLI call (dnum_batch)."""
    if workload == "dnum_batch":
        r = launch(cli_argv(["core", "--e", "2", "1"]))
        if r["code"] != 0 or r["out"].strip() != "[1]":
            raise BenchError("trivial CLI call failed:\n%s" % r["stderr"][-2000:])
        return r["t_end"] - r["t_spawn"]
    spec = dict(inp["units"][0]["spec"], setup_only=True)
    rec = worker(spec, "setup")
    return rec["t_ready"] - rec["t_spawn"]


def cli_query(score):
    """Wall time of one `dnum` query process, closed plus llt."""
    total = 0.0
    for method in ("closed", "llt"):
        r = launch(cli_argv(CLI_QUERY + ["--method", method]))
        score.add(r["code"] == 0 and r["out"].strip() == CLI_QUERY_ANSWER,
                  "cli query %s: %r (exit %d)" % (method, r["out"].strip(), r["code"]))
        total += r["t_end"] - r["t_spawn"]
    return total


def depth_spread(workload, exp):
    """max/min ladder-kernel time on the (7,2) Rouquier block over fixed
    caller paddings; 0 (not measured) off llt_rouquier."""
    if workload != "llt_rouquier":
        return 0.0
    block = exp["llt_rouquier"][1]["block"]
    spec = dict(block, mode="depth", paddings=list(DEPTH_PADDINGS))
    times = list(worker(spec, "depth")["depth_times"].values())
    return max(times) / min(times)


# -- one run ------------------------------------------------------------------


def end_to_end(workload, inp, score, paths, seconds, seed, info):
    setups, queries = [], []

    def tick():
        setups.append(setup_sample(workload, inp))
        queries.append(cli_query(score))

    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        if workload == "dnum_batch":
            passes.append(dnum_pass(inp, score, paths, tick))
        else:
            passes.append(model_pass(workload, inp, score, "p%d" % len(passes), seed, tick=tick))
    while len(setups) < MIN_SAMPLES:
        tick()
    if workload != "dnum_batch":
        setups += [s for p in passes for s in p["setups"]]
    info["passes"] = len(passes)
    info["samples"] = {"wall_s": [p["wall"] for p in passes], "setup_s": setups, "cli_query_s": queries}
    return {
        "wall_s": median([p["wall"] for p in passes]),
        "first_result_s": median([p["first"] for p in passes]),
        "setup_s": median(setups),
        "cli_query_s": median(queries),
        "peak_rss_mb": median([p["rss"] for p in passes]),
    }


def per_layer(workload, inp, score, paths, seconds, seed, exp, info):
    spread = depth_spread(workload, exp)
    untraced, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        for on in (False, True):
            tag = "%s%d" % ("t" if on else "u", len(traced))
            if workload == "dnum_batch":
                r = dnum_inprocess_pass(inp, score, paths, tag, seed, on)
            else:
                r = model_pass(workload, inp, score, tag, seed, trace=on)
            (traced if on else untraced).append(r)
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        if unit == "ratio" and key is not None:
            hits = sum(t["caches"].get(key, [0, 0])[0] for t in traced)
            total = sum(sum(t["caches"].get(key, [0, 0])) for t in traced)
            metrics[name] = hits / total if total else 0.0
        elif key is not None:
            metrics[name] = median([t["layers"].get(key, 0) for t in traced])
    metrics["ladders.depth_spread"] = spread
    metrics["trace.overhead_s"] = median([t["wall"] for t in traced]) - median([u["wall"] for u in untraced])
    metrics["cli.offtheorem.fail_frac"] = 0.0
    info["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    info["missing_targets"] = traced[0]["missing"]
    return metrics


def run(workload, seed, seconds, trace):
    with open(os.path.join(HERE, "expected.json")) as fh:
        exp = json.load(fh)
    inp = make_inputs(workload, seed, exp)
    paths = {}
    if workload == "dnum_batch":
        for sl in inp["slices"] + inp["offtheorem"]:
            paths[sl["name"]] = write_lines("stdin-%s.txt" % sl["name"], sl["lines"])
    score = Score()
    info = {"workload": workload, "seed": seed, "trace": trace}
    # untimed launches so that byte-code caches exist before anything is timed
    setup_sample(workload, inp)
    launch(cli_argv(["core", "--e", "2", "1"]))
    if trace:
        metrics = per_layer(workload, inp, score, paths, seconds, seed, exp, info)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(workload, inp, score, paths, seconds, seed, info)
        units = END_TO_END
    if workload == "dnum_batch":
        wrong, total = offtheorem(inp, paths)
        info["offtheorem"] = {"pairs": total, "wrong": wrong, "fail_frac": wrong / total}
        if trace:
            metrics["cli.offtheorem.fail_frac"] = wrong / total
    if score.failed:
        info["failures"] = score.examples
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": score.failed == 0,
        "attempted": score.attempted,
        "failed": score.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "focktiles", "__init__.py")):
        print("error: no focktiles sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
