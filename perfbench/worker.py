"""One benchmark pass in a fresh interpreter: python3 worker.py SPEC.json

This file is the single entry point of every timed pass, on every commit.
The recursive ladder kernel is sensitive to the depth of the stack it starts
on (the same LLT computation has been seen to take between 4 s and 17 s
depending only on the calling script), so the frames between the
interpreter and the library are these few functions and nothing else.
Change them only together with a new baseline.

SPEC.json holds the mode, the inputs and the trace flag.  The pass prints one
JSON object on stdout: perf_counter timestamps (CLOCK_MONOTONIC, shared with
the parent), the answers, and with tracing on the per-layer summary.
"""

import io
import json
import sys
import time


def _fmt(parts):
    """Partition text in the CLI format: '17,7,2^4,1^5', '0' when empty.

    Kept here rather than taken from focktiles, so that the answer check does
    not depend on the library's own formatter."""
    if not parts:
        return "0"
    out, i = [], 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        out.append(str(parts[i]) if j - i == 1 else "%d^%d" % (parts[i], j - i))
        i = j
    return ",".join(out)


def _column(col):
    return {_fmt(lam.parts): str(c) for lam, c in col.terms.items()}


def llt_rouquier(spec, rec):
    from focktiles import abacus, canonical, labels, partitions

    blocks = [(b["e"], [partitions.parse_partition(m) for m in b["mus"]]) for b in spec["blocks"]]
    rec["t_ready"] = time.perf_counter()
    if spec.get("setup_only"):
        return
    cols = {}
    for e, mus in blocks:
        ctx = labels.BlockContext(abacus.block_of(mus[0], e))
        for mu in mus:
            cols[mu] = canonical.llt_G(mu, e, ctx)
            if "t_first" not in rec:
                rec["t_first"] = time.perf_counter()
    rec["t_done"] = time.perf_counter()
    rec["answers"] = {_fmt(mu.parts): _column(c) for mu, c in cols.items()}


def scopes_e10(spec, rec):
    from focktiles import canonical, partitions

    mu = partitions.parse_partition(spec["mu"])
    rec["t_ready"] = time.perf_counter()
    if spec.get("setup_only"):
        return
    col = canonical.InductiveEngine(spec["e"]).column(mu)
    rec["t_first"] = rec["t_done"] = time.perf_counter()
    rec["answers"] = {spec["mu"]: _column(col)}


def cli(spec, rec):
    """focktiles.cli.run(argv) in-process, stdin from a file."""
    from focktiles import cli as cli_mod

    rec["t_ready"] = time.perf_counter()
    saved = sys.stdin, sys.stdout
    with open(spec["stdin"]) as fh:
        sys.stdin, sys.stdout = fh, io.StringIO()
        try:
            rec["exit"] = cli_mod.run(spec["argv"])
            out = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved
    rec["t_first"] = rec["t_done"] = time.perf_counter()
    rec["lines"] = out.splitlines()


def depth(spec, rec):
    """Ladder-kernel time entered under callers padded with unused locals."""
    from focktiles import _ladders, abacus, canonical, partitions

    e = spec["e"]
    members = abacus.enumerate_block(abacus.BlockId(e, partitions.parse_partition(spec["core"]), spec["weight"]))
    seqs = {m: tuple(canonical.ladder_sequence(m, e)) for m in members if partitions.is_e_regular(m, e)}
    times = {}
    for pad in spec["paddings"]:
        names = ["p%d" % i for i in range(pad)]
        src = "def call(f, *a):\n"
        if names:
            src += "    %s = %s\n" % (", ".join(names) + ",", ", ".join(["None"] * pad) + ",")
        src += "    t = clock()\n    f(*a)\n    return clock() - t\n"
        ns = {"clock": time.perf_counter}
        exec(src, ns)
        times[str(pad)] = ns["call"](_ladders.block_ladder_monomials, seqs, e, members)
    rec["depth_times"] = times


MODES = {"llt_rouquier": llt_rouquier, "scopes_e10": scopes_e10, "cli": cli, "depth": depth}


def main():
    rec = {"t_start": time.perf_counter()}
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import focktiles  # noqa: F401  (the import is part of set-up)

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    MODES[spec["mode"]](spec, rec)
    if tracer is not None:
        rec["layers"] = tracer.summary()
        rec["caches"] = spans.cache_counts()
        rec["missing"] = tracer.missing
        tracer.write(spec["spans_out"])
    print(json.dumps(rec, separators=(",", ":")))


if __name__ == "__main__":
    main()
