"""Command-line surface: exact label, tiling and decomposition queries."""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .abacus import FACTS_MAXSIZE, BlockId, block_of, core_of, enumerate_block, quotient_of
from .beadops import MoveError, lambda_of_hook, move_along, move_one, mullineux_crystal
from .canonical import ColumnStore, InductiveEngine, llt_column, rouquier_column, rouquier_d_for
from .fock import unpack
from .labels import BlockContext, hat_z, hooks_e, is_m_increasing, lifted_json, modified_basis, z_label
from .partitions import format_partition, parse_partition
from .polytope import build_tiling, closed_sweep, d_closed_for, export_tiling, pi_membership


def _plist(lam):
    return "[" + ",".join(str(p) for p in lam.parts) + "]"


def _vec(v):
    return "[" + ",".join(str(x) for x in v) + "]"


def _say(text, stream=None):
    """Write text and its newline in one call (stdout by default): print
    writes them apart, and with PYTHONUNBUFFERED=1 each write is a system
    call that wakes the reader.  A query's answer is one write; a `dnum`
    batch writes its answers a chunk at a time (`_dnum_batch`)."""
    (stream or sys.stdout).write(text + "\n")


def _emit(args, plain, payload):
    _say(json.dumps(payload, sort_keys=True) if getattr(args, "json", False) else plain)


def _parse_label(text):
    text = text.strip().strip("[]")
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _closed_domain(mu, e):
    """The closed formula gives q-decomposition numbers for 4-increasing mu."""
    if not is_m_increasing(z_label(mu, e), 4):
        raise ValueError("the closed formula requires a 4-increasing partition")


# the errors a query refuses with exit 1
DOMAIN_ERRORS = (ValueError, IndexError, MoveError, ArithmeticError)


def _intern(labels, text):
    """The partition written as text, parsed once while labels holds it: equal
    texts give the same object.  labels is cleared when it holds
    FACTS_MAXSIZE texts, so a long batch stays in bounded memory."""
    lam = labels.get(text)
    if lam is None:
        if len(labels) >= FACTS_MAXSIZE:
            labels.clear()
        lam = labels[text] = parse_partition(text)
    return lam


def _stdin_chunks(stdin):
    """Yield stdin's lines a chunk at a time, undecoded, each chunk with the
    function that decodes one of its lines.

    A chunk is what one `read1` of stdin's binary buffer returns: at most
    64 KiB and one raw read, so the read blocks only when no input is
    waiting, and an interactive caller's line is a chunk of its own.  A
    partial last line is carried over to the next chunk, and at the end of
    input it is a chunk of its own.  Lines split on b"\n" (stdin's
    encoding is ASCII-compatible) and are decoded one at a time with the
    stream's own encoding and errors, so a line that does not decode is
    that line's error alone.  An in-memory text stream, which has no
    buffer (io.StringIO), is one chunk of text lines.
    """
    buf = getattr(stdin, "buffer", None)
    if buf is None:
        yield stdin.read().split("\n"), str
        return
    encoding, errors = stdin.encoding, stdin.errors

    def decode(raw):
        return raw.decode(encoding, errors)

    tail = b""
    while True:
        chunk = buf.read1(1 << 16)
        if not chunk:
            break
        lines = (tail + chunk).split(b"\n")
        tail = lines.pop()
        yield lines, decode
    if tail:
        yield [tail], decode


def _dnum_batch(args):
    """Answer the `lambda;mu` lines of stdin, one answer line each; returns
    the exit code.  A bad line answers "error", its message goes to stderr
    and the batch goes on; the exit code is then 1.  The batch keeps its
    state in engines (`_dnum_one`) and labels (`_intern`).

    Writes: the first answer is written alone as soon as it is known, so
    the time to it is the first line's own work.  After it, the answers of
    a chunk of input (`_stdin_chunks`) are joined into one write before the
    next chunk is read: with PYTHONUNBUFFERED=1 each write is a system call
    that wakes the reader, and a file batch would otherwise make one per
    line.  An error line first writes the answers pending before it and
    its own, then its message, so `2>&1` keeps line order.  Pending output
    is at most one chunk's answers.  A last line without its newline is
    known to be whole only when a read finds the end of input, after the
    last chunk's answers are written, so its answer is one write more.
    """
    code, engines, labels, pending, n = 0, {}, {}, [], 0
    first = True
    try:
        for lines, decode in _stdin_chunks(sys.stdin):
            for raw in lines:
                n += 1
                try:
                    line = decode(raw).strip()
                    if not line:
                        continue
                    val = _dnum_line(line, args.e, args.method, engines, labels)
                except DOMAIN_ERRORS as exc:
                    pending.append(json.dumps({"error": str(exc)}) if args.json else "error")
                    _flush(pending)
                    _say("error: line %d: %s" % (n, exc), sys.stderr)
                    code, first = 1, False
                    continue
                # the JSON answer is built only when asked for: batches are long
                pending.append(json.dumps({"d": val.to_pairs()}) if args.json else str(val))
                if first:
                    _flush(pending)
                    first = False
            _flush(pending)
    finally:
        # answers given before an error that ends the batch are still written
        _flush(pending)
    return code


def _flush(pending):
    """Write the pending answer lines in one write, and forget them."""
    if pending:
        text = "\n".join(pending)
        pending.clear()
        _say(text)


def _dnum_line(line, e, method, engines, labels):
    parts = line.split(";")
    if len(parts) != 2:
        raise ValueError("expected 'lambda;mu', got %r" % line)
    return _dnum_one(_intern(labels, parts[0]), _intern(labels, parts[1]), e, method, engines)


def _dnum_one(lam, mu, e, method, engines):
    """d_{lam,mu}(q) by method.  engines holds what one batch (at one e, by
    one method) keeps: for each mu met, the function lam -> d_{lam,mu}(q)
    (`_column_of`), and under tuple keys the LLT column store, the
    inductive engine or the Rouquier block contexts.  It is cleared when it
    holds FACTS_MAXSIZE entries, so a long batch stays in bounded memory."""
    answer = engines.get(mu)
    if answer is None:
        if len(engines) >= FACTS_MAXSIZE:
            engines.clear()
        answer = _column_of(mu, e, method, engines)
        engines[mu] = answer
    return answer(lam)


def _kept(engines, key, make):
    """engines[key], made by make() when the batch has none."""
    got = engines.get(key)
    if got is None:
        got = engines[key] = make()
    return got


def _column_of(mu, e, method, engines):
    """The function lam -> d_{lam,mu}(q), once mu passed its method's
    checks and its column is built."""
    if method == "closed":
        _closed_domain(mu, e)
        return d_closed_for(mu, e)
    if method == "llt":
        return unpack(llt_column(mu, e, _kept(engines, ("llt", e), ColumnStore))[1]).coeff
    if method == "inductive":
        return _kept(engines, ("ind", e), partial(InductiveEngine, e)).column(mu).coeff
    if method == "rouquier":
        b = block_of(mu, e)
        return rouquier_d_for(mu, b, _kept(engines, ("ctx", b), partial(BlockContext, b)))
    raise ValueError("unknown method %r" % method)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="focktiles",
        description="Exact abacus labels, parallelotope tilings and q-decomposition numbers.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, *pos, help=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--e", type=int, required=name not in ("verify",), help="quantum characteristic e >= 2")
        for a in pos:
            p.add_argument(a)
        return p

    add("core", "partition", help="e-core of a partition")
    add("quotient", "partition", help="e-quotient of a partition")
    add("zlabel", "partition", help="armlength label z")
    add("hatz", "partition", help="lifted label zhat")
    add("epsilon", "partition", help="modified basis vectors")
    p = add("pi", "partition", "label", help="parallelotope membership of a label")
    p = add("dnum", help="q-decomposition number")
    p.add_argument("lam", nargs="?")
    p.add_argument("mu", nargs="?")
    p.add_argument("--method", choices=["closed", "llt", "rouquier", "inductive"], default="closed")
    p = add("gcolumn", "mu", help="canonical basis column")
    p.add_argument("--method", choices=["llt", "rouquier", "inductive", "closed"], default="llt")
    p = add("block", "core", "weight", help="list the partitions of a block")
    p = add("tiling", "core", "weight", help="export the tiling of a block")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p = add("mullineux", "partition", help="Mullineux-Kleshchev involution")
    p = add("moveone", "partition", "r", help="single parallelotope move")
    p = add("movealong", "partition", "gamma", help="iterated parallelotope move")
    p = add("lambdah", "partition", "r", help="hook surgery lambda_H at a movement index")
    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("suite", nargs="?", default="all")
    return ap


def run(argv):
    """Dispatch; returns the exit code (0 ok, 1 domain error, 2 usage)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.verb == "dnum" and (args.lam is None) != (args.mu is None):
            ap.error("dnum takes both lambda and mu, or neither to read 'lambda;mu' lines from stdin")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except DOMAIN_ERRORS as exc:
        _say("error: %s" % exc, sys.stderr)
        return 1
    except RecursionError as exc:
        _say("error: the query recursed too deep (%s)" % exc, sys.stderr)
        return 1


def _dispatch(args):
    v = args.verb
    if v == "verify":
        # imported here, so that no other verb loads the suites
        from . import verify

        names = None if args.suite == "all" else [args.suite]
        return 0 if verify.run(names) else 1
    e = args.e
    if v in ("core", "quotient", "zlabel", "hatz", "epsilon", "mullineux"):
        lam = parse_partition(args.partition)
        if v == "core":
            c = core_of(lam, e)
            _emit(args, _plist(c), {"core": list(c.parts)})
        elif v == "quotient":
            q = quotient_of(lam, e)
            _emit(args, "[" + ",".join(_plist(x) for x in q) + "]",
                  {"quotient": [list(x.parts) for x in q]})
        elif v == "zlabel":
            z = z_label(lam, e)
            _emit(args, _vec(z), {"z": list(z)})
        elif v == "hatz":
            h = lifted_json(hat_z(lam, e))
            _emit(args, json.dumps(h, sort_keys=True), h)
        elif v == "epsilon":
            mb = modified_basis(lam, e)
            _emit(args, "[" + ",".join(_vec(x) for x in mb) + "]",
                  {"epsilon": [list(x) for x in mb]})
        elif v == "mullineux":
            out = mullineux_crystal(lam, e)
            _emit(args, _plist(out), {"mullineux": list(out.parts)})
        return 0
    if v == "pi":
        lam = parse_partition(args.partition)
        gamma = pi_membership(lam, _parse_label(args.label), e)
        if gamma is None:
            _emit(args, "null", {"gamma": None})
        else:
            _emit(args, _vec(sorted(gamma)), {"gamma": sorted(gamma)})
        return 0
    if v == "dnum":
        if args.lam is None or args.mu is None:
            return _dnum_batch(args)
        val = _dnum_one(parse_partition(args.lam), parse_partition(args.mu), e, args.method, {})
        _emit(args, str(val), {"d": val.to_pairs()})
        return 0
    if v == "gcolumn":
        mu = parse_partition(args.mu)
        b = block_of(mu, e)
        if args.method == "llt":
            _, col = llt_column(mu, e, ColumnStore())
        elif args.method == "rouquier":
            _, col = rouquier_column(mu, b)
        elif args.method == "inductive":
            _, col = InductiveEngine(e).packed_column(mu)
        else:
            _closed_domain(mu, e)
            col = closed_sweep(mu, e, -(mu.size + 2))
        col = unpack(col)
        payload = {
            "block": b.to_json(),
            "columns": [
                {
                    "mu": list(mu.parts),
                    "method": args.method,
                    "entries": [
                        {"lambda": list(lam.parts), "d": col.coeff(lam).to_pairs()}
                        for lam in col.support()
                    ],
                }
            ],
        }
        _say(json.dumps(payload, sort_keys=True))
        return 0
    if v == "block":
        b = BlockId(e, parse_partition(args.core), int(args.weight))
        members = enumerate_block(b)
        if args.json:
            _say(json.dumps({"block": b.to_json(), "partitions": [list(m.parts) for m in members]}, sort_keys=True))
        else:
            for m in members:
                _say(format_partition(m))
        return 0
    if v == "tiling":
        b = BlockId(e, parse_partition(args.core), int(args.weight))
        t = build_tiling(b)
        sys.stdout.write(export_tiling(t, args.format).decode())
        return 0
    if v == "moveone":
        out = move_one(parse_partition(args.partition), int(args.r), e)
        _emit(args, _plist(out), {"partition": list(out.parts)})
        return 0
    if v == "movealong":
        gamma = [int(t) for t in args.gamma.strip("[] ").split(",") if t]
        out, trace = move_along(parse_partition(args.partition), gamma, e, want_trace=True)
        _emit(args, _plist(out), {"partition": list(out.parts), "trace": trace})
        return 0
    if v == "lambdah":
        lam = parse_partition(args.partition)
        hooks = hooks_e(lam, e)
        r = int(args.r)
        if not 1 <= r <= len(hooks):
            raise IndexError("hook index out of range")
        out = lambda_of_hook(lam, hooks[r - 1], e)
        _emit(args, _plist(out), {"partition": list(out.parts)})
        return 0
    raise ValueError("unknown verb %r" % v)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
