"""Command-line surface: exact label, tiling and decomposition queries."""

from __future__ import annotations

import argparse
import json
import sys

from .abacus import BlockId, block_of, core_of, quotient_of
from .beadops import MoveError, lambda_of_hook, move_along, move_one, mullineux_crystal, mullineux_fast
from .canonical import InductiveEngine, llt_G, rouquier_d
from .labels import BlockContext, hat_z, is_m_increasing, modified_basis, z_label
from .partitions import format_partition, hooks_e, parse_partition
from .polytope import build_tiling, d_closed, export_tiling, pi_membership
from . import verify as verify_mod


def _plist(lam):
    return "[" + ",".join(str(p) for p in lam.parts) + "]"


def _vec(v):
    return "[" + ",".join(str(x) for x in v) + "]"


def _emit(args, plain, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


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


def _dnum_line(line, e, method, engines):
    parts = line.split(";")
    if len(parts) != 2:
        raise ValueError("expected 'lambda;mu', got %r" % line)
    return _dnum_one(parse_partition(parts[0]), parse_partition(parts[1]), e, method, engines)


def _dnum_one(lam, mu, e, method, engines):
    if method == "closed":
        _closed_domain(mu, e)
        return d_closed(lam, mu, e)
    if method == "llt":
        b = block_of(mu, e)
        ctx = engines.get(("ctx", b))
        if ctx is None:
            ctx = engines[("ctx", b)] = BlockContext(b)
        return llt_G(mu, e, ctx).coeff(lam)
    if method == "rouquier":
        return rouquier_d(lam, mu, block_of(mu, e))
    if method == "inductive":
        eng = engines.setdefault(("ind", e), InductiveEngine(e))
        return eng.column(mu).coeff(lam)
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
    p.add_argument("-m", type=int, default=4)
    p = add("mullineux", "partition", help="Mullineux-Kleshchev involution")
    p.add_argument("--algo", choices=["crystal", "fast"], default="crystal")
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
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _dispatch(args):
    v = args.verb
    if v == "verify":
        names = None if args.suite == "all" else [args.suite]
        return 0 if verify_mod.run(names) else 1
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
            h = hat_z(lam, e)
            _emit(args, json.dumps(h.to_json(), sort_keys=True), h.to_json())
        elif v == "epsilon":
            mb = modified_basis(lam, e)
            _emit(args, "[" + ",".join(_vec(x) for x in mb.plain) + "]",
                  {"epsilon": [list(x) for x in mb.plain]})
        elif v == "mullineux":
            out = mullineux_crystal(lam, e) if args.algo == "crystal" else mullineux_fast(lam, e)
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
        engines = {}
        if args.lam is None or args.mu is None:
            # a bad line answers "error" and the batch goes on; exit 1 at the end
            code = 0
            for n, line in enumerate(sys.stdin, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    val = _dnum_line(line, e, args.method, engines)
                except DOMAIN_ERRORS as exc:
                    print("error")
                    print("error: line %d: %s" % (n, exc), file=sys.stderr)
                    code = 1
                    continue
                print(str(val))
            return code
        val = _dnum_one(parse_partition(args.lam), parse_partition(args.mu), e, args.method, engines)
        _emit(args, str(val), {"d": val.to_pairs()})
        return 0
    if v == "gcolumn":
        mu = parse_partition(args.mu)
        b = block_of(mu, e)
        ctx = BlockContext(b)
        if args.method == "llt":
            col = llt_G(mu, e, ctx)
        elif args.method == "rouquier":
            from .canonical import rouquier_column

            col = rouquier_column(mu, b, ctx)
        elif args.method == "inductive":
            col = InductiveEngine(e).column(mu)
        else:
            from .fock import FockVector

            _closed_domain(mu, e)
            col = FockVector({lam: d_closed(lam, mu, e) for lam in ctx.members()})
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
        print(json.dumps(payload, sort_keys=True))
        return 0
    if v == "block":
        b = BlockId(e, parse_partition(args.core), int(args.weight))
        from .abacus import enumerate_block

        members = enumerate_block(b)
        if args.json:
            print(json.dumps({"block": b.to_json(), "partitions": [list(m.parts) for m in members]}, sort_keys=True))
        else:
            for m in members:
                print(format_partition(m))
        return 0
    if v == "tiling":
        b = BlockId(e, parse_partition(args.core), int(args.weight))
        t = build_tiling(b, m=args.m)
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
