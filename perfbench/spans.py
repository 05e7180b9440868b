"""In-memory span recorder and the wrappers that feed it.

A wrapper is patched into every focktiles namespace that holds the original
function object, because the modules bind their callees with
``from .x import f`` and a patch on the defining module alone would miss
those call sites.  Each call records one span: id, parent id, name, start
and end (``time.perf_counter``).  Spans stay in memory and are written out
when the pass ends.  Self time is a span minus the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("partitions", "laurent", "abacus", "labels", "fock", "beadops",
           "_ladders", "polytope", "canonical", "cli", "verify")


def _terms(v):
    return len(v.terms) if hasattr(v, "terms") else 1


def _fock_counts(args, result):
    return {"terms_in": _terms(args[0]), "terms_out": _terms(result)}


def _monomial_counts(args, result):
    return {"terms_out": sum(len(v.terms) for v in result.values())}


def _chain_counts(args, result):
    return {"chain_len": len(result[1])}


# (module, qualified name, extra counters taken from the call) for every
# function that gets a span; the metric prefix is "<module>.<name>".
TARGETS = (
    ("_ladders", "block_ladder_monomials", _monomial_counts),
    ("canonical", "llt_G", None),
    ("canonical", "ladder_monomial", None),
    ("laurent", "bar_symmetric_split", None),
    ("fock", "apply_F", _fock_counts),
    ("fock", "apply_E", _fock_counts),
    ("abacus", "weyl_s", None),
    ("abacus", "scopes_chain_blocks", _chain_counts),
    ("canonical", "rouquier_column", None),
    ("canonical", "exceptional_family", None),
    ("canonical", "hook_quotient_families", None),
    ("canonical", "InductiveEngine.column", None),
    ("canonical", "rouquier_d", None),
    ("canonical", "lr_coefficient", None),
    ("polytope", "d_closed", None),
    ("polytope", "pi_membership", None),
    ("labels", "z_label", None),
    ("labels", "hat_z", None),
    ("labels", "modified_basis", None),
    ("abacus", "enumerate_block", None),
    ("abacus", "block_of", None),
    ("partitions", "parse_partition", None),
    ("cli", "run", None),
)

# lru_cache'd helpers whose cache_info() gives the hit ratios
CACHES = (("abacus", "_cqw_cached"), ("fock", "_beads_data"), ("labels", "_z_cached"))


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, start, end)
        self.stack = []
        self.counters = {}
        self.missing = []

    def wrap(self, name, fn, extra):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if extra is not None:
                for key, val in extra(args, result).items():
                    k = name + "." + key
                    counters[k] = counters.get(k, 0) + val
            return result

        return traced

    def install(self):
        """Patch every target in every namespace that refers to it."""
        mods = [importlib.import_module("focktiles")]
        mods += [importlib.import_module("focktiles." + m) for m in MODULES]
        for modname, qual, extra in TARGETS:
            mod = importlib.import_module("focktiles." + modname)
            name = "%s.%s" % (modname, qual)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], extra))
                continue
            orig = getattr(mod, qual, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, extra)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def summary(self):
        """Per name: calls, inclusive seconds (outermost spans only) and self
        seconds, plus the extra counters."""
        by_id = {s[0]: s for s in self.spans}
        child = {}
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child.get(sid, 0.0)
            p = parent
            while p >= 0 and by_id[p][2] != name:
                p = by_id[p][1]
            if p < 0:
                row["s"] += dur
        flat = {}
        for name, row in out.items():
            for key, val in row.items():
                flat[name + "." + key] = val
        flat.update(self.counters)
        return flat

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def cache_counts():
    """(hits, misses) of each module-level cache, keyed by module.function."""
    out = {}
    for modname, fn in CACHES:
        f = getattr(importlib.import_module("focktiles." + modname), fn, None)
        if f is not None and hasattr(f, "cache_info"):
            info = f.cache_info()
            out["%s.%s" % (modname, fn)] = [info.hits, info.misses]
    return out
