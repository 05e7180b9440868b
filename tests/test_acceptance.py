"""Acceptance gate: every criterion at its stated tolerance (exact).

Each test prints one pass/fail line; `focktiles verify all` runs the same
suites from the command line.
"""

import re

import pytest

from focktiles import verify
from focktiles.abacus import partition_of_mask


def _run(name):
    fn, title = verify.SUITES[name]
    ok, detail = fn()
    print("%s %s (%s): %s" % ("PASS" if ok else "FAIL", name.upper(), title, detail))
    assert ok, detail


def test_ac1_worked_examples():
    _run("ac1")


def test_ac2_oracle_equivalence():
    _run("ac2")


def test_ac3_inductive_equivalence():
    _run("ac3")


def test_ac4_rouquier():
    _run("ac4")


def test_ac5_tiling_figures():
    _run("ac5")


def test_ac6_tiling_laws():
    _run("ac6")


def test_ac7_counting():
    _run("ac7")


def test_ac8_mullineux():
    _run("ac8")


def test_ac9_label_theory():
    _run("ac9")


def _changed(kind, col):
    """col with one entry changed by kind, and the mask of that entry: the
    smallest entry shifted by q or dropped, or an entry added whose label
    is the smallest one's with its first part one longer (its top bead one
    slot up), so not in col."""
    m = min(col)
    if kind == "shift":
        return {**col, m: {x + 1: c for x, c in col[m].items()}}, m
    if kind == "drop":
        return {x: c for x, c in col.items() if x != m}, m
    m += 1 << (m.bit_length() - 1)
    return {**col, m: {0: 1}}, m


class _Change:
    """Changes the first column of at least two entries that a route hands
    to a suite, and records the label and mu of the changed entry."""

    def __init__(self, kind):
        self.kind, self.lam, self.mu = kind, None, None

    def __call__(self, mu, lo, col):
        if self.mu is None and len(col) >= 2:
            col, m = _changed(self.kind, col)
            self.lam, self.mu = partition_of_mask(m), mu
        return lo, col

    def patch(self, monkeypatch, route):
        if route == "InductiveEngine":
            change, real = self, verify.InductiveEngine

            class Engine:  # the engine's own calls see its true columns
                def __init__(self, e):
                    self.engine = real(e)
                    self.chains = self.engine.chains

                def packed_column(self, mu):
                    return change(mu, *self.engine.packed_column(mu))

            monkeypatch.setattr(verify, "InductiveEngine", Engine)
        elif route == "closed_sweep":
            real = verify.closed_sweep
            monkeypatch.setattr(verify, route, lambda mu, e, lo, ctx=None: self(mu, lo, real(mu, e, lo, ctx))[1])
        else:
            real = getattr(verify, route)
            monkeypatch.setattr(verify, route, lambda mu, *a: self(mu, *real(mu, *a)))


# each column route `verify` imports, with the suites that compare its columns
ROUTE_SUITES = {
    "llt_column": ("ac2", "ac4"),
    "closed_sweep": ("ac2", "ac3", "ac4"),
    "InductiveEngine": ("ac3",),
    "rouquier_column": ("ac4",),
}


@pytest.mark.parametrize("kind", ["shift", "drop", "add"])
@pytest.mark.parametrize("route,suite", [(r, s) for r, suites in ROUTE_SUITES.items() for s in suites])
def test_each_suite_catches_a_changed_column(monkeypatch, route, suite, kind):
    change = _Change(kind)
    change.patch(monkeypatch, route)
    ok, detail = verify.SUITES[suite][0]()
    assert change.mu is not None and not ok, detail
    # the detail names the changed entry's label and mu
    assert re.search(r" at %s, %s in " % (re.escape(str(change.lam)), re.escape(str(change.mu))), detail), detail
