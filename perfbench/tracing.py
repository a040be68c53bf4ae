"""Span tracer installed from outside the package.

The package imports names directly (``from .polyring import gradient``), so a
function is wrapped at every binding site: each ``mfhess`` module global that
holds it, and the class attribute for methods.  ``uninstall`` puts every
original back and ``assert_clean`` proves it did.

Each wrapped call records a span ``(name, start, end, parent)``.  Inclusive
time per name counts only the outermost call, so recursion is not counted
twice.  Times are collected per timed unit and scaled by that unit's speed
factor in ``flush``; counts are exact and never scaled.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

WRAPPED = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index or -1)
        self.totals = {}           # metric name -> value (times scaled)
        self._unit_time = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []         # (setter, original)
        self.points = set()

    # -- recording -------------------------------------------------------

    def register(self, *names):
        for n in names:
            self.totals.setdefault(n, 0)

    def count(self, name, k=1):
        self.totals[name] = self.totals.get(name, 0) + k

    def add_time(self, name, dt):
        self._unit_time[name] += dt

    def flush(self, factor):
        """Move the last unit's raw times into the totals, speed-adjusted."""
        for name, dt in self._unit_time.items():
            self.totals[name] = self.totals.get(name, 0) + dt * factor
        self._unit_time.clear()

    def wrap(self, name, fn, after=None, before=None):
        """Wrapper timing ``name.s`` and counting ``name.calls``.

        ``before(args)`` returns a token; ``after(args, out, dt, token)`` may
        record extra metrics.  Neither runs when the call raises.
        """
        tracer = self
        self.register(name + ".s", name + ".calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(idx)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.spans[idx] = (name, t0, t1, parent)
                if not tracer._depth[name]:
                    tracer._unit_time[name + ".s"] += t1 - t0
                tracer.totals[name + ".calls"] += 1
            if after:
                after(args, out, t1 - t0, token)
            return out

        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- installing ------------------------------------------------------

    def patch_function(self, fn, name, **hooks):
        """Replace ``fn`` in every mfhess module that binds it."""
        if fn is None:
            return
        wrapper = self.wrap(name, fn, **hooks)
        for mod in _mfhess_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((functools.partial(setattr, mod, attr), fn))

    def patch_method(self, cls, attr, name, **hooks):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        setattr(cls, attr, self.wrap(name, fn, **hooks))
        self._restore.append((functools.partial(setattr, cls, attr), fn))

    def patch_list(self, seq, name_of):
        for i, fn in enumerate(list(seq)):
            seq[i] = self.wrap(name_of(fn), fn)
            self._restore.append((functools.partial(seq.__setitem__, i), fn))

    def uninstall(self):
        for setter, original in reversed(self._restore):
            setter(original)
        self._restore.clear()

    def assert_clean(self, extra_lists=()):
        """Raise if any wrapper is still reachable from the package."""
        for mod in _mfhess_modules():
            for attr, val in vars(mod).items():
                if getattr(val, WRAPPED, False):
                    raise RuntimeError(f"wrapper left on {mod.__name__}.{attr}")
                if isinstance(val, type):
                    for cattr, cval in vars(val).items():
                        if getattr(cval, WRAPPED, False):
                            raise RuntimeError(
                                f"wrapper left on {val.__name__}.{cattr}")
        for seq in extra_lists:
            if any(getattr(fn, WRAPPED, False) for fn in seq):
                raise RuntimeError("wrapper left in a check list")

    # -- derived ---------------------------------------------------------

    def self_times(self) -> dict:
        """Raw self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(sorted(out.items()))


def _mfhess_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "mfhess" or k.startswith("mfhess."))]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every mfhess layer."""
    from mfhess import (argshift, hessenberg, invariants, liealgebra, linalg,
                        polyring, rootdata, symplectic, verifier)
    t = tracer

    def hits_before(args):
        return t.totals.get("invariants.load_family.hits", 0)

    def build_after(args, out, dt, hits0):
        warm = t.totals.get("invariants.load_family.hits", 0) > hits0
        t.add_time("verifier.build_context.%s.s" % ("warm" if warm else "cold"), dt)
        t.count("argshift.family_terms", sum(len(q.terms) for q in out.family.qs))

    t.register("verifier.build_context.cold.s", "verifier.build_context.warm.s",
               "argshift.family_terms")
    t.patch_function(verifier.build_context, "verifier.build_context",
                     before=hits_before, after=build_after)

    def suite_after(args, out, dt, _):
        t.add_time("verifier.run_suite.%s.s" % args[0].algebra, dt)

    t.patch_function(verifier.run_suite, "verifier.run_suite", after=suite_after)
    t.patch_list(verifier.ALL_CHECKS, lambda fn: "verifier.check." + fn.check_id)

    t.patch_function(rootdata.build_root_system, "rootdata.build_root_system")
    t.patch_function(liealgebra.chevalley_algebra, "liealgebra.chevalley_algebra")
    t.patch_function(liealgebra.is_regular, "liealgebra.is_regular")

    t.patch_method(polyring.GradientContext, "__post_init__", "polyring.GradientContext")

    def bracket_after(args, out, dt, _):
        t.count("polyring.poisson_bracket.input_terms",
                len(args[1].terms) + len(args[2].terms))
        t.count("polyring.poisson_bracket.nonzero", int(not out.is_zero()))

    t.register("polyring.poisson_bracket.input_terms", "polyring.poisson_bracket.nonzero")
    t.patch_function(polyring.poisson_bracket, "polyring.poisson_bracket",
                     after=bracket_after)
    t.patch_method(polyring.Poly, "__mul__", "polyring.Poly.mul")
    t.patch_method(polyring.Poly, "evaluate", "polyring.Poly.evaluate")
    t.patch_function(polyring.gradient, "polyring.gradient")

    def load_after(args, out, dt, _):
        t.count("invariants.load_family.hits", int(out is not None))

    t.register("invariants.load_family.hits")
    t.patch_function(invariants.invariant_generators, "invariants.invariant_generators")
    t.patch_function(invariants.load_family, "invariants.load_family", after=load_after)
    t.patch_function(invariants.save_family, "invariants.save_family")

    def pairs_after(args, out, dt, _):
        ok, info = out
        if ok:
            t.count("argshift.pairwise_commute.pairs", info)
        else:
            i, j = info[0], info[1]
            b = len(args[0].qs)
            t.count("argshift.pairwise_commute.pairs",
                    i * b - i * (i + 1) // 2 + (j - i))

    def rows_after(args, out, dt, _):
        family, x = args[0], args[1]
        key = (id(family), tuple(x))
        if key not in t.points:
            t.points.add(key)
            t.count("argshift.gradient_rows.distinct_points")

    t.register("argshift.pairwise_commute.pairs", "argshift.gradient_rows.distinct_points")
    t.patch_function(argshift.shift_family, "argshift.shift_family")
    t.patch_function(argshift.pairwise_commute, "argshift.pairwise_commute",
                     after=pairs_after)
    t.patch_method(argshift.ShiftFamily, "gradient_rows", "argshift.gradient_rows",
                   after=rows_after)
    t.patch_function(argshift.mv_membership, "argshift.mv_membership")
    t.patch_function(getattr(argshift, "load_family_cache", None),
                     "argshift.load_family_cache")
    t.patch_function(getattr(argshift, "save_family_cache", None),
                     "argshift.save_family_cache")

    t.patch_function(hessenberg.build_chart, "hessenberg.build_chart")
    t.patch_function(hessenberg.hess_section, "hessenberg.hess_section")

    t.patch_function(symplectic.zx_frame, "symplectic.zx_frame")
    t.patch_function(symplectic.transversality_check, "symplectic.transversality_check")
    t.patch_function(symplectic.polarization_report, "symplectic.polarization_report")

    def rank_after(args, out, dt, _):
        mat = args[0]
        t.count("linalg.rank.entries", len(mat) * (len(mat[0]) if mat else 0))

    t.register("linalg.rank.entries")
    t.patch_function(linalg.rank, "linalg.rank", after=rank_after)
    t.patch_function(linalg.kernel, "linalg.kernel")
    t.patch_function(linalg.sparse_kernel, "linalg.sparse_kernel")
