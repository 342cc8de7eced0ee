"""Span recorder for the traced benchmark run.

The recorder wraps fitt's functions from the outside: every module attribute
in the `fitt` package that refers to a traced function is replaced by a
wrapper for the duration of the run and restored afterwards.  Spans (name,
start, end, parent) are kept in memory; counts are taken at the same call
boundaries.  No traced function calls itself, so the inclusive time of a name
is the plain sum of its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import fitt.groebner
import fitt.polyring

LAYERS = ("verify", "rees", "kaehler", "fitmod", "groebner", "polyring", "properties")

# (span name, defining module, function): every alias of the function in the
# fitt package is wrapped, so calls through `from .x import f` are seen too.
FUNCTIONS = (
    ("verify.check_theorem41", "fitt.verify", "check_theorem41"),
    ("verify.check_corollary42", "fitt.verify", "check_corollary42"),
    ("verify.check_image_equals_center", "fitt.verify", "check_image_equals_center"),
    ("verify.check_nonnormal", "fitt.verify", "check_nonnormal"),
    ("rees.chart_presentation", "fitt.rees", "chart_presentation"),
    ("rees.rees_presentation", "fitt.rees", "rees_presentation"),
    ("rees.micali_kernel", "fitt.rees", "micali_kernel"),
    ("kaehler.kaehler_fitting", "fitt.kaehler", "kaehler_fitting"),
    ("fitmod.fitting_ideal", "fitt.fitmod", "fitting_ideal"),
    ("fitmod.minors", "fitt.fitmod", "minors"),
    ("groebner.saturate", "fitt.groebner", "saturate"),
    ("groebner.eliminate", "fitt.groebner", "eliminate"),
    ("groebner.buchberger", "fitt.groebner", "buchberger"),
    ("groebner.reduce", "fitt.groebner", "reduce"),
    ("groebner.s_polynomial", "fitt.groebner", "s_polynomial"),
)
METHODS = (
    ("groebner.groebner_basis", fitt.groebner.Ideal, "groebner_basis"),
    ("polyring.mul", fitt.polyring.Polynomial, "__mul__"),
)
# Called millions of times per grid: counted, never spanned.
COUNTED = (("groebner.mono_lcm", "fitt.groebner", "mono_lcm"),)

# Per workload, the traced names that must record at least one call.  A
# rename in fitt then stops the run instead of reporting a zero.
_GB_CORE = (
    "groebner.groebner_basis",
    "groebner.buchberger",
    "groebner.reduce",
    "groebner.s_polynomial",
    "groebner.saturate",
    "groebner.eliminate",
    "groebner.mono_lcm",
    "fitmod.fitting_ideal",
    "fitmod.minors",
    "polyring.mul",
)
_VERIFY_CORE = _GB_CORE + (
    "verify.check_theorem41",
    "verify.check_corollary42",
    "verify.check_image_equals_center",
    "rees.chart_presentation",
    "rees.rees_presentation",
    "rees.micali_kernel",
    "kaehler.kaehler_fitting",
)
REQUIRED = {
    "grid": _VERIFY_CORE + ("verify.check_nonnormal",),
    "charts": _VERIFY_CORE,
    "props": _GB_CORE + ("kaehler.kaehler_fitting",),
}

# Per-layer metric name -> unit, in report order.
METRICS = {
    "verify.thm41_s": "s",
    "verify.cor42_s": "s",
    "verify.image_s": "s",
    "rees.chart_calls": "count",
    "rees.chart_distinct": "count",
    "rees.chart_s": "s",
    "rees.presentation_builds": "count",
    "rees.micali_s": "s",
    "kaehler.fitting_calls": "count",
    "kaehler.fitting_s": "s",
    "fitmod.minors_generated": "count",
    "fitmod.minors_nonzero": "count",
    "fitmod.minors_useful_frac": "ratio",
    "fitmod.minors_s": "s",
    "groebner.saturate_calls": "count",
    "groebner.saturate_s": "s",
    "groebner.eliminate_calls": "count",
    "groebner.eliminate_s": "s",
    "groebner.buchberger_calls": "count",
    "groebner.buchberger_s": "s",
    "groebner.buchberger_self_s": "s",
    "groebner.lcm_calls": "count",
    "groebner.spairs_formed": "count",
    "groebner.spairs_reduced": "count",
    "groebner.spairs_pruned_frac": "ratio",
    "groebner.reduce_calls": "count",
    "groebner.reduce_s": "s",
    "groebner.zero_reductions": "count",
    "groebner.reduce_useful_frac": "ratio",
    "groebner.gb_requests": "count",
    "groebner.gb_cache_hit_frac": "ratio",
    "groebner.basis_size_max": "count",
    "polyring.mul_calls": "count",
    "polyring.mul_s": "s",
    "properties.trials": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class TraceError(RuntimeError):
    """The traced run cannot be trusted: a wrapped function went unseen."""


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.charts: set = set()
        self._open: list[int] = []
        # one [basis elements so far, last S-polynomial] per running buchberger
        self._gb_frames: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs):
        """Run fn inside a span named name, nested under the open span."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _buchberger(self, fn):
        frames = self._gb_frames
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(ring, generators, *rest):
            frame = [sum(1 for g in generators if not g.is_zero), None]
            frames.append(frame)
            try:
                basis = self.call("groebner.buchberger", fn, (ring, generators) + rest, {})
            finally:
                frames.pop()
            k = frame[0]
            counts["spairs_formed"] += k * (k - 1) // 2
            counts["basis_size_max"] = max(counts["basis_size_max"], len(basis))
            return basis

        return wrapper

    def _groebner_basis(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(ideal, order=fitt.polyring.GREVLEX):
            if order in ideal._gb:
                counts["gb_hits"] += 1
            return self.call("groebner.groebner_basis", fn, (ideal, order), {})

        return wrapper

    def _after_s_polynomial(self, args, result) -> None:
        if self._gb_frames:
            self._gb_frames[-1][1] = result
            self.counts["spairs_reduced"] += 1

    def _after_reduce(self, args, result) -> None:
        # An S-pair reduction is the reduce of the S-polynomial just formed
        # by the running buchberger; a nonzero remainder joins the basis.
        if self._gb_frames and args[0] is self._gb_frames[-1][1]:
            frame = self._gb_frames[-1]
            frame[1] = None
            if result.is_zero:
                self.counts["zero_reductions"] += 1
            else:
                frame[0] += 1
                self.counts["useful_reductions"] += 1

    def _after_minors(self, args, result) -> None:
        self.counts["minors_generated"] += len(result)
        self.counts["minors_nonzero"] += sum(1 for f in result if not f.is_zero)

    def _after_chart_presentation(self, args, result) -> None:
        self.charts.add((args[0], args[1]))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_aliases(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "fitt" or name.startswith("fitt."):
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)

    def install(self) -> None:
        special = {
            "groebner.buchberger": self._buchberger,
            "groebner.groebner_basis": self._groebner_basis,
        }
        after = {
            "rees.chart_presentation": self._after_chart_presentation,
            "fitmod.minors": self._after_minors,
            "groebner.reduce": self._after_reduce,
            "groebner.s_polynomial": self._after_s_polynomial,
        }

        def maker(name):
            return special.get(name) or functools.partial(self._spanned, name, after=after.get(name))

        for name, module, attr in FUNCTIONS:
            self._patch_aliases(module, attr, maker(name))
        for name, module, attr in COUNTED:
            self._patch_aliases(module, attr, functools.partial(self._counted, name))
        for name, owner, attr in METHODS:
            self._patch(owner, attr, maker(name)(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def calls(self) -> Counter:
        calls = Counter(span[0] for span in self.spans)
        for name, _, _ in COUNTED:
            calls[name] = self.counts[name]
        return calls

    def require(self, names) -> None:
        calls = self.calls()
        missing = [name for name in names if not calls[name]]
        if missing:
            raise TraceError(f"traced functions recorded no calls: {', '.join(missing)}")

    def metrics(self, trials: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac."""
        calls = self.calls()
        incl: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            incl[name] += end - start
        own = self_times(self.spans)
        c = self.counts
        m = {
            "verify.thm41_s": incl["verify.check_theorem41"],
            "verify.cor42_s": incl["verify.check_corollary42"],
            "verify.image_s": incl["verify.check_image_equals_center"],
            "rees.chart_calls": calls["rees.chart_presentation"],
            "rees.chart_distinct": len(self.charts),
            "rees.chart_s": incl["rees.chart_presentation"],
            "rees.presentation_builds": calls["rees.rees_presentation"],
            "rees.micali_s": incl["rees.micali_kernel"],
            "kaehler.fitting_calls": calls["kaehler.kaehler_fitting"],
            "kaehler.fitting_s": incl["kaehler.kaehler_fitting"],
            "fitmod.minors_generated": c["minors_generated"],
            "fitmod.minors_nonzero": c["minors_nonzero"],
            "fitmod.minors_useful_frac": ratio(c["minors_nonzero"], c["minors_generated"]),
            "fitmod.minors_s": incl["fitmod.minors"],
            "groebner.saturate_calls": calls["groebner.saturate"],
            "groebner.saturate_s": incl["groebner.saturate"],
            "groebner.eliminate_calls": calls["groebner.eliminate"],
            "groebner.eliminate_s": incl["groebner.eliminate"],
            "groebner.buchberger_calls": calls["groebner.buchberger"],
            "groebner.buchberger_s": incl["groebner.buchberger"],
            "groebner.buchberger_self_s": own.get("groebner.buchberger", 0.0),
            "groebner.lcm_calls": calls["groebner.mono_lcm"],
            "groebner.spairs_formed": c["spairs_formed"],
            "groebner.spairs_reduced": c["spairs_reduced"],
            "groebner.spairs_pruned_frac": 1.0 - ratio(c["spairs_reduced"], c["spairs_formed"]),
            "groebner.reduce_calls": calls["groebner.reduce"],
            "groebner.reduce_s": incl["groebner.reduce"],
            "groebner.zero_reductions": c["zero_reductions"],
            "groebner.reduce_useful_frac": ratio(
                c["useful_reductions"], c["useful_reductions"] + c["zero_reductions"]
            ),
            "groebner.gb_requests": calls["groebner.groebner_basis"],
            "groebner.gb_cache_hit_frac": ratio(c["gb_hits"], calls["groebner.groebner_basis"]),
            "groebner.basis_size_max": c["basis_size_max"],
            "polyring.mul_calls": calls["polyring.mul"],
            "polyring.mul_s": incl["polyring.mul"],
            "properties.trials": trials,
        }
        for layer, seconds in layer_self_times(own).items():
            m[f"{layer}.self_s"] = seconds
        m["trace.wall_s"] = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return m


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans) -> dict[str, float]:
    """Per span name, the time its spans ran minus the time their children
    cover.  Children of one span never overlap (one thread)."""
    own: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        own[name] += end - start
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return dict(own)


def layer_self_times(own: dict[str, float]) -> dict[str, float]:
    """Self times summed per layer, the span name's prefix."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        out[name.split(".")[0]] += seconds
    return out
