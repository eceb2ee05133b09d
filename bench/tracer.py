"""Outside-in tracing of ``torusvc``: spans and counts from wrapped functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each function named in ``INSTRUMENTS`` for a wrapper in every ``torusvc``
module namespace that binds it (``arc_contains`` is bound in ``torus``,
``shatter``, ``lifting`` and the package itself), then asks the garbage
collector who still refers to the original.  Any referrer it does not own
-- a module attribute under another name, a dispatch dict, a default
argument -- is a path on which calls would go uncounted, so ``install``
raises instead of under-counting.

Spans are kept in memory as ``[name, start, end, parent index]`` and are
reduced to per-layer metrics when the traced pass ends.  A span's self time
is its duration minus the durations of its direct children; spans nest
properly because everything runs on one thread.
"""

import gc
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

COUNT = "count"  # calls counted, no span
SPAN = "span"  # a span per call
ORACLE = "oracle"  # a span per call, plus a hit when a shape is returned
TRIALS = "trials"  # counts the trials a matrix sampler reports
LIFT = "lift"  # a span per call, plus the masks the report checked
CERT = "cert"  # a span per call, plus the bytes of the written certificate
PROBES = "probes"  # counts evaluations of the predicate handed to the scanner
YIELDS = "yields"  # counts the items a generator yields

# (module under torusvc, function, wrapper kind, span or counter name)
INSTRUMENTS = (
    ("torus", "arc_contains", COUNT, "torus.arc_contains"),
    ("torus", "shape_contains", COUNT, "torus.shape_contains"),
    ("shatter", "realizable_by_box", ORACLE, "shatter.oracle"),
    ("shatter", "realizable_by_cube", ORACLE, "shatter.oracle"),
    ("shatter", "realizable_by_stripe", ORACLE, "shatter.oracle"),
    ("shatter", "realizable_by_any_stripe", ORACLE, "shatter.oracle"),
    ("shatter", "covered_mask", SPAN, "shatter.covered_mask"),
    ("stripes", "stripe_witness", COUNT, "stripes.stripe_witness"),
    ("stripes", "build_stripe_shattered_set", SPAN, "stripes.build"),
    ("extraction", "check_extraction", SPAN, "extraction.check"),
    ("extraction", "sample_extraction_matrix", TRIALS, "extraction.sample.trials"),
    ("matching", "maximum_matching", SPAN, "matching.maximum_matching"),
    ("lifting", "cube_witness", SPAN, "lifting.cube_witness"),
    ("lifting", "verify_lift", LIFT, "lifting.verify_lift"),
    ("bounds", "stripe_upper_bound_n", SPAN, "bounds.stripe"),
    ("bounds", "trivial_upper_bound_n", SPAN, "bounds.trivial"),
    ("bounds", "refined_upper_bound_n", SPAN, "bounds.refined"),
    ("bounds", "_smallest_persistent", PROBES, "bounds.probes"),
    ("vcsearch", "enumerate_configs", YIELDS, "vcsearch.configs"),
    ("vcsearch", "vc_exact", SPAN, "vcsearch.vc_exact"),
    ("fileio", "write_points", SPAN, "fileio.write"),
    ("fileio", "write_matrix", SPAN, "fileio.write"),
    ("fileio", "write_certificate", CERT, "fileio.write"),
    ("fileio", "read_points", SPAN, "fileio.read"),
    ("fileio", "read_matrix", SPAN, "fileio.read"),
    ("fileio", "read_certificate", SPAN, "fileio.read"),
)


def _arg(args, kwargs, index: int, keyword: str):
    return args[index] if len(args) > index else kwargs[keyword]


class TracerError(RuntimeError):
    """The tracer could not wrap every path into an instrumented function."""


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.bindings = {}  # "torusvc.mod.func" -> sorted module names that bound it
        self._stack = []
        self._restore = []  # (module, attribute, original)
        self._originals = []  # ("torusvc.mod.func", original)
        self._cells = set()  # ids of the closure cells of our wrappers

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def span_totals(self):
        """{name: (calls, total seconds, self seconds)} over the recorded spans."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), child in zip(self.spans, children):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return {name: tuple(v) for name, v in totals.items()}

    # ------------------------------------------------------------ wrappers

    def _wrap(self, kind: str, name: str, fn):
        counts = self.counts
        open_span, close_span = self.open, self.close

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == PROBES:
            def wrapper(exceeds, *args, **kwargs):
                def probe(n):
                    counts[name] += 1
                    return exceeds(n)
                return fn(probe, *args, **kwargs)
        elif kind == YIELDS:
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
        elif kind == TRIALS:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                # None means every trial was used and none succeeded
                counts[name] += result[1] if result is not None else _arg(args, kwargs, 3, "max_trials")
                return result
        else:
            def wrapper(*args, **kwargs):
                open_span(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span()
                if kind == ORACLE and result is not None:
                    counts[name + ".hits"] += 1
                elif kind == LIFT:
                    counts[name + ".masks"] += result.checked
                elif kind == CERT:
                    counts["fileio.cert_bytes"] += os.path.getsize(_arg(args, kwargs, 3, "path"))
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        self._cells.update(id(cell) for cell in wrapper.__closure__)
        return wrapper

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every instrumented function at every binding site, or raise."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "torusvc" or name.startswith("torusvc.")
        }
        try:
            for module, func, kind, name in INSTRUMENTS:
                qualified = f"torusvc.{module}.{func}"
                owner = modules.get(f"torusvc.{module}")
                original = getattr(owner, func, None)
                if not isinstance(original, types.FunctionType):
                    raise TracerError(f"{qualified} is not a function; update INSTRUMENTS")
                wrapper = self._wrap(kind, name, original)
                sites = []
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
                            sites.append(mod_name)
                self.bindings[qualified] = sorted(sites)
                self._originals.append((qualified, original))
            self._check_no_unwrapped(modules)
        except BaseException:
            self.uninstall()
            raise

    def _check_no_unwrapped(self, modules) -> None:
        namespaces = {id(vars(mod)): name for name, mod in modules.items()}
        own = {id(entry) for entry in self._restore + self._originals}
        for qualified, original in self._originals:
            for ref in gc.get_referrers(original):
                if id(ref) in own or id(ref) in self._cells or isinstance(ref, types.FrameType):
                    continue
                where = namespaces.get(id(ref), f"a {type(ref).__name__}")
                raise TracerError(
                    f"{qualified} is still referenced unwrapped by {where}; "
                    "calls through it would not be counted"
                )

    def uninstall(self) -> None:
        """Put every original function back where it was bound."""
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of a finished traced pass, keyed by metric name.

    ``cli.<command>.s`` and ``api.<name>.s`` sum the step spans the harness
    opened around each CLI run or API call.
    """
    totals = tracer.span_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        f"{name}.s": total for name, (_, total, _) in totals.items()
        if name.startswith(("cli.", "api."))
    }
    metrics.update({
        "torus.arc_contains.calls": counts["torus.arc_contains"],
        "torus.shape_contains.calls": counts["torus.shape_contains"],
        "shatter.oracle.calls": calls("shatter.oracle"),
        "shatter.oracle.self_s": self_s("shatter.oracle"),
        "shatter.oracle.hit_ratio": ratio(counts["shatter.oracle.hits"], calls("shatter.oracle")),
        "shatter.covered_mask.calls": calls("shatter.covered_mask"),
        "shatter.covered_mask.self_s": self_s("shatter.covered_mask"),
        "stripes.stripe_witness.calls": counts["stripes.stripe_witness"],
        "stripes.build.self_s": self_s("stripes.build"),
        "extraction.check.self_s": self_s("extraction.check"),
        "extraction.sample.trials": counts["extraction.sample.trials"],
        "matching.maximum_matching.calls": calls("matching.maximum_matching"),
        "matching.maximum_matching.self_s": self_s("matching.maximum_matching"),
        "lifting.cube_witness.calls": calls("lifting.cube_witness"),
        "lifting.cube_witness.self_s": self_s("lifting.cube_witness"),
        "lifting.verify_lift.self_s": self_s("lifting.verify_lift"),
        "lifting.witnesses_per_mask": ratio(calls("lifting.cube_witness"),
                                            counts["lifting.verify_lift.masks"]),
        "bounds.stripe.self_s": self_s("bounds.stripe"),
        "bounds.trivial.self_s": self_s("bounds.trivial"),
        "bounds.refined.self_s": self_s("bounds.refined"),
        "bounds.probes": counts["bounds.probes"],
        "vcsearch.configs": counts["vcsearch.configs"],
        "vcsearch.vc_exact.self_s": self_s("vcsearch.vc_exact"),
        "fileio.write.self_s": self_s("fileio.write"),
        "fileio.read.self_s": self_s("fileio.read"),
        "fileio.cert_bytes": counts["fileio.cert_bytes"],
    })
    return metrics
