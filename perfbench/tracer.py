"""Per-layer tracing by wrapping library functions from the outside.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in flat arrays kept in memory until the run ends.  A
function imported by name into another module (``from .linalg import
mat_inverse`` in ``weyl``) is replaced there too, since that module looks
it up in its own namespace.  ``restore`` puts every original back.

Self time of a span is its duration minus the durations of its direct
child spans; work in functions that are not traced counts towards the
nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array

#: Traced functions as (module, attribute path); each reports
#: ``<module>.<path>.calls`` and ``<module>.<path>.self_s``.
LAYERS = (
    ("linalg", "mat_inverse"),
    ("linalg", "solve_columns"),
    ("linalg", "mat_mul"),
    ("snf", "smith_normal_form"),
    ("rootdata", "RootDatum.from_config"),
    ("rootdata", "RootDatum.leq_coroot_cone"),
    ("rootdata", "RootDatum.coroot_coords"),
    ("rootdata", "RootDatum.avg_J"),
    ("rootdata", "RootDatum.conv_prime_facts"),
    ("weyl", "weyl_group"),
    ("weyl", "WeylElement.__mul__"),
    ("weyl", "WeylElement.inverse"),
    ("qbg", "QBGraph.of"),
    ("qbg", "QBGraph.d"),
    ("qbg", "QBGraph.wt_vec"),
    ("affine", "AffineElement.__mul__"),
    ("affine", "lower_interval"),
    ("affine", "lp_set"),
    ("affine", "enumerate_length_le"),
    ("conjclass", "class_of"),
    ("conjclass", "newton_point"),
    ("conjclass", "maximal_classes"),
    ("conjclass", "SigmaClass.__le__"),
    ("conjclass", "min_twisted_length"),
    ("generic", "generic_lambda"),
    ("generic", "oracle_generic_class"),
    ("generic", "is_cordial"),
    ("generic", "generic_newton_general"),
    ("generic", "is_cordial_general"),
    ("verify", "check_oracle_equivalence"),
    ("verify", "check_own_class_bound"),
    ("verify", "check_defect_consistency"),
    ("verify", "check_fundamental_consistency"),
    ("verify", "check_shrunken_criterion"),
    ("verify", "check_sign_type_determination"),
    ("verify", "check_cordial_inequality"),
    ("verify", "check_qbg_identities"),
    ("verify", "check_length_additivity"),
    ("cli", "load_config"),
    ("cli", "parse_element"),
    ("cli", "cmd_element"),
)

#: Counters and ratios measured by the wrappers, with unit and direction.
COUNTERS = (
    ("qbg.rows_built", "count", "lower"),
    ("qbg.row_reuse_ratio", "ratio", "higher"),
    ("affine.lower_interval.elements", "count", "lower"),
    ("affine.lp_set.elements", "count", "lower"),
    ("conjclass.class_of.hit_ratio", "ratio", "higher"),
    ("verify.oracle.budget_skip_ratio", "ratio", "lower"),
    ("generic.oracle_generic_class.path_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PACKAGE = "affweyl"


def layer_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Wraps the ``LAYERS`` functions while installed; not thread-safe."""

    def __init__(self) -> None:
        self.names = [layer_name(m, p) for m, p in LAYERS]
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self.rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.row_queries = 0
        self.rows_built = 0
        self.lower_interval_elements = 0
        self.lp_set_elements = 0
        self.class_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.class_calls = 0
        self.class_hits = 0
        self.oracle_scanned = 0
        self.oracle_skips = 0
        # called with (args, result) after each traced call of the layer
        self.observers = {
            "qbg.QBGraph.d": self._observe_row,
            "qbg.QBGraph.wt_vec": self._observe_row,
            "affine.lower_interval": self._observe_interval,
            "affine.lp_set": self._observe_lp,
            "conjclass.class_of": self._observe_class,
            "verify.check_oracle_equivalence": self._observe_oracle,
        }

    # -- observers ---------------------------------------------------------

    def _observe_row(self, args, result) -> None:
        graph, source = args[0], args[1]
        seen = self.rows.setdefault(graph, set())
        self.row_queries += 1
        if source.perm not in seen:
            seen.add(source.perm)
            self.rows_built += 1

    def _observe_interval(self, args, result) -> None:
        self.lower_interval_elements += len(result)

    def _observe_lp(self, args, result) -> None:
        self.lp_set_elements += len(result)

    def _observe_class(self, args, result) -> None:
        x = args[0]
        seen = self.class_keys.setdefault(x.datum, set())
        key = (x.w.perm, x.mu)
        self.class_calls += 1
        if key in seen:
            self.class_hits += 1
        else:
            seen.add(key)

    def _observe_oracle(self, args, result) -> None:
        report = result[0]
        self.oracle_scanned += report.checked + report.budget_skips
        self.oracle_skips += report.budget_skips

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, index: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        observe = self.observers.get(self.names[index])
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # consume inside the span; every caller in the library
                    # exhausts these generators anyway
                    result = iter(list(result))
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        homes = [importlib.import_module(f"{PACKAGE}.{m}") for m, _ in LAYERS]
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for index, (owner, (_, path)) in enumerate(zip(homes, LAYERS)):
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            static = isinstance(original, staticmethod)
            fn = original.__func__ if static else original
            traced = self._wrap(index, fn)
            self._patch(owner, attr, staticmethod(traced) if static else traced)
            if outer:
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn and not (mod is owner and name == attr):
                        self._patch(mod, name, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True iff every replaced attribute holds its original again."""
        return all(vars(o)[a] is original for o, a, original in self.patches)

    # -- results -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """{layer: (calls, self seconds, inclusive seconds)}; inclusive time
        counts only spans without an ancestor of the same layer."""
        n = len(self.span_start)
        cover = array("d", bytes(8 * n))
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        # children come after their parent, so a reverse sweep sees every
        # child before the parent it covers
        for sid in range(n - 1, -1, -1):
            dur = ends[sid] - starts[sid]
            k = names[sid]
            calls[k] += 1
            self_s[k] += dur - cover[sid]
            p = parents[sid]
            if p >= 0:
                cover[p] += dur
            while p >= 0 and names[p] != k:
                p = parents[p]
            if p < 0:
                total[k] += dur
        return {
            name: (calls[i], self_s[i], total[i])
            for i, name in enumerate(self.names)
        }

    def counters(self) -> dict[str, float]:
        return {
            "qbg.rows_built": self.rows_built,
            "qbg.row_reuse_ratio": (
                1 - self.rows_built / self.row_queries if self.row_queries else 0.0
            ),
            "affine.lower_interval.elements": self.lower_interval_elements,
            "affine.lp_set.elements": self.lp_set_elements,
            "conjclass.class_of.hit_ratio": (
                self.class_hits / self.class_calls if self.class_calls else 0.0
            ),
            "verify.oracle.budget_skip_ratio": (
                self.oracle_skips / self.oracle_scanned if self.oracle_scanned else 0.0
            ),
        }
