"""Span tracing for the traced run, installed from outside the library.

``Tracer.install`` replaces the public functions the operations reach with
wrappers that record one span per call (name, start, end, parent, operation
id) and ``uninstall`` puts the originals back. The timed runs never install
it. NumPy's Hermitian eigensolvers and matrix 2-norm (an SVD) are wrapped
too, but only counted: their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import zerobounds
import zerobounds.cartesian
import zerobounds.classical
import zerobounds.fixtures
import zerobounds.report
from zerobounds import NoConvergenceError

CLASSICAL = ("cauchy", "carmichael_mason", "montel", "fujii_kubo", "abdurakhmanov",
             "linden", "kittaneh_disk", "abu_omar_kittaneh", "al_dolat")
CARTESIAN_CLOSED_FORMS = ("kittaneh_rectangle", "partition_rectangle", "partition_disk",
                          "unit_tail_disk", "mw_bound")
FORMATTERS = ("format_compare_text", "format_compare_csv", "format_compare_json",
              "format_fixture_text", "format_fixture_json")

# span name -> per-layer metric that receives its self time
LAYER_OF = {
    "parse_polynomial": "polynomial.parse_ms",
    "make_monic": "polynomial.parse_ms",
    "build_companion": "companion.build_ms",
    "build_block_companion": "companion.build_ms",
    "numerical_radius_sweep": "linalg.radius_sweep_ms",
    "find_roots": "roots.find_roots_ms",
    "validate_bound": "roots.validate_ms",
    "validate_rectangle": "roots.validate_ms",
    "block_cartesian_radius": "cartesian.block_cartesian_ms",
    "cartesian_disk": "cartesian.cartesian_disk_ms",
    "hermitian_rectangle": "cartesian.hermitian_rectangle_ms",
    "run_compare": "report.run_compare_self_ms",
    "run_fixture": "fixtures.run_fixture_self_ms",
    "operation": "trace.unattributed_ms",
    **{name: "classical.al_dolat_ms" if name == "al_dolat" else "classical.other_ms"
       for name in CLASSICAL},
    **{name: "cartesian.closed_forms_ms" for name in CARTESIAN_CLOSED_FORMS},
    **{name: "report.render_ms" for name in FORMATTERS},
}
SELF_TIME_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))

# module -> attribute names the operations reach through it
TARGETS = (
    (zerobounds, ("parse_polynomial", "make_monic", "find_roots", "run_compare")),
    (zerobounds.report, (
        "parse_polynomial", "find_roots", "validate_bound", "validate_rectangle",
        "build_companion", "build_block_companion", "numerical_radius_sweep",
        "block_cartesian_radius", "cartesian_disk", "hermitian_rectangle",
        *CARTESIAN_CLOSED_FORMS, "run_compare", "run_fixture", *FORMATTERS,
    )),
    (zerobounds.classical, CLASSICAL),
    (zerobounds.cartesian, ("build_companion",)),
    (zerobounds.fixtures, ("parse_polynomial",)),
)
KERNELS = (np.linalg, ("eigh", "eigvalsh", "norm"))


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op_id: int
    failed: bool = False


class Tracer:
    """Collects spans and kernel counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.lapack_calls = 0
        self.lapack_n3 = 0
        self.iterations = 0

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op_id))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except NoConvergenceError:
                self.spans[index].failed = True
                raise
            finally:
                self.close(index)
            if name == "find_roots":
                self.iterations += result.iterations
            return result

        traced.traced_by_benchmark = True
        return traced

    def _kernel_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            if name == "norm":
                ord_ = args[0] if args else kwargs.get("ord")
                if ord_ != 2 or len(shape) != 2:
                    return fn(a, *args, **kwargs)
                m, k = shape
                n3 = m * k * min(m, k)
            else:
                n3 = int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            self.lapack_calls += 1
            self.lapack_n3 += n3
            return fn(a, *args, **kwargs)

        counted.traced_by_benchmark = True
        return counted

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module, names in TARGETS:
            for name in names:
                original = getattr(module, name)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._span_wrapper(name, original)
                self._replace(module, name, wrappers[id(original)])
        module, names = KERNELS
        for name in names:
            self._replace(module, name, self._kernel_wrapper(name, getattr(module, name)))

    def _replace(self, module, name: str, wrapper) -> None:
        self._originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per layer metric: a span's duration minus the part
        its child spans cover."""
        child_time = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for span, children in zip(self.spans, child_time):
            totals[LAYER_OF[span.name]] += (span.end - span.start - children) / 1e6
        return totals

    def count(self, name: str, failed: bool | None = None) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and (failed is None or s.failed == failed))

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def installed_wrappers() -> list[str]:
    """Names of library or NumPy functions currently replaced by a wrapper."""
    found = []
    for module, names in (*TARGETS, KERNELS):
        for name in names:
            if getattr(getattr(module, name), "traced_by_benchmark", False):
                found.append(f"{module.__name__}.{name}")
    return found
