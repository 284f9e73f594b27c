"""Span tracer installed from outside the program.

The tracer rebinds each traced public function in every module namespace
that holds it (and the one traced method on its class), so calls made
from inside the package are seen as well as calls made by the benchmark.
Spans (name, start, end, parent span, case id, self time) are kept in
memory and written out once, at the end of a pass.

Self time is a span's duration minus the duration of its child spans.
For ``tanh_sinh`` the integrand passed in is wrapped as well: the time
spent inside it is booked on one synthetic child span per call, named
``quadrature.tanh_sinh.integrand``, so ``tanh_sinh`` self time is node
generation plus summation only.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

CASE = "case"
INTEGRAND = "quadrature.tanh_sinh.integrand"
HYP_PFQ_CLASSES = ("terminating", "disk", "minus_one", "unit")

# (module, attribute path, span name); hyp_pfq spans are named per strategy
TRACED = (
    ("legmellin.criticality", "find_roots", "criticality.find_roots"),
    ("legmellin.criticality", "critical_line_report",
     "criticality.critical_line_report"),
    ("legmellin.quadrature", "tanh_sinh", "quadrature.tanh_sinh"),
    ("legmellin.specfun", "hyp_pfq", "specfun.hyp_pfq"),
    ("legmellin.specfun", "ferrers", "specfun.ferrers"),
    ("legmellin.mellin", "poly_factor", "mellin.poly_factor"),
    ("legmellin.mellin", "mellin_closed", "mellin.mellin_closed"),
    ("legmellin.mellin", "mellin_recursion_reference",
     "mellin.mellin_recursion_reference"),
    ("legmellin.mellin", "genfun", "mellin.genfun"),
    ("legmellin.mellin", "mellin_rep", "mellin.mellin_rep"),
    ("legmellin.mellin", "mellin_quadrature", "mellin.mellin_quadrature"),
    ("legmellin.mpcore", "RationalPolynomial.eval_mpc",
     "mpcore.RationalPolynomial.eval_mpc"),
    ("legmellin.fracpart", "numeric_fracpart_oracle",
     "fracpart.numeric_fracpart_oracle"),
    ("legmellin.fracpart", "pair_integral_quadrature",
     "fracpart.pair_integral_quadrature"),
    ("legmellin.fracpart", "frac_weight_quadrature",
     "fracpart.frac_weight_quadrature"),
    ("legmellin.fracpart", "fermi_bose_transform", "fracpart.fermi_bose_transform"),
    ("legmellin.fracpart", "frac_pair_integral", "fracpart.frac_pair_integral"),
    ("legmellin.fracpart", "frac_int_moments", "fracpart.frac_int_moments"),
    ("legmellin.cli", "run_command", "cli.run_command"),
)


class TracerError(RuntimeError):
    """The tracer could not observe what it was asked to observe."""


class _Frame:
    __slots__ = ("span_id", "name", "parent", "case", "start", "child",
                 "extra")

    def __init__(self, span_id, name, parent, case, start):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.case = case
        self.start = start
        self.child = 0.0
        self.extra = None


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    case: str
    start: float
    end: float
    self_s: float
    extra: Optional[dict] = field(default=None)

    @property
    def duration(self) -> float:
        return self.end - self.start


def hyp_pfq_class(spec) -> str:
    """Strategy class of a pFq request, read from the spec itself."""
    if spec.termination_index is not None:
        return "terminating"
    z = spec.argument
    if hasattr(z, "to_mpc"):
        z = z.to_mpc()
    elif hasattr(z, "re") and hasattr(z, "im"):  # GaussianRational
        z = complex(z.re, z.im)
    if z == 1:
        return "unit"
    if z == -1:
        return "minus_one"
    if abs(complex(z)) < 1:
        return "disk"
    return "other"


class Tracer:
    """Collects spans while installed; one tracer serves one pass."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._case = ""
        self._originals: Dict[str, Callable] = {}
        self._restore: List[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(self._next_id, name, parent, self._case, _clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, extra_child: float = 0.0) -> Span:
        end = _clock()
        top = self._stack.pop()
        if top is not frame:
            raise TracerError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        span = Span(frame.span_id, frame.name, frame.parent, frame.case,
                    frame.start, end, duration - frame.child - extra_child,
                    frame.extra)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def case(self, case_id: str):
        """Root span of one case; nested layer spans carry its id."""
        if self._stack:
            raise TracerError("a case started inside another span")
        self._case = case_id
        frame = self._enter(CASE)
        try:
            yield
        finally:
            self._exit(frame)
            self._case = ""

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _find_roots(self, name: str, fn: Callable) -> Callable:
        def traced(p, *args, **kwargs):
            frame = self._enter(name)
            frame.extra = {"degree": p.degree}
            try:
                return fn(p, *args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _hyp_pfq(self, name: str, fn: Callable) -> Callable:
        def traced(spec, *args, **kwargs):
            frame = self._enter(f"{name}.{hyp_pfq_class(spec)}")
            try:
                return fn(spec, *args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _tanh_sinh(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(f, *args, **kwargs):
            frame = tracer._enter(name)
            inner = _Frame(tracer._next_id, INTEGRAND, frame.span_id,
                           frame.case, frame.start)
            tracer._next_id += 1
            inside = [0.0]

            def integrand(*fargs, **fkwargs):
                tracer._stack.append(inner)
                started = _clock()
                try:
                    return f(*fargs, **fkwargs)
                finally:
                    inside[0] += _clock() - started
                    if tracer._stack.pop() is not inner:
                        raise TracerError("integrand span closed out of order")

            result = None
            try:
                result = fn(integrand, *args, **kwargs)
                return result
            finally:
                frame.extra = {
                    "integrand_s": inside[0],
                    "nodes": getattr(result, "nodes_used", 0),
                    "levels": getattr(result, "levels_used", 0),
                }
                span = tracer._exit(frame, extra_child=inside[0])
                tracer.spans.append(Span(
                    inner.span_id, INTEGRAND, span.span_id, span.case,
                    span.start, span.end, inside[0] - inner.child))
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a module holds it."""
        import legmellin  # noqa: F401  (loads every submodule)

        makers = {
            "specfun.hyp_pfq": self._hyp_pfq,
            "quadrature.tanh_sinh": self._tanh_sinh,
            "criticality.find_roots": self._find_roots,
        }
        wrappers = {}
        for module_name, path, name in TRACED:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            self._originals[name] = original
            wrappers[id(original)] = makers.get(name, self._plain)(name, original)
            if owner_name:  # a method: its class is the one holder
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrappers.pop(id(original)))
        for holder, key, value in _namespace_items():
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                self._restore.append((holder, key, value))
                setattr(holder, key, wrapper)
        self.check_rebound()

    def check_rebound(self) -> None:
        """Fail if any namespace still holds an untraced original."""
        originals = {id(fn) for fn in self._originals.values()}
        missed = [f"{getattr(holder, '__name__', holder)}.{key}"
                  for holder, key, value in _namespace_items()
                  if id(value) in originals]
        if missed:
            raise TracerError("not rebound: " + ", ".join(sorted(missed)))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- checks and output ------------------------------------------------

    def check_case_sums(self, tolerance_s: float = 1e-6) -> None:
        """Each case's span self times must add up to its traced duration."""
        totals: Dict[str, float] = {}
        roots: Dict[str, float] = {}
        for span in self.spans:
            totals[span.case] = totals.get(span.case, 0.0) + span.self_s
            if span.name == CASE:
                roots[span.case] = span.duration
        for case_id, duration in roots.items():
            gap = abs(totals[case_id] - duration)
            if gap > tolerance_s + 1e-9 * duration:
                raise TracerError(
                    f"case {case_id}: span self times sum to "
                    f"{totals[case_id]:.9f} s, traced duration {duration:.9f} s")
        stray = sorted(set(totals) - set(roots))
        if stray:
            raise TracerError(f"spans outside any case: {stray[:5]}")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "parent": span.parent, "case": span.case,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s, **(span.extra or {}),
                }) + "\n")


def _namespace_items():
    """(holder, name, value) for every module attribute, plus the
    attributes of the classes the traced methods live on."""
    holders = [m for m in list(sys.modules.values())
               if getattr(m, "__dict__", None)]
    for module_name, path, _ in TRACED:
        owner_name = path.rpartition(".")[0]
        if owner_name:
            holders.append(getattr(sys.modules[module_name], owner_name))
    for holder in holders:
        for key, value in list(vars(holder).items()):
            yield holder, key, value


def layer_totals(spans: List[Span], probe_cases=frozenset()) -> Dict[str, float]:
    """Per-layer counts and self times of one pass, keyed by metric name."""
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for span in spans:
        if span.name in (CASE, INTEGRAND):
            continue
        if span.case in probe_cases:
            if span.name == "cli.run_command":
                add("cli.run_command.probe_s", span.duration)
            continue
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", span.self_s)
        extra = span.extra or {}
        if "degree" in extra:
            add(f"{span.name}.degree_sum", extra["degree"])
        if "integrand_s" in extra:
            add(f"{span.name}.integrand_s", extra["integrand_s"])
            add(f"{span.name}.nodes", extra["nodes"])
            add(f"{span.name}.levels", extra["levels"])
    return out


def layer_metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [("criticality.find_roots.calls", "count"),
             ("criticality.find_roots.self_s", "s"),
             ("criticality.find_roots.degree_sum", "count"),
             ("criticality.critical_line_report.calls", "count"),
             ("criticality.critical_line_report.self_s", "s")]
    names += [(f"quadrature.tanh_sinh.{key}", unit) for key, unit in (
        ("calls", "count"), ("self_s", "s"), ("integrand_s", "s"),
        ("nodes", "count"), ("levels", "count"))]
    for cls in HYP_PFQ_CLASSES:
        names += [(f"specfun.hyp_pfq.{cls}.calls", "count"),
                  (f"specfun.hyp_pfq.{cls}.self_s", "s")]
    plain = ["specfun.ferrers"]
    plain += [f"mellin.{fn}" for fn in (
        "poly_factor", "mellin_closed", "mellin_recursion_reference", "genfun",
        "mellin_rep", "mellin_quadrature")]
    plain += ["mpcore.RationalPolynomial.eval_mpc"]
    plain += [f"fracpart.{fn}" for fn in (
        "numeric_fracpart_oracle", "pair_integral_quadrature",
        "frac_weight_quadrature", "fermi_bose_transform", "frac_pair_integral",
        "frac_int_moments")]
    plain += ["cli.run_command"]
    for layer in plain:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [("cli.run_command.probe_s", "s"), ("trace.overhead_share", "ratio")]
    return names
