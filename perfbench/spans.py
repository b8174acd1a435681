"""In-memory span tracing of zittersim's layers, from outside the package.

``Tracer.install`` replaces each layer's public functions at the module
attributes through which callers reach them (the names ``cli``,
``verification`` and ``simulate`` bind, and the ``kinematics``/``entropy``
module functions) with wrappers that record a span: name, start, end, parent
span and command id.  ``uninstall`` puts the originals back.  A call into a
layer from inside the same span name is passed through unrecorded, so
``kinematics.calls`` counts entries into the layer, not its internal calls.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import Counter
from typing import Callable, Iterable

import checks

NO_PARENT = -1


class Span(list):
    """[id, parent, command, name, start_ns, end_ns]"""

    __slots__ = ()

    @property
    def duration_ns(self) -> int:
        return self[5] - self[4]


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name of each span's duration minus the time its
    child spans cover.  Spans of one thread never overlap their siblings, so
    the covered time is the sum of the children's durations."""
    spans = list(spans)
    child_ns: Counter = Counter()
    for s in spans:
        if s[1] != NO_PARENT:
            child_ns[s[1]] += s.duration_ns
    out: Counter = Counter()
    for s in spans:
        out[s[3]] += (s.duration_ns - child_ns[s[0]]) / 1e9
    return dict(out)


class Tracer:
    """Spans and counters of one traced replay.  The package calls every
    wrapped function with positional arguments, which the counters rely on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._paths: dict[int, tuple[weakref.ref, object]] = {}
        self._se_ratios: list[float] = []
        self._zitter_error: type = Exception

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None,
             span_name: Callable | None = None) -> Callable:
        layer = name.split(".")[0]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            this = span_name(args, kwargs) if span_name else name
            if stack and stack[-1][3] == this:
                return fn(*args, **kwargs)
            span = Span((len(spans), stack[-1][0] if stack else NO_PARENT, self.command, this, 0, 0))
            spans.append(span)
            stack.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except self._zitter_error:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def run_command(self, command: int, fn: Callable, *args):
        """Run one CLI command under a root ``cli`` span."""
        self.command = command
        self._paths.clear()
        return self.wrap("cli", fn)(*args)

    # -- counters ------------------------------------------------------------

    def _on_generate(self, args, kwargs, path) -> None:
        cfg = args[0]
        self.counts[f"simulate.{cfg.dynamics}.ticks"] += cfg.ticks
        self._paths[id(path)] = (weakref.ref(path), cfg)

    def _on_estimate(self, args, kwargs, estimate) -> None:
        path = args[0]
        ref, cfg = self._paths.get(id(path), (None, None))
        if ref is not None and ref() is path and cfg.dynamics == "telegraph":
            exact = checks.telegraph_std_error(cfg.beta, cfg.ticks, cfg.flip_probabilities)
            self._se_ratios.append(estimate.std_error / exact)

    def _on_observe(self, args, kwargs, obs) -> None:
        self.counts["simulate.observe.ticks"] += obs.ticks_total
        self.counts["simulate.observe.retained"] += obs.estimate.n

    def _on_write_csv(self, args, kwargs, result) -> None:
        path, stream = args
        self.counts["simulate.csv.rows"] += len(path)
        self.counts["simulate.csv.bytes"] += stream.tell()

    def _on_verify(self, args, kwargs, report) -> None:
        self.counts["verification.checks"] += len(report.checks)
        self.counts["verification.failed"] += sum(not c.passed for c in report.checks)

    def se_ratio(self) -> float:
        """Median reported/exact telegraph standard error; 0 when no
        telegraph path was reduced."""
        return statistics.median(self._se_ratios) if self._se_ratios else 0.0

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from zittersim import cli, entropy, kinematics, scales, simulate, verification
        from zittersim.errors import ZitterError

        self._zitter_error = ZitterError
        for module, layer in ((kinematics, "kinematics"), (entropy, "entropy")):
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    self._patch(module, name, self.wrap(layer, fn))

        dynamics = lambda args, kwargs: f"simulate.{args[0].dynamics}"
        simulate_wrappers = {
            "generate_path": self.wrap("simulate", simulate.generate_path, self._on_generate, dynamics),
            "estimate_drift": self.wrap("simulate.reduce", simulate.estimate_drift, self._on_estimate),
            "observe_from_moving_frame": self.wrap(
                "simulate.observe", simulate.observe_from_moving_frame, self._on_observe),
            "run_ensemble": self.wrap("simulate.ensemble", simulate.run_ensemble),
            "write_path_csv": self.wrap("simulate.csv", simulate.write_path_csv, self._on_write_csv),
        }
        scales_wrappers = {
            "particle_mass": self.wrap("scales", scales.particle_mass),
            "scale_for_particle": self.wrap("scales", scales.scale_for_particle),
        }
        verify_wrapper = {
            "run_verification": self.wrap("verification", verification.run_verification, self._on_verify),
        }
        for module in (cli, verification, simulate):
            for name, wrapper in {**simulate_wrappers, **scales_wrappers, **verify_wrapper}.items():
                if name in module.__dict__:
                    self._patch(module, name, wrapper)
        from_mass = scales.ParticleScale.__dict__["from_mass"].__func__
        self._patch(scales.ParticleScale, "from_mass", classmethod(self.wrap("scales", from_mass)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span], counts: Counter, se_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced round, before import and overhead."""
    own = self_times(spans)
    calls = Counter(s[3] for s in spans)
    retained = counts.get("simulate.observe.retained", 0)
    observed = counts.get("simulate.observe.ticks", 0)
    out = {
        "cli.self_s": own.get("cli", 0.0),
        "kinematics.self_s": own.get("kinematics", 0.0),
        "kinematics.calls": calls["kinematics"],
        "entropy.self_s": own.get("entropy", 0.0),
        "entropy.calls": calls["entropy"],
        "scales.self_s": own.get("scales", 0.0),
        "simulate.iid.self_s": own.get("simulate.iid", 0.0),
        "simulate.iid.ticks": counts.get("simulate.iid.ticks", 0),
        "simulate.reduce.self_s": own.get("simulate.reduce", 0.0),
        "simulate.observe.self_s": own.get("simulate.observe", 0.0),
        "simulate.observe.ticks": observed,
        "simulate.observe.acceptance": retained / observed if observed else 0.0,
        "simulate.telegraph.self_s": own.get("simulate.telegraph", 0.0),
        "simulate.telegraph.ticks": counts.get("simulate.telegraph.ticks", 0),
        "simulate.telegraph.se_ratio": se_ratio,
        "simulate.ensemble.self_s": own.get("simulate.ensemble", 0.0),
        "simulate.csv.self_s": own.get("simulate.csv", 0.0),
        "simulate.csv.rows": counts.get("simulate.csv.rows", 0),
        "simulate.csv.bytes": counts.get("simulate.csv.bytes", 0),
        "verification.self_s": own.get("verification", 0.0),
        "verification.checks": counts.get("verification.checks", 0),
        "verification.failed": counts.get("verification.failed", 0),
    }
    for layer in ("cli", "kinematics", "entropy", "scales", "simulate", "verification"):
        out[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    return out
