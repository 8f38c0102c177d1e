"""Span recording around the public functions of the cmrf layers.

While a :class:`Tracer` is recording, every public function of
``simplicial``, ``model``, ``independence``, ``diffusion`` and ``cli`` is
replaced, in every cmrf namespace that binds it, by a wrapper that
records a span: id, parent span, root span, function name, the namespace
the call went through (``via``), an optional tag, phase, start and end.
``diffusion`` imports ``build_precision`` by name and ``independence``
imports ``covariance`` by name, so those calls are caught through the
importing module's namespace and carry it as ``via``.

``atc_round`` and ``generate_round`` run thousands of times per simulate
command; they are aggregated per (parent span, name, via, shape) instead
of being recorded once per call.  A span's self time is its duration
minus the time of the spans and aggregated calls directly under it.
The program itself is not changed; leaving the context restores every
binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("simplicial", "model", "independence", "diffusion", "cli")

# Dictionary lookup called inside every atc_round; a span per call would
# cost more than the call and would flood the aggregate of its parent.
UNWRAPPED = frozenset({"diffusion.get_variant"})


def _atc_shape(args, kwargs):
    regressors = args[1] if len(args) > 1 else kwargs["regressors"]
    variant = args[6] if len(args) > 6 else kwargs["variant"]
    return (*regressors.shape, variant if isinstance(variant, str) else variant.name)


AGGREGATED = {
    "diffusion.atc_round": _atc_shape,
    "diffusion.generate_round": lambda args, kwargs: None,
}


def _cli_subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    words = [a for a in (argv or ()) if not a.startswith("-")]
    if words[:1] in (["complex"], ["model"]):
        return "_".join(words[:2])
    return words[0] if words else None


def _matrix_order(args, kwargs):
    prec = args[0] if args else kwargs["prec"]
    return prec.num_edges


TAGS = {
    "cli.main": _cli_subcommand,
    "model.covariance": _matrix_order,
}


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    via: str
    tag: object
    phase: str
    start: float
    end: float
    self_s: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    parent: int | None
    name: str
    via: str
    shape: object
    phase: str
    calls: int = 0
    seconds: float = 0.0


class Tracer:
    """Records spans while :meth:`recording` is active."""

    def __init__(self):
        import cmrf
        from cmrf import cli, diffusion, independence, model, simplicial

        modules = {"simplicial": simplicial, "model": model,
                   "independence": independence, "diffusion": diffusion, "cli": cli}
        self._namespaces = {"cmrf": cmrf, **modules}
        # id(function) -> qualified name, for public functions of each layer
        self._targets = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and name not in UNWRAPPED:
                    self._targets[id(fn)] = name
        self.spans: list[Span] = []
        self.aggregates: dict[tuple, Aggregate] = {}
        self._stack: list[list] = []  # [span id, root id, child seconds]
        self._next_id = 0
        self._phase = ""

    @contextmanager
    def recording(self, phase: str):
        """Install the wrappers for the duration of the block."""
        self._phase = phase
        patched = []
        try:
            for via, ns in self._namespaces.items():
                for attr, value in list(vars(ns).items()):
                    name = self._targets.get(id(value))
                    if name is not None:
                        setattr(ns, attr, self._wrap(value, name, via))
                        patched.append((ns, attr, value))
            yield self
        finally:
            for ns, attr, value in patched:
                setattr(ns, attr, value)

    def _wrap(self, fn, name, via):
        if name in AGGREGATED:
            return self._wrap_aggregated(fn, name, via, AGGREGATED[name])
        tag_of = TAGS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0.0]
            tag = tag_of(args, kwargs) if tag_of else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent:
                    parent[2] += duration
                spans.append(Span(sid, parent[0] if parent else None, frame[1],
                                  name, via, tag, self._phase, start, end,
                                  duration - frame[2]))

        return wrapper

    def _wrap_aggregated(self, fn, name, via, shape_of):
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                parent = stack[-1] if stack else None
                if parent:
                    parent[2] += duration
                key = (parent[0] if parent else None, name, via, shape_of(args, kwargs))
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = Aggregate(key[0], name, via, key[3], self._phase)
                agg.calls += 1
                agg.seconds += duration

        return wrapper

    def write(self, path: Path) -> None:
        """Write spans and aggregates as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({"span": asdict(span)}) + "\n")
            for agg in self.aggregates.values():
                out.write(json.dumps({"aggregate": asdict(agg)}) + "\n")
