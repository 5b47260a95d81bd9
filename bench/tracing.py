"""Span tracing of the package's layers from outside, for the traced run only.

``Tracer.install`` rebinds, in every module of the package, each name
bound to one of the layer functions below (plus ``Component.channel``)
to a wrapper that records a span (name, start, end, parent) while a root
span is open.  Spans are held in memory; ``summary`` turns them into
per-instance self times and counts.  A function that recurses through its
own rebound name (``serialize.dumps``) records only the outermost call.
"""

import functools
import time
from collections import defaultdict

from lindbladsim import cli, decompose, lindblad, numerics, serialize, sud, trotter

MODULES = (numerics, sud, lindblad, decompose, trotter, serialize, cli)
ROOT = "call"

LAYERS = {
    numerics.expm: "numerics.expm",
    sud.adjoint_matrix: "sud.adjoint_matrix",
    lindblad.one_one_norm: "lindblad.one_one_norm",
    lindblad.apply_exact: "lindblad.apply_exact",
    decompose.decompose_generator: "decompose.decompose_generator",
    decompose.spectral_split: "decompose.spectral_split",
    decompose.decompose_term: "decompose.decompose_term",
    decompose.verify_plan: "decompose.verify_plan",
    trotter.prepare_components: "trotter.prepare_components",
    trotter.build_plan: "trotter.build_plan",
    trotter.block_superoperator: "trotter.block_superoperator",
    trotter.run_plan: "trotter.run_plan",
    serialize.parse_generator: "serialize.parse",
    serialize.parse_state: "serialize.parse",
    serialize.dumps: "serialize.dumps",
    cli.cmd_validate: "cli.validate",
    cli.cmd_decompose: "cli.decompose",
    cli.cmd_simulate: "cli.simulate",
    cli.cmd_cost: "cli.cost",
}
CHANNEL = "trotter.Component.channel"

# counts taken at a span: name -> (counter, f(args, result))
COUNTERS = {
    "trotter.block_superoperator": ("trotter.block.segments", lambda a, r: len(a[0].schedule)),
    "serialize.dumps": ("serialize.bytes_out", lambda a, r: len(r)),
}


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0)


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _count(name):
    return lambda s: s["counts"].get(name, 0)


def _reuse(s):
    channels = s["calls"].get(CHANNEL, 0)
    return s["counts"].get("trotter.block.segments", 0) / channels if channels else 0.0


# per-layer metric -> value from a summary; units are in BENCHMARK.json
PER_LAYER = {
    "lindblad.one_one_norm_s": _self("lindblad.one_one_norm"),
    "lindblad.one_one_norm.calls": _calls("lindblad.one_one_norm"),
    "trotter.prepare_components_s": _self("trotter.prepare_components"),
    "trotter.build_plan_s": _self("trotter.build_plan"),
    "trotter.block_superoperator_s": _self("trotter.block_superoperator"),
    "trotter.component_channel_s": _self(CHANNEL),
    "trotter.block.segments": _count("trotter.block.segments"),
    "trotter.block.channels": _calls(CHANNEL),
    "trotter.block.channel_reuse": _reuse,
    "trotter.run_plan_s": _self("trotter.run_plan"),
    "numerics.expm_s": _self("numerics.expm"),
    "numerics.expm.calls": _calls("numerics.expm"),
    "decompose.decompose_generator_s": _self("decompose.decompose_generator"),
    "decompose.spectral_split_s": _self("decompose.spectral_split"),
    "decompose.decompose_term_s": _self("decompose.decompose_term"),
    "decompose.decompose_term.calls": _calls("decompose.decompose_term"),
    "decompose.verify_plan_s": _self("decompose.verify_plan"),
    "sud.adjoint_matrix_s": _self("sud.adjoint_matrix"),
    "lindblad.apply_exact_s": _self("lindblad.apply_exact"),
    "serialize.parse_s": _self("serialize.parse"),
    "serialize.dumps_s": _self("serialize.dumps"),
    "serialize.bytes_out": _count("serialize.bytes_out"),
    "cli.validate_s": _self("cli.validate"),
    "cli.decompose_s": _self("cli.decompose"),
    "cli.simulate_s": _self("cli.simulate"),
    "cli.cost_s": _self("cli.cost"),
    "call.self_s": _self(ROOT),  # time in the call outside every traced layer
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def install(self):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in LAYERS:
                    self._rebind(mod, attr, self._wrap(value, LAYERS[value]))
        channel = trotter.Component.channel
        self._rebind(trotter.Component, "channel", self._wrap(channel, CHANNEL))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _rebind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack or self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the root span (no parent) opens recording."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end
        if name in COUNTERS:
            counter, f = COUNTERS[name]
            self.counts[counter] += f(args, result)
        return result

    def summary(self) -> dict:
        """Per-root-span (per-instance) self time, call counts and counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        roots = max(calls[ROOT], 1)
        return {
            "roots": calls[ROOT],
            "self_s": {k: v / roots for k, v in self_s.items()},
            "calls": {k: v / roots for k, v in calls.items()},
            "counts": {k: v / roots for k, v in self.counts.items()},
        }

