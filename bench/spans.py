"""Spans around the public entry points of each layer, installed from outside.

`Tracer.install` replaces every binding of a wrapped function: the
attribute on its defining module and every `from x import f` copy in the
`mcnls.*` modules, so calls made through either name are seen.
`uninstall` restores the originals.  Spans stay in memory: one list of
[layer, name, parent, start, end, active_layers, note] per call, where
`active_layers` is the bitmask of layers already open when the call began.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# layer -> (defining module, public entry points)
LAYERS = {
    "grid": [("numpy.fft", FFT_NAMES), ("scipy.fft", FFT_NAMES)],
    "evolution": [("mcnls.evolution", ("evolve", "step_strang"))],
    "observables": [("mcnls.observables", ("quad_weight", "mass", "kinetic", "potential",
                                           "energy", "momentum_density", "momentum",
                                           "variance", "variance_rate"))],
    "ground_state": [("mcnls.ground_state", ("closed_form_1d", "solve_petviashvili"))],
    "morawetz": [("mcnls.morawetz", ("build_weights", "interaction_flux"))],
    # the convolution the flux is built from, as bound inside mcnls.morawetz
    "morawetz.conv": [("mcnls.morawetz", ("fftconvolve",))],
}
BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}

LAYER, NAME, PARENT, START, END, ACTIVE, NOTE = range(7)


def _fft_bytes(args, out) -> int:
    # computed from array sizes, not measured traffic
    return getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)


def _evolve_counts(args, out):
    series, cfg = out[0], args[1]
    return len(series.t), int(round(series.t[-1] / cfg.dt))


NOTES = {"grid": _fft_bytes, "mcnls.evolution.evolve": _evolve_counts}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = 0
        self._patches = []

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, layer: str, name: str, fn):
        bit = BIT[layer]
        note = NOTES.get(name) or NOTES.get(layer)
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._active
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, outer, None]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            tracer._active = outer | bit
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._active = outer
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        return traced

    def install(self) -> "Tracer":
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == "mcnls" or k.startswith("mcnls."))]
        for layer, targets in LAYERS.items():
            for modname, names in targets:
                mod = importlib.import_module(modname)
                for name in names:
                    orig = getattr(mod, name, None)
                    if orig is None:
                        continue
                    wrapped = self._wrap(layer, f"{modname}.{name}", orig)
                    for ns in {id(m): m for m in [mod, *namespaces]}.values():
                        for attr, val in list(vars(ns).items()):
                            if val is orig:
                                self._patches.append((ns, attr, orig))
                                setattr(ns, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def outer(self, layer: str, name: str = None) -> list:
        """Spans of `layer` (optionally one entry point) not nested in the same layer."""
        bit = BIT[layer]
        return [s for s in self.spans if s[LAYER] == layer and not s[ACTIVE] & bit
                and (name is None or s[NAME] == name)]

    def within(self, layer: str, inside: str) -> list:
        """Outermost spans of `layer` made while a span of `inside` was open."""
        bit = BIT[inside]
        return [s for s in self.outer(layer) if s[ACTIVE] & bit]


def total_s(spans) -> float:
    return sum(s[END] - s[START] for s in spans)
