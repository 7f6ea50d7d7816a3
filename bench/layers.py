"""Spans around the public layer entry points of encloop, for traced samples.

Every wrapped call is a span.  A layer's self time is the duration of its
spans minus the part their child spans cover, so the self times of all
layers plus the orchestrator's own (the root span, `loop.run`) add up to the
wall time of the run.  Spans live in memory only; `report` folds them into
per-layer totals when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from fractions import Fraction

ROOT = "loop.run"

# (layer, class in encloop.loop, methods).  One party may own several
# methods: they all count towards the party's self time and call count.
PARTY_METHODS = [
    ("loop.plant.step", "PlantSim", ("step",)),
    ("loop.plant.output", "PlantSim", ("output",)),
    ("loop.sensor.step", "MainSensor", ("step",)),
    ("loop.provider.step", "RefProvider", ("step",)),
    ("loop.actuator.step", "MainActuator", ("step",)),
    ("loop.actuator.step", "PrelimActuator", ("step",)),
    ("loop.controller.step", "MainEncController", ("bootstrap", "step")),
    ("loop.controller.step", "PrelimEncController", ("bootstrap", "step")),
    ("loop.shadow.step", "MainIntegerShadow", ("bootstrap", "step", "increments", "y_o")),
    ("loop.shadow.step", "PrelimIntegerShadow", ("bootstrap", "step")),
    ("loop.ideal.step", "IdealLoop", ("step",)),
]
# (layer, module attribute holding the function).  `loop` imports
# centered_mod_recover's and quantize_vector's names, so those are patched
# where `loop` looks them up.
LOOP_FUNCTIONS = [
    ("loop.centered_mod_recover", "centered_mod_recover"),
    ("quantizer.quantize_vector", "quantize_vector"),
]
HE_OPS = ("keygen", "encrypt", "decrypt", "add", "plain_matmul")


def rational_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    bits = 0
    for x in values:
        x = Fraction(x)
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self, he):
        self.he = he
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stack = []              # [layer, seconds covered by children]
        self.step_ends = []          # clock after each plant step
        self.keygen_end = None
        self.headroom = []           # min noise headroom of each controller emission
        self.plant = None
        self.actuator = None
        self.missing = []

    def wrap(self, layer, fn, after=None):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[1]
                self_s[layer] += own
                calls[layer] += 1
                if layer == "he.decrypt" and parent == ROOT:
                    # the orchestrator's own decryptions are its oracle checks
                    self_s["loop.oracle"] += own
                    calls["loop.oracle"] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return span

    def install(self, loop):
        """Wrap the layer entry points in place; returns the wrapped runners."""
        he = self.he
        hooks = {
            "loop.plant.step": self._after_plant_step,
            "loop.actuator.step": self._after_actuator_step,
            "loop.controller.step": self._after_controller,
        }
        for layer, cls_name, methods in PARTY_METHODS:
            cls = getattr(loop, cls_name, None)
            for name in methods:
                fn = getattr(cls, name, None) if cls is not None else None
                if fn is None:
                    self.missing.append(f"loop.{cls_name}.{name}")
                    continue
                setattr(cls, name, self.wrap(layer, fn, hooks.get(layer)))
        for layer, name in LOOP_FUNCTIONS:
            self._patch(loop, name, layer)
        for op in HE_OPS:
            after = self._after_keygen if op == "keygen" else None
            self._patch(he, op, "he." + op, after)
        return {name: self.wrap(ROOT, getattr(loop, name))
                for name in ("run_closed_loop_main", "run_closed_loop_prelim")}

    def _patch(self, module, name, layer, after=None):
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        setattr(module, name, self.wrap(layer, fn, after))

    def _after_keygen(self, args, result):
        self.keygen_end = time.perf_counter()

    def _after_plant_step(self, args, result):
        self.step_ends.append(time.perf_counter())
        self.plant = args[0]

    def _after_actuator_step(self, args, result):
        self.actuator = args[0]

    def _after_controller(self, args, result):
        cts = result if isinstance(result, tuple) else (result,)
        reports = [self.he.noise_report(ct) for ct in cts
                   if isinstance(ct, self.he.Ciphertext)]
        if reports:
            self.headroom.append(min(r.headroom_log2 for r in reports))

    def step_ms_deciles(self) -> list:
        """Mean ms per step in each tenth of the completed steps."""
        if self.keygen_end is None or len(self.step_ends) < 10:
            return [0.0] * 10
        bounds = [self.keygen_end] + self.step_ends
        per_step = [b - a for a, b in zip(bounds, bounds[1:])]
        n = len(per_step)
        out = []
        for k in range(10):
            part = per_step[k * n // 10:(k + 1) * n // 10]
            out.append(1000.0 * sum(part) / len(part))
        return out

    def state_bits(self):
        plant = rational_bits(self.plant.x) if self.plant is not None else 0
        actuator = 0
        if self.actuator is not None:
            # main route keeps u_tilde as `ut`, the prelim one as `prior`
            ut = getattr(self.actuator, "ut", None)
            actuator = rational_bits(ut if ut is not None else self.actuator.prior)
        return plant, actuator

    def noise(self):
        """(minimum headroom, headroom lost per step) in bits; 0 without noise."""
        finite = [h for h in self.headroom if h != float("inf")]
        if not finite:
            return 0.0, 0.0
        growth = (finite[0] - finite[-1]) / (len(finite) - 1) if len(finite) > 1 else 0.0
        return min(finite), growth
