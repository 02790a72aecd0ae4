"""In-memory span tracer that wraps sismob's public functions from outside.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``sismob`` module that binds it (``cli``, ``scenario`` and
``equilibria`` import several of them by name), and ``restore`` puts the
originals back.  Each call records a span: layer, start, end and parent
span.  A layer's self time is the sum of its spans' durations minus the
time covered by their child spans, so the self times of all layers plus
the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (sismob module, functions whose self time the layer gets)
LAYERS = {
    "scenario.parse": ("scenario", ("load_scenario", "parse_scenario", "initial_state")),
    "network.layer_build": ("network", ("preset_layer", "equal_exit_layer",
                                        "layer_from_edge_rates",
                                        "metropolis_hastings_rates")),
    "network.validate": ("network", ("validate_layer",)),
    "network.stationary": ("network", ("stationary_distribution", "network_stationary")),
    "graphs.connectivity": ("graphs", ("is_strongly_connected", "edges_of_matrix",
                                       "strongly_connected_components")),
    "spectral.abscissa": ("spectral", ("spectral_abscissa",)),
    "spectral.radius": ("spectral", ("spectral_radius",)),
    "equilibria.matrices": ("equilibria", ("equilibrium_matrices",)),
    "equilibria.endemic": ("equilibria", ("endemic_fixed_point", "apply_infection_map")),
    "equilibria.conditions": ("equilibria", ("stability_conditions",)),
    "equilibria.margin": ("equilibria", ("margin_recovery_rates",)),
    "equilibria.classify": ("equilibria", ("classify",)),
    "dynamics.assemble": ("dynamics", ("assemble",)),
    "dynamics.integrate": ("dynamics", ("integrate",)),
    "dynamics.csv_write": ("dynamics", ("write_trajectory_csv",)),
    "stochastic.simulate": ("stochastic", ("simulate",)),
    "stochastic.csv_write": ("stochastic", ("write_stochastic_csv",)),
    "cli.self": ("cli", ("main",)),
}

# layers whose entries are counted (a call from inside the same layer is
# not counted again, so load_scenario -> parse_scenario counts once)
COUNTED = ("scenario.parse", "network.validate", "network.stationary",
           "graphs.connectivity")


def _steps(layer: str, result) -> tuple:
    """Work counts read from a layer's return value."""
    if layer == "spectral.abscissa":
        return "spectral.abscissa_iters", result.iterations
    if layer == "spectral.radius":
        return "spectral.radius_iters", result.iterations
    if layer == "dynamics.integrate":
        return "dynamics.rk4_steps", int(round((result.t[-1] - result.t[0]) / result.dt))
    if layer == "stochastic.simulate":
        return "stochastic.steps", len(result.t) - 1
    return None, 0


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self.counts = {}
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [layer, clock(), 0.0, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            key, value = _steps(layer, result)
            if key:
                counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "sismob" or name.startswith("sismob.")]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"sismob.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset,
        for one pass that took ``wall`` seconds."""
        spans = self.spans
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(COUNTED, 0)
        for layer, start, end, parent in spans:
            self_s[layer] += end - start
            if parent >= 0:
                self_s[spans[parent][0]] -= end - start
            if layer in calls and (parent < 0 or spans[parent][0] != layer):
                calls[layer] += 1
        out = {f"{layer}_s": value for layer, value in self_s.items()}
        out.update({f"{layer}_calls": value for layer, value in calls.items()})
        for key in ("spectral.abscissa_iters", "spectral.radius_iters",
                    "dynamics.rk4_steps", "stochastic.steps"):
            out[key] = self.counts.get(key, 0)
        out["trace.unattributed_s"] = wall - sum(self_s.values())
        out["trace.wall_s"] = wall
        return out
