"""Declarative scenario documents.

A scenario is a single JSON object describing one experiment: the
mobility layers, epidemic rates, populations, initial conditions, and
run settings.  Loading resolves every default and shorthand (presets,
scalar broadcasts, rate rules) into a fully explicit form, so the
manifest written next to the outputs contains no silent defaults.

Schema (see README for the full grammar)::

    {
      "name": "example",
      "n": 2, "m": 1,
      "layers": [ <layer spec>, ... ],          # m entries
      "beta": 0.3 | [per-node values],
      "delta": 0.1 | [per-node values] | {"rule": "lambda2_sufficient", ...},
      "delta_rule": {...},                      # optional provenance of an explicit delta
      "N": [per-class populations],
      "p0": 0.01 | [nm values],
      "x0": "stationary" | [nm values],
      "t_end": 50.0, "dt": 0.01,
      "sample_every": 1,                        # record every k-th step
      "stochastic": {"enabled": false, "h": 0.01, "seeds": [..]},
      "output_dir": "out"
    }

Layer specs come in three forms::

    {"preset": "complete"|"line"|"ring"|"star", "rate_scale": nu,
     "rates": "equal_exit"|"mh_uniform"}        # rates defaults to equal_exit
    {"edges": [[i, j, rate], ...]}
    {"mh": {"graph": preset, "target": "uniform"|[n values], "rate_scale": nu}}
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import graphs
from .dynamics import ModelSpec, SystemState, step_count
from .equilibria import margin_recovery_rates
from .errors import (MalformedGeneratorError, NotStronglyConnectedError, ScenarioError,
                     StepSizeError)
from .network import (MobilityLayer, MultiLayerNetwork, layer_from_edge_rates,
                      metropolis_hastings_rates, network_stationary, preset_layer)
from .stochastic import _check_step_size

_DEFAULTS = {
    "t_end": 50.0,
    "dt": 0.01,
    "sample_every": 1,
    "p0": 0.01,
    "x0": "stationary",
    "stochastic": {"enabled": False, "h": 0.01, "seeds": [0]},
    "output_dir": "out",
}


@dataclass
class Scenario:
    """A validated scenario plus its fully resolved document."""

    name: str
    spec: ModelSpec
    p0: np.ndarray
    x0: np.ndarray
    t_end: float
    dt: float
    sample_every: int
    stochastic_enabled: bool
    h: float
    seeds: list
    output_dir: str
    resolved: dict   # explicit form of every input, for the manifest


def read_document(path):
    """The raw JSON document of a scenario file, not yet checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file: invalid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(read_document(path))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioError(f"{key}: required field is missing")
    return doc[key]


def _as_positive_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{field}: expected a positive integer, got {value!r}")
    return value


def _as_number(value, field: str) -> float:
    """The one coercion of a scenario number: a finite JSON number
    (booleans, strings and null are rejected)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ScenarioError(f"{field}: expected a finite number, got {value!r}")
    return float(value)


def _as_vector(value, length: int, field: str) -> np.ndarray:
    """A number broadcast to ``length`` entries, or a list of exactly
    ``length`` numbers."""
    if not isinstance(value, list):
        return np.full(length, _as_number(value, field))
    if len(value) != length:
        raise ScenarioError(f"{field}: expected {length} values, got {len(value)}")
    return np.array([_as_number(v, field) for v in value])


def _build_layer(entry, n: int, idx: int) -> MobilityLayer:
    field = f"layers[{idx}]"
    if not isinstance(entry, dict):
        raise ScenarioError(f"{field}: expected an object")
    forms = [k for k in ("preset", "edges", "mh") if k in entry]
    if len(forms) != 1:
        raise ScenarioError(f"{field}: expected exactly one of 'preset', 'edges', 'mh'")
    try:
        if "preset" in entry:
            name = entry["preset"]
            if name not in graphs.PRESET_NAMES:
                raise ScenarioError(f"{field}.preset: unknown preset {name!r}")
            rate_scale = _as_number(entry.get("rate_scale", 1.0), f"{field}.rate_scale")
            rates = entry.get("rates", "equal_exit")
            return preset_layer(name, n, rate_scale, rates=rates)
        if "edges" in entry:
            return layer_from_edge_rates(n, entry["edges"])
        mh = entry["mh"]
        if not isinstance(mh, dict):
            raise ScenarioError(f"{field}.mh: expected an object")
        name = mh.get("graph")
        if name not in graphs.PRESET_NAMES:
            raise ScenarioError(f"{field}.mh.graph: unknown preset {name!r}")
        target = mh.get("target", "uniform")
        if isinstance(target, str):
            if target != "uniform":
                raise ScenarioError(f"{field}.mh.target: expected 'uniform' or a list")
            target = np.full(n, 1.0 / n)
        else:
            target = _as_vector(target, n, f"{field}.mh.target")
        rate_scale = _as_number(mh.get("rate_scale", 1.0), f"{field}.mh.rate_scale")
        return metropolis_hastings_rates(n, graphs.preset_edges(name, n), target,
                                         rate_scale)
    except ScenarioError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    known = {"name", "n", "m", "layers", "beta", "delta", "N", "p0", "x0",
             "t_end", "dt", "sample_every", "stochastic", "output_dir", "delta_rule"}
    for key in doc:
        if key not in known:
            raise ScenarioError(f"{key}: unknown field")

    name = str(_require(doc, "name"))
    n = _as_positive_int(_require(doc, "n"), "n")
    m = _as_positive_int(_require(doc, "m"), "m")

    layers_doc = _require(doc, "layers")
    if not isinstance(layers_doc, list) or len(layers_doc) != m:
        raise ScenarioError(f"layers: expected a list of m={m} layer specs")
    layers = [_build_layer(entry, n, k) for k, entry in enumerate(layers_doc)]
    for k, layer in enumerate(layers):
        try:
            layer.stationary  # validates and certifies the layer once
        except (MalformedGeneratorError, NotStronglyConnectedError) as exc:
            raise ScenarioError(f"layers[{k}]: {exc}") from exc

    N = _as_vector(_require(doc, "N"), m, "N")
    if np.any(N <= 0):
        raise ScenarioError("N: class populations must be positive")
    net = MultiLayerNetwork(layers=tuple(layers), N=N)

    beta = _as_vector(_require(doc, "beta"), n, "beta")
    if np.any(beta <= 0):
        raise ScenarioError("beta: infection rates must be positive")

    delta_doc = _require(doc, "delta")
    delta_rule = doc.get("delta_rule")  # provenance of an explicit delta, as in a manifest
    if "delta_rule" in doc and (not isinstance(delta_rule, dict) or isinstance(delta_doc, dict)):
        raise ScenarioError("delta_rule: expected an object next to an explicit delta")
    if isinstance(delta_doc, dict):
        if delta_doc.get("rule") != "lambda2_sufficient":
            raise ScenarioError("delta.rule: the only supported rule is 'lambda2_sufficient'")
        s_factor = _as_number(delta_doc.get("s_factor", 0.8), "delta.s_factor")
        deficit_nodes = delta_doc.get("deficit_nodes", [0, n - 1])
        try:
            delta, delta_info = margin_recovery_rates(net, beta, s_factor, deficit_nodes)
            delta_rule = {"rule": "lambda2_sufficient", **delta_info}
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"delta: {exc}") from exc
    else:
        delta = _as_vector(delta_doc, n, "delta")
        if np.any(delta < 0):
            raise ScenarioError("delta: recovery rates must be nonnegative")

    spec = ModelSpec(net=net, beta=beta, delta=delta)

    p0 = _as_vector(doc.get("p0", _DEFAULTS["p0"]), n * m, "p0")
    if np.any(p0 < 0) or np.any(p0 > 1):
        raise ScenarioError("p0: initial fractions must lie in [0, 1]")

    x0_doc = doc.get("x0", _DEFAULTS["x0"])
    if isinstance(x0_doc, str):
        if x0_doc != "stationary":
            raise ScenarioError("x0: expected 'stationary' or a list of nm values")
        x0 = np.asarray(network_stationary(net).v)
    else:
        x0 = _as_vector(x0_doc, n * m, "x0")
        if np.any(x0 <= 0):
            raise ScenarioError("x0: populations must be positive")

    t_end = _as_number(doc.get("t_end", _DEFAULTS["t_end"]), "t_end")
    dt = _as_number(doc.get("dt", _DEFAULTS["dt"]), "dt")
    if dt <= 0:
        raise ScenarioError(f"dt: must be positive, got {dt}")
    sample_every = doc.get("sample_every", _DEFAULTS["sample_every"])
    sample_every = _as_positive_int(sample_every, "sample_every")

    sto = dict(_DEFAULTS["stochastic"])
    sto_doc = doc.get("stochastic", {})
    if not isinstance(sto_doc, dict):
        raise ScenarioError("stochastic: expected an object")
    for key in sto_doc:
        if key not in sto:
            raise ScenarioError(f"stochastic.{key}: unknown field")
    sto.update(sto_doc)
    enabled = sto["enabled"]
    if not isinstance(enabled, bool):
        raise ScenarioError(f"stochastic.enabled: expected true or false, got {enabled!r}")
    h = _as_number(sto["h"], "stochastic.h")
    if h <= 0:
        raise ScenarioError(f"stochastic.h: must be positive, got {h}")
    seeds = sto["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                       for s in seeds)):
        raise ScenarioError("stochastic.seeds: expected a nonempty list of integers >= 0")
    if enabled and np.any(N != np.round(N)):
        raise ScenarioError("N: class populations must be whole numbers "
                            "when stochastic runs are enabled")
    try:
        step_count(t_end, dt)
        if enabled:
            step_count(t_end, h)
    except ValueError as exc:
        raise ScenarioError(f"t_end: {exc}") from None
    if enabled:
        try:
            _check_step_size(spec, h)
        except StepSizeError as exc:
            raise ScenarioError(f"stochastic.h: {exc}") from None

    output_dir = str(doc.get("output_dir", _DEFAULTS["output_dir"]))

    resolved = {
        "name": name,
        "n": n,
        "m": m,
        "layers": [
            {"edges": [[i, j, rate] for (i, j), rate in
                       zip(layer.edges.tolist(), layer.Q[tuple(layer.edges.T)].tolist())]}
            for layer in layers
        ],
        "beta": [float(b) for b in beta],
        "delta": [float(d) for d in delta],
        "N": [float(v) for v in N],
        "p0": [float(v) for v in p0],
        "x0": [float(v) for v in x0],
        "t_end": t_end,
        "dt": dt,
        "sample_every": sample_every,
        "stochastic": {"enabled": enabled, "h": h, "seeds": [int(s) for s in seeds]},
        "output_dir": output_dir,
    }
    if delta_rule is not None:
        resolved["delta_rule"] = dict(delta_rule)

    return Scenario(name=name, spec=spec, p0=p0, x0=x0, t_end=t_end, dt=dt,
                    sample_every=sample_every, stochastic_enabled=enabled, h=h,
                    seeds=list(seeds), output_dir=output_dir, resolved=resolved)


def initial_state(scenario: Scenario) -> SystemState:
    return SystemState(t=0.0, p=scenario.p0, x=scenario.x0)
