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

Every object but ``delta_rule`` (free-form provenance) refuses a key it
does not know, naming its path.  A parse runs three stages: the network
(its own bounds last), the rates (``beta``, ``delta``, ``delta_rule``), then
every setting.  Only this module edits documents: ``set_fields`` sets the
CLI overrides and a sweep point's value, and ``parse_point`` runs a sweep
point through the stages its field reaches.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import graphs
from .dynamics import RK4_STABILITY, ModelSpec, SystemState, step_count
from .equilibria import MU_TIE_TOL, margin_recovery_rates
from .errors import ConvergenceError, ScenarioError
from .network import (MobilityLayer, MultiLayerNetwork, layer_from_edge_rates,
                      metropolis_hastings_rates, preset_layer)
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
_TOP_KEYS = ("name", "n", "m", "layers", "beta", "delta", "delta_rule", "N", *_DEFAULTS)
# layer form -> its keys
_LAYER_KEYS = {"preset": ("preset", "rate_scale", "rates"), "edges": ("edges",), "mh": ("mh",)}
# most expected leavers per seed and step (h * largest exit rate * sum(N))
# a stochastic document may ask for; a step holds about 40 bytes of
# routing scratch per leaver
MAX_LEAVERS = 10**6
# largest n * m, refused before any layer is built: an nm x nm analysis
# matrix is then 8 MiB, and a complete preset has under 2**20 edges
MAX_NM = 1024
# largest sum of N, and of an explicit x0, over every class and node:
# about 1.07e301, so every node total stays 2**24 below the float maximum,
# room for RK4's stage sums
MAX_POPULATION = 2.0**1000
# largest exit rate of a layer and largest infection rate, about 4.5e5:
# rounding moves the threshold by about eps times the largest entry of its
# matrices, and past this by more than its tie tolerance
MAX_RATE = MU_TIE_TOL / sys.float_info.epsilon
# largest work of a run in cell-steps (one of nm cells advanced one step):
# an RK4 cell-step took about 0.45 us (36 us a step at nm = 80) and a
# stochastic one about 0.7 us (29 us a lane-step at nm = 40), so a run at
# the bound steps for about 8 to 12 minutes
MAX_CELL_STEPS = 10**9
# largest memory of a run's recorded rows, 16 bytes a cell: integrate
# allocates its p and x rows before the first step, and each seed's counts
# take as much
MAX_RECORD_BYTES = 2**28


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
    h: float
    seeds: list      # the seeds a run steps: none when stochastic runs are off
    leavers: float   # the leavers a stochastic step expects per seed, 0 when runs are off
    explicit: dict   # explicit form of every input but the layers, for the manifest


def read_document(path):
    """The raw JSON document of a scenario file, not yet checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also an integer literal past int's digit limit
            raise ScenarioError(f"scenario file: invalid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(read_document(path))


def _object(value, field: str, known) -> dict:
    """``value``, checked to be a JSON object whose keys all lie in
    ``known``; ``field`` is its path, empty for the document itself."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{field or 'scenario'}: expected a JSON object")
    for key in value:
        if key not in known:
            raise ScenarioError(f"{field + '.' if field else ''}{key}: unknown field")
    return value


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioError(f"{key}: required field is missing")
    return doc[key]


@contextlib.contextmanager
def _naming(field: str):
    """Turn a ValueError, TypeError, KeyError or ConvergenceError raised inside
    into a ScenarioError naming ``field``; a ScenarioError passes unchanged."""
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, TypeError, KeyError, ConvergenceError) as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def _check_rate(rate: float, field: str, kind: str):
    """Refuse, naming ``field``, a largest ``kind`` rate above MAX_RATE."""
    if rate > MAX_RATE:
        raise ScenarioError(f"{field}: largest {kind} rate {rate:.6g} is above "
                            f"{MAX_RATE:.6g}, where rounding can move the threshold mu by "
                            f"more than its tie tolerance {MU_TIE_TOL}")


def _as_positive_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{field}: expected a positive integer, got {value!r}")
    return value


def _as_number(value, field: str) -> float:
    """The one coercion of a scenario number: a finite JSON number
    (booleans, strings, null and ints past the float range are rejected)."""
    with contextlib.suppress(OverflowError):  # from math.isfinite of such an int
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    raise ScenarioError(f"{field}: expected a finite number, got {value!r}")


def _as_vector(value, length: int, field: str) -> np.ndarray:
    """A number broadcast to ``length`` entries, or a list of exactly
    ``length`` numbers (finite ints and floats in one numpy pass)."""
    if not isinstance(value, list):
        return np.full(length, _as_number(value, field))
    if len(value) != length:
        raise ScenarioError(f"{field}: expected {length} values, got {len(value)}")
    if set(map(type, value)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            if np.isfinite(vector := np.array(value, dtype=float)).all():
                return vector
    return np.array([_as_number(v, field) for v in value])


def _build_layer(entry, n: int, idx: int) -> MobilityLayer:
    field = f"layers[{idx}]"
    _object(entry, field, [key for keys in _LAYER_KEYS.values() for key in keys])
    forms = [k for k in _LAYER_KEYS if k in entry]
    if len(forms) != 1:
        raise ScenarioError(f"{field}: expected exactly one of 'preset', 'edges', 'mh'")
    _object(entry, field, _LAYER_KEYS[forms[0]])
    with _naming(field):
        if "preset" in entry:
            name = entry["preset"]
            if name not in graphs.PRESET_NAMES:
                raise ScenarioError(f"{field}.preset: unknown preset {name!r}")
            rate_scale = _as_number(entry.get("rate_scale", 1.0), f"{field}.rate_scale")
            return preset_layer(name, n, rate_scale, rates=entry.get("rates", "equal_exit"))
        if "edges" in entry:
            return layer_from_edge_rates(n, entry["edges"])
        mh = _object(entry["mh"], f"{field}.mh", ("graph", "target", "rate_scale"))
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


def parse_scenario(doc: dict) -> Scenario:
    return _parse_instance(doc, _parse_network(doc))


def set_fields(doc, **fields):
    """A copy of ``doc`` with each field not None set: ``seeds`` in
    ``stochastic`` (which it enables), ``rate_scale`` in every preset and mh
    layer of a document that parses, any other at the top level.  Only
    objects on an edited path are copied; a document or ``stochastic``
    that is not an object is left for ``parse_scenario`` to name."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    for field, value in fields.items():
        if value is None:
            continue
        if field == "seeds":
            stochastic = doc.get("stochastic", {})
            if isinstance(stochastic, dict):
                doc["stochastic"] = {**stochastic, "seeds": value, "enabled": True}
        elif field == "rate_scale":
            if not any("preset" in spec or "mh" in spec for spec in doc["layers"]):
                raise ScenarioError("layers: rate_scale sweeps need preset or mh layer specs")
            doc["layers"] = [{**spec, "rate_scale": value} if "preset" in spec
                             else {**spec, "mh": {**spec["mh"], "rate_scale": value}}
                             if "mh" in spec else spec for spec in doc["layers"]]
        else:
            doc[field] = value
    return doc


def parse_point(doc: dict, scenario: Scenario, field: str, value):
    """(network, beta, delta) of ``doc`` (parsed as ``scenario``) with ``field`` set to
    ``value``.  A point runs the stages its field reaches: a ``rate_scale`` point builds
    its own network, a ``beta`` or ``delta`` point shares the parsed one; each then parses
    its rates and, when stochastic runs are on, checks the stochastic bounds.  The settings
    were checked once, in the parse of ``doc``."""
    point = set_fields(doc, **{field: value})
    net = _parse_network(point) if field == "rate_scale" else scenario.spec.net
    beta, delta, _ = _parse_rates(point, net)
    if scenario.seeds:
        _stochastic_bounds(net, scenario.h, beta, delta)
    return net, beta, delta


def _parse_network(doc) -> MultiLayerNetwork:
    """First stage of ``parse_scenario``: the document's fields, ``name``
    (a file-name stem, since outputs are named after it), ``n``, ``m``,
    each layer (certified once), ``N``, then the exit-rate bound."""
    _object(doc, "", _TOP_KEYS)
    name = _require(doc, "name")
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")):
        raise ScenarioError("name: expected a file name (a nonempty string other than '.' "
                            f"and '..', without '/', '\\' or NUL), got {name!r}")
    n = _as_positive_int(_require(doc, "n"), "n")
    m = _as_positive_int(_require(doc, "m"), "m")
    if n * m > MAX_NM:
        raise ScenarioError(f"n: n * m = {n * m} is above MAX_NM = {MAX_NM}")

    layers_doc = _require(doc, "layers")
    if not isinstance(layers_doc, list) or len(layers_doc) != m:
        raise ScenarioError(f"layers: expected a list of m={m} layer specs")
    layers = [_build_layer(entry, n, k) for k, entry in enumerate(layers_doc)]
    for k, layer in enumerate(layers):
        with _naming(f"layers[{k}]"):
            layer.stationary  # validates and certifies the layer once

    N = _as_vector(_require(doc, "N"), m, "N")
    if np.any(N <= 0):
        raise ScenarioError("N: class populations must be positive")
    _check_total(N, "N")
    net = MultiLayerNetwork(layers=tuple(layers), N=N)

    for k, q_min in enumerate(net.Q.min(axis=(1, 2)).tolist()):
        _check_rate(-q_min, f"layers[{k}]", "exit")
    return net


def _check_total(populations: np.ndarray, field: str):
    """Refuse populations summing to more than MAX_POPULATION, named ``field``."""
    if (populations / MAX_POPULATION).sum() > 1.0:  # scaled, so the sum cannot overflow
        raise ScenarioError(f"{field}: populations sum to more than MAX_POPULATION = 2**1000, "
                            "where node totals leave no room for RK4's stage sums")


def _parse_rates(doc: dict, net: MultiLayerNetwork):
    """``beta``, ``delta`` (or its rule) and ``delta_rule`` on ``net``, as beta,
    delta and delta's provenance (or None): all a beta or delta point parses."""
    n = net.n
    beta = _as_vector(_require(doc, "beta"), n, "beta")
    if np.any(beta <= 0):
        raise ScenarioError("beta: infection rates must be positive")
    _check_rate(float(beta.max()), "beta", "infection")

    delta_doc = _require(doc, "delta")
    delta_rule = doc.get("delta_rule")  # provenance of an explicit delta, as in a manifest
    if "delta_rule" in doc and (not isinstance(delta_rule, dict) or isinstance(delta_doc, dict)):
        raise ScenarioError("delta_rule: expected an object next to an explicit delta")
    if isinstance(delta_doc, dict):
        _object(delta_doc, "delta", ("rule", "s_factor", "deficit_nodes"))
        if delta_doc.get("rule") != "lambda2_sufficient":
            raise ScenarioError("delta.rule: the only supported rule is 'lambda2_sufficient'")
        s_factor = _as_number(delta_doc.get("s_factor", 0.8), "delta.s_factor")
        deficit_nodes = delta_doc.get("deficit_nodes", [0, n - 1])
        if not (isinstance(deficit_nodes, list)
                and all(isinstance(i, int) and not isinstance(i, bool) for i in deficit_nodes)):
            raise ScenarioError("delta.deficit_nodes: expected a list of integer node indices, "
                                f"got {deficit_nodes!r}")
        with _naming("delta"):
            delta, delta_info = margin_recovery_rates(net, beta, s_factor, deficit_nodes)
        delta_rule = {"rule": "lambda2_sufficient", **delta_info}
    else:
        delta = _as_vector(delta_doc, n, "delta")
        if np.any(delta < 0):
            raise ScenarioError("delta: recovery rates must be nonnegative")
    return beta, delta, delta_rule


def _stochastic_bounds(net: MultiLayerNetwork, h: float, beta, delta):
    """``stochastic._check_step_size`` on the largest leave, infection and recovery
    rates, named ``stochastic.h``, then ``N`` against MAX_LEAVERS, which bounds the result."""
    max_nu = float(net.moves[1][:, :, -1].max())
    with _naming("stochastic.h"):
        _check_step_size(h, max_nu, beta, delta)
    if (leavers := h * max_nu * net.N.sum()) > MAX_LEAVERS:
        raise ScenarioError(f"N: a stochastic step expects {leavers:.4g} leavers per seed "
                            f"(h * largest exit rate * sum(N)), above {MAX_LEAVERS}")
    return leavers


def _parse_instance(doc: dict, net: MultiLayerNetwork) -> Scenario:
    """Second stage of ``parse_scenario``: the rates, then every setting, with
    the stochastic bounds where ``t_end`` and ``h`` are checked."""
    beta, delta, delta_rule = _parse_rates(doc, net)
    doc = {**_DEFAULTS, **doc}
    name = doc["name"]
    n, m, N = net.n, net.m, net.N
    spec = ModelSpec(net=net, beta=beta, delta=delta)

    p0 = _as_vector(doc["p0"], n * m, "p0")
    if np.any(p0 < 0) or np.any(p0 > 1):
        raise ScenarioError("p0: initial fractions must lie in [0, 1]")

    if isinstance(doc["x0"], str):
        if doc["x0"] != "stationary":
            raise ScenarioError("x0: expected 'stationary' or a list of nm values")
        x0 = np.asarray(net.stationary.v)
    else:
        x0 = _as_vector(doc["x0"], n * m, "x0")
        if np.any(x0 <= 0):
            raise ScenarioError("x0: populations must be positive")
        _check_total(x0, "x0")

    t_end = _as_number(doc["t_end"], "t_end")
    dt = _as_number(doc["dt"], "dt")
    if dt <= 0:
        raise ScenarioError(f"dt: must be positive, got {dt}")
    sample_every = _as_positive_int(doc["sample_every"], "sample_every")

    sto = {**_DEFAULTS["stochastic"],
           **_object(doc["stochastic"], "stochastic", _DEFAULTS["stochastic"])}
    enabled = sto["enabled"]
    if not isinstance(enabled, bool):
        raise ScenarioError(f"stochastic.enabled: expected true or false, got {enabled!r}")
    h = _as_number(sto["h"], "stochastic.h")
    if h <= 0:
        raise ScenarioError(f"stochastic.h: must be positive, got {h}")
    seeds = sto["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                       for s in seeds) or len(set(seeds)) < len(seeds)):
        raise ScenarioError("stochastic.seeds: expected a nonempty list of distinct integers "
                            ">= 0 (a seed names its output files)")
    if enabled and np.any((N != np.round(N)) | (N > 2**53)):
        raise ScenarioError("N: class populations must be whole numbers up to 2**53 "
                            "when stochastic runs are enabled")
    with _naming("t_end"):
        step_count(t_end, dt)
        if enabled:
            step_count(t_end, h)
    leavers = _stochastic_bounds(net, h, beta, delta) if enabled else 0.0

    output_dir = doc["output_dir"]
    if not isinstance(output_dir, str):
        raise ScenarioError(f"output_dir: expected a string, got {output_dir!r}")

    explicit = {
        "name": name, "n": n, "m": m,
        **{key: vector.tolist() for key, vector in
           (("beta", beta), ("delta", delta), ("N", N), ("p0", p0), ("x0", x0))},
        "t_end": t_end, "dt": dt, "sample_every": sample_every,
        "stochastic": {"enabled": enabled, "h": h, "seeds": [int(s) for s in seeds]},
        "output_dir": output_dir,
    }
    if delta_rule is not None:
        explicit["delta_rule"] = dict(delta_rule)

    return Scenario(name=name, spec=spec, p0=p0, x0=x0, t_end=t_end, dt=dt,
                    sample_every=sample_every, h=h, seeds=list(seeds) if enabled else [],
                    leavers=leavers, explicit=explicit)


def check_run(scenario: Scenario):
    """Refuse, before any step, a run outside its bounds: naming ``dt``, a
    step outside RK4's stability region for the linear part of the model
    (dt times the largest 2 nu + delta of a node, nu its exit rate in a layer
    and delta its recovery rate, above RK4_STABILITY); naming ``t_end``, RK4
    steps times nm, or stochastic steps times nm times seeds, above
    MAX_CELL_STEPS; naming ``sample_every``, the rows of every recorded step,
    RK4's and each seed's, above MAX_RECORD_BYTES at 16 bytes a cell.  Only
    ``run`` steps, and ``validate`` answers for ``run``; the threshold
    commands (``analyze``, ``sweep``) take no step and do not check."""
    spec, nm = scenario.spec, scenario.spec.nm
    worst = float((-2.0 * np.diagonal(spec.net.Q, axis1=1, axis2=2) + spec.delta).max())
    if scenario.dt * worst > RK4_STABILITY:
        raise ScenarioError(f"dt: {scenario.dt} times the largest 2 * exit rate + recovery "
                            f"rate of a node, {worst:.6g}, is above {RK4_STABILITY}, the edge "
                            "of RK4's stability region")
    runs = [("RK4", step_count(scenario.t_end, scenario.dt), 1)]
    if scenario.seeds:
        runs.append(("stochastic", step_count(scenario.t_end, scenario.h), len(scenario.seeds)))
    for kind, steps, lanes in runs:
        if (work := steps * nm * lanes) > MAX_CELL_STEPS:
            seeds = f" times {lanes} seeds" if kind == "stochastic" else ""
            raise ScenarioError(f"t_end: {steps:.4g} {kind} steps times n * m = {nm}{seeds} "
                                f"is {work:.4g} cell-steps, above MAX_CELL_STEPS = 10**9")
    every = scenario.sample_every
    rows = sum(lanes * (steps // every + 1 + (steps % every > 0)) for _, steps, lanes in runs)
    if (size := 16 * rows * nm) > MAX_RECORD_BYTES:
        raise ScenarioError(f"sample_every: {rows} recorded rows of n * m = {nm} cells take "
                            f"{size:.4g} bytes, above MAX_RECORD_BYTES = 2**28")


def initial_state(scenario: Scenario) -> SystemState:
    return SystemState(t=0.0, p=scenario.p0, x=scenario.x0)
