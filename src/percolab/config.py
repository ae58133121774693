"""Run configuration: a JSON file with one section per domain type.

Every tunable the laboratory exposes lives here with a default, so a config
file only states deviations.  Sections map onto the package's domain types:
``lattice`` -> LatticeSpec, ``sample`` -> PercolationConfig, ``scales`` ->
ScaleParams, ``regularity``/``goodness`` -> the cluster-certification
params, ``event`` -> CylinderEvent, ``iic``/``extraction`` ->
ConditioningFamily choices, plus plain-dict sections for the estimator,
sweep, Hopf-demo, and verification-battery knobs.

Unknown keys anywhere are errors (typo protection), as is any value a
domain constructor rejects; both raise :class:`ConfigError`, which the CLI
maps to exit code 4.  The CLI checks the ``scales`` section only for the
subcommands that read the ladder.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .clusters import GoodSpanningParams, RegularityParams
from .engine import PercolationConfig
from .estimators import PC_CRITERIA
from .experiments import ConditioningFamily, CylinderEvent, sure_event, two_east_edges_event
from .lattice import LatticeSpec, Site, canonical_edge
from .scales import ScaleParams, faithful_params, toy_params, validate_scale_params

__all__ = ["ConfigError", "Config", "load_config"]


class ConfigError(Exception):
    """A malformed or inconsistent run configuration."""


_DEFAULTS: Dict[str, Any] = {
    "lattice": {"d": 2, "edge_mode": "nearest_neighbour", "lam": 0},
    "sample": {"p": 0.5, "seed": 2024},
    "scales": {
        "mode": "toy",
        "k1": 1,
        "m": 2,
        "q_max": 1,
        "ann_margin": None,   # toy default: q_max + 1
        "ell_factor": 1,
    },
    "regularity": {"K": 3, "s_list": [3, 4], "n_inner": 400, "log_base": None},
    "goodness": {
        # wide boundary windows by default so toy-scale runs produce labels;
        # the narrow faithful exponents (1.75, 2.25) are a config choice
        "lo": 0.1,
        "hi": 4.0,
        "regular_fraction": 0.5,
        "check_minimality": True,
    },
    "event": {"name": "two-east-edges", "L": None, "pattern": None},
    "estimation": {
        "n_samples": 2000,
        "radii": [2, 4, 8, 16],
        "targets": [[1, 0], [2, 0], [4, 0], [8, 0]],
        "pc_criterion": "crossing",
        "pc_bracket": [0.4, 0.6],
        "pc_tol": 0.005,
        "pc_radii": None,
    },
    "extraction": {
        "level": 0,
        "n": 16,
        "family": "box_boundary",
        "n_samples": 800,
        "q_list": None,
        "p_c_ref": 0.5,
    },
    "iic": {
        "families": ["box_boundary", "single_vertex"],
        "n_list": [8, 16, 32],
        "n_samples": 2000,
    },
    "supercritical": {
        "p_list": [0.55, 0.52, 0.51],
        "r_pair": [16, 32],
        "n_samples": 1500,
    },
    "hopf": {
        "n_kernels": 200,
        "size_min": 2,
        "size_max": 8,
        "entry_low": 0.1,
        "entry_high": 10.0,
        "seq_len": 30,
        "rng_seed": 7,
    },
    "battery": {
        "n_samples": 100000,
        "n_groups": 100,
        "nofurther_instances": 500,
        "nofurther_seed": 7,
        "seed": 2024,
    },
}


def _merge(base: Dict[str, Any], override: Dict[str, Any], path: str = "") -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value: Any, lo: int) -> None:
    if not (_is_int(value) and value >= lo):
        raise ConfigError(f"{name} must be an integer >= {lo}, got {value!r}")


def _check_radii(name: str, radii: Any, lo: int, pair: bool) -> None:
    """Refuse all but a strictly increasing non-empty list of integers >= lo,
    of exactly two of them when ``pair``."""
    shape = "pair" if pair else "list"
    if not (isinstance(radii, (list, tuple)) and radii and all(map(_is_int, radii))
            and (len(radii) == 2 or not pair)
            and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ConfigError(f"{name} must be a strictly increasing {shape} of integers, "
                          f"got {radii!r}")
    if radii[0] < lo:
        raise ConfigError(f"{name} radii must be >= {lo}, got {radii!r}")


@dataclass
class Config:
    """A validated, merged run configuration."""

    data: Dict[str, Any]

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_dict(cls, overrides: Optional[Dict[str, Any]] = None,
                  scales: bool = True) -> "Config":
        """Merge ``overrides`` into the defaults and check the result.

        ``scales=False`` leaves the ``scales`` section, and the
        ``extraction.q_list`` checked against it, to the subcommands that
        read them: a spread-out lattice's default ladder is refused, yet a
        sweep never reads it.
        """
        merged = _merge(_DEFAULTS, overrides or {})
        cfg = cls(merged)
        cfg._validate(scales)
        return cfg

    def _validate(self, scales: bool) -> None:
        # construct every typed object once, so errors surface at load time
        self.spec()
        self.percolation()
        if scales:
            self.scale_params()
        self.regularity()
        self.goodness()
        self.event()
        n_list = self.data["iic"]["n_list"]
        if not (isinstance(n_list, (list, tuple)) and n_list):
            raise ConfigError("iic.n_list must be a non-empty list of integer scales")
        # an empty list computes nothing, and a repeated kind repeats every row
        kinds = self.data["iic"]["families"]
        if not (isinstance(kinds, (list, tuple)) and kinds
                and all(isinstance(k, str) for k in kinds) and len(set(kinds)) == len(kinds)):
            raise ConfigError(f"iic.families must be a non-empty list of distinct family "
                              f"kinds, got {kinds!r}")
        self.iic_families()
        self.extraction_family()
        self._validate_estimation()
        ex = self.data["extraction"]
        _check_int("extraction.level", ex["level"], 0)
        p_c_ref = ex["p_c_ref"]  # no integer lies in (0, 1)
        if not (isinstance(p_c_ref, float) and 0 < p_c_ref < 1):
            raise ConfigError(f"extraction.p_c_ref must be a number in (0, 1), got {p_c_ref!r}")
        q_list = ex["q_list"]
        if scales and q_list is not None:
            # a repeated q scans, and counts, every record of that sub-annulus twice
            q_max = self.scale_params().q_max
            if not (isinstance(q_list, (list, tuple))
                    and all(_is_int(q) and 0 <= q <= q_max for q in q_list)
                    and len(set(q_list)) == len(q_list)):
                raise ConfigError(f"extraction.q_list must be null or a list of distinct "
                                  f"integers in [0, {q_max}], got {q_list!r}")
        sc = self.data["supercritical"]
        _check_radii("supercritical.r_pair", sc["r_pair"], 0, pair=True)
        p_list = sc["p_list"]
        if not (isinstance(p_list, (list, tuple)) and p_list):
            raise ConfigError("supercritical.p_list must be a non-empty list")
        for p in p_list:
            if not (isinstance(p, (int, float)) and 0 <= p <= 1):
                raise ConfigError(f"supercritical.p_list: {p!r} is not a probability "
                                  "in [0, 1]")
        if any(b >= a for a, b in zip(p_list, p_list[1:])):
            raise ConfigError("supercritical.p_list must be strictly decreasing")
        hp = self.data["hopf"]
        if not (_is_int(hp["size_min"]) and _is_int(hp["size_max"])
                and 2 <= hp["size_min"] <= hp["size_max"]):
            raise ConfigError("hopf sizes must be integers with "
                              "2 <= size_min <= size_max")
        low, high = hp["entry_low"], hp["entry_high"]
        if not (all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in (low, high)) and 0 < low <= high):
            raise ConfigError("hopf entries must be numbers with "
                              f"0 < entry_low <= entry_high, got {low!r}, {high!r}")
        _check_int("hopf.rng_seed", hp["rng_seed"], 0)
        bt = self.data["battery"]
        for key in ("seed", "nofurther_seed"):  # read only mid-run; a negative seed is a seed
            if not _is_int(bt[key]):
                raise ConfigError(f"battery.{key} must be an integer, got {bt[key]!r}")
        for name in ("hopf.n_kernels", "hopf.seq_len", "battery.n_groups",
                     "battery.nofurther_instances", "estimation.n_samples",
                     "extraction.n_samples", "iic.n_samples", "supercritical.n_samples",
                     "battery.n_samples"):
            section, key = name.split(".")
            _check_int(name, self.data[section][key], 1)

    def _validate_estimation(self) -> None:
        est = self.data["estimation"]
        _check_radii("estimation.radii", est["radii"], 0, pair=False)
        if est["pc_radii"] is not None:
            _check_radii("estimation.pc_radii", est["pc_radii"], 1, pair=True)
        targets = est["targets"]
        if not (isinstance(targets, (list, tuple)) and targets and all(
                isinstance(t, (list, tuple)) and all(map(_is_int, t)) for t in targets)):
            raise ConfigError("estimation.targets must be a non-empty list of integer sites, "
                              f"got {targets!r}")
        if len({tuple(t) for t in targets}) != len(targets):
            raise ConfigError("estimation.targets must be distinct")
        if est["pc_criterion"] not in PC_CRITERIA:
            raise ConfigError(f"estimation.pc_criterion must be one of "
                              f"{sorted(PC_CRITERIA)}, got {est['pc_criterion']!r}")
        bracket = est["pc_bracket"]
        if not (isinstance(bracket, (list, tuple)) and len(bracket) == 2
                and all(isinstance(p, (int, float)) for p in bracket)
                and 0 <= bracket[0] < bracket[1] <= 1):
            raise ConfigError("estimation.pc_bracket must be a pair [lo, hi] with "
                              f"0 <= lo < hi <= 1, got {bracket!r}")
        # the bisection stops once hi - lo <= pc_tol, so a negative one never stops
        if not (isinstance(est["pc_tol"], (int, float)) and est["pc_tol"] > 0):
            raise ConfigError(f"estimation.pc_tol must be > 0, got {est['pc_tol']!r}")

    # -- typed accessors --------------------------------------------------
    def spec(self) -> LatticeSpec:
        lat = self.data["lattice"]
        try:
            return LatticeSpec(d=lat["d"], edge_mode=lat["edge_mode"], lam=lat["lam"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"lattice: {exc}") from exc

    def percolation(self, seed: Optional[int] = None) -> PercolationConfig:
        s = self.data["sample"]
        use_seed = s["seed"] if seed is None else seed
        try:
            return PercolationConfig(self.spec(), s["p"], use_seed)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"sample: {exc}") from exc

    def scale_params(self) -> ScaleParams:
        sc = self.data["scales"]
        try:
            if sc["mode"] == "faithful":
                params = faithful_params(self.spec(), sc["k1"])
            elif sc["mode"] == "toy":
                ell = sc["ell_factor"]
                if isinstance(ell, str):
                    ell = Fraction(ell)
                params = toy_params(
                    k1=sc["k1"], m=sc["m"], q_max=sc["q_max"],
                    ann_margin=sc["ann_margin"], ell_factor=ell,
                )
            else:
                raise ConfigError(f"scales.mode must be toy or faithful, got {sc['mode']!r}")
            # the ladder must accommodate the event's support ball
            validate_scale_params(params, self.spec(), cylinder_exp=self.event().L)
            return params
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"scales: {exc}") from exc

    def regularity(self) -> RegularityParams:
        r = self.data["regularity"]
        try:
            return RegularityParams(
                K=r["K"],
                s_list=tuple(r["s_list"]),
                n_inner=r["n_inner"],
                log_base=math.e if r["log_base"] is None else r["log_base"],
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"regularity: {exc}") from exc

    def goodness(self) -> GoodSpanningParams:
        g = self.data["goodness"]
        try:
            return GoodSpanningParams(
                lo=g["lo"], hi=g["hi"],
                regular_fraction=g["regular_fraction"],
                check_minimality=g["check_minimality"],
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"goodness: {exc}") from exc

    def event(self) -> CylinderEvent:
        ev = self.data["event"]
        name = ev["name"]
        try:
            if name == "two-east-edges":
                return two_east_edges_event(self.spec())
            if name == "sure":
                return sure_event()
            if ev["pattern"] is None or ev["L"] is None:
                raise ConfigError(
                    "custom events need event.L and event.pattern "
                    "([[ [x...], [y...] ], state] entries)"
                )
            # a non-edge is refused here, not at the event's first reading
            spec = self.spec()
            pattern = tuple(
                (canonical_edge(spec, tuple(a), tuple(b)), state)
                for (a, b), state in ev["pattern"]
            )
            return CylinderEvent(name, ev["L"], pattern)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"event: {exc}") from exc

    def targets(self) -> List[Site]:
        """``estimation.targets`` as sites of the configured lattice.

        Their dimension is checked here, when they are used, not at load
        time: the default targets are sites of Z^2.
        """
        d = self.spec().d
        sites = [tuple(t) for t in self.data["estimation"]["targets"]]
        for t in sites:
            if len(t) != d:
                raise ConfigError(f"estimation.targets: {list(t)} is not a site of Z^{d}")
        return sites

    def family(self, kind: str, n_list: List[int]) -> ConditioningFamily:
        try:
            return ConditioningFamily(kind, tuple(n_list))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"family {kind}: {exc}") from exc

    def iic_families(self) -> List[ConditioningFamily]:
        i = self.data["iic"]
        return [self.family(kind, i["n_list"]) for kind in i["families"]]

    def extraction_family(self) -> ConditioningFamily:
        ex = self.data["extraction"]
        return self.family(ex["family"], [ex["n"]])

    # -- plumbing ---------------------------------------------------------
    def section(self, name: str) -> Dict[str, Any]:
        return self.data[name]

    def echo(self) -> Dict[str, Any]:
        """The full merged configuration, for embedding in JSON outputs."""
        return copy.deepcopy(self.data)


def load_config(path: Optional[str], scales: bool = True) -> Config:
    """Read a JSON config file (or return pure defaults for ``None``);
    ``scales`` as in :meth:`Config.from_dict`."""
    if path is None:
        return Config.from_dict({}, scales)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return Config.from_dict(raw, scales)
