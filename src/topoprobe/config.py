"""Flat-sectioned key=value run configuration.

The format is INI-style for diffability in experiment logs. Unknown
sections or keys are rejected outright so typos fail fast, and a master
seed is mandatory whenever a command samples anything.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Any

from .hamiltonians import HamiltonianSpec
from .partitions import THREE_SEGMENT_KINDS, PartitionSpec, partition_for
from .protocols import check_seed
from .rdm import KINDS


class ConfigError(ValueError):
    pass


_SCHEMA: dict[str, dict[str, str]] = {
    "hamiltonian": {
        "num_sites": "int", "j": "float", "j_prime": "float", "delta": "float",
        "b_field": "float", "neel_delta": "float", "pinning": "float",
        "neel_weight": "float",
    },
    "partition": {"pairs": "int", "layout": "str"},
    "protocol": {"kind": "kind", "n_unitaries": "int", "n_shots": "int"},
    "ramp": {
        "t_final": "float", "dt": "float", "neel_delta": "float",
        "exponent": "int", "sample_times": "floats", "monitor": "kinds",
    },
    "sweep": {
        "kinds": "kinds", "mode": "str", "repetitions": "int",
        "axis_j_prime": "floats", "axis_delta": "floats", "axis_b_field": "floats",
        "axis_pairs": "floats", "axis_n_unitaries": "floats", "axis_n_shots": "floats",
    },
    "error_scan": {"axis": "str", "values": "floats", "repetitions": "int"},
    "run": {"master_seed": "seed", "out": "str"},
}


def _kind(text: str) -> str:
    if text not in KINDS:
        raise ValueError(f"{text!r} is not an invariant kind; "
                         f"expected one of {', '.join(KINDS)}")
    return text


def _kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(_kind(x.strip()) for x in text.split(","))
    if len(set(kinds)) != len(kinds):
        raise ValueError("a kind is listed more than once")
    return kinds


_PARSERS = {
    "int": int,
    "seed": lambda text: check_seed(int(text), "master_seed"),
    "float": float,
    "str": str,
    "floats": lambda text: tuple(float(x) for x in text.split(",")),
    "kind": _kind,
    "kinds": _kinds,
}


@dataclass
class RunConfig:
    sections: dict[str, dict[str, Any]] = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return value

    def as_dict(self) -> dict:
        return {name: dict(body) for name, body in self.sections.items()}

    # -- resolved objects ---------------------------------------------------

    def hamiltonian(self) -> HamiltonianSpec:
        body = self.sections.get("hamiltonian", {})
        if "num_sites" not in body:
            raise ConfigError("missing required key hamiltonian.num_sites")
        if ("neel_delta" in body) != ("neel_weight" in body):
            raise ConfigError("hamiltonian.neel_delta and hamiltonian.neel_weight set the "
                              "staggered field together; give both or neither")
        try:
            return HamiltonianSpec(**body)
        except ValueError as exc:
            raise ConfigError(f"hamiltonian: {exc}") from exc

    def partition(self, num_sites: int) -> PartitionSpec:
        """The layout of ``protocol.kind``; ``partition.layout`` selects nothing."""
        kind, pairs = self.require("protocol", "kind"), self.require("partition", "pairs")
        try:
            return partition_for(kind, num_sites, pairs)
        except ValueError as exc:
            raise ConfigError(f"partition: {exc}") from exc

    def master_seed(self) -> int:
        return self.require("run", "master_seed")


def _parse_error(path, exc: configparser.Error) -> ConfigError:
    """A one-line ``ConfigError`` naming the file and line of a parse error."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, what = exc.lineno, "a key before any [section] header"
    elif isinstance(exc, configparser.ParsingError):  # it lists every bad line
        lineno, what = exc.errors[0][0], "expected 'key = value'"
    else:  # a key or a section given twice: "While reading from ... [line n]: ..."
        lineno, what = exc.lineno, str(exc).split("]: ", 1)[1]
    return ConfigError(f"config file {path} line {lineno}: {what}")


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise _parse_error(path, exc) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SCHEMA[section]
        body: dict[str, Any] = {}
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                body[key] = _PARSERS[allowed[key]](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
        sections[section] = body
    layout = sections.get("partition", {}).get("layout")
    kind = sections.get("protocol", {}).get("kind")
    allowed = {"three_segment" if k in THREE_SEGMENT_KINDS else "reflection"
               for k in ((kind,) if kind else KINDS)}  # any layout name without a kind
    if layout is not None and layout not in allowed:
        raise ConfigError(f"partition.layout = {layout} is not the layout of protocol.kind = "
                          f"{kind} ({' or '.join(sorted(allowed))})")
    return RunConfig(sections)
