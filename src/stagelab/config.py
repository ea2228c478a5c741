"""Typed INI configuration with a closed schema.

Every key every command can read is declared in DEFAULTS with a type tag and a
default value, so a config file can be minimal (or absent) and any unknown
section or misspelled key is rejected by name instead of being silently
ignored.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields
from typing import Any, Iterable

from .checks import ACQUISITION_STEPS, ALPHA, EPSILON, ROUTING_STEPS, TAU
from .errors import ConfigError
from .network import NetworkState, init_scaled_identity
from .pipeline import StagePlan
from .tasks import STAGES, FeaturePartition, SpectralBasis, TaskFamily, TaskSpectra, build_task_family

# type tags: int | float | bool | str | floats (comma-separated list)
DEFAULTS: dict[str, dict[str, tuple[str, Any]]] = {
    "task": {
        "n": ("int", 6),
        "k": ("int", 2),
        "invariant": ("floats", (5.0, 4.0)),
        "pre_inconsistent": ("floats", (1.0, 0.8)),
        "post_inconsistent": ("floats", (3.5, 3.3)),
        "ft_inconsistent": ("floats", (0.5, 0.3)),
        "specialized_target": ("float", 0.9),
        "mismatch_gap": ("float", 2.0),
        "basis": ("str", "identity"),
        "basis_seed": ("int", 0),
    },
    "init": {
        "tau": ("float", TAU),
    },
    "pretrain": {
        "steps": ("int", 3000),
        "eta": ("float", 0.02),
        "mix_fraction": ("float", 0.0),
    },
    "posttrain": {
        "steps": ("int", 2000),
        "eta": ("float", 0.02),
        "ridge_lambda": ("float", 0.1),
        "replay_fraction": ("float", 0.01),
    },
    "finetune": {
        "steps": ("int", 2000),
        "eta": ("float", 0.02),
    },
    "sweep": {
        "mix_fractions": ("floats", (0.0, 0.5)),
        "eta2": ("floats", (0.008, 0.012, 0.02)),
        "eta3": ("floats", (0.0003, 0.001, 0.003, 0.01, 0.05)),
        "steps2": ("int", 250),
        "steps3": ("int", 300),
        "ridge_lambda": ("float", 0.0),
        "replay_fraction": ("float", 0.0),
    },
    "verify": {
        "alpha": ("float", ALPHA),
        "epsilon": ("float", EPSILON),
        "literal_inconsistent": ("bool", False),
        "acquisition_steps": ("int", ACQUISITION_STEPS),
        "routing_steps": ("int", ROUTING_STEPS),
    },
    "report": {
        "projection": ("str", "ret_ft"),
    },
}

# The keys every config hash and family.json list, whatever their values.  A key
# added since is listed only when its value differs from its default, so adding
# one leaves every existing config_hash, family.json and resume as it was.
HASHED_KEYS: dict[str, tuple[str, ...]] = {
    "task": ("n", "k", "invariant", "pre_inconsistent", "post_inconsistent", "ft_inconsistent",
             "specialized_target", "mismatch_gap", "basis", "basis_seed"),
    "init": ("tau",),
    "pretrain": ("steps", "eta", "mix_fraction"),
    "posttrain": ("steps", "eta", "ridge_lambda", "replay_fraction"),
    "finetune": ("steps", "eta"),
    "sweep": ("mix_fractions", "eta2", "eta3", "steps2", "steps3", "ridge_lambda", "replay_fraction"),
    "verify": ("alpha", "epsilon", "literal_inconsistent", "acquisition_steps", "routing_steps"),
    "report": ("projection",),
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(tag: str, raw: str, where: str) -> Any:
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "floats":
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if tag == "bool":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {tag}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration (defaults merged with the file, if any)."""

    values: dict[str, dict[str, Any]]

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    # -- domain object builders -------------------------------------------

    def task_family(self) -> TaskFamily:
        t = self.values["task"]
        partition = FeaturePartition(n=t["n"], k=t["k"])
        spectra = TaskSpectra(**{f.name: t[f.name] for f in fields(TaskSpectra)})
        # before the basis, whose n×n arrays a bad [task] n would make huge
        spectra.validate(partition)
        basis = SpectralBasis.from_mode(t["basis"], partition.n, t["basis_seed"])
        return build_task_family(partition, spectra, basis=basis)

    def init_state(self, family: TaskFamily | None = None) -> NetworkState:
        """The [init] state in the basis of family, by default the config's own task family."""
        if family is None:
            family = self.task_family()
        return init_scaled_identity(family.n, self.values["init"]["tau"], family.basis)

    def stage_plans(self) -> tuple[StagePlan, StagePlan, StagePlan]:
        """One plan per stage section; each section's keys are StagePlan's field names."""
        return tuple(StagePlan(stage, **self.values[stage]) for stage in STAGES)

    def sweep_plans(self) -> tuple[list[StagePlan], list[StagePlan], list[StagePlan]]:
        pre, sw = self.values["pretrain"], self.values["sweep"]
        stage1 = [
            StagePlan("pretrain", pre["steps"], pre["eta"], mix_fraction=m)
            for m in sw["mix_fractions"]
        ]
        post = {"replay_fraction": sw["replay_fraction"], "ridge_lambda": sw["ridge_lambda"]}
        stage2 = [StagePlan("posttrain", sw["steps2"], eta2, **post) for eta2 in sw["eta2"]]
        stage3 = [StagePlan("finetune", sw["steps3"], eta3) for eta3 in sw["eta3"]]
        return stage1, stage2, stage3

    def verify_kwargs(self) -> dict[str, Any]:
        """The [verify] section, keyed by run_all_checks' parameter names."""
        return dict(self.values["verify"])

    def projection(self) -> str:
        return self.values["report"]["projection"]

    def canonical_lines(self, sections: Iterable[str] | None = None) -> list[str]:
        """Sorted section.key=value lines of every section, or of the given ones.

        A key outside HASHED_KEYS has a line only when its value's text differs
        from its default's.
        """
        chosen = sorted(self.values if sections is None else sections)
        return [
            f"{s}.{key}={value!r}"
            for s in chosen
            for key, value in sorted(self.values[s].items())
            if key in HASHED_KEYS.get(s, ()) or repr(value) != repr(DEFAULTS[s][key][1])
        ]

    def canonical(self) -> str:
        """Stable text form used for config hashing."""
        return "\n".join(self.canonical_lines())


def _default_values() -> dict[str, dict[str, Any]]:
    return {section: {k: v for k, (_, v) in keys.items()} for section, keys in DEFAULTS.items()}


def make_reference_family(basis_mode: str = "identity", basis_seed: int | None = None) -> TaskFamily:
    """The 6-coordinate reference family: the [task] defaults in the given basis."""
    values = _default_values()
    values["task"].update(basis=basis_mode, basis_seed=0 if basis_seed is None else basis_seed)
    return ExperimentConfig(values=values).task_family()


def loads_config(text: str) -> ExperimentConfig:
    """Parse configuration text, rejecting unknown sections and keys by name."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    values = _default_values()
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(DEFAULTS)}"
            )
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            tag, _ = DEFAULTS[section][key]
            values[section][key] = _parse_value(tag, raw, f"[{section}] {key}")
    return ExperimentConfig(values=values)


def load_config(path: str | None) -> ExperimentConfig:
    """Load a config file, or the pure defaults when no path is given."""
    if path is None:
        return loads_config("")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return loads_config(text)
