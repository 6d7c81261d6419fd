"""The :class:`Experiment` spec: one simulation run as a frozen value.

An experiment fully describes a run — workload kind plus parameters,
the :class:`~repro.config.SystemConfig` and the shred policy — and
nothing about *how* it is executed. Because the description is a
frozen, hashable value with a stable content hash, experiments can be
deduplicated within a batch, shipped to worker processes, and used as
keys into the persistent result cache.

The ``name`` field is presentation only: it labels reports but is
excluded from equality and the content hash, so ``GCC-baseline`` run
from the CLI and the same configuration run from a figure builder share
one cache entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..config import SystemConfig, bench_config, config_digest
from ..core.policies import make_policy
from ..errors import ExperimentError

#: Parameter values must be JSON scalars so hashes are canonical.
_SCALAR_TYPES = (str, int, float, bool, type(None))

Params = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


def _normalise_params(params: Params) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    normalised = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise ExperimentError(f"parameter names must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ExperimentError(
                f"parameter {key!r} must be a JSON scalar "
                f"(str/int/float/bool/None), got {type(value).__name__}")
        normalised.append((key, value))
    return tuple(normalised)


@dataclass(frozen=True)
class Experiment:
    """A frozen, hashable description of one simulation run.

    ``workload`` names an executor registered in
    :mod:`repro.exec.workloads`; ``params`` are its keyword arguments
    (JSON scalars only). ``config`` defaults to :func:`bench_config`.
    """

    workload: str
    params: Params = ()
    config: Optional[SystemConfig] = None
    shredder: bool = True
    policy: Optional[str] = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _normalise_params(self.params))
        if self.config is None:
            object.__setattr__(self, "config", bench_config())
        if self.policy is not None:
            make_policy(self.policy)    # validate the name eagerly

    # -- parameter access ---------------------------------------------------------

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, key: str, default: Any = None) -> Any:
        return self.param_dict.get(key, default)

    # -- identity -----------------------------------------------------------------

    def content_hash(self) -> str:
        """Stable SHA-256 identifying this experiment's *content*.

        Identical across processes and interpreter runs (unlike
        ``hash()``); ignores ``name``. Every field is frozen, so the
        digest is computed on the first call and kept on the instance:
        a batch's dedupe, cache lookup and cache store share it.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            document = {
                "workload": self.workload,
                "params": list(self.params),
                "config": config_digest(self.config),
                "shredder": self.shredder,
                "policy": self.policy,
            }
            payload = json.dumps(document, sort_keys=True,
                                 separators=(",", ":"))
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form that round-trips through :meth:`from_dict`."""
        from ..serialization import config_to_dict
        return {
            "workload": self.workload,
            "params": {key: value for key, value in self.params},
            "config": config_to_dict(self.config),
            "shredder": self.shredder,
            "policy": self.policy,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Experiment":
        from ..serialization import config_from_dict
        try:
            return cls(workload=data["workload"],
                       params=data.get("params") or {},
                       config=config_from_dict(data["config"]),
                       shredder=bool(data.get("shredder", True)),
                       policy=data.get("policy"),
                       name=data.get("name", ""))
        except KeyError as error:
            raise ExperimentError(f"malformed experiment document: missing {error}")

    # -- derived variants ---------------------------------------------------------

    def with_updates(self, **changes: Any) -> "Experiment":
        """A copy with dataclass fields replaced (params may be a dict)."""
        return replace(self, **changes)

    def baseline_variant(self, zeroing: str = "nontemporal") -> "Experiment":
        """The paper's baseline: secure controller, kernel zeroing."""
        return replace(self, config=self.config.with_zeroing(zeroing),
                       shredder=False,
                       name=f"{self.name or self.workload}-baseline")

    def shredder_variant(self) -> "Experiment":
        """The same machine with the shred command replacing zeroing."""
        return replace(self, config=self.config.with_zeroing("shred"),
                       shredder=True,
                       name=f"{self.name or self.workload}-shredder")


def experiment_pair(experiment: Experiment) -> Tuple[Experiment, Experiment]:
    """The (baseline, shredder) variants every figure comparison runs."""
    return experiment.baseline_variant(), experiment.shredder_variant()


# ---------------------------------------------------------------------------
# Factories for the paper's workloads
# ---------------------------------------------------------------------------

def spec_experiment(benchmark: str, *, cores: int = 2, scale: float = 1.0,
                    config: Optional[SystemConfig] = None,
                    **extra: Any) -> Experiment:
    """A multi-programmed SPEC CPU2006 run (one instance per core)."""
    return Experiment(workload="spec",
                      params={"benchmark": benchmark, "cores": cores,
                              "scale": scale},
                      config=config, name=benchmark, **extra)


def powergraph_experiment(app: str, *, num_nodes: int = 5000,
                          config: Optional[SystemConfig] = None,
                          **extra: Any) -> Experiment:
    """A PowerGraph application over a synthetic power-law graph."""
    return Experiment(workload="powergraph",
                      params={"app": app, "num_nodes": num_nodes},
                      config=config, name=app, **extra)
