"""The Experiment spec: hashing, serialization, variants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import bench_config, config_digest, fast_config
from repro.errors import ConfigError, ExperimentError
from repro.exec import (Experiment, experiment_pair, powergraph_experiment,
                        spec_experiment)


def gcc(**overrides):
    defaults = dict(cores=2, scale=0.5)
    defaults.update(overrides)
    return spec_experiment("GCC", **defaults)


class TestConstruction:
    def test_params_normalised_and_order_independent(self):
        a = Experiment("spec", params={"b": 1, "a": 2})
        b = Experiment("spec", params={"a": 2, "b": 1})
        assert a.params == (("a", 2), ("b", 1))
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_default_config_is_bench_config(self):
        assert Experiment("spec").config == bench_config()

    def test_param_accessors(self):
        exp = gcc()
        assert exp.param("benchmark") == "GCC"
        assert exp.param("missing", 7) == 7
        assert exp.param_dict["cores"] == 2

    def test_rejects_non_scalar_params(self):
        with pytest.raises(ExperimentError):
            Experiment("spec", params={"tasks": [1, 2]})

    def test_rejects_non_string_param_names(self):
        with pytest.raises(ExperimentError):
            Experiment("spec", params=((1, "x"),))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            Experiment("spec", policy="no-such-policy")

    def test_no_engine_parameter(self):
        # Every workload drives the machine one access at a time; there
        # is no access-engine selection on an experiment.
        with pytest.raises(TypeError):
            Experiment("spec", engine="batch")


class TestContentHash:
    def test_stable_within_process(self):
        assert gcc().content_hash() == gcc().content_hash()

    def test_name_excluded(self):
        assert gcc().content_hash() == \
            gcc().with_updates(name="other-label").content_hash()

    def test_spec_hash_pinned(self):
        # Cache keys and committed digests depend on this exact value.
        assert spec_experiment("GCC").content_hash() == \
            "990d2dfbd970d8e809fb5defb0a972180ac9c2eb854663aaed6559def24446cd"

    def test_every_content_field_matters(self):
        base = gcc()
        variants = [
            gcc(scale=0.25),
            gcc(config=fast_config()),
            base.with_updates(shredder=not base.shredder),
            base.with_updates(policy="increment-major"),
            base.with_updates(seed=1),
            base.with_updates(workload="powergraph"),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_stable_across_processes(self):
        """The cache contract: a subprocess derives the same hash."""
        exp = gcc()
        src = Path(repro.__file__).resolve().parent.parent
        script = ("from repro.exec import spec_experiment; "
                  "print(spec_experiment('GCC', cores=2, scale=0.5)"
                  ".content_hash())")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert output.stdout.strip() == exp.content_hash()

    def test_config_digest_stable_and_sensitive(self):
        assert config_digest(bench_config()) == config_digest(bench_config())
        assert config_digest(bench_config()) != config_digest(fast_config())


class TestSerialization:
    def test_round_trip(self):
        exp = gcc(config=fast_config()).with_updates(
            policy="major-reset-minors", seed=3, name="labelled")
        clone = Experiment.from_dict(exp.to_dict())
        assert clone == exp
        assert clone.name == "labelled"
        assert clone.content_hash() == exp.content_hash()

    def test_retired_engine_key_ignored(self):
        # Documents written while experiments carried an access-engine
        # field still deserialise to the same experiment.
        document = gcc().to_dict()
        document["engine"] = "scalar"
        assert Experiment.from_dict(document) == gcc()

    def test_malformed_document(self):
        with pytest.raises(ExperimentError):
            Experiment.from_dict({"workload": "spec"})


class TestVariants:
    def test_pair_variants(self):
        baseline, shredder = experiment_pair(gcc())
        assert not baseline.shredder
        assert baseline.config.kernel.zeroing_strategy == "nontemporal"
        assert baseline.name == "GCC-baseline"
        assert shredder.shredder
        assert shredder.config.kernel.zeroing_strategy == "shred"
        assert shredder.name == "GCC-shredder"
        # Both variants derive from the same base config object.
        assert baseline.config.with_zeroing("shred") == shredder.config

    def test_factories(self):
        spec = spec_experiment("H264", cores=4, scale=0.3)
        assert spec.workload == "spec" and spec.name == "H264"
        graph = powergraph_experiment("PAGERANK", num_nodes=300)
        assert graph.workload == "powergraph"
        assert graph.param("num_nodes") == 300
