"""BackendSpec: the one grammar behind every execution backend."""

import pytest

from repro.errors import BackendError
from repro.exec import BackendSpec, ExecutionBackend, Runner
from repro.exec.backends import ForkPoolBackend, SerialBackend
from repro.exec.cluster import ClusterBackend


class TestParse:
    def test_serial(self):
        spec = BackendSpec.parse("serial")
        assert spec.kind == "serial" and spec.jobs == 1

    def test_serial_takes_no_argument(self):
        with pytest.raises(BackendError, match="no argument"):
            BackendSpec.parse("serial:4")

    def test_fork_defaults_to_cpu_count(self):
        assert BackendSpec.parse("fork").jobs >= 1

    def test_fork_with_jobs(self):
        assert BackendSpec.parse("fork:8").jobs == 8

    def test_fork_bad_jobs(self):
        with pytest.raises(BackendError, match="fork:<jobs>"):
            BackendSpec.parse("fork:lots")
        with pytest.raises(BackendError, match=">= 1"):
            BackendSpec.parse("fork:0")

    def test_dist_with_addresses(self):
        """The retired dist:// scheme names its cluster replacement."""
        with pytest.raises(BackendError) as caught:
            BackendSpec.parse("dist://h1:7070,h2:7071")
        message = str(caught.value)
        assert "repro cluster serve" in message
        assert "repro worker serve --register HOST:PORT" in message
        assert "cluster://HOST:PORT" in message

    def test_distributed_scheme_alias(self):
        with pytest.raises(BackendError, match="repro cluster serve"):
            BackendSpec.parse("distributed://h:1")

    def test_cluster_single_endpoint(self):
        spec = BackendSpec.parse("cluster://hub:7071?weight=3&client=nightly")
        assert spec.kind == "cluster"
        assert spec.addresses == ("hub:7071",)
        assert spec.option("weight") == "3"
        assert spec.option("client") == "nightly"
        assert spec.option("missing", "x") == "x"

    def test_cluster_rejects_multiple_endpoints(self):
        with pytest.raises(BackendError, match="exactly one"):
            BackendSpec.parse("cluster://a:1,b:2")

    def test_rejects_bad_endpoints(self):
        for bad in ("cluster://", "cluster://nohost", "cluster://h:notaport",
                    "cluster://:7070"):
            with pytest.raises(BackendError):
                BackendSpec.parse(bad)

    def test_rejects_unknown_kind_and_scheme(self):
        with pytest.raises(BackendError, match="cannot parse"):
            BackendSpec.parse("quantum")
        with pytest.raises(BackendError, match="scheme"):
            BackendSpec.parse("ftp://h:1")
        with pytest.raises(BackendError, match="empty"):
            BackendSpec.parse("   ")
        with pytest.raises(BackendError, match="serial, fork, cluster"):
            BackendSpec(kind="dist")

    def test_case_and_whitespace_insensitive(self):
        assert BackendSpec.parse("  SERIAL ").kind == "serial"
        assert BackendSpec.parse("Fork:2").jobs == 2


class TestCoerceAndDescribe:
    def test_coerce_none_is_serial(self):
        assert BackendSpec.coerce(None).kind == "serial"

    def test_coerce_passthrough_and_string(self):
        spec = BackendSpec(kind="fork", jobs=2)
        assert BackendSpec.coerce(spec) is spec
        assert BackendSpec.coerce("fork:2") == spec

    def test_describe_round_trips(self):
        for text in ("serial", "fork:8",
                     "cluster://hub:7071?client=x&weight=3"):
            spec = BackendSpec.parse(text)
            assert spec.describe() == text
            assert BackendSpec.parse(spec.describe()) == spec

    def test_options_sorted_for_canonical_form(self):
        spec = BackendSpec.parse("cluster://h:1?weight=3&client=x")
        assert spec.describe() == "cluster://h:1?client=x&weight=3"

    def test_hashable(self):
        a = BackendSpec.parse("cluster://h:1?weight=3")
        b = BackendSpec.parse("cluster://h:1?weight=3")
        assert len({a, b}) == 1


class TestCreate:
    def test_serial_and_fork(self):
        assert isinstance(BackendSpec.parse("serial").create(),
                          SerialBackend)
        fork = BackendSpec.parse("fork:3").create()
        assert isinstance(fork, ForkPoolBackend)
        assert fork.jobs == 3

    def test_cluster_honours_options(self, tmp_path):
        from repro.exec.wire import FrameAuth
        keyfile = tmp_path / "k"
        FrameAuth.generate_keyfile(keyfile)
        backend = BackendSpec.parse(
            f"cluster://hub:7071?weight=3&client=nightly"
            f"&keyfile={keyfile}&frame_timeout=900").create()
        assert isinstance(backend, ClusterBackend)
        assert backend.address == ("hub", 7071)
        assert backend.weight == 3
        assert backend.client_name == "nightly"
        assert backend.auth is not None
        assert backend.frame_timeout == 900.0

    def test_bad_option_values_rejected(self):
        with pytest.raises(BackendError, match="not a number"):
            BackendSpec.parse("cluster://h:1?frame_timeout=soon").create()
        with pytest.raises(BackendError, match="not an integer"):
            BackendSpec.parse("cluster://h:1?weight=heavy").create()


class TestFromSpec:
    def test_factory_parses_strings(self):
        assert isinstance(ExecutionBackend.from_spec("serial"),
                          SerialBackend)
        assert isinstance(ExecutionBackend.from_spec("fork:2"),
                          ForkPoolBackend)

    def test_factory_passes_instances_through(self):
        backend = SerialBackend()
        assert ExecutionBackend.from_spec(backend) is backend

    def test_runner_accepts_spec_strings(self):
        from repro.exec import spec_experiment
        runner = Runner(backend="serial", use_cache=False)
        reports = runner.run([spec_experiment("GCC", cores=1, scale=0.15)])
        assert len(reports) == 1

    def test_runner_still_accepts_instances(self):
        runner = Runner(backend=SerialBackend(), use_cache=False)
        assert runner is not None
