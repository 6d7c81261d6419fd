"""Silent Shredder: zero-cost shredding for secure NVM main memory.

A full reproduction of the ASPLOS 2016 paper by Awad, Manadhata,
Solihin, Haber and Horne: a secure non-volatile main-memory controller
that eliminates data-shredding writes by repurposing the initialization
vectors of counter-mode memory encryption.

Quickstart::

    from repro import System, fast_config, compare_runs
    from repro.workloads import spec_task, SPEC_BENCHMARKS

    params = SPEC_BENCHMARKS["GCC"].scaled(0.2)
    baseline = System(fast_config().with_zeroing("nontemporal"), shredder=False)
    baseline.run_single(spec_task(params))
    shredder = System(fast_config().with_zeroing("shred"), shredder=True)
    shredder.run_single(spec_task(params))
    print(compare_runs(baseline.report(), shredder.report(), "GCC").row())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from .config import (SystemConfig, CacheConfig, NVMConfig, DRAMConfig,
                     EncryptionConfig, CounterCacheConfig, CPUConfig,
                     KernelConfig, default_config, fast_config, bench_config,
                     config_digest)
from .errors import (ReproError, ConfigError, AddressError, AlignmentError,
                     OutOfMemoryError, PageFaultError, ProtectionError,
                     IntegrityError, EnduranceExceededError, CipherError,
                     CounterOverflowError, SimulationError, ExperimentError,
                     BackendError, WireProtocolError, ObservabilityError)
from .obs import MetricsRegistry, merge_snapshots, span
from .core import (SilentShredderController, SecureMemoryController,
                   ShredRegister, CounterBlock, IVLayout, make_policy)
from .sim import Machine, System, SystemReport, RunResult, compare_runs

__version__ = "1.1.0"

from .exec import (Experiment, Runner, ResultCache, run_experiments,
                   spec_experiment, powergraph_experiment, experiment_pair,
                   ExecutionBackend, SerialBackend, ForkPoolBackend,
                   ProgressEvent)

__all__ = [
    "AddressError",
    "AlignmentError",
    "BackendError",
    "CPUConfig",
    "CacheConfig",
    "CipherError",
    "ConfigError",
    "CounterBlock",
    "CounterCacheConfig",
    "CounterOverflowError",
    "DRAMConfig",
    "EncryptionConfig",
    "EnduranceExceededError",
    "ExecutionBackend",
    "Experiment",
    "ExperimentError",
    "ForkPoolBackend",
    "IVLayout",
    "IntegrityError",
    "KernelConfig",
    "Machine",
    "MetricsRegistry",
    "NVMConfig",
    "ObservabilityError",
    "OutOfMemoryError",
    "PageFaultError",
    "ProgressEvent",
    "ProtectionError",
    "ReproError",
    "ResultCache",
    "RunResult",
    "Runner",
    "SecureMemoryController",
    "SerialBackend",
    "ShredRegister",
    "SilentShredderController",
    "SimulationError",
    "System",
    "SystemConfig",
    "SystemReport",
    "bench_config",
    "compare_runs",
    "config_digest",
    "default_config",
    "experiment_pair",
    "fast_config",
    "make_policy",
    "merge_snapshots",
    "powergraph_experiment",
    "run_experiments",
    "span",
    "spec_experiment",
    "WireProtocolError",
    "__version__",
]
