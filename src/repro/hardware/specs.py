"""Hardware specifications: capacities and rates of the simulated machine.

Two families of specs are provided:

* :func:`paper_workstation` — the paper's testbed at face value: two
  NVIDIA GTX TITAN X GPUs (12 GB device memory each), 128 GB main memory,
  two Fusion-io PCI-E SSDs, PCI-E 3.0 x16 (chunk-copy rate ``c1`` ≈
  16 GB/s, streaming rate ``c2`` ≈ 6 GB/s — Section 5.1's numbers).
* :func:`scaled_workstation` — the same machine with every *capacity*
  divided by a scale factor (default 8192 = 2¹³), matching the uniform
  2¹³× down-scaling of the datasets (see DESIGN.md §6).  *Rates* are kept
  as-is, so simulated elapsed times shrink by the same factor and every
  ratio the paper plots is preserved.

GPU kernel timing uses an *effective* execution rate: graph kernels on real
GPUs are memory-bound, so instead of multiplying core counts by clock rates
we model a device-wide rate of "lane-cycles" per second
(``effective_hz``).  A kernel's time is::

    launch_overhead + lane_steps * cycles_per_lane_step / effective_hz

where ``lane_steps`` comes from the micro-level parallelisation model
(:mod:`repro.core.micro`) and ``cycles_per_lane_step`` is an algorithm
property (PageRank's atomic scattered adds cost far more per edge than
BFS's level checks — this is what makes Table 1's ratios differ between
the two algorithms).
"""

import dataclasses
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import GB, TB


@dataclasses.dataclass(frozen=True)
class PCIeSpec:
    """PCI-E interconnect rates (Section 5.1).

    ``chunk_bandwidth`` is ``c1``: the rate of large pinned chunk copies
    (WA transfers).  ``stream_bandwidth`` is ``c2``: the per-transfer rate
    achieved in streaming copy mode.  ``p2p_bandwidth`` is the GPU
    peer-to-peer rate used by Strategy-P's WA merge (Section 4.1).
    """

    chunk_bandwidth: float = 16 * GB
    stream_bandwidth: float = 6 * GB
    p2p_bandwidth: float = 20 * GB
    latency: float = 5e-6

    def chunk_copy_time(self, num_bytes):
        return self.latency + num_bytes / self.chunk_bandwidth

    def stream_copy_time(self, num_bytes):
        return self.latency + num_bytes / self.stream_bandwidth

    def p2p_copy_time(self, num_bytes):
        return self.latency + num_bytes / self.p2p_bandwidth


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """One GPU: device-memory capacity and effective execution rate."""

    name: str = "GTX TITAN X"
    device_memory: int = 12 * GB
    #: CUDA allows at most 32 streams to execute kernels concurrently
    #: (Section 3.2), independent of how many the user creates.
    max_concurrent_streams: int = 32
    #: Device-wide effective lane-cycle rate (see module docstring).
    effective_hz: float = 24e9
    #: Fixed overhead per kernel invocation — the paper's ``t_call``.
    kernel_launch_overhead: float = 5e-6
    #: Fraction of the device's throughput one kernel achieves running
    #: alone.  A single page's kernel cannot fill every SM, so a lone
    #: stream underutilises the GPU; concurrent kernels from multiple
    #: streams recover full throughput.  This is the mechanism behind
    #: Figure 10's improvement all the way to 32 streams (Section 3.2:
    #: "the kernel execution becomes faster when SP_j and RA_j are
    #: prepared in the queues of GPU in advance").
    single_stream_fraction: float = 1.0 / 16.0

    def kernel_stream_time(self, lane_steps, cycles_per_lane_step):
        """Time one kernel takes on its own stream (underutilised rate)."""
        rate = self.effective_hz * self.single_stream_fraction
        return (self.kernel_launch_overhead
                + lane_steps * cycles_per_lane_step / rate)

    def kernel_device_time(self, lane_steps, cycles_per_lane_step):
        """Device-capacity time of one kernel (full aggregate rate)."""
        return lane_steps * cycles_per_lane_step / self.effective_hz


@dataclasses.dataclass(frozen=True)
class StorageSpec:
    """A secondary-storage device: SSD or HDD."""

    name: str
    read_bandwidth: float
    access_latency: float
    capacity: int

    def read_time(self, num_bytes):
        return self.access_latency + num_bytes / self.read_bandwidth


#: One Fusion-io style PCI-E SSD.  The paper quotes ~5 GB/s for the pair,
#: so 2.5 GB/s each; flash access latency ~50 us.
SSD_SPEC = StorageSpec(name="PCI-E SSD", read_bandwidth=2.5 * GB,
                       access_latency=50e-6, capacity=1 * TB)

#: A 7200 rpm HDD.  The paper measures ~0.33 GB/s for two striped drives;
#: seek-dominated random access.
HDD_SPEC = StorageSpec(name="HDD", read_bandwidth=0.165 * GB,
                       access_latency=8e-3, capacity=3 * TB)


@dataclasses.dataclass(frozen=True)
class MachineSpec:
    """The full single-machine testbed the GTS engine runs on."""

    gpus: Tuple[GPUSpec, ...]
    storages: Tuple[StorageSpec, ...]
    main_memory: int
    pcie: PCIeSpec = PCIeSpec()
    name: str = "workstation"
    #: Fraction of a graph's size granted to the main-memory page buffer
    #: when the graph does not fit in main memory (Section 7.2 sets the
    #: buffer to 20 % of the graph size for RMAT31/32).
    buffer_fraction: float = 0.2

    def __post_init__(self):
        if not self.gpus:
            raise ConfigurationError("a machine needs at least one GPU")
        if self.main_memory <= 0:
            raise ConfigurationError("main memory must be positive")

    @property
    def num_gpus(self):
        return len(self.gpus)

    @property
    def num_storages(self):
        return len(self.storages)

    def scaled(self, factor):
        """Return a copy with all capacities divided by ``factor``.

        Rates (bandwidths, latencies, effective_hz) are left unchanged —
        see the module docstring for why this preserves the paper's
        ratios.  Kernel launch overhead *is* scaled: at paper scale a 64 MB
        page's kernel dwarfs the ~5 us launch cost, and keeping the launch
        cost fixed while kernels shrink 8192x would let it dominate.
        """
        gpus = tuple(dataclasses.replace(
            g,
            device_memory=max(1, int(g.device_memory / factor)),
            kernel_launch_overhead=g.kernel_launch_overhead / factor,
        ) for g in self.gpus)
        storages = tuple(dataclasses.replace(
            s,
            capacity=max(1, int(s.capacity / factor)),
            access_latency=s.access_latency / factor,
        ) for s in self.storages)
        pcie = dataclasses.replace(
            self.pcie, latency=self.pcie.latency / factor)
        return dataclasses.replace(
            self, gpus=gpus, storages=storages, pcie=pcie,
            main_memory=max(1, int(self.main_memory / factor)),
            name="%s (1/%d scale)" % (self.name, factor))


def paper_workstation(num_gpus=2, num_ssds=2, storage_spec=SSD_SPEC,
                      main_memory=128 * GB):
    """The paper's Section 7.1 workstation, parameterised.

    ``num_gpus`` / ``num_ssds`` support the scalability experiments;
    ``storage_spec`` switches SSDs for HDDs (Figure 9).
    """
    return MachineSpec(
        gpus=tuple(GPUSpec() for _ in range(num_gpus)),
        storages=tuple(
            dataclasses.replace(storage_spec, name="%s %d" % (storage_spec.name, i))
            for i in range(num_ssds)),
        main_memory=main_memory,
        name="paper workstation",
    )


#: Uniform capacity scale used by the experiment registry (2^13, matching
#: the dataset down-scaling from RMAT-k to RMAT-(k-13)).
DEFAULT_SCALE_FACTOR = 8192


def scaled_workstation(num_gpus=2, num_ssds=2, storage_spec=SSD_SPEC,
                       main_memory=128 * GB, factor=DEFAULT_SCALE_FACTOR):
    """The paper workstation with capacities scaled down by ``factor``."""
    return paper_workstation(
        num_gpus=num_gpus, num_ssds=num_ssds, storage_spec=storage_spec,
        main_memory=main_memory).scaled(factor)
