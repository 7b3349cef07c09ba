// Package sim provides the discrete-event simulation core shared by every
// subsystem of the DeepUM reproduction: a virtual nanosecond clock, a
// serialized PCIe link resource with priority preemption at transfer
// granularity, and busy-interval timelines used by the energy meter.
package sim

import "time"

// Duration aliases time.Duration for readability; all simulated time is
// virtual and measured in nanoseconds from the start of a run.
type Duration = time.Duration

// Time is a point on the virtual clock, nanoseconds since run start.
type Time int64

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

const (
	// KiB, MiB and GiB are byte-size units.
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30

	// PageSize is the UM page size (§2.2 of the paper).
	PageSize int64 = 4 * KiB
	// PagesPerBlock is the maximum number of contiguous pages grouped into a
	// UM block by the NVIDIA driver (§2.3).
	PagesPerBlock int64 = 512
	// BlockSize is the maximum UM block size: 4KiB x 512 = 2MiB.
	BlockSize int64 = PageSize * PagesPerBlock
)

// Params holds the calibrated hardware timing model. Zero values are not
// usable; construct with DefaultParams and override fields as needed.
type Params struct {
	// LinkBandwidth is the effective PCIe bandwidth per direction in
	// bytes/second. PCIe 3.0 x16 peaks at 15.75 GB/s; sustained page
	// migration reaches roughly 12 GiB/s.
	LinkBandwidth int64
	// LinkLatency is the fixed per-transfer setup latency on the link.
	LinkLatency Duration
	// FaultBatchOverhead is the fixed cost of one GPU fault-handling cycle:
	// interrupt delivery, fault-buffer fetch and preprocessing (§2.3 steps
	// 1-2). Measured far-fault costs on Volta are in the tens of
	// microseconds.
	FaultBatchOverhead Duration
	// FaultBlockOverhead is the per-faulted-UM-block bookkeeping cost inside
	// one handling cycle (steps 3-7 excluding the transfer itself).
	FaultBlockOverhead Duration
	// ReplayLatency is the cost of sending the replay signal and restarting
	// the stalled SMs (step 9).
	ReplayLatency Duration
	// EvictBlockOverhead is the bookkeeping cost of selecting and unmapping
	// one victim block during eviction (the transfer is charged separately).
	EvictBlockOverhead Duration
	// FaultChunkPages is how many pages one on-demand fault-handling round
	// trip migrates. The GPU raises faults as threads touch pages, so
	// migrating a whole 2 MiB block on demand takes many fault cycles and
	// many small, latency-dominated transfers — the overhead correlation
	// prefetching hides by moving whole UM blocks ahead of time.
	FaultChunkPages int64
	// FaultChunkOverhead is the service cost of one such round trip: fault
	// delivery, unmap, copy setup and replay. Published V100 measurements
	// put far-fault service in the tens of microseconds, which yields the
	// ~1.5-2 GiB/s effective oversubscription throughput seen in practice.
	FaultChunkOverhead Duration

	// GPUFlops is the effective compute throughput in FLOP/s used by the
	// roofline kernel-time model. The V100 peaks at 15.7 TFLOP/s FP32, but
	// sustained training utilization (MFU) is near a third of peak, which is
	// what iteration times reflect.
	GPUFlops float64
	// GPUMemBandwidth is the effective device-memory bandwidth in
	// bytes/second for the roofline model.
	GPUMemBandwidth float64

	// GPUMemory is the device memory capacity in bytes.
	GPUMemory int64
	// ScaleDivisor records the factor Scale() divided capacities by, so
	// count-valued model constants (e.g. the migration thread's service
	// window) can shrink consistently. 0 or 1 means unscaled.
	ScaleDivisor int64
	// HostMemory is the CPU memory capacity in bytes (the UM backing store).
	HostMemory int64

	// Power model for the integrating energy meter (full system, watts).
	PowerSystemBase float64 // CPUs, DIMMs, board: always drawn
	PowerGPUIdle    float64 // GPU powered but idle
	PowerGPUBusy    float64 // additional draw while SMs compute
	PowerLinkActive float64 // additional draw while the link transfers
}

// DefaultParams returns the V100-32GB PCIe configuration from Table 1 of the
// paper, with timing constants calibrated to published UM measurements.
func DefaultParams() Params {
	return Params{
		LinkBandwidth:      12 * GiB,
		LinkLatency:        8 * time.Microsecond,
		FaultBatchOverhead: 25 * time.Microsecond,
		FaultBlockOverhead: 5 * time.Microsecond,
		ReplayLatency:      5 * time.Microsecond,
		EvictBlockOverhead: 2 * time.Microsecond,
		FaultChunkPages:    16,
		FaultChunkOverhead: 25 * time.Microsecond,

		GPUFlops:        4.5e12,
		GPUMemBandwidth: 800e9,

		GPUMemory:  32 * GiB,
		HostMemory: 512 * GiB,

		PowerSystemBase: 320,
		PowerGPUIdle:    55,
		PowerGPUBusy:    195,
		PowerLinkActive: 30,
	}
}

// V100_16GB returns the Table 1 configuration with the smaller 16 GiB device
// memory used for the TensorFlow-based comparison (§6.4).
func V100_16GB() Params {
	p := DefaultParams()
	p.GPUMemory = 16 * GiB
	return p
}

// Scale divides all capacity-like quantities by f so that a full experiment
// suite runs quickly while preserving the footprint-to-capacity ratios that
// determine every reported shape. Timing constants are left untouched:
// transfers of the scaled-down tensors simply take proportionally less time,
// exactly as the real workload would on a proportionally smaller machine.
func (p Params) Scale(f int64) Params {
	if f <= 1 {
		return p
	}
	p.GPUMemory /= f
	p.HostMemory /= f
	p.ScaleDivisor = f
	return p
}

// TransferTime returns the link occupancy for moving n bytes.
func (p Params) TransferTime(n int64) Duration {
	if n <= 0 {
		return 0
	}
	return p.LinkLatency + Duration(float64(n)/float64(p.LinkBandwidth)*1e9)
}

// KernelTime returns the roofline execution time of a kernel that performs
// flops floating-point operations and touches bytes of device memory,
// assuming all pages are resident (fault stalls are added by the engine).
func (p Params) KernelTime(flops float64, bytes int64) Duration {
	compute := flops / p.GPUFlops * 1e9
	memory := float64(bytes) / p.GPUMemBandwidth * 1e9
	t := compute
	if memory > t {
		t = memory
	}
	// Launch overhead floor: no kernel completes faster than ~6us end to end.
	if t < 6000 {
		t = 6000
	}
	return Duration(t)
}
