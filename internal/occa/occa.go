// Package occa is the reproduction's stand-in for the OCCA portability
// layer NekRS uses to target GPUs. It provides a Device with its own
// logical address space, explicit host<->device copies, and a
// parallel-for kernel launch primitive.
//
// The property that matters for the paper is the memory split: VTK's
// data model cannot consume GPU device memory, so every SENSEI trigger
// must stage fields device-to-host. Device allocations and D2H/H2D
// traffic are therefore accounted separately, which is what produces
// the Catalyst configuration's ~25% memory overhead in Figure 3.
package occa

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nekrs-sensei/internal/metrics"
)

// Mode selects the device backend.
type Mode int

// Backends: Serial executes kernels inline; CUDA models a discrete
// accelerator with a separate address space (all execution remains on
// the host CPU — the address-space separation is what the experiments
// measure) and optional intra-device parallelism.
const (
	Serial Mode = iota
	CUDA
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "Serial"
	case CUDA:
		return "CUDA"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Device is one rank's compute device.
type Device struct {
	mode    Mode
	workers int
	acct    *metrics.Accountant

	d2hBytes atomic.Int64
	h2dBytes atomic.Int64
	allocs   atomic.Int64
}

// NewDevice creates a device in the given mode. Allocation sizes are
// reported to acct (which may be nil) under the "device" category.
func NewDevice(mode Mode, acct *metrics.Accountant) *Device {
	return &Device{mode: mode, workers: 1, acct: acct}
}

// NewDeviceWorkers creates a device whose kernel launches split work
// across n goroutines, emulating intra-device parallelism.
func NewDeviceWorkers(mode Mode, workers int, acct *metrics.Accountant) *Device {
	if workers < 1 {
		workers = 1
	}
	return &Device{mode: mode, workers: workers, acct: acct}
}

// Mode reports the device backend.
func (d *Device) Mode() Mode { return d.mode }

// Workers reports how many goroutines a kernel launch is split across.
func (d *Device) Workers() int { return d.workers }

// D2HBytes reports cumulative device-to-host traffic in bytes.
func (d *Device) D2HBytes() int64 { return d.d2hBytes.Load() }

// H2DBytes reports cumulative host-to-device traffic in bytes.
func (d *Device) H2DBytes() int64 { return d.h2dBytes.Load() }

// AllocatedBytes reports current device memory in use.
func (d *Device) AllocatedBytes() int64 { return d.allocs.Load() }

// Memory is a device-resident buffer of float64 values.
type Memory struct {
	dev  *Device
	data []float64
	tag  string
}

// Malloc allocates a zeroed device buffer of n values. The tag names
// the buffer for diagnostics.
func (d *Device) Malloc(tag string, n int) *Memory {
	m := &Memory{dev: d, data: make([]float64, n), tag: tag}
	bytes := int64(n) * 8
	d.allocs.Add(bytes)
	d.acct.Alloc("device", bytes)
	return m
}

// MallocFrom allocates a device buffer initialized from host data,
// counting the upload as H2D traffic.
func (d *Device) MallocFrom(tag string, host []float64) *Memory {
	m := d.Malloc(tag, len(host))
	m.CopyFromHost(host)
	return m
}

// Len reports the number of values in the buffer.
func (m *Memory) Len() int { return len(m.data) }

// Data exposes the device-side storage for kernels. Host-side code
// (SENSEI adaptors, checkpoint writers) must use CopyToHost instead, so
// staging traffic is observable — this mirrors the paper's constraint
// that the VTK data model cannot reference GPU memory.
func (m *Memory) Data() []float64 { return m.data }

// CopyToHost copies the buffer into dst, recording D2H traffic.
func (m *Memory) CopyToHost(dst []float64) {
	if len(dst) != len(m.data) {
		panic(fmt.Sprintf("occa: D2H size mismatch: host %d, device %d (%s)", len(dst), len(m.data), m.tag))
	}
	copy(dst, m.data)
	m.dev.d2hBytes.Add(int64(len(dst)) * 8)
}

// CopyFromHost copies src into the buffer, recording H2D traffic.
func (m *Memory) CopyFromHost(src []float64) {
	if len(src) != len(m.data) {
		panic(fmt.Sprintf("occa: H2D size mismatch: host %d, device %d (%s)", len(src), len(m.data), m.tag))
	}
	copy(m.data, src)
	m.dev.h2dBytes.Add(int64(len(src)) * 8)
}

// Free releases the buffer's accounting. Using the Memory afterwards
// panics.
func (m *Memory) Free() {
	bytes := int64(len(m.data)) * 8
	m.dev.allocs.Add(-bytes)
	m.dev.acct.Free("device", bytes)
	m.data = nil
}

// Kernel is a named device function over an index range, the analogue
// of a compiled OKL kernel.
type Kernel struct {
	dev  *Device
	name string
	body func(lo, hi int)
}

// BuildKernel registers a kernel whose body processes the half-open
// index range [lo, hi).
func (d *Device) BuildKernel(name string, body func(lo, hi int)) *Kernel {
	return &Kernel{dev: d, name: name, body: body}
}

// Name reports the kernel name.
func (k *Kernel) Name() string { return k.name }

// Run launches the kernel over [0, n).
func (k *Kernel) Run(n int) { k.dev.Launch(n, k.body) }

// Launch executes body over [0, n), split across the device's workers.
// body must be safe for concurrent invocation on disjoint ranges.
func (d *Device) Launch(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if d.workers == 1 || n < 2*d.workers {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + d.workers - 1) / d.workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
