// Package gpu simulates the analytics accelerator of the paper's testbed
// (an NVIDIA A100 with 40 GB over PCIe 4.0, §6.1). Computation runs on the
// host; the device tracks memory occupancy and charges simulated durations
// for transfers and kernel launches from the calibrated models in
// internal/sim. DESIGN.md §2 explains why this substitution preserves the
// paper's measured shapes.
package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/dyngraph"
	"h2tap/internal/sim"
)

// ErrOutOfMemory reports device memory exhaustion — the case §4.3 notes
// would require partitioning / unified-memory techniques.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// Fault-point op names, consulted against the installed FaultInjector.
// They match internal/faultinject's GPU* constants; plain strings keep the
// two packages decoupled.
const (
	OpMalloc  = "malloc"
	OpUpload  = "upload"
	OpReplace = "replace"
	OpIngest  = "ingest"
	OpLaunch  = "launch"
)

// FaultInjector is the hook the device consults before each fallible
// operation. faultinject.GPUPlan implements it. Check is called at
// operation submission — before any simulated device state mutates — so an
// injected fault is always failure-atomic, matching real accelerator
// semantics where allocation/copy/launch errors surface at the API call.
type FaultInjector interface {
	Check(op string) error
}

// Config describes a simulated device.
type Config struct {
	Name     string
	MemBytes int64
	PCIe     sim.PCIeModel
	Kernels  map[string]sim.KernelModel
}

// Device is a simulated GPU.
type Device struct {
	cfg     Config
	memUsed atomic.Int64

	inject atomic.Value // FaultInjector, nil until SetFaultInjector

	mu       sync.Mutex
	simTotal sim.Duration // accumulated simulated busy time
	launches int64
	hToD     int64 // bytes moved host→device
	dToH     int64 // bytes moved device→host

	// Per-op success counters and the injected-fault tally, for metrics
	// exposition (pull-based: read at scrape time via Stats).
	mallocs        atomic.Int64
	uploads        atomic.Int64
	replaces       atomic.Int64
	ingests        atomic.Int64
	faultsInjected atomic.Int64
}

// DeviceStats is a snapshot of the device's operation counters.
type DeviceStats struct {
	Mallocs        int64
	Uploads        int64
	Replaces       int64
	Ingests        int64
	Launches       int64
	FaultsInjected int64
	BytesToDevice  int64
	BytesToHost    int64
	MemUsed        int64
	SimTotal       sim.Duration
}

// Stats snapshots the operation counters for metrics exposition.
func (d *Device) Stats() DeviceStats {
	d.mu.Lock()
	launches, hToD, dToH, simTotal := d.launches, d.hToD, d.dToH, d.simTotal
	d.mu.Unlock()
	return DeviceStats{
		Mallocs:        d.mallocs.Load(),
		Uploads:        d.uploads.Load(),
		Replaces:       d.replaces.Load(),
		Ingests:        d.ingests.Load(),
		Launches:       launches,
		FaultsInjected: d.faultsInjected.Load(),
		BytesToDevice:  hToD,
		BytesToHost:    dToH,
		MemUsed:        d.memUsed.Load(),
		SimTotal:       simTotal,
	}
}

// PredictTransfer evaluates the device's PCIe model for n bytes without
// charging the bus — the predicted transfer cost the drift tracker compares
// against the measured one.
func (d *Device) PredictTransfer(n int64) sim.Duration {
	return d.cfg.PCIe.Transfer(n)
}

// SetFaultInjector installs (or, with nil, removes) the fault-injection
// hook. Intended for tests and the fault-soak harness.
func (d *Device) SetFaultInjector(fi FaultInjector) {
	d.inject.Store(&fi)
}

// fault consults the installed injector for one operation.
func (d *Device) fault(op string) error {
	if p, _ := d.inject.Load().(*FaultInjector); p != nil && *p != nil {
		if err := (*p).Check(op); err != nil {
			d.faultsInjected.Add(1)
			return err
		}
	}
	return nil
}

// DefaultA100 returns a device with the paper-calibrated defaults: 40 GB of
// memory, PCIe 4.0 transfer model, Table-1-fitted kernel throughputs.
func DefaultA100() *Device {
	return NewDevice(Config{
		Name:     "sim-a100",
		MemBytes: 40 << 30,
		PCIe:     sim.DefaultPCIe(),
		Kernels:  sim.DefaultKernels(),
	})
}

// NewDevice returns a device with the given configuration.
func NewDevice(cfg Config) *Device {
	if cfg.Kernels == nil {
		cfg.Kernels = sim.DefaultKernels()
	}
	return &Device{cfg: cfg}
}

// Name reports the device name.
func (d *Device) Name() string { return d.cfg.Name }

// MemUsed reports allocated device memory.
func (d *Device) MemUsed() int64 { return d.memUsed.Load() }

// MemCapacity reports total device memory.
func (d *Device) MemCapacity() int64 { return d.cfg.MemBytes }

// SimTime reports the device's accumulated simulated busy time.
func (d *Device) SimTime() sim.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.simTotal
}

// Launches reports the number of kernel launches.
func (d *Device) Launches() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.launches
}

// BytesToDevice reports the cumulative host→device transfer volume.
func (d *Device) BytesToDevice() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hToD
}

func (d *Device) charge(t sim.Duration) {
	d.mu.Lock()
	d.simTotal += t
	d.mu.Unlock()
}

// Buffer is a device memory allocation.
type Buffer struct {
	dev   *Device
	bytes int64
	freed atomic.Bool
}

// Malloc allocates device memory.
func (d *Device) Malloc(n int64) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: Malloc(%d): negative size", n)
	}
	if err := d.fault(OpMalloc); err != nil {
		return nil, err
	}
	for {
		used := d.memUsed.Load()
		if used+n > d.cfg.MemBytes {
			return nil, fmt.Errorf("%w: need %d, %d free", ErrOutOfMemory, n, d.cfg.MemBytes-used)
		}
		if d.memUsed.CompareAndSwap(used, used+n) {
			d.mallocs.Add(1)
			return &Buffer{dev: d, bytes: n}, nil
		}
	}
}

// Bytes reports the buffer size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Free releases the buffer; double-free is a no-op.
func (b *Buffer) Free() {
	if b != nil && b.freed.CompareAndSwap(false, true) {
		b.dev.memUsed.Add(-b.bytes)
	}
}

// HostToDevice charges a host→device transfer of n bytes and returns its
// simulated duration.
func (d *Device) HostToDevice(n int64) sim.Duration {
	t := d.cfg.PCIe.Transfer(n)
	d.mu.Lock()
	d.simTotal += t
	d.hToD += n
	d.mu.Unlock()
	return t
}

// DeviceToHost charges a device→host transfer.
func (d *Device) DeviceToHost(n int64) sim.Duration {
	t := d.cfg.PCIe.Transfer(n)
	d.mu.Lock()
	d.simTotal += t
	d.dToH += n
	d.mu.Unlock()
	return t
}

// Launch charges a kernel of the given class with the given amount of work
// (class-specific units; graph kernels use traversed edges).
func (d *Device) Launch(class string, work float64) (sim.Duration, error) {
	m, ok := d.cfg.Kernels[class]
	if !ok {
		return 0, fmt.Errorf("gpu: unknown kernel class %q", class)
	}
	if err := d.fault(OpLaunch); err != nil {
		return 0, err
	}
	t := m.Run(work)
	d.mu.Lock()
	d.simTotal += t
	d.launches++
	d.mu.Unlock()
	return t, nil
}

// ResidentCSR is a CSR replica resident in device memory — the static
// replica of Fig 1 (bottom right), held as csr.Segmented versions. Replace
// swaps in a new version, modelling the "new CSR transferred to the GPU to
// replace the old CSR" step (§5.4) for the segments the version rebuilt.
type ResidentCSR struct {
	dev *Device
	buf *Buffer
	s   *csr.Segmented
}

// UploadCSR allocates device memory for s and transfers it whole.
func UploadCSR(d *Device, s *csr.Segmented) (*ResidentCSR, sim.Duration, error) {
	if err := d.fault(OpUpload); err != nil {
		return nil, 0, err
	}
	buf, err := d.Malloc(s.Bytes())
	if err != nil {
		return nil, 0, err
	}
	t := d.HostToDevice(s.Bytes())
	d.uploads.Add(1)
	return &ResidentCSR{dev: d, buf: buf, s: s}, t, nil
}

// Segmented exposes the device-resident version (host-backed in the
// simulation) for kernels.
func (r *ResidentCSR) Segmented() *csr.Segmented { return r.s }

// Replace installs a new version and frees the old replica's memory. The
// bus carries only the segments the version built (s.NewBytes()); the
// segments it shares with the resident version are already on the device.
// On error (injected fault or OOM) the replica keeps serving its previous
// content: r.s is only swapped after the transfer, so a failed Replace is
// failure-atomic with respect to the replica's readable state. (The old
// buffer may have been freed for the OOM retry; a later successful Replace
// re-establishes the accounting — Free is idempotent.)
func (r *ResidentCSR) Replace(s *csr.Segmented) (sim.Duration, error) {
	if err := r.dev.fault(OpReplace); err != nil {
		return 0, err
	}
	buf, err := r.dev.Malloc(s.Bytes())
	if err != nil {
		// The A100 holds two SF30 CSRs comfortably; if it cannot, free
		// first and retry — trading the brief double-residency away.
		r.buf.Free()
		buf, err = r.dev.Malloc(s.Bytes())
		if err != nil {
			return 0, err
		}
	} else {
		r.buf.Free()
	}
	t := r.dev.HostToDevice(s.NewBytes())
	r.buf = buf
	r.s = s
	r.dev.replaces.Add(1)
	return t, nil
}

// Free releases the replica's device memory.
func (r *ResidentCSR) Free() { r.buf.Free() }

// ResidentDyn is a dynamic-structure replica in device memory — the dynamic
// path of Fig 1 (top right). Ingest coalesces a propagation batch, ships it
// in a single transfer (§5.4: "copy them to the GPU memory all at once")
// and charges the batched-ingestion kernel.
type ResidentDyn struct {
	dev *Device
	buf *Buffer
	g   *dyngraph.Graph
}

// dynBytes estimates device memory for the hash-table structure: table
// headers per vertex slot plus bucket entries at 2× load-factor headroom.
func dynBytes(g *dyngraph.Graph) int64 {
	return int64(g.NumVertexSlots())*16 + g.NumEdges()*16*2
}

// UploadDyn allocates and transfers the dynamic structure.
func UploadDyn(d *Device, g *dyngraph.Graph) (*ResidentDyn, sim.Duration, error) {
	if err := d.fault(OpUpload); err != nil {
		return nil, 0, err
	}
	buf, err := d.Malloc(dynBytes(g))
	if err != nil {
		return nil, 0, err
	}
	t := d.HostToDevice(int64(g.NumVertexSlots())*16 + g.NumEdges()*16)
	d.uploads.Add(1)
	return &ResidentDyn{dev: d, buf: buf, g: g}, t, nil
}

// Graph exposes the device-resident dynamic graph.
func (r *ResidentDyn) Graph() *dyngraph.Graph { return r.g }

// Ingest applies a propagation batch: one coalesced transfer plus the
// batched update kernel (Algorithm 1), with the default worker count. It
// reports the two simulated costs separately.
func (r *ResidentDyn) Ingest(b *delta.Batch) (transfer, kernel sim.Duration, st dyngraph.Stats, err error) {
	return r.IngestWorkers(b, 0)
}

// IngestWorkers is Ingest with an explicit worker count for the host-side
// hash-table updates (workers <= 0 selects GOMAXPROCS).
//
// Ingest is failure-atomic: every fallible step — the injected-fault
// check, the growth allocation, the kernel launch — happens at submission,
// before the host-side twin mutates, so on error the replica still serves
// exactly its previous content and the same batch can be retried or
// abandoned. The launch's work term is predicted by dyngraph.PlanBatch,
// which returns exactly the Stats the application will report.
func (r *ResidentDyn) IngestWorkers(b *delta.Batch, workers int) (transfer, kernel sim.Duration, st dyngraph.Stats, err error) {
	if err := r.dev.fault(OpIngest); err != nil {
		return 0, 0, dyngraph.Stats{}, err
	}
	planned, slots, maxEdges := r.g.PlanBatch(b)
	// Reserve growth up front at the post-batch upper bound; the
	// conservative size is kept rather than re-allocated exactly, because a
	// second allocation after the mutation would be a fallible op past the
	// atomicity point.
	var grown *Buffer
	if newBytes := int64(slots)*16 + maxEdges*16*2; newBytes > r.buf.Bytes() {
		nb, err := r.dev.Malloc(newBytes)
		if err != nil {
			return 0, 0, planned, err
		}
		grown = nb
	}
	transfer = r.dev.HostToDevice(b.TransferBytes())
	kernel, err = r.dev.Launch(sim.KernelIngest, float64(planned.Ops()))
	if err != nil {
		grown.Free()
		return 0, 0, planned, err
	}
	st = r.g.ApplyBatchWorkers(b, workers)
	if grown != nil {
		r.buf.Free()
		r.buf = grown
	}
	r.dev.ingests.Add(1)
	return transfer, kernel, st, nil
}

// Free releases the replica's device memory.
func (r *ResidentDyn) Free() { r.buf.Free() }
