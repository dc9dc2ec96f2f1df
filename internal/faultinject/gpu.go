// GPU fault plane: deterministic fault injection at the granularity of
// individual device operations, mirroring what this package does for
// filesystem persist operations. The simulated GPU (internal/gpu) consults
// a GPUPlan at every fault point — allocation, upload, replica replace
// (plain and streamed), dynamic ingest, kernel launch — before the
// operation takes effect, so an injected fault never leaves the simulated
// device state half-mutated. This matches real accelerator semantics:
// cudaMalloc/cudaMemcpy/launch errors surface at submission, before the
// operation runs.
//
// Two fault kinds model the failure taxonomy of fallible device memory and
// transfers (Awad et al., dynamic GPU graphs):
//
//   - Transient: the Nth occurrence of the op fails once; the retry
//     succeeds. Models ECC hiccups, transient OOM from a competing tenant,
//     recoverable transfer errors.
//   - Persistent: every occurrence from the Nth on fails until Heal is
//     called. Models a wedged device that needs a reset — the case that
//     drives the engine through its rebuild fallback into Degraded mode.
package faultinject

import (
	"errors"
	"sync"
)

// ErrGPUInjected is the error returned by a device operation selected by a
// GPUPlan rule. The engine's retry ladder treats it like any other device
// error; tests use errors.Is to tell injected faults from real ones.
var ErrGPUInjected = errors.New("faultinject: injected GPU fault")

// GPU operation names — the fault points internal/gpu checks. Plain
// strings so the gpu package does not need to import this one.
const (
	GPUMalloc  = "malloc"
	GPUUpload  = "upload"
	GPUReplace = "replace"
	GPUIngest  = "ingest"
	GPULaunch  = "launch"
)

// GPUOps lists every fault point, for harnesses that enumerate them.
var GPUOps = []string{GPUMalloc, GPUUpload, GPUReplace, GPUIngest, GPULaunch}

// GPUFaultKind selects transient (fail once) or persistent (fail until
// healed) behavior for an armed rule.
type GPUFaultKind int

const (
	// Transient faults fail exactly the Nth occurrence of the op.
	Transient GPUFaultKind = iota
	// Persistent faults fail the Nth and every later occurrence until Heal.
	Persistent
)

// String names the fault kind.
func (k GPUFaultKind) String() string {
	if k == Persistent {
		return "persistent"
	}
	return "transient"
}

// gpuRule is one armed fault.
type gpuRule struct {
	at   int64
	kind GPUFaultKind
}

// GPUPlan counts device operations per op name and injects faults per the
// armed rules. With no rules armed it only counts, which is how a harness
// discovers the fault points of a workload before enumerating them. The
// zero value is not usable; call NewGPUPlan. All methods are safe for
// concurrent use.
type GPUPlan struct {
	mu       sync.Mutex
	counts   map[string]int64
	rules    map[string]gpuRule
	injected int64
}

// NewGPUPlan returns an empty plan (counting only).
func NewGPUPlan() *GPUPlan {
	return &GPUPlan{counts: make(map[string]int64), rules: make(map[string]gpuRule)}
}

// Arm makes occurrence n (1-based, counted from now on — ResetCounts is
// implied for the op) of the named op fail with the given kind. Arming an
// op replaces its previous rule.
func (p *GPUPlan) Arm(op string, n int64, kind GPUFaultKind) {
	p.mu.Lock()
	p.counts[op] = 0
	p.rules[op] = gpuRule{at: n, kind: kind}
	p.mu.Unlock()
}

// Heal clears every armed rule (a persistent fault's "device reset").
// Counters keep running.
func (p *GPUPlan) Heal() {
	p.mu.Lock()
	p.rules = make(map[string]gpuRule)
	p.mu.Unlock()
}

// ResetCounts zeroes every op counter (rules keep their positions relative
// to the new zero only if re-armed; typically called before arming).
func (p *GPUPlan) ResetCounts() {
	p.mu.Lock()
	p.counts = make(map[string]int64)
	p.mu.Unlock()
}

// Count reports how many occurrences of op have been observed since the
// last ResetCounts/Arm for that op.
func (p *GPUPlan) Count(op string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[op]
}

// Counts returns a copy of all op counters.
func (p *GPUPlan) Counts() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.counts))
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

// Injected reports how many faults have fired.
func (p *GPUPlan) Injected() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// Check assigns the next sequence number to op and returns ErrGPUInjected
// if a rule selects it. It implements the gpu.FaultInjector hook.
func (p *GPUPlan) Check(op string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[op]++
	r, ok := p.rules[op]
	if !ok {
		return nil
	}
	n := p.counts[op]
	fire := false
	switch r.kind {
	case Transient:
		fire = n == r.at
	case Persistent:
		fire = n >= r.at
	}
	if !fire {
		return nil
	}
	p.injected++
	return ErrGPUInjected
}
