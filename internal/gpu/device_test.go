package gpu

import (
	"errors"
	"testing"
	"time"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/dyngraph"
	"h2tap/internal/sim"
)

func smallCSR() *csr.CSR {
	return &csr.CSR{
		Off: []int64{0, 2, 3, 3},
		Col: []uint64{1, 2, 2},
		Val: []float64{1, 2, 3},
	}
}

func TestMallocFreeAccounting(t *testing.T) {
	d := NewDevice(Config{Name: "d", MemBytes: 1000, PCIe: sim.DefaultPCIe()})
	b1, err := d.Malloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 600 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
	if _, err := d.Malloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-alloc = %v, want ErrOutOfMemory", err)
	}
	b1.Free()
	b1.Free() // double-free is a no-op
	if d.MemUsed() != 0 {
		t.Fatalf("MemUsed after free = %d", d.MemUsed())
	}
	if _, err := d.Malloc(1000); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestTransfersChargeSimTime(t *testing.T) {
	d := NewDevice(Config{MemBytes: 1 << 30, PCIe: sim.PCIeModel{BytesPerSec: 1e9}})
	got := d.HostToDevice(1e9)
	if got != sim.Duration(time.Second) {
		t.Fatalf("HostToDevice = %v", got)
	}
	d.DeviceToHost(2e9)
	if d.SimTime() != sim.Duration(3*time.Second) {
		t.Fatalf("SimTime = %v", d.SimTime())
	}
	if d.BytesToDevice() != 1e9 {
		t.Fatalf("BytesToDevice = %d", d.BytesToDevice())
	}
}

func TestLaunch(t *testing.T) {
	d := DefaultA100()
	dur, err := d.Launch(sim.KernelBFS, 260e6)
	if err != nil {
		t.Fatal(err)
	}
	if s := dur.Seconds(); s < 0.05 || s > 0.10 {
		t.Fatalf("BFS launch on 260M edges = %v, want ≈0.07s", dur)
	}
	if d.Launches() != 1 {
		t.Fatalf("Launches = %d", d.Launches())
	}
	if _, err := d.Launch("warp-drive", 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestUploadAndReplaceCSR(t *testing.T) {
	d := DefaultA100()
	c := csr.Cut(smallCSR())
	r, dur, err := UploadCSR(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("upload charged no time")
	}
	if d.MemUsed() != c.Bytes() || d.BytesToDevice() != c.Bytes() {
		t.Fatalf("MemUsed = %d, shipped %d, want %d", d.MemUsed(), d.BytesToDevice(), c.Bytes())
	}
	if r.Segmented() != c {
		t.Fatal("resident CSR mismatch")
	}

	// A merged version ships only the segment it rebuilt.
	bigger, _ := c.Merge(&delta.Batch{Deltas: []delta.Combined{
		{Node: 3, Inserted: true, Ins: []delta.Edge{{Dst: 0, W: 1}}},
	}}, 1)
	if _, err := r.Replace(bigger); err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != bigger.Bytes() {
		t.Fatalf("MemUsed after replace = %d, want %d", d.MemUsed(), bigger.Bytes())
	}
	if got := d.BytesToDevice() - c.Bytes(); got != bigger.NewBytes() {
		t.Fatalf("replace shipped %d bytes, want the rebuilt segment's %d", got, bigger.NewBytes())
	}
	r.Free()
	if d.MemUsed() != 0 {
		t.Fatalf("MemUsed after Free = %d", d.MemUsed())
	}
}

func TestReplaceTightMemoryFallback(t *testing.T) {
	c := csr.Cut(smallCSR())
	// Device fits exactly one copy: Replace must free-then-alloc.
	d := NewDevice(Config{MemBytes: c.Bytes() + 8, PCIe: sim.DefaultPCIe()})
	r, _, err := UploadCSR(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replace(csr.Cut(smallCSR())); err != nil {
		t.Fatalf("tight-memory replace failed: %v", err)
	}
	if d.MemUsed() != c.Bytes() {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
}

func TestUploadTooBig(t *testing.T) {
	d := NewDevice(Config{MemBytes: 10, PCIe: sim.DefaultPCIe()})
	if _, _, err := UploadCSR(d, csr.Cut(smallCSR())); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("upload beyond capacity = %v", err)
	}
}

func TestDynIngest(t *testing.T) {
	d := DefaultA100()
	g := dyngraph.FromCSR(smallCSR())
	r, _, err := UploadDyn(d, g)
	if err != nil {
		t.Fatal(err)
	}
	before := d.SimTime()
	transfer, kernel, st, err := r.Ingest(&delta.Batch{Deltas: []delta.Combined{
		{Node: 0, Ins: []delta.Edge{{Dst: 0, W: 1}}},
		{Node: 5, Inserted: true, Ins: []delta.Edge{{Dst: 1, W: 2}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeInserts != 2 || st.NodeInserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if transfer <= 0 || kernel <= 0 {
		t.Fatalf("transfer %v, kernel %v: want both charged", transfer, kernel)
	}
	if got := d.SimTime() - before; got != transfer+kernel {
		t.Fatalf("device charged %v, ingest reported %v + %v", got, transfer, kernel)
	}
	if dst, _ := r.Graph().Row(5); len(dst) != 1 || dst[0] != 1 {
		t.Fatal("ingest lost the inserted vertex")
	}
	r.Free()
	if d.MemUsed() != 0 {
		t.Fatalf("MemUsed after free = %d", d.MemUsed())
	}
}

func TestMallocNegative(t *testing.T) {
	d := DefaultA100()
	if _, err := d.Malloc(-1); err == nil {
		t.Fatal("negative Malloc accepted")
	}
}
