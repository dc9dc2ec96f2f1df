package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendAndAt(t *testing.T) {
	v := NewChunkedVector[int](4) // 16-element chunks to force directory growth
	const n = 1000
	for i := 0; i < n; i++ {
		idx := v.Append(i * 3)
		if idx != uint64(i) {
			t.Fatalf("Append #%d returned index %d", i, idx)
		}
	}
	if v.Len() != n {
		t.Fatalf("Len = %d, want %d", v.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := *v.At(uint64(i)); got != i*3 {
			t.Fatalf("At(%d) = %d, want %d", i, got, i*3)
		}
	}
}

func TestAppendSliceSpansChunks(t *testing.T) {
	v := NewChunkedVector[uint64](3) // 8-element chunks
	xs := make([]uint64, 100)
	for i := range xs {
		xs[i] = uint64(i) * 7
	}
	start := v.AppendSlice(xs[:37])
	if start != 0 {
		t.Fatalf("first AppendSlice start = %d, want 0", start)
	}
	start2 := v.AppendSlice(xs[37:])
	if start2 != 37 {
		t.Fatalf("second AppendSlice start = %d, want 37", start2)
	}
	got := v.CopyOut(0, len(xs))
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], xs[i])
		}
	}
}

func TestAppendSliceEmpty(t *testing.T) {
	v := NewChunkedVector[int](0)
	v.Append(1)
	if got := v.AppendSlice(nil); got != 1 {
		t.Fatalf("AppendSlice(nil) = %d, want current length 1", got)
	}
	if v.Len() != 1 {
		t.Fatalf("Len changed by empty append: %d", v.Len())
	}
}

func TestReserveThenCopyIn(t *testing.T) {
	v := NewChunkedVector[byte](2) // 4-byte chunks
	start := v.Reserve(10)
	v.CopyIn(start, []byte("0123456789"))
	if string(v.CopyOut(start, 10)) != "0123456789" {
		t.Fatalf("CopyOut mismatch: %q", v.CopyOut(start, 10))
	}
}

func TestForEachLimitAndStop(t *testing.T) {
	v := NewChunkedVector[int](2)
	for i := 0; i < 20; i++ {
		v.Append(i)
	}
	var seen []int
	v.ForEach(7, func(i uint64, x *int) bool {
		seen = append(seen, *x)
		return true
	})
	if len(seen) != 7 {
		t.Fatalf("ForEach visited %d elements, want 7", len(seen))
	}
	for i, x := range seen {
		if x != i {
			t.Fatalf("visit %d saw %d", i, x)
		}
	}
	count := 0
	v.ForEach(100, func(i uint64, x *int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestForEachFrom(t *testing.T) {
	v := NewChunkedVector[int](2) // 4-element chunks
	for i := 0; i < 20; i++ {
		v.Append(i)
	}
	var seen []int
	v.ForEachFrom(6, 15, func(i uint64, x *int) bool {
		seen = append(seen, *x)
		return true
	})
	if len(seen) != 9 || seen[0] != 6 || seen[8] != 14 {
		t.Fatalf("ForEachFrom(6,15) = %v", seen)
	}
	// start >= limit: no visits.
	v.ForEachFrom(10, 10, func(uint64, *int) bool { t.Fatal("visited"); return true })
	v.ForEachFrom(15, 10, func(uint64, *int) bool { t.Fatal("visited"); return true })
	// start mid-chunk to end.
	count := 0
	v.ForEachFrom(17, 1<<30, func(uint64, *int) bool { count++; return true })
	if count != 3 {
		t.Fatalf("tail visits = %d", count)
	}
}

func TestForEachClampsToLen(t *testing.T) {
	v := NewChunkedVector[int](2)
	for i := 0; i < 9; i++ {
		v.Append(i)
	}
	count := 0
	v.ForEach(1<<30, func(i uint64, x *int) bool { count++; return true })
	if count != 9 {
		t.Fatalf("ForEach visited %d, want 9", count)
	}
}

func TestReset(t *testing.T) {
	v := NewChunkedVector[int](2)
	for i := 0; i < 50; i++ {
		v.Append(i)
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("Len after Reset = %d", v.Len())
	}
	if v.Append(42) != 0 {
		t.Fatal("append after Reset did not restart at index 0")
	}
	if *v.At(0) != 42 {
		t.Fatal("element lost after Reset+Append")
	}
}

func TestMemBytesCountsWholeChunks(t *testing.T) {
	v := NewChunkedVector[uint64](4) // 16 elements of 8 bytes = 128 bytes/chunk
	if v.MemBytes(8) != 0 {
		t.Fatalf("empty vector MemBytes = %d", v.MemBytes(8))
	}
	v.Append(1)
	if got := v.MemBytes(8); got != 128 {
		t.Fatalf("one-chunk MemBytes = %d, want 128", got)
	}
	for i := 0; i < 16; i++ {
		v.Append(uint64(i))
	}
	if got := v.MemBytes(8); got != 256 {
		t.Fatalf("two-chunk MemBytes = %d, want 256", got)
	}
}

func TestConcurrentAppendersDisjointRanges(t *testing.T) {
	v := NewChunkedVector[uint64](6)
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				val := uint64(w)<<32 | uint64(i)
				idx := v.Append(val)
				if *v.At(idx) != val {
					t.Errorf("worker %d: readback at %d mismatched", w, idx)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v.Len() != workers*perW {
		t.Fatalf("Len = %d, want %d", v.Len(), workers*perW)
	}
	// Every (worker, i) pair must appear exactly once.
	seen := make(map[uint64]bool, workers*perW)
	v.ForEach(v.Len(), func(i uint64, x *uint64) bool {
		if seen[*x] {
			t.Errorf("duplicate element %#x", *x)
			return false
		}
		seen[*x] = true
		return true
	})
	if len(seen) != workers*perW {
		t.Fatalf("distinct elements = %d, want %d", len(seen), workers*perW)
	}
}

func TestConcurrentSliceAppends(t *testing.T) {
	v := NewChunkedVector[int](4)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				n := 1 + r.Intn(40)
				xs := make([]int, n)
				for j := range xs {
					xs[j] = w*1_000_000 + i*100 + j
				}
				start := v.AppendSlice(xs)
				got := v.CopyOut(start, n)
				for j := range xs {
					if got[j] != xs[j] {
						t.Errorf("worker %d iter %d: slice readback mismatch", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: for any sequence of appended values, CopyOut(0, n) returns them
// in order.
func TestQuickRoundTrip(t *testing.T) {
	f := func(xs []int64) bool {
		v := NewChunkedVector[int64](3)
		for _, x := range xs {
			v.Append(x)
		}
		got := v.CopyOut(0, len(xs))
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendSlice is equivalent to repeated Append.
func TestQuickAppendSliceEquivalence(t *testing.T) {
	f := func(a, b, c []uint64) bool {
		v1 := NewChunkedVector[uint64](2)
		v2 := NewChunkedVector[uint64](5)
		for _, s := range [][]uint64{a, b, c} {
			v1.AppendSlice(s)
			for _, x := range s {
				v2.Append(x)
			}
		}
		if v1.Len() != v2.Len() {
			return false
		}
		n := int(v1.Len())
		x1, x2 := v1.CopyOut(0, n), v2.CopyOut(0, n)
		for i := range x1 {
			if x1[i] != x2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtPanicsBeyondReserved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At beyond reservation did not panic")
		}
	}()
	v := NewChunkedVector[int](2)
	v.Append(1)
	_ = v.At(100)
}

func BenchmarkAppend(b *testing.B) {
	v := NewChunkedVector[uint64](0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Append(uint64(i))
	}
}

func BenchmarkAppendSlice64(b *testing.B) {
	v := NewChunkedVector[uint64](0)
	xs := make([]uint64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.AppendSlice(xs)
	}
}

func BenchmarkParallelAppend(b *testing.B) {
	v := NewChunkedVector[uint64](0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.Append(1)
		}
	})
}

// A scan bounded by Backed never indexes past the chunk directory, even
// while an appender crosses a chunk boundary every other append (the cursor
// moves before the directory grows).
func TestScanBoundedByBackedRacesAppender(t *testing.T) {
	v := NewChunkedVector[uint64](1)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); !stop.Load(); i++ {
			v.Append(i)
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		if b := v.Backed(); b > v.Len() {
			t.Fatalf("Backed %d beyond Len %d", b, v.Len())
		}
		v.ForEachFrom(0, v.Backed(), func(uint64, *uint64) bool { return true })
	}
}
