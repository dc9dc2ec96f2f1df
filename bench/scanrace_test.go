package main

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"h2tap/internal/storage"
)

// surviveScanRace must recognise the engine's reserve-vs-scan panic and
// nothing else. The real panic is provoked on the primitive itself: chunks of
// two elements put an appender on a chunk boundary every other append.
func TestScanRaceIsRecognisedAndNothingElse(t *testing.T) {
	v := storage.NewChunkedVector[uint64](1)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); !stop.Load(); i++ {
			v.Append(i)
		}
	}()
	var caught any
	var stack []byte
	scan := func() {
		defer func() {
			if caught = recover(); caught != nil {
				stack = debug.Stack()
			}
		}()
		v.ForEachFrom(0, ^uint64(0), func(uint64, *uint64) bool { return true })
	}
	for deadline := time.Now().Add(5 * time.Second); caught == nil && time.Now().Before(deadline); {
		scan()
	}
	stop.Store(true)
	<-done
	if caught == nil {
		t.Skip("no reserve-vs-scan panic in 5 s: the engine race (ROADMAP item 1) may be fixed; then delete surviveScanRace")
	}
	if !isScanRace(caught, stack) {
		t.Errorf("the reserve-vs-scan panic was not recognised: %v\n%s", caught, stack)
	}

	// Another index panic, raised elsewhere, is not survived.
	other := func() (p any, stack []byte) {
		defer func() { p, stack = recover(), debug.Stack() }()
		var xs []int
		i := 3
		_ = xs[i]
		return
	}
	if p, st := other(); isScanRace(p, st) {
		t.Errorf("an unrelated index panic was taken for the scan race: %v", p)
	}

	// A call that panics with the race once is repeated once; its count shows.
	c := &runCtx{}
	calls := 0
	err := c.surviveScanRace(func() error {
		if calls++; calls == 1 {
			v2 := storage.NewChunkedVector[uint64](1)
			raceOnce(v2)
		}
		return nil
	})
	if err != nil || calls != 2 || c.scanRaces != 1 {
		t.Errorf("err=%v calls=%d scanRaces=%d, want nil, 2, 1", err, calls, c.scanRaces)
	}
}

// raceOnce scans v against a concurrent appender until the scan panics.
func raceOnce(v *storage.ChunkedVector[uint64]) {
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
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		v.ForEachFrom(0, ^uint64(0), func(uint64, *uint64) bool { return true })
	}
}
