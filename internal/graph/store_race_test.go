package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"h2tap/internal/storage"
)

// TestNodeSlotsStayBacked races a reader of NumNodeSlots and node against
// AddNode appenders growing the node table one small chunk at a time. A
// slot counted by NumNodeSlots must already be backed by a chunk: between
// an appender's reservation and its chunk growth, the reservation cursor
// is ahead of the table.
func TestNodeSlotsStayBacked(t *testing.T) {
	s := NewStore()
	s.nodes = storage.NewChunkedVector[node](2) // grows every fourth node

	perWriter := 20000
	if testing.Short() {
		perWriter = 5000
	}
	var stop atomic.Bool
	var readerErr error
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		defer func() {
			if r := recover(); r != nil {
				readerErr = fmt.Errorf("reader panicked: %v", r)
			}
		}()
		for !stop.Load() {
			if n := s.NumNodeSlots(); n > 0 {
				if _, err := s.node(n - 1); err != nil {
					readerErr = err
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin()
				if _, err := tx.AddNode("N", nil); err != nil {
					t.Error(err)
					return
				}
				tx.Abort() //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-reader
	if readerErr != nil {
		t.Fatal(readerErr)
	}
}
