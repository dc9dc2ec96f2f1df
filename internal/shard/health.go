package shard

import (
	"errors"
	"fmt"
)

// HealthState is a shard's position in the fault-domain state machine.
//
// Healthy shards serve everything. Degraded shards serve transactions and
// analytics but their replica is stale (the engine's GPU-fault ladder is in
// its degraded rung); degradation is the engine's own state and clears when
// a propagation cycle succeeds. Down shards are quarantined: their durable
// medium latched a persist failure (WAL append/rotate, delta-store persist,
// ENOSPC), so new transactions touching them are shed with ShardDownError
// and stitched analytics exclude them, while the remaining shards keep
// serving. Down clears only through Cluster.RecoverShard, which reopens the
// shard from its own WAL+checkpoint.
type HealthState int32

const (
	ShardHealthy HealthState = iota
	ShardDegraded
	ShardDown
)

// String names the state (metrics, /healthz).
func (s HealthState) String() string {
	switch s {
	case ShardDegraded:
		return "degraded"
	case ShardDown:
		return "down"
	default:
		return "healthy"
	}
}

// ErrShardDown matches any ShardDownError via errors.Is.
var ErrShardDown = errors.New("shard: shard down")

// ShardDownError reports an operation shed because its target shard is
// quarantined. Shard identifies the failure domain (for the server's 503
// detail and for targeting RecoverShard); Cause is the persist failure that
// latched it.
type ShardDownError struct {
	Shard int
	Cause error
}

func (e *ShardDownError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("shard %d down", e.Shard)
	}
	return fmt.Sprintf("shard %d down: %v", e.Shard, e.Cause)
}

func (e *ShardDownError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrShardDown) match without losing the shard
// detail.
func (e *ShardDownError) Is(target error) bool { return target == ErrShardDown }

// ErrCoordinatorDown reports a commit that wrote two or more shards refused
// because the coordinator decision log has latched a failure. Commits with
// one writer are unaffected; Cluster.RecoverCoordinator reopens the log.
var ErrCoordinatorDown = errors.New("shard: coordinator log down")

// ErrShardNotDown reports RecoverShard on a shard that is not quarantined.
var ErrShardNotDown = errors.New("shard: shard is not down")

// ErrRecoveryInProgress reports a second concurrent recovery of the same
// shard.
var ErrRecoveryInProgress = errors.New("shard: recovery already in progress")
