// Engine-side wiring into the observability layer (internal/obs). The
// substrates below the engine (mvto, deltastore, wal, gpu) stay obs-free:
// they expose plain func hooks and pull-based counters, and this file is
// where an engine with cfg.Obs set connects them — push hooks for the
// per-event histograms (commit latency, delta appends), GaugeFunc /
// CounterFunc registrations evaluated at scrape time for everything the
// substrates already count. With cfg.Obs nil, none of this runs and the hot
// paths pay a single nil check.
package htap

import (
	"log"
	"strconv"
	"time"

	"h2tap/internal/gpu"
	"h2tap/internal/obs"
)

// itoa is strconv.Itoa, short enough to use in span args inline.
func itoa(n int) string { return strconv.Itoa(n) }

// modelDur converts a cost-model prediction in seconds to a duration,
// clamping the negative values a linear fit's intercept can produce.
func modelDur(secs float64) time.Duration {
	if secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// wireObs connects the engine and its substrates to cfg.Obs. Called once
// from newEngine; re-registration over a shared Observer (experiments
// building several engines) follows last-wins semantics for funcs and
// gauges, while counters and histograms keep accumulating.
func (e *Engine) wireObs() {
	o := e.cfg.Obs
	if o == nil {
		return
	}

	e.store.Oracle().SetCommitObserver(o.ObserveCommit)
	e.ds.SetAppendObserver(func(records, ins, dels int) { o.DeltaAppend(records, ins, dels) })
	o.SetHealthSource(func() (bool, string) {
		h, err := e.Health()
		if h == Degraded {
			st := e.Staleness()
			detail := "degraded"
			if err != nil {
				detail = err.Error()
			}
			return false, detail + "; pending=" + itoa(st.PendingRecords) +
				" ts_lag=" + strconv.FormatUint(st.TSLag, 10)
		}
		return true, "replica fresh within bound"
	})

	r := o.Reg
	r.GaugeFunc("h2tap_health_state",
		"Engine availability state: 0 healthy, 1 degraded.",
		func() float64 {
			if h, _ := e.Health(); h == Degraded {
				return 1
			}
			return 0
		})
	r.GaugeFunc("h2tap_staleness_ts_lag",
		"Upper bound on commit timestamps the replica may be missing.",
		func() float64 { return float64(e.Staleness().TSLag) })
	r.GaugeFunc("h2tap_staleness_pending_records",
		"Captured, still-unconsumed delta records from finished transactions.",
		func() float64 { return float64(e.Staleness().PendingRecords) })
	r.GaugeFunc("h2tap_replica_ts",
		"Replica freshness watermark (reflects every transaction below it).",
		func() float64 { return float64(e.ReplicaTS()) })

	r.GaugeFunc("h2tap_delta_depth",
		"Published-but-unconsumed DELTA_FE records (replica ingestion backlog).",
		func() float64 { return float64(e.ds.Depth()) })
	r.GaugeFunc("h2tap_delta_array_bytes",
		"Byte footprint of the DELTA_FE payload arrays.",
		func() float64 { return float64(e.ds.ArrayBytes()) })
	r.GaugeFunc("h2tap_delta_mode",
		"§6.4 delta-mode flag: 1 while delta propagation beats a rebuild.",
		func() float64 {
			if e.ds.DeltaMode() {
				return 1
			}
			return 0
		})
	r.CounterFunc("h2tap_delta_skipped_txns_total",
		"Committed transactions whose deltas were skipped (rebuild mode).",
		func() float64 { return float64(e.ds.SkippedTxns()) })

	for _, g := range []struct {
		op string
		fn func(gpu.DeviceStats) int64
	}{
		{"malloc", func(s gpu.DeviceStats) int64 { return s.Mallocs }},
		{"upload", func(s gpu.DeviceStats) int64 { return s.Uploads }},
		{"replace", func(s gpu.DeviceStats) int64 { return s.Replaces }},
		{"ingest", func(s gpu.DeviceStats) int64 { return s.Ingests }},
		{"launch", func(s gpu.DeviceStats) int64 { return s.Launches }},
	} {
		fn := g.fn
		r.CounterFunc("h2tap_gpu_ops_total",
			"Successful simulated device operations by kind.",
			func() float64 { return float64(fn(e.dev.Stats())) }, obs.L("op", g.op))
	}
	r.CounterFunc("h2tap_gpu_faults_injected_total",
		"Device operations failed by the fault injector.",
		func() float64 { return float64(e.dev.Stats().FaultsInjected) })
	r.CounterFunc("h2tap_gpu_bytes_total",
		"Bytes moved across the simulated PCIe link by direction.",
		func() float64 { return float64(e.dev.Stats().BytesToDevice) }, obs.L("dir", "h2d"))
	r.CounterFunc("h2tap_gpu_bytes_total",
		"Bytes moved across the simulated PCIe link by direction.",
		func() float64 { return float64(e.dev.Stats().BytesToHost) }, obs.L("dir", "d2h"))
	r.GaugeFunc("h2tap_gpu_mem_used_bytes",
		"Allocated simulated device memory.",
		func() float64 { return float64(e.dev.MemUsed()) })
	r.CounterFunc("h2tap_gpu_sim_seconds_total",
		"Accumulated simulated device busy time.",
		func() float64 { return e.dev.Stats().SimTotal.Seconds() })
}

// observeCycle finishes one propagation cycle's observability: trace cycle
// args and publication, phase histograms, cycle counters, cost-model drift,
// the slow-cycle log line, and the OnCycle callback. Runs under propMu.
func (e *Engine) observeCycle(rep *PropagationReport, tc *obs.Cycle, err error) {
	o := e.cfg.Obs

	if tc != nil {
		tc.Arg("ts", strconv.FormatUint(uint64(rep.TS), 10))
		tc.Arg("records", itoa(rep.Records))
		tc.Arg("workers", itoa(rep.Workers))
		if rep.Rebuild {
			tc.Arg("rebuild", "cost-model")
		}
		if rep.FallbackRebuild {
			tc.Arg("rebuild", "fallback")
		}
		if err != nil {
			tc.Arg("err", err.Error())
		}
		tc.Finish()
	}

	if o != nil {
		if rep.ScanWall > 0 {
			o.ObservePhase("scan", rep.ScanWall)
		}
		if rep.MergeWall > 0 {
			if rep.Rebuild || rep.FallbackRebuild {
				o.ObservePhase("rebuild", rep.MergeWall)
			} else {
				o.ObservePhase("merge", rep.MergeWall)
			}
		}
		if rep.TransferBusSim > 0 {
			o.ObservePhase("transfer", time.Duration(rep.TransferBusSim))
		}
		if rep.IngestSim > 0 {
			o.ObservePhase("ingest", time.Duration(rep.IngestSim))
		}
		if rep.RetryWall > 0 {
			o.ObservePhase("retry", rep.RetryWall)
		}
		o.ObserveCycleDone(obs.CycleStats{
			OK:              err == nil,
			Total:           rep.Total.Total(),
			Records:         rep.Records,
			Deltas:          rep.Deltas,
			Attempts:        rep.Attempts,
			Rebuild:         rep.Rebuild || rep.FallbackRebuild,
			FallbackRebuild: rep.FallbackRebuild,
		})

		// Drift: compare the §6.4 predictions against the walls they model.
		// Only clean delta cycles feed scan/merge (a fallback's MergeWall
		// mixes a failed merge into the rebuild; rebuild drift is recorded
		// at the measurement site in rebuildReplica). Transfer drift uses
		// the full bus busy time, which is what the PCIe model predicts.
		if err == nil && rep.Predicted.FromModel && !rep.Rebuild && !rep.FallbackRebuild {
			o.RecordDrift("scan", rep.Predicted.Scan.Seconds(), rep.ScanWall.Seconds())
			if rep.Predicted.Merge > 0 {
				o.RecordDrift("merge", rep.Predicted.Merge.Seconds(), rep.MergeWall.Seconds())
			}
		}
		if err == nil && e.cfg.Replica == StaticCSR && rep.Predicted.Transfer > 0 && rep.TransferBusSim > 0 {
			o.RecordDrift("transfer", rep.Predicted.Transfer.Seconds(), rep.TransferBusSim.Seconds())
		}
	}

	if e.cfg.SlowCycle > 0 && rep.Total.Total() >= e.cfg.SlowCycle {
		logf := e.cfg.SlowCycleLog
		if logf == nil {
			logf = log.Printf
		}
		logf("htap: slow propagation cycle: total=%v scan=%v merge=%v transfer=%v(bus %v) ingest=%v retry=%v attempts=%d records=%d deltas=%d workers=%d rebuild=%t fallback=%t health=%s err=%v",
			rep.Total.Total(), rep.ScanWall, rep.MergeWall, rep.TransferSim, rep.TransferBusSim,
			rep.IngestSim, rep.RetryWall, rep.Attempts, rep.Records, rep.Deltas,
			rep.Workers, rep.Rebuild, rep.FallbackRebuild, rep.Health, err)
	}

	if e.cfg.OnCycle != nil {
		e.cfg.OnCycle(rep)
	}
}
