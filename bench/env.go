package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"h2tap/internal/vfs"
)

// pinnedFsync is the device model of the durable workloads: every fsync
// costs this long (vfs.SlowSync) and nothing else, because the real device
// under a build box varies too much from run to run to carry a latency metric.
const pinnedFsync = 400 * time.Microsecond

// pinnedDevice is that model as a filesystem: the real one for everything but
// the flush, which is the pinned sleep alone. With the real fsync left under
// the sleep (vfs.SlowSync(vfs.OS(), …)) its kernel work — journal commit,
// block-device interrupts — took a varying share of two cores from whatever
// ran beside the commits: on shard-2pc, five WALs to a cross-shard commit,
// ten-seed medians of the same code half an hour apart read 9.8 and 11.5 ms
// commit_p95_us, 578 and 490 commits/s, and analytics_p95_ms spread 0.11 to
// 0.12 where it spreads 0.05 to 0.08 on the model alone. The data still goes
// through write() to real files, which close and reopen read back; the real
// device is reported beside every result as vfs.fsync_probe_us.
func pinnedDevice() vfs.FS {
	return vfs.SlowSync(modelledFlush{vfs.OS()}, pinnedFsync)
}

// modelledFlush makes every flush of the filesystem under it a no-op.
type modelledFlush struct{ vfs.FS }

func (m modelledFlush) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := m.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return unflushedFile{f}, nil
}

func (modelledFlush) SyncDir(string) error { return nil }

type unflushedFile struct{ vfs.File }

func (unflushedFile) Sync() error { return nil }

// environment is the fingerprint printed with every result: the same code
// on another box gives other numbers, and these say which box it was.
type environment struct {
	GoVersion        string  `json:"go_version"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"nproc"`
	CPUModel         string  `json:"cpu_model"`
	FsyncProbeUs     float64 `json:"vfs_fsync_probe_us"` // raw 4 KiB write+fsync on the work directory's device
	SleepOvershootUs float64 `json:"sleep_overshoot_us"` // time.Sleep(pinnedFsync) − pinnedFsync: what a pinned fsync really costs
}

func fingerprint(workDir string) environment {
	return environment{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		CPUModel:         cpuModel(),
		FsyncProbeUs:     fsyncProbe(workDir),
		SleepOvershootUs: sleepOvershoot(),
	}
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: %s GOMAXPROCS=%d nproc=%d cpu=%q fsync_probe=%.0fus sleep(%v) overshoot=%.0fus\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.FsyncProbeUs, pinnedFsync, e.SleepOvershootUs)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsyncProbe is the median microseconds of an unpinned 4 KiB write+fsync.
func fsyncProbe(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(now()-t0)/1e3)
	}
	return median(us)
}

func sleepOvershoot() float64 {
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := now()
		time.Sleep(pinnedFsync)
		us = append(us, float64(now()-t0-int64(pinnedFsync))/1e3)
	}
	return median(us)
}
