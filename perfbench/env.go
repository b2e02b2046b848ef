package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// stamp describes where and how a result was measured.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	DataFS     string `json:"data_dir_fs"`
	Fsync      string `json:"fsync"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"load_workers"`
	Seconds    int    `json:"seconds"`
}

func newStamp(b *bench) stamp {
	s := stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   cpuModel(),
		DataFS:     "none (in-memory)",
		Fsync:      "none (in-memory)",
		Seed:       b.seed,
		Workers:    b.workers,
		Seconds:    b.seconds,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	if b.w.durable {
		s.DataFS = filesystem(b.dataDir)
		s.Fsync = "interval"
	}
	return s
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

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the allocation and GC counters of the process.
type runtimeCounters struct{ allocBytes, gcCycles float64 }

func readRuntime() runtimeCounters {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return runtimeCounters{allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64())}
}

// retainedHeap collects twice, so that sync.Pool caches are emptied too,
// and returns the live heap in MiB: what the server holds on to, without
// the garbage and pooled buffers whose size depends on when a GC ran.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
