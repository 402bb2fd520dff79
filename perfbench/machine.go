package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineContext describes the machine a run measured on. It is printed
// with every run and gates nothing: a run taken in a slow phase of a
// shared machine explains itself by a high steal share or a slow
// calibration loop.
type machineContext struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"` // share of CPU time stolen over the run; -1 if unreadable
	CalibS     float64 `json:"calibration_s"`
	WallS      float64 `json:"wall_s"`
}

type machineProbe struct {
	start  time.Time
	cpu0   []uint64
	calibS float64
}

func startMachine() *machineProbe {
	return &machineProbe{start: time.Now(), cpu0: cpuTimes(), calibS: calibrate()}
}

func (p *machineProbe) finish() machineContext {
	c := machineContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealShare: -1,
		CalibS:     p.calibS,
		WallS:      time.Since(p.start).Seconds(),
	}
	if cpu1 := cpuTimes(); p.cpu0 != nil && cpu1 != nil {
		var total uint64
		for i := range cpu1 {
			total += cpu1[i] - p.cpu0[i]
		}
		if total > 0 {
			c.StealShare = float64(cpu1[7]-p.cpu0[7]) / float64(total)
		}
	}
	return c
}

// cpuTimes returns the first eight fields of the aggregate cpu line of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal), or
// nil where that is unavailable.
func cpuTimes() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		v, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

var calibSink uint64

// calibrate times a fixed single-threaded integer loop.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Seconds()
}

// settledHeapMiB collects garbage, lets pending finalizers run, collects
// again, and returns the live heap in MiB. An object with a finalizer
// (the engine sets one on every network that ran a parallel round) is
// freed only by the first collection after its finalizer ran.
func settledHeapMiB() float64 {
	runtime.GC()
	ran := make(chan struct{})
	// 64 bytes is too large for the tiny allocator, so the finalizer runs.
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(ran) })
	runtime.GC()
	select {
	case <-ran:
	case <-time.After(time.Second):
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
