package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of vs (the mean of the two middles for an even
// count); 0 for no samples.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf returns the least of vs; 0 for no samples.
func minOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		m = math.Min(m, v)
	}
	return m
}

// maxOf returns the most of vs; 0 for no samples.
func maxOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		m = math.Max(m, v)
	}
	return m
}

// scaled returns vs with every value multiplied by f.
func scaled(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), so the spread
// printed here is the one the acceptance procedure computes. Fewer than two
// samples have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the quartile spread as a share of the median.
func iqrShare(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// cpuTime returns the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocSnap is the allocator's running totals; two snapshots bracket a
// region whose allocations are wanted.
type allocSnap struct{ objects, bytes uint64 }

func readAllocs() allocSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocSnap{m.Mallocs, m.TotalAlloc}
}

func (a allocSnap) since(b allocSnap) allocSnap {
	return allocSnap{a.objects - b.objects, a.bytes - b.bytes}
}

// machineStamp says where and under what noise a result was measured.
type machineStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	Network    string  `json:"network"`
}

func stampMachine() machineStamp {
	m := machineStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network:    "loopback 127.0.0.1",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Commit += "+dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			m.LoadAvg1, _ = strconv.ParseFloat(fields[0], 64) // 0 when unreadable
		}
	}
	return m
}
