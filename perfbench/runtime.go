package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process counters the
// benchmark reports per operation.
type procSample struct {
	wall       time.Time
	cpu        float64 // user + system seconds, from getrusage
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	gcCycles   uint64
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// procDelta is what happened between two readings.
type procDelta struct {
	Wall, CPU, AllocMB float64
	GCCPUFraction      float64
	GCCycles           float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		Wall:     b.wall.Sub(a.wall).Seconds(),
		CPU:      b.cpu - a.cpu,
		AllocMB:  float64(b.allocBytes-a.allocBytes) / 1e6,
		GCCycles: float64(b.gcCycles - a.gcCycles),
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.GCCPUFraction = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// liveHeap records the live heap the garbage collector found at the end
// of each GC cycle. The runtime keeps no history, so it polls the cycle
// count and /gc/heap/live:bytes every few milliseconds and records the
// live heap whenever a cycle has ended; a cycle a delayed poll misses is
// simply not sampled.
type liveHeap struct {
	mu      sync.Mutex
	samples []float64 // MB, one per observed GC cycle since the last take
	stop    chan struct{}
	wg      sync.WaitGroup
}

const heapPollEvery = 2 * time.Millisecond

func startLiveHeap() *liveHeap {
	h := &liveHeap{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(heapPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[1].Value.Uint64())/1e6)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// take returns the samples recorded since the last take.
func (h *liveHeap) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.samples
	h.samples = nil
	return out
}

// finish stops the sampler and waits for it to exit.
func (h *liveHeap) finish() {
	close(h.stop)
	h.wg.Wait()
}

// hostFacts are recorded with every result so numbers from different
// machines are never compared unknowingly.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readHost() hostFacts {
	return hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// stealSample is the host-wide CPU time from /proc/stat: all of it, and
// the part the hypervisor stole. Hosts without the file read as zero.
type stealSample struct{ total, steal float64 }

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var s stealSample
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		s.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			s.steal = v
		}
	}
	return s
}

// since is the share of host CPU time stolen between two samples.
func (s stealSample) since(start stealSample) float64 {
	return ratio(s.steal-start.steal, s.total-start.total)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; hosts
// without one report "unknown".
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

// calRefS is the calibration kernel's CPU seconds on the host this
// benchmark was written on (2-vCPU Intel Xeon guest, GOMAXPROCS 2,
// go1.24.0): the speed setup_s and cpu_s_per_op_norm are scaled to.
const calRefS = 0.048

// scaleCPU scales cpu seconds, spent just after the calibration kernel
// took cal seconds, to the reference host's speed.
func scaleCPU(cpu, cal float64) float64 { return cpu * calRefS / cal }

// calSink keeps the calibration kernel's results alive.
var calSink atomic.Uint64

// calibrate runs a fixed kernel — sorting, map updates and float math,
// with allocation — on every worker at once and returns the process CPU
// seconds it took. It depends on nothing in the program, so it measures
// only how fast the host runs Go code at the moment: the guest this
// benchmark was written on drifted by up to a quarter in that speed within
// minutes, and CPU time per op drifted with it.
func calibrate() float64 {
	c0 := readProc().cpu
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			sum := 0.0
			for rep := 0; rep < 40; rep++ {
				xs := make([]float64, 4096)
				for i := range xs {
					xs[i] = rng.Float64()
				}
				sort.Float64s(xs)
				m := make(map[int]float64, 512)
				for i, x := range xs {
					m[i%512] += math.Sqrt(x) * math.Log1p(x)
				}
				for _, v := range m {
					sum += v
				}
			}
			calSink.Add(math.Float64bits(sum))
		}()
	}
	wg.Wait()
	return readProc().cpu - c0
}
