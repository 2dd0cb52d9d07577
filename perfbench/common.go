package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// maxLoad is the most goroutines issuing work and the most client
// connections any workload uses. checkEnv refuses a machine with fewer
// CPUs, so the benchmark never offers more concurrency than it can run.
const maxLoad = 2

// envInfo stamps every report with the machine it ran on.
type envInfo struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	CPU        string
}

// checkEnv clamps GOMAXPROCS to the CPU count (it is never raised) and
// refuses a run whose workers or connections would exceed that count.
func checkEnv() (envInfo, error) {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	env := envInfo{NProc: n, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: cpuModel()}
	if env.GoMaxProcs > env.NProc {
		return env, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", env.GoMaxProcs, env.NProc)
	}
	if maxLoad > env.NProc {
		return env, fmt.Errorf("workloads use %d workers and %d connections, more than nproc %d", maxLoad, maxLoad, env.NProc)
	}
	return env, nil
}

func (e envInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", e.NProc, e.GoMaxProcs, e.GoVersion, e.CPU)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// --- reference kernel ---

// Nominal medians of the reference kernel's three parts on the machine
// the benchmark was calibrated on (2 vCPUs of an Intel Xeon VM).
const (
	nominalSortMs = 0.38
	nominalWalkMs = 3.2
	nominalPingMs = 0.067
)

const (
	kernelLen  = 4096    // ints sorted per sample
	chaseLen   = 8 << 20 // uint32 slots walked (32 MiB, beyond the caches)
	chaseSteps = 16384   // dependent loads per sample
	pingRounds = 64      // goroutine hand-offs per sample
)

// refKernel is the reference workload timed metrics are divided by. A
// sample has three parts, each timed on its own: a sort of a fixed
// pseudo-random array in a preallocated buffer (compute and branches), a
// walk along a fixed random cycle through a 32 MiB table (memory
// latency), and hand-offs between two goroutines over unbuffered
// channels (cross-thread wake-ups, which the HTTP workloads lean on).
// It allocates nothing after construction and calls no repository code,
// so its speed tracks only the machine. It runs between units of
// measured work, while nothing else is in flight.
type refKernel struct {
	src, buf   []int
	chase      []uint32 // mapped outside the Go heap, so heap metrics ignore it
	pos        uint32
	ping, pong chan int
	sortMs     []float64
	walkMs     []float64
	pingMs     []float64
	sink       int
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, chaseLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	k := &refKernel{src: make([]int, kernelLen), buf: make([]int, kernelLen),
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseLen),
		ping:  make(chan int), pong: make(chan int),
		sortMs: make([]float64, 0, 4096), walkMs: make([]float64, 0, 4096), pingMs: make([]float64, 0, 4096)}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range k.src {
		k.src[i] = int(next() % 1000003)
	}
	// Sattolo's shuffle: a single cycle through every slot.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	for i := chaseLen - 1; i > 0; i-- {
		j := next() % uint32(i)
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	go func() { // echoes until close
		for v := range k.ping {
			k.pong <- v
		}
		close(k.pong)
	}()
	return k, nil
}

// close stops the echo goroutine and waits for it.
func (k *refKernel) close() {
	close(k.ping)
	for range k.pong {
	}
}

// sample runs the kernel n times.
func (k *refKernel) sample(n int) {
	for i := 0; i < n && len(k.sortMs) < cap(k.sortMs); i++ {
		t0 := time.Now()
		copy(k.buf, k.src)
		slices.Sort(k.buf)
		t1 := time.Now()
		p := k.pos
		for s := 0; s < chaseSteps; s++ {
			p = k.chase[p]
		}
		k.pos = p
		t2 := time.Now()
		for s := 0; s < pingRounds; s++ {
			k.ping <- s
			k.sink += <-k.pong
		}
		t3 := time.Now()
		k.sink += k.buf[kernelLen/2]
		k.sortMs = append(k.sortMs, ms(t1.Sub(t0)))
		k.walkMs = append(k.walkMs, ms(t2.Sub(t1)))
		k.pingMs = append(k.pingMs, ms(t3.Sub(t2)))
	}
}

// slowdown is how much slower than nominal the machine ran the kernel:
// the geometric mean of the three parts' median-to-nominal ratios, so
// no part dominates.
func (k *refKernel) slowdown() float64 {
	if len(k.sortMs) == 0 {
		return 1
	}
	return math.Cbrt(median(k.sortMs) / nominalSortMs * median(k.walkMs) / nominalWalkMs * median(k.pingMs) / nominalPingMs)
}

// scale converts a raw time to nominal speed: raw × scale is the time
// the work would have taken had the machine run the kernel at nominal
// speed during this run.
func (k *refKernel) scale() float64 { return 1 / k.slowdown() }

func (k *refKernel) String() string {
	return fmt.Sprintf("kernel slowdown %.4f (medians: sort %.4f ms, walk %.4f ms, ping %.4f ms; %d samples)",
		k.slowdown(), median(k.sortMs), median(k.walkMs), median(k.pingMs), len(k.sortMs))
}

// --- statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation (0 for
// an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unitStats is what runUnits measured, split by whether a unit ran
// traced (index 1) or not (index 0).
type unitStats struct {
	units   [2]int
	cpu     [2]time.Duration
	wall    [2]time.Duration
	alloc   [2]uint64 // bytes allocated (traced runs only)
	gcs     [2]uint32 // collections (traced runs only)
	peakMiB float64   // largest heap seen between units (traced runs only)
}

// runUnits runs units of work until d has passed, with a burst of the
// reference kernel before each. In a traced run (tr non-nil) every second
// unit runs with tracing on, so traced and untraced units share whatever
// the machine does during the run, and runtime statistics are read
// around each unit; ReadMemStats stops the world briefly, so untraced
// runs skip it. A unit returns the oracle check for its results; the
// checks run once the time is up, so they take none of it.
func runUnits(d time.Duration, kern *refKernel, tr *tracer, unit func(traced bool) (check func())) unitStats {
	var st unitStats
	var m0, m1 runtime.MemStats
	var checks []func()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		kern.sample(kernelBurst)
		k := 0
		if tr != nil {
			k = i % 2
			runtime.ReadMemStats(&m0)
		}
		c0, t0 := cpuTime(), time.Now()
		tr.setOn(k == 1)
		check := unit(k == 1)
		tr.setOn(false)
		st.wall[k] += time.Since(t0)
		st.cpu[k] += cpuTime() - c0
		st.units[k]++
		if tr != nil {
			runtime.ReadMemStats(&m1)
			st.alloc[k] += m1.TotalAlloc - m0.TotalAlloc
			st.gcs[k] += m1.NumGC - m0.NumGC
			st.peakMiB = max(st.peakMiB, float64(m1.HeapAlloc)/(1<<20))
		}
		checks = append(checks, check)
	}
	for _, c := range checks {
		c()
	}
	return st
}

// setRuntime records the untraced units' allocation and GC rates per
// operation and the heap peak.
func setRuntime(out *outcome, st unitStats, ops int) {
	n := float64(max(ops, 1))
	out.layers.set("rt.alloc_kb_per_op", float64(st.alloc[0])/1024/n, "KiB")
	out.layers.set("rt.gc_per_op", float64(st.gcs[0])/n, "count")
	out.layers.set("rt.heap_peak_mb", st.peakMiB, "MB")
}

// liveHeapMB forces collections and returns the live heap in MiB. The
// second collection empties what the first moved into sync.Pool victim
// caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
