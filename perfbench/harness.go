package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"mgba/internal/obs"
)

// tally accumulates one run's measurements. Index 0 of the paired arrays
// holds untraced ops, index 1 traced ops; an untraced run has no traced
// ops, and a traced run alternates the two so that trace.overhead_ratio
// compares ops measured under the same host conditions.
type tally struct {
	setups    []time.Duration    // wall time of each set-up
	setupCPU  []time.Duration    // process CPU time of each set-up
	setupScal []float64          // each set-up's CPU time scaled to host speed, s
	lat       [2][]time.Duration // per-op latency
	busy      [2]time.Duration   // wall time the ops of each class ran in
	opCPU     [2][]time.Duration // process CPU time per op (per batch in calibd-d8)
	opScal    [2][]float64       // opCPU scaled to host speed, ms
	opAlloc   [2][]float64       // MB allocated per op (per batch in calibd-d8)
	refs      []time.Duration    // every reference-loop reading
	setupHeap float64            // live heap in MB once set-up ended
	rssMB     float64            // peak resident set in MB when the last op ended

	attempted, failed int
	problems          []string // first output-check failures, for the log

	acc     obsAcc             // program counters and span histograms over traced ops
	allocs  uint64             // runtime.MemStats.TotalAlloc over traced ops
	gcs     uint32             // runtime.MemStats.NumGC over traced ops
	layer   map[string]float64 // per-layer values by metric name
	guards  []guard            // workload-specific end-to-end guards (QoR, accuracy)
	extra   []string           // configuration and check lines for the table
	digest  hash.Hash64        // op sequence and outputs, in op order
	prefix  uint64             // digest after the first prefixOps ops
	digOps  int                // ops fed into the digest
	spanLog *spanLog           // nil in an untraced run
}

// prefixOps is how many leading ops the prefix digest covers: runs of
// the same seed complete different op counts, but their first ops match.
const prefixOps = 4

// guard is an end-to-end number printed in the table but not registered
// in BENCHMARK.json, because it is deterministic for a seed, applies to
// one workload only, or is zero on a healthy run.
type guard struct {
	name, unit string
	value      float64
}

func newTally(traced bool) *tally {
	t := &tally{layer: make(map[string]float64), acc: make(obsAcc), digest: fnv.New64a()}
	if traced {
		t.spanLog = &spanLog{}
	}
	return t
}

// fail records an op whose output check failed.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// note feeds values into the run digest; endOp closes one op's record.
func (t *tally) note(vals ...any) {
	var b [8]byte
	for _, v := range vals {
		switch x := v.(type) {
		case int:
			binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		case string:
			t.digest.Write([]byte(x))
			continue
		default:
			panic(fmt.Sprintf("perfbench: cannot digest %T", v))
		}
		t.digest.Write(b[:])
	}
}

func (t *tally) endOp() {
	t.digOps++
	if t.digOps == prefixOps {
		t.prefix = t.digest.Sum64()
	}
}

func (t *tally) ops() int { return len(t.lat[0]) + len(t.lat[1]) }

// sample is the process state read around an op, outside its timing;
// obs is read for traced ops only.
type sample struct {
	obs    map[string]any
	allocs uint64
	gcs    uint32
}

func takeSample(traced bool) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{allocs: ms.TotalAlloc, gcs: ms.NumGC}
	if traced {
		s.obs = obs.Snapshot()
	}
	return s
}

// addDelta accumulates the program's work between two samples.
func (t *tally) addDelta(a, b sample) {
	t.acc.add(a.obs, b.obs)
	t.allocs += b.allocs - a.allocs
	t.gcs += b.gcs - a.gcs
}

// obsAcc sums obs.Snapshot deltas: counters by name, histograms as
// name (sum) and name+"#n" (count).
type obsAcc map[string]float64

func (acc obsAcc) add(before, after map[string]any) {
	for name, v := range after {
		switch x := v.(type) {
		case int64:
			prev, _ := before[name].(int64)
			acc[name] += float64(x - prev)
		case obs.HistogramSnapshot:
			prev, _ := before[name].(obs.HistogramSnapshot)
			acc[name] += x.Sum - prev.Sum
			acc[name+"#n"] += float64(x.Count - prev.Count)
		}
	}
}

// sum adds the named entries.
func (acc obsAcc) sum(names ...string) float64 {
	s := 0.0
	for _, n := range names {
		s += acc[n]
	}
	return s
}

// opTimer brackets the timed region of one op: its wall time, the
// process CPU time spent in it and the bytes it allocated. start reads
// the reference loop for the op; start and stop take their samples
// outside the interval they time.
type opTimer struct {
	t      *tally
	traced bool
	before sample
	t0     time.Time
	ref    time.Duration
	cpu0   time.Duration
	d, cpu time.Duration
	alloc  float64 // MB
}

func (o *opTimer) start() {
	o.ref = o.t.refLoop()
	o.before = takeSample(o.traced)
	o.cpu0 = cpuTime()
	o.t0 = time.Now()
}

func (o *opTimer) stop() {
	o.d = time.Since(o.t0)
	o.cpu = cpuTime() - o.cpu0
	after := takeSample(o.traced)
	o.alloc = float64(after.allocs-o.before.allocs) / (1 << 20)
	if o.traced {
		o.t.addDelta(o.before, after)
	}
}

// setupClock times one set-up in wall and process CPU time, after a
// reading of the reference loop.
type setupClock struct {
	t0        time.Time
	ref, cpu0 time.Duration
}

func (t *tally) startSetup() setupClock {
	ref := t.refLoop()
	return setupClock{ref: ref, cpu0: cpuTime(), t0: time.Now()}
}

func (t *tally) endSetup(c setupClock) {
	cpu := cpuTime() - c.cpu0
	t.setups = append(t.setups, time.Since(c.t0))
	t.setupCPU = append(t.setupCPU, cpu)
	t.setupScal = append(t.setupScal, scaled(cpu, c.ref).Seconds())
}

// sequential runs op back to back until the window closes or maxOps ops
// ran, each from a collected heap. A traced run enables obs for every
// second pair of ops (2-3, 6-7, ...): the sizing workloads alternate a
// fresh batch with its inverse, so each class gets both kinds alike. op
// times its call into the program through the timer and checks the
// output after stop; it returns an error only when the run cannot go on.
func sequential(cfg config, t *tally, op func(i int, tm *opTimer) error) error {
	deadline := time.Now().Add(cfg.window())
	for i := 0; cfg.maxOps == 0 || i < cfg.maxOps; i++ {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		traced := cfg.trace && (i/2)%2 == 1
		runtime.GC()
		obs.Enable(traced)
		tm := &opTimer{t: t, traced: traced}
		t.attempted++
		err := op(i, tm)
		obs.Enable(false)
		if err != nil {
			return err
		}
		k := 0
		if traced {
			k = 1
		}
		t.lat[k] = append(t.lat[k], tm.d)
		t.busy[k] += tm.d
		t.opCPU[k] = append(t.opCPU[k], tm.cpu)
		t.opScal[k] = append(t.opScal[k], ms(scaled(tm.cpu, tm.ref)))
		t.opAlloc[k] = append(t.opAlloc[k], tm.alloc)
		t.endOp()
	}
	t.rssMB = peakRSSMB()
	return nil
}

// spanLog keeps the benchmark's own spans in memory; they are written out
// when the run ends. A nil log records nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Op      int    `json:"op"`     // -1 outside the timed ops
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// begin opens a span and returns its ID (-1 on a nil log).
func (l *spanLog) begin(name string, parent, op int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch.IsZero() {
		l.epoch = time.Now()
	}
	l.spans = append(l.spans, spanRec{
		ID: len(l.spans), Parent: parent, Op: op, Name: name,
		StartNS: int64(time.Since(l.epoch)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].EndNS = int64(time.Since(l.epoch))
	l.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (l *spanLog) timed(name string, parent, op int, fn func()) time.Duration {
	id := l.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.end(id)
	return d
}

// programSpans lists the obs span histograms touched during traced ops as
// "path total self count" rows per op, where self time is the span's
// time minus that of its direct children (the longest recorded proper
// prefix of a path is its parent).
func programSpans(acc obsAcc, ops int) []string {
	const pre, suf = "span.", "_ns"
	total := map[string]float64{}
	for name, v := range acc {
		if strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) && acc[name+"#n"] > 0 {
			total[strings.TrimSuffix(strings.TrimPrefix(name, pre), suf)] = v
		}
	}
	self := map[string]float64{}
	for p, v := range total {
		self[p] += v
		for q := p; strings.Contains(q, "."); {
			q = q[:strings.LastIndex(q, ".")]
			if _, ok := total[q]; ok {
				self[q] -= v
				break
			}
		}
	}
	paths := make([]string, 0, len(total))
	for p := range total {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []string
	for _, p := range paths {
		n := acc[pre+p+suf+"#n"]
		out = append(out, fmt.Sprintf("  %-36s %10.3f %10.3f %8.2f", p,
			total[p]/1e6/float64(ops), self[p]/1e6/float64(ops), n/float64(ops)))
	}
	return out
}

// refIters is the reference loop's length, about 10 ms of CPU time.
const refIters = 5_000_000

// refNominal is a round figure near the reference loop's readings on the
// host the README baseline was measured on (9-13 ms). It sets only the
// scale of the scaled times, not their spread.
const refNominal = 10 * time.Millisecond

// refLoop times a fixed chain of dependent shifts and xors in CPU time of
// its own thread, and records the reading. The chain runs at one step per
// clock cycle whatever the memory system does, so its time follows the
// core's clock rate, which drifts on a shared host. It uses none of the
// program's code, so no change to the program moves it.
func (t *tally) refLoop() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	d := threadCPU() - c0
	t.refs = append(t.refs, d)
	return d
}

var refSink uint64

// scaled returns CPU time d as it would read on a host whose reference
// loop takes refNominal, given the loop's reading ref next to d.
func scaled(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}

// threadCPU returns the CPU time of the calling OS thread, to the
// nanosecond (getrusage would lag by up to a scheduler tick).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks reads the host's busy and stolen CPU time from /proc/stat, in
// clock ticks; steal is time the hypervisor ran someone else on our
// virtual CPUs. Zeros when the file is unreadable.
func cpuTicks() (busy, steal uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i < 9; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			steal = v
		default:
			busy += v
		}
	}
	return busy, steal
}

// cpuTime returns the CPU time the process has used so far, over all its
// threads. On a Linux guest with paravirtual steal accounting
// (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the hypervisor gives to another
// tenant is not charged to the process, so CPU time does not move with
// host steal as wall time does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the heap still reachable after a full collection, in
// MB. Two collections, because sync.Pool contents survive the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of ds in ms by linear interpolation.
func quantile(ds []time.Duration, q float64) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / 1e6
	}
	return quantileF(s, q)
}

// quantileF returns the q-quantile of xs by linear interpolation.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
