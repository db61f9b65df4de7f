package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/proofs"
)

// sample is one operation's outcome. A failed operation keeps its
// latency: failures are counted, never dropped from the percentiles.
type sample struct {
	op      int64
	latency time.Duration
	ok      bool
	voBytes int
	// results is the number of verified result objects.
	results int
	// vo holds the canonical VO encodings of the answer when a
	// self-test asks for them.
	vo [][]byte
	// blockMs is, on ingest-subscribe, the time to mine, commit and
	// fan out the block, without waiting for the deliveries.
	blockMs float64
}

// target is a set-up deployment ready for closed-loop operations.
type target struct {
	// clients is the number of closed-loop clients; each runs op in a
	// loop, the next operation only after the previous completes.
	clients int
	op      func(client int, op int64) sample
	// counters snapshots the layers' own counters.
	counters func() layerCounters
	// report adds workload facts (sizes, disk use) to the report.
	report func(map[string]any)
	close  func() error
}

type layerCounters struct {
	proofs proofs.Stats
	ads    adstore.Stats
}

// phase is the outcome of one measured interval.
type phase struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	before  layerCounters
	after   layerCounters
	// steal is the share of the host's CPU time that the hypervisor
	// gave to other guests during the phase; -1 where /proc/stat is
	// not readable. It explains slow runs on a shared host.
	steal float64
}

// measure runs t's clients until the deadline, or for exactly ops
// operations each when ops > 0. Operation ids continue from *next so
// that spans of different phases never share an id.
func measure(t *target, d time.Duration, ops int, next *atomic.Int64) phase {
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	ticks0 := cpuTicks()
	p := phase{before: t.counters()}
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < t.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			for i := 0; (ops > 0 && i < ops) || (ops == 0 && time.Now().Before(deadline)); i++ {
				op := next.Add(1)
				s := t.op(c, op)
				s.op = op
				local = append(local, s)
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.after = t.counters()
	p.steal = stealShare(ticks0, cpuTicks())
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the first line of /proc/stat: the system's CPU time
// by state (user, nice, system, idle, iowait, irq, softirq, steal,
// ...), or nil where it is not readable.
func cpuTicks() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var ticks []uint64
	for _, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, n)
	}
	return ticks
}

// stealShare is the share of all CPU ticks between two cpuTicks
// readings that were stolen, or -1 when either reading is missing.
func stealShare(a, b []uint64) float64 {
	if a == nil || len(a) != len(b) {
		return -1
	}
	// The first eight states partition the time; guest time is
	// already part of user time.
	var total uint64
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	if total == 0 {
		return -1
	}
	return float64(b[7]-a[7]) / float64(total)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEndOf computes the per-operation end-to-end figures of a phase.
func endToEndOf(p phase) (map[string]metric, int, int) {
	failed := 0
	for _, s := range p.samples {
		if !s.ok {
			failed++
		}
	}
	n := float64(len(p.samples))
	m := latencyFigures(p.samples)
	m["ops_per_s"] = metric{n / p.elapsed.Seconds(), "1/s"}
	m["failed_share"] = metric{float64(failed) / n, "ratio"}
	return m, len(p.samples), failed
}

// setupRuns builds the deployment cfg.setups times and keeps the last
// one; setup_s is the median build time and heap_mib the live heap of
// the kept deployment.
func setupRuns(cfg config, build func(rep int) (*target, error)) (*target, []float64, float64, error) {
	var times []float64
	var t *target
	for rep := 0; rep < cfg.setups; rep++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, nil, 0, fmt.Errorf("closing setup %d: %w", rep-1, err)
			}
			t = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if t, err = build(rep); err != nil {
			return nil, nil, 0, fmt.Errorf("setup %d: %w", rep, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return t, times, heapMiB(), nil
}

// execute is the run shared by the workloads: set up, measure, and
// for a traced run measure again with spans on.
func execute(cfg config, tr *tracer, build func(rep int) (*target, error)) (*result, error) {
	t, setups, heap, err := setupRuns(cfg, build)
	if err != nil {
		return nil, err
	}
	defer t.close()
	res := &result{Metrics: map[string]metric{}, Report: map[string]any{}}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["heap_mib"] = metric{heap, "MiB"}
	res.Report["setup_s_each"] = setups

	var next atomic.Int64
	if !cfg.trace {
		p := measure(t, cfg.seconds, cfg.ops, &next)
		m, attempted, failed := endToEndOf(p)
		for k, v := range m {
			res.Metrics[k] = v
		}
		res.Attempted, res.Failed = attempted, failed
		res.Report["samples"] = attempted
		res.Report["counters"] = counterFigures(p)
		t.report(res.Report)
		addWorkloadFigures(res, p)
		res.samples = p.samples
		return res, nil
	}

	// Traced run. With one client, operations alternate between spans
	// on and wrappers silent, so both sides of the overhead comparison
	// meet the same query mix on the same machine. Two clients overlap,
	// so their run measures a silent half and then a traced half of the
	// same replayed pool.
	var p phase
	var quiet, loud []sample
	if t.clients == 1 {
		op := t.op
		t.op = func(c int, id int64) sample {
			tr.on.Store(id%2 == 0)
			return op(c, id)
		}
		p = measure(t, cfg.seconds, cfg.ops, &next)
		for _, s := range p.samples {
			if s.op%2 == 0 {
				loud = append(loud, s)
			} else {
				quiet = append(quiet, s)
			}
		}
	} else {
		first := measure(t, cfg.seconds/2, cfg.ops, &next)
		tr.on.Store(true)
		p = measure(t, cfg.seconds/2, cfg.ops, &next)
		quiet, loud = first.samples, p.samples
	}
	spans := tr.take()
	m, _, _ := endToEndOf(p)
	for k, v := range m {
		res.Metrics[k] = v
	}
	res.samples = append(quiet, loud...)
	for _, s := range res.samples {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	traced := latencyFigures(loud)
	res.Report["samples"] = map[string]int{"untraced": len(quiet), "traced": len(loud)}
	res.Report["trace_overhead"] = map[string]any{
		"untraced": latencyFigures(quiet),
		"traced":   traced,
		"note":     "operations of this run without and with spans; op_ms_p50 traced over untraced is the tracing overhead",
	}
	t.report(res.Report)
	addWorkloadFigures(res, p)
	a := analyze(spans)
	layerMetrics(res, a, len(loud), p)
	res.Report["trace"] = a.report(len(loud), traced["op_ms_p50"].Value)
	res.spans = spans
	return res, nil
}

// latencyFigures are the latency quantiles and VO bytes of a set of
// operations.
func latencyFigures(samples []sample) map[string]metric {
	var lat []float64
	vo := 0
	for _, s := range samples {
		lat = append(lat, ms(s.latency))
		vo += s.voBytes
	}
	return map[string]metric{
		"op_ms_p50":       {quantile(lat, 0.5), "ms"},
		"op_ms_p90":       {quantile(lat, 0.9), "ms"},
		"vo_bytes_per_op": {float64(vo) / float64(len(samples)), "bytes"},
	}
}

// counterFigures are the layers' own counters over a phase, per
// operation.
func counterFigures(p phase) map[string]float64 {
	n := float64(len(p.samples))
	pa, pb := p.after.proofs, p.before.proofs
	aa, ab := p.after.ads, p.before.ads
	return map[string]float64{
		"proofs.computed_per_op":   float64(pa.Proofs-pb.Proofs) / n,
		"proofs.hit_ratio":         ratio(pa.CacheHits-pb.CacheHits, pa.CacheMisses-pb.CacheMisses),
		"adstore.hit_ratio":        ratio(uint64(aa.Hits-ab.Hits), uint64(aa.Misses-ab.Misses)),
		"adstore.decodes_per_op":   float64(aa.Decodes-ab.Decodes) / n,
		"adstore.evictions_per_op": float64(aa.Evictions-ab.Evictions) / n,
	}
}

// addWorkloadFigures adds the per-workload names of the end-to-end
// figures (query_ms_p50, pub_ms_p50, ...) to the report.
func addWorkloadFigures(res *result, p phase) {
	if p.steal >= 0 {
		res.Report["host_steal_share"] = p.steal
	}
	var block []float64
	for _, s := range p.samples {
		if s.blockMs > 0 {
			block = append(block, s.blockMs)
		}
	}
	if len(block) > 0 {
		res.Report["block_ms_p50"] = quantile(block, 0.5)
		res.Report["block_ms_p90"] = quantile(block, 0.9)
	}
}

// failLog keeps the first few failure reasons for the report.
type failLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *failLog) add(op int64, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf("op %d: %v", op, err))
	}
}

func (f *failLog) list() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string{}, f.msgs...)
}
