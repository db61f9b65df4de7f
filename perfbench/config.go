package main

import (
	"sort"
	"strings"
	"time"
)

// config is one run's settings. The sizes keep one run (three setups
// and the measured phase) under a minute on a 2-core host; README.md
// gives the reasons for each.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	dataDir  string
	storeDir string

	// preset and capacity configure the acc2 key (default preset,
	// DictEncoder of this capacity).
	preset   string
	capacity int
	// setups is how many times a run builds its deployment from
	// scratch; setup_s is the median, the last one is measured.
	setups int

	coldBlocks, coldWindow int

	hotBlocks, hotWindow, hotPool, hotADSCache int

	ingestKeepBlocks, ingestSubs, ingestClausePool int

	// ops, keepVO and dropResult serve the self-tests: run exactly ops
	// operations per client and phase instead of a timed phase, keep
	// every answer's VO bytes, and drop one verified object before the
	// oracle check.
	ops                int
	keepVO, dropResult bool
}

const (
	// spWorkers is the SP's proof worker budget.
	spWorkers = 2
	// hotShards and hotClients shape window-hot: a 2-shard node and
	// two closed-loop clients, one per core of the reference host.
	hotShards  = 2
	hotClients = 2
	// ingestGenerated bounds the blocks ingest-subscribe can mine in a
	// run; a run mines a few dozen.
	ingestGenerated = 2048
)

func defaultConfig() config {
	return config{
		preset:   "default",
		capacity: 4096,
		setups:   3,

		coldBlocks: 64,
		coldWindow: 32,

		hotBlocks:   128,
		hotWindow:   32,
		hotPool:     8,
		hotADSCache: 16,

		ingestKeepBlocks: 16,
		ingestSubs:       4,
		ingestClausePool: 4,
	}
}

func (c config) describe() map[string]any {
	return map[string]any{
		"seed":            c.seed,
		"seconds":         c.seconds.Seconds(),
		"trace":           c.trace,
		"preset":          c.preset,
		"accumulator":     "acc2",
		"encoder":         "DictEncoder",
		"capacity":        c.capacity,
		"index":           "both",
		"skip_list_size":  skipListSize,
		"setups_per_run":  c.setups,
		"sp_workers":      spWorkers,
		"verify_workers":  "GOMAXPROCS",
		"cold_blocks":     c.coldBlocks,
		"cold_window":     c.coldWindow,
		"hot_blocks":      c.hotBlocks,
		"hot_window":      c.hotWindow,
		"hot_pool":        c.hotPool,
		"hot_shards":      hotShards,
		"hot_ads_cache":   c.hotADSCache,
		"hot_clients":     hotClients,
		"ingest_premined": c.ingestKeepBlocks,
		"ingest_subs":     c.ingestSubs,
		"ingest_clauses":  c.ingestClausePool,
	}
}

// workloadFunc runs one named workload and returns its measurements.
type workloadFunc func(cfg config) (*result, error)

var workloads = map[string]workloadFunc{
	"window-cold":      runCold,
	"window-hot":       runHot,
	"ingest-subscribe": runIngest,
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metric is one typed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	Attempted, Failed int
	Metrics           map[string]metric
	Report            map[string]any
	spans             []span
	// samples holds every measured operation, in phase order.
	samples []sample
}

type metricName struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (an operation is a verified query on the
// window workloads and a mined block with all its verified deliveries
// on ingest-subscribe).
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"vo_bytes_per_op", "bytes"},
}

// perLayer are the traced run's metrics. Times are only those of
// layers every workload exercises, so none reads zero by construction;
// layers that only some workloads reach report counts here and their
// times in the report line.
var perLayer = []metricName{
	{"accumulator.sp_ms_per_op", "ms"},
	{"accumulator.prove_calls_per_op", "count"},
	{"accumulator.setup_calls_per_op", "count"},
	{"accumulator.client_ms_per_op", "ms"},
	{"accumulator.verify_batch_ms_per_op", "ms"},
	{"accumulator.client_setup_ms_per_op", "ms"},
	{"accumulator.verify_checks_per_op", "count"},
	{"accumulator.decode_calls_per_op", "count"},
	{"core.self_ms_per_op", "ms"},
	{"chain.header_sync_ms_per_op", "ms"},
	{"proofs.computed_per_op", "count"},
	{"proofs.hit_ratio", "ratio"},
	{"adstore.hit_ratio", "ratio"},
	{"adstore.decodes_per_op", "count"},
	{"adstore.evictions_per_op", "count"},
	{"storage.reads_per_op", "count"},
	{"storage.append_bytes_per_op", "bytes"},
	{"shard.parts_per_op", "count"},
	{"gateway.response_bytes_per_op", "bytes"},
	{"subscribe.publications_per_op", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.alloc_kib_per_op", "KiB"},
	{"trace.coverage", "ratio"},
}
