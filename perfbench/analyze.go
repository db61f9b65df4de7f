package main

import (
	"sort"
	"strings"
)

// parents lists, for each span a wrapper records, the spans that may
// contain it, outermost last. A wrapper cannot see which request it
// serves, so attach ties it to the most recently started allowed span
// whose interval holds its end (and, for a keyed client span, that
// carries the same key).
var parents = map[string][]string{
	"core.answer":    {"service.rpc", "gateway.http"},
	"shard.answer":   {"service.rpc", "gateway.http"},
	"adstore.fetch":  {"subscribe.process", "core.answer", "shard.answer"},
	"chain.headers":  {"chain.header_sync", "gateway.http"},
	"storage.read":   {"adstore.fetch", "core.answer", "shard.answer", "core.mine", "subscribe.process"},
	"storage.append": {"core.mine"},
	// SP-side accumulator calls.
	"accumulator.": {"adstore.fetch", "core.answer", "shard.answer", "core.mine", "subscribe.process", "gateway.http"},
	// Client-side accumulator calls.
	"accumulator.client_": {"core.vo_decode", "core.verify", "service.delivery"},
}

func allowedParents(name string) []string {
	if p, ok := parents[name]; ok {
		return p
	}
	if strings.HasPrefix(name, "accumulator.client_") {
		return parents["accumulator.client_"]
	}
	if strings.HasPrefix(name, "accumulator.") {
		return parents["accumulator."]
	}
	return nil
}

// analysis is the per-layer breakdown of one traced phase.
type analysis struct {
	// byName aggregates spans of one name.
	byName map[string]*nameStats
	// rootNs and rootSelfNs sum the operations' durations and the part
	// of them no recorded span covers.
	rootNs, rootSelfNs int64
	// unattached counts wrapper spans no allowed parent contains;
	// ambiguous counts those two or more allowed parents contain.
	unattached, ambiguous int
}

type nameStats struct {
	count         int
	totalNs       int64
	selfNs        int64
	n, bytes      int64
	durs          []float64 // ms
	unattachedCnt int
}

// analyze ties wrapper spans to parents, computes self times and
// aggregates by name. Self time is a span's duration minus the part
// of it that its children cover (children running in parallel count
// once).
func analyze(spans []span) *analysis {
	a := &analysis{byName: map[string]*nameStats{}}
	byID := make(map[int64]int, len(spans))
	cands := map[string][]int{}
	for i, s := range spans {
		byID[s.ID] = i
		cands[s.Name] = append(cands[s.Name], i)
	}
	maxDur := map[string]int64{}
	for name, idx := range cands {
		sort.Slice(idx, func(x, y int) bool { return spans[idx[x]].Start < spans[idx[y]].Start })
		for _, i := range idx {
			if d := spans[i].End - spans[i].Start; d > maxDur[name] {
				maxDur[name] = d
			}
		}
	}

	parentOf := make([]int, len(spans))
	for i := range spans {
		parentOf[i] = -1
		s := &spans[i]
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok {
				parentOf[i] = p
			}
			continue
		}
		if s.Name == "op" {
			continue
		}
		best, found := -1, 0
		for _, pname := range allowedParents(s.Name) {
			idx := cands[pname]
			// Candidates start at or before the child's end; scan back
			// while they could still be long enough to contain it.
			k := sort.Search(len(idx), func(j int) bool { return spans[idx[j]].Start > s.End })
			for k--; k >= 0; k-- {
				c := &spans[idx[k]]
				if c.Start < s.End-maxDur[pname] {
					break
				}
				if c.End < s.End || (s.Key >= 0 && c.Key != s.Key) || (s.Op != 0 && c.Op != s.Op) {
					continue
				}
				found++
				if best < 0 || c.Start > spans[best].Start {
					best = idx[k]
				}
			}
		}
		if found > 1 {
			a.ambiguous++
		}
		parentOf[i] = best
		if best < 0 {
			a.unattached++
		}
	}

	children := make([][]int, len(spans))
	for i, p := range parentOf {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		self := dur - covered(spans, s, children[i])
		st := a.byName[s.Name]
		if st == nil {
			st = &nameStats{}
			a.byName[s.Name] = st
		}
		st.count++
		st.totalNs += dur
		st.selfNs += self
		st.n += s.N
		st.bytes += s.Bytes
		st.durs = append(st.durs, float64(dur)/1e6)
		if s.Name == "op" {
			a.rootNs += dur
			a.rootSelfNs += self
		} else if parentOf[i] < 0 {
			st.unattachedCnt++
		}
	}
	return a
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, p *span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// sum adds up a field over the names matching pred.
func (a *analysis) sum(pred func(string) bool, field func(*nameStats) float64) float64 {
	total := 0.0
	for name, st := range a.byName {
		if pred(name) {
			total += field(st)
		}
	}
	return total
}

func isName(n string) func(string) bool { return func(s string) bool { return s == n } }
func hasPrefix(p string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, p) }
}

func isSPAcc(s string) bool {
	return strings.HasPrefix(s, "accumulator.") && !strings.HasPrefix(s, "accumulator.client_")
}

func selfMs(st *nameStats) float64    { return float64(st.selfNs) / 1e6 }
func totalMs(st *nameStats) float64   { return float64(st.totalNs) / 1e6 }
func count(st *nameStats) float64     { return float64(st.count) }
func items(st *nameStats) float64     { return float64(st.n) }
func byteCount(st *nameStats) float64 { return float64(st.bytes) }

// layerMetrics derives the per-layer metrics of a traced run: span
// figures per traced operation, counters per operation of phase p.
func layerMetrics(res *result, a *analysis, tracedOps int, p phase) {
	per := func(v float64) float64 { return v / float64(tracedOps) }
	perAll := func(v float64) float64 { return v / float64(len(p.samples)) }
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	put("accumulator.sp_ms_per_op", "ms", per(a.sum(isSPAcc, selfMs)))
	put("accumulator.prove_calls_per_op", "count", per(a.sum(isName("accumulator.prove"), count)))
	put("accumulator.setup_calls_per_op", "count", per(a.sum(isName("accumulator.setup"), count)))
	put("accumulator.client_ms_per_op", "ms", per(a.sum(hasPrefix("accumulator.client_"), selfMs)))
	put("accumulator.verify_batch_ms_per_op", "ms", per(a.sum(isName("accumulator.client_verify_batch"), selfMs)))
	put("accumulator.client_setup_ms_per_op", "ms", per(a.sum(isName("accumulator.client_setup"), selfMs)))
	put("accumulator.verify_checks_per_op", "count", per(a.sum(isName("accumulator.client_verify_batch"), items)))
	put("accumulator.decode_calls_per_op", "count", per(a.sum(isName("accumulator.client_decode"), items)))
	put("core.self_ms_per_op", "ms", per(a.sum(hasPrefix("core."), selfMs)))
	put("chain.header_sync_ms_per_op", "ms", per(a.sum(isName("chain.header_sync"), totalMs)))
	put("storage.reads_per_op", "count", per(a.sum(isName("storage.read"), count)))
	put("storage.append_bytes_per_op", "bytes", per(a.sum(isName("storage.append"), byteCount)))
	put("shard.parts_per_op", "count", per(a.sum(isName("shard.answer"), items)))
	put("gateway.response_bytes_per_op", "bytes", per(a.sum(isName("gateway.http"), byteCount)))
	put("subscribe.publications_per_op", "count", per(a.sum(isName("service.delivery"), count)))

	for name, v := range counterFigures(p) {
		unit := "count"
		if strings.HasSuffix(name, "_ratio") {
			unit = "ratio"
		}
		put(name, unit, v)
	}

	put("process.cpu_ms_per_op", "ms", perAll(ms(p.cpu)))
	put("process.alloc_kib_per_op", "KiB", perAll(float64(p.alloc)/1024))
	cov := 0.0
	if a.rootNs > 0 {
		cov = 1 - float64(a.rootSelfNs)/float64(a.rootNs)
	}
	put("trace.coverage", "ratio", cov)
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// report is the full per-span-name table of the traced phase, with
// the layer self times and how much of the median operation they
// account for.
func (a *analysis) report(ops int, opP50 float64) map[string]any {
	names := map[string]any{}
	layers := map[string]float64{}
	explained := 0.0
	for name, st := range a.byName {
		row := map[string]any{
			"count_per_op":   float64(st.count) / float64(ops),
			"ms_per_op":      totalMs(st) / float64(ops),
			"self_ms_per_op": selfMs(st) / float64(ops),
			"p50_ms":         median(st.durs),
		}
		if st.n > 0 {
			row["items_per_op"] = float64(st.n) / float64(ops)
		}
		if st.bytes > 0 {
			row["bytes_per_op"] = float64(st.bytes) / float64(ops)
		}
		if st.unattachedCnt > 0 {
			row["unattached"] = st.unattachedCnt
		}
		names[name] = row
		if name == "op" {
			continue
		}
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += selfMs(st) / float64(ops)
		explained += selfMs(st) / float64(ops)
	}
	return map[string]any{
		"spans":                  names,
		"layer_self_ms_per_op":   layers,
		"explained_ms_per_op":    explained,
		"explained_share_of_p50": explained / opP50,
		"unexplained_ms_per_op":  float64(a.rootSelfNs) / 1e6 / float64(ops),
		"unattached_spans":       a.unattached,
		"ambiguous_spans":        a.ambiguous,
		"attribution": "self time = duration minus the union of its children; wrapper spans attach to the most " +
			"recently started allowed span that contains their end (same client key where they carry one); " +
			"with overlapping clients such spans are ambiguous (counted above) and figures are per-operation averages",
	}
}
