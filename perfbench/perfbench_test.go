package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallConfig shrinks every workload to seconds-scale: the toy
// pairing preset, one setup, small chains and few subscriptions.
func smallConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.preset = "toy"
	cfg.setups = 1
	cfg.seed = 7
	cfg.seconds = 2 * time.Second
	cfg.coldBlocks, cfg.coldWindow = 16, 8
	cfg.hotBlocks, cfg.hotWindow, cfg.hotPool, cfg.hotADSCache = 32, 8, 4, 4
	cfg.ingestKeepBlocks, cfg.ingestSubs, cfg.ingestClausePool = 4, 6, 3
	cfg.dataDir = t.TempDir()
	return cfg
}

func runWorkload(t *testing.T, cfg config, name string) *result {
	t.Helper()
	res, err := run(cfg, name, workloads[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// resultLine prints res and decodes the last line, the result line.
func resultLine(t *testing.T, res *result, traced bool) map[string]any {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := printResult(f, res, traced); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, and checks that every declared metric is emitted with its
// unit and that every operation verified and matched the oracle.
func TestSmokeEveryWorkload(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t)
			cfg.trace = traced
			res := runWorkload(t, cfg, name)
			line := resultLine(t, res, traced)
			if line["correct"] != true || line["failed"].(float64) != 0 || line["attempted"].(float64) < 1 {
				t.Fatalf("%s traced=%v: %v (failures %v)", name, traced, line, res.Report["failures"])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			metrics := line["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.name].(map[string]any)
				if !ok || got["unit"] != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %v", name, traced, m.name, m.unit, got)
				}
			}
			if traced {
				if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
					t.Errorf("%s: spans cover %.2f of the operations' time", name, cov)
				}
				if n := res.Report["trace"].(map[string]any)["unattached_spans"].(int); n > 0 {
					t.Errorf("%s: %d wrapper spans found no parent", name, n)
				}
			}
		}
	}
}

// TestDroppedResultCountsAsFailed removes one object from verified
// answers: the oracle check must count those operations as failed.
func TestDroppedResultCountsAsFailed(t *testing.T) {
	cfg := smallConfig(t)
	cfg.dropResult = true
	res := runWorkload(t, cfg, "window-cold")
	nonEmpty := 0
	for _, s := range res.samples {
		if s.results > 0 {
			nonEmpty++
		}
	}
	if res.Failed == 0 || res.Failed != nonEmpty {
		t.Fatalf("failed %d of %d operations, want every answer with a result counted", res.Failed, res.Attempted)
	}
	if line := resultLine(t, res, false); line["correct"] != false {
		t.Fatalf("result line claims correct: %v", line)
	}
}

// TestTracingChangesNoAnswer runs the single-client workloads for a
// fixed number of operations with and without tracing: the VOs must be
// byte-identical, operation by operation.
func TestTracingChangesNoAnswer(t *testing.T) {
	for _, name := range []string{"window-cold", "ingest-subscribe"} {
		vos := map[bool]map[int64][][]byte{}
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t)
			cfg.trace, cfg.keepVO, cfg.ops = traced, true, 6
			res := runWorkload(t, cfg, name)
			vos[traced] = map[int64][][]byte{}
			for _, s := range res.samples {
				vos[traced][s.op] = s.vo
			}
		}
		compared := 0
		for op, plain := range vos[false] {
			traced, ok := vos[true][op]
			if !ok {
				continue
			}
			compared++
			if len(plain) != len(traced) {
				t.Fatalf("%s op %d: %d VOs untraced, %d traced", name, op, len(plain), len(traced))
			}
			for i := range plain {
				if !bytes.Equal(plain[i], traced[i]) {
					t.Fatalf("%s op %d: VO %d differs under tracing", name, op, i)
				}
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no operation ran in both modes", name)
		}
	}
}

// TestCountsRepeat runs the single-client workloads twice on one seed
// for a fixed number of operations: their count metrics must repeat
// exactly.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"window-cold", "ingest-subscribe"} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			cfg := smallConfig(t)
			cfg.ops = 6
			res := runWorkload(t, cfg, name)
			got := map[string]float64{"vo_bytes_per_op": res.Metrics["vo_bytes_per_op"].Value}
			for k, v := range res.Report["counters"].(map[string]float64) {
				got[k] = v
			}
			if v, ok := res.Report["disk_bytes_per_block"].(float64); ok {
				got["disk_bytes_per_block"] = v
			}
			if first == nil {
				first = got
				continue
			}
			for k, v := range first {
				if got[k] != v {
					t.Errorf("%s: %s = %v, then %v", name, k, v, got[k])
				}
			}
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json declares exactly
// the metrics the program prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricName
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i].name || m.Unit != c.printed[i].unit {
				t.Errorf("metric %d: declared %s (%s), printed %s (%s)", i, m.Name, m.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
