package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/vchain-go/vchain"
	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/storage"
	"github.com/vchain-go/vchain/internal/workload"
)

const (
	skipListSize = 3
	// templateSeed draws the query templates (keyword clause and
	// range box). Templates and windows are fixed, so runs on different
	// seeds replay the same query mix and --seed changes the chain's
	// objects that the queries meet. A per-seed mix would make the
	// latency medians mostly a sample of which queries were drawn.
	templateSeed = 20190630
	// windowStride spaces consecutive windows across the chain.
	windowStride = 37
)

// deployment is one built key: the accumulator as the SP/miner sees
// it and as each light client sees it. In traced runs both are
// delegating wrappers around the same key.
type deployment struct {
	raw  accumulator.Accumulator
	diff chain.Difficulty
	tr   *tracer
}

// newDeployment runs key generation through the public facade, which
// is what vchain.Config gives users: the default preset, acc2, both
// indexes, ℓ = 3. The acc2 element encoder is the collision-free
// DictEncoder; the facade's default HashEncoder at capacity 4096
// fails honest queries with "multisets are not disjoint" (README.md).
func newDeployment(cfg config, tr *tracer, ds *workload.Dataset) (*deployment, error) {
	enc := accumulator.NewDictEncoder(cfg.capacity)
	if err := registerDomain(enc, ds); err != nil {
		return nil, err
	}
	sys, err := vchain.NewSystem(vchain.Config{
		Preset:       cfg.preset,
		Accumulator:  "acc2",
		Index:        vchain.IndexBoth,
		SkipListSize: skipListSize,
		Capacity:     cfg.capacity,
		SPWorkers:    spWorkers,
		Encoder:      enc,
		Seed:         []byte(fmt.Sprintf("perfbench/%d", cfg.seed)),
	})
	if err != nil {
		return nil, err
	}
	return &deployment{raw: sys.Accumulator(), diff: chain.Difficulty(sys.Config().Difficulty), tr: tr}, nil
}

// registerDomain gives every element the dataset can produce its
// dictionary id up front, in sorted order: every numeric prefix of
// every dimension, and every vocabulary keyword. Ids assigned on first
// sight would follow map iteration order, so digests and VO bytes
// would differ from run to run.
func registerDomain(enc *accumulator.DictEncoder, ds *workload.Dataset) error {
	seen := map[string]bool{}
	max := int64(1)<<uint(ds.Width) - 1
	for dim := 0; dim < ds.Dims; dim++ {
		for _, el := range core.RangeCover(0, max, dim, ds.Width) {
			seen[el] = true
		}
		for v := int64(0); v <= max; v++ {
			for _, el := range core.Trans(v, dim, ds.Width) {
				seen[el] = true
			}
		}
	}
	for _, kw := range ds.Vocabulary {
		seen[core.KeywordElement(kw)] = true
	}
	els := make([]string, 0, len(seen))
	for el := range seen {
		els = append(els, el)
	}
	sort.Strings(els)
	for _, el := range els {
		if _, err := enc.Encode(el); err != nil {
			return err
		}
	}
	return nil
}

// spAcc is the accumulator the miner, SP and proof engine use.
func (d *deployment) spAcc() accumulator.Accumulator {
	if d.tr == nil {
		return d.raw
	}
	return &tracedAcc{Accumulator: d.raw, tr: d.tr, prefix: "accumulator.", key: -1}
}

// clientAcc is the accumulator one light client (or subscription) uses.
func (d *deployment) clientAcc(key int) accumulator.Accumulator {
	if d.tr == nil {
		return d.raw
	}
	return &tracedAcc{Accumulator: d.raw, tr: d.tr, prefix: "accumulator.client_", key: key}
}

func (d *deployment) builder(width int) *core.Builder {
	return &core.Builder{Acc: d.spAcc(), Mode: core.ModeBoth, SkipSize: skipListSize, Width: width}
}

func (d *deployment) wrapBackend(_ int, be storage.Backend) storage.Backend {
	if d.tr == nil {
		return be
	}
	return &tracedBackend{Backend: be, tr: d.tr}
}

// queryTemplates draws n queries (range box plus one keyword clause)
// over the dataset's schema from the fixed template seed.
func queryTemplates(ds *workload.Dataset, n int, qc workload.QueryConfig) []core.Query {
	qc.Seed = templateSeed
	return ds.RandomQueries(n, qc)
}

// windowed returns a copy of q over blocks [start, start+width-1].
func windowed(q core.Query, start, width int) core.Query {
	q.StartBlock, q.EndBlock = start, start+width-1
	return q
}

// windowStart is the first block of query i's window: consecutive
// queries step windowStride blocks through the chain.
func windowStart(i, blocks, width int) int {
	return i * windowStride % (blocks - width + 1)
}

// oracle evaluates q in plaintext over the generated objects of its
// window: the IDs every verified answer must equal.
func oracle(blocks [][]chain.Object, q core.Query) []chain.ObjectID {
	var ids []chain.ObjectID
	for h := q.StartBlock; h <= q.EndBlock; h++ {
		for _, o := range blocks[h] {
			if q.MatchesObject(o.V, o.W) {
				ids = append(ids, o.ID)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameObjects reports whether a verified result set is exactly the
// oracle's: same IDs, each once, and each object byte-identical to the
// generated one.
func sameObjects(blocks [][]chain.Object, got []chain.Object, want []chain.ObjectID) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make([]chain.ObjectID, len(got))
	for i, o := range got {
		ids[i] = o.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := range ids {
		if ids[i] != want[i] {
			return false
		}
	}
	for _, o := range got {
		h := int(o.TS)
		if h < 0 || h >= len(blocks) || !objectIn(blocks[h], o) {
			return false
		}
	}
	return true
}

func objectIn(blk []chain.Object, o chain.Object) bool {
	for _, g := range blk {
		if g.ID == o.ID {
			return g.Hash() == o.Hash()
		}
	}
	return false
}

// mineAll mines the blocks in height order; block h gets timestamp h.
func mineAll(mine func([]chain.Object, int64) (*chain.Block, error), blocks [][]chain.Object) error {
	for h, objs := range blocks {
		if _, err := mine(objs, int64(h)); err != nil {
			return fmt.Errorf("mining block %d: %w", h, err)
		}
	}
	return nil
}

// heapMiB is the live heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// encodeParts sums the canonical VO encodings of an answer's parts
// and keeps them when asked.
func encodeParts(acc accumulator.Accumulator, parts []core.WindowPart, keep bool) (int, [][]byte) {
	n := 0
	var kept [][]byte
	for _, p := range parts {
		b := core.EncodeVO(acc, p.VO)
		n += len(b)
		if keep {
			kept = append(kept, b)
		}
	}
	return n, kept
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
