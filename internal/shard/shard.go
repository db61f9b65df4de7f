// Package shard partitions a vChain SP across height-range shards.
//
// The paper's SP proves each block's ADS independently, so the block
// space is embarrassingly partitionable: this package splits the chain
// into contiguous height bands assigned round-robin to N shard
// workers, each owning its own storage backend, proof-engine slice,
// and decoded-ADS source (internal/adstore: resident for ephemeral
// shards, a paged LRU over the shard's log for durable ones). A router
// in front preserves the monolithic node's semantics exactly:
//
//   - Commit: a block commits to exactly one shard through the same
//     validate-persist-publish discipline as core.FullNode — validated
//     fully before a byte reaches the owning backend, then published
//     under one lock, so readers never observe the chain height
//     advanced without the matching ADS.
//   - Query: a time-window query fans out to the covering shards in
//     parallel (planner.go); the per-shard VOs tile the window and the
//     union resolves through Verifier.VerifyWindowParts in ONE
//     randomized pairing-product batch.
//   - Budget: every shard engine shares one proofs.Limiter, so N
//     shards split — never multiply — the configured proof worker
//     budget.
//
// Persistence mirrors the monolithic layout per shard: each worker
// owns a crash-safe segmented-log block store in its own subdirectory
// (shard-000, shard-001, …) with the same record format, flock, and
// torn-tail recovery. Reopening replays heights in order across the
// shards; a shard whose tail was lost to a crash bounds the restored
// chain, and surplus records in the other shards are truncated so the
// directory set stays mutually consistent.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/storage"
)

// DefaultBand is the number of consecutive heights per shard band when
// Options.Band is zero. Bands keep inter-block skips (which jump 4, 8,
// … blocks) mostly intra-shard while still spreading a large window
// across all shards.
const DefaultBand = 8

// metaFile records the shard topology inside the store directory so a
// reopen cannot silently reinterpret the record placement.
const metaFile = "SHARDS"

// Options configure a sharded node.
type Options struct {
	// Shards is the number of shard workers. 0 means 1.
	Shards int
	// Band is the number of consecutive heights per shard band:
	// owner(h) = (h / Band) mod Shards. 0 means DefaultBand. The value
	// is fixed at store creation; reopening validates it against the
	// directory's topology record.
	Band int
	// Workers is the total proof-computation budget shared by all
	// shard engines (split, not multiplied: the engines share one
	// proofs.Limiter of this capacity). 0 means one worker per shard.
	Workers int
	// CacheSize bounds each shard engine's proof cache (see
	// proofs.Options.CacheSize).
	CacheSize int
	// ADSCacheBlocks bounds the node's decoded-ADS cache, in blocks,
	// split evenly across the shards (each worker keeps at least one
	// entry). 0 leaves the paged sources unbounded — everything faulted
	// in stays resident, matching the pre-paging footprint once warm.
	// Durable nodes only; an ephemeral shard's decoded set is its only
	// copy and stays fully resident.
	ADSCacheBlocks int
	// Storage configures each shard's segmented-log backend (durable
	// nodes only).
	Storage storage.Options
	// FailureThreshold is the number of consecutive backend failures
	// that trips a shard's circuit breaker (quarantine). 0 means
	// DefaultFailureThreshold; negative disables the breaker.
	FailureThreshold int
	// BreakerCooldown is how long a quarantined shard sheds load
	// before the supervisor attempts a restart. 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// WrapBackend, when set, wraps every shard backend as it is
	// created or re-opened — the hook fault injection (internal/fault)
	// uses to sit between a shard and its disk.
	WrapBackend func(shard int, b storage.Backend) storage.Backend
}

// DefaultFailureThreshold is the consecutive-failure count that trips
// a shard's breaker when Options.FailureThreshold is zero.
const DefaultFailureThreshold = 3

// DefaultBreakerCooldown is the quarantine cooldown before restart
// attempts when Options.BreakerCooldown is zero.
const DefaultBreakerCooldown = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Band < 1 {
		o.Band = DefaultBand
	}
	if o.Workers < 1 {
		o.Workers = o.Shards
	}
	if o.FailureThreshold == 0 {
		o.FailureThreshold = DefaultFailureThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// worker is one shard: its backend, proof engine, and the decoded-ADS
// source for the heights it owns. The router's mutex guards the
// backend and ads fields themselves (RestartShard swaps both); the
// source and backend are internally synchronized, so readers fetch the
// pointers under a brief RLock and page in outside it. The worker's
// own hmu guards only the health state machine (health.go) so health
// can be read without the router lock.
type worker struct {
	id      int
	dir     string
	backend storage.Backend
	engine  *proofs.Engine
	ads     core.ADSSource

	// Health state machine — see health.go. Guarded by hmu.
	hmu         sync.Mutex
	health      Health
	consecutive int
	failures    uint64
	restarts    uint64
	trips       uint64
	trippedAt   time.Time
	lastErr     error
}

// Node is a sharded miner/SP. It implements core.ChainView (the global
// view: ADSAt routes to the owning shard) and the service layer's
// Chain interface, so it can stand wherever a core.FullNode does.
type Node struct {
	builder *core.Builder
	opts    Options

	// dir is the store root for durable nodes; empty for ephemeral
	// nodes. RestartShard re-opens a shard's log relative to it.
	dir string

	// store is the global block index (headers, hash lookup,
	// validation); only ADSs and their persistence are sharded.
	store *chain.Store

	// limiter is the shared proof budget across all shard engines.
	limiter *proofs.Limiter
	shards  []*worker

	// router is the engine handed to the subscription/service layer;
	// it shares the limiter, so subscription proofs draw from the same
	// budget as query proofs.
	router *proofs.Engine

	// mu serializes the commit pipeline and guards every worker's
	// backend and ads fields. Readers (ADSAt, the paged Read callbacks)
	// take it only long enough to fetch a pointer — page-in IO and
	// decode always run outside it, so a slow fault-in never stalls
	// mining and vice versa.
	mu sync.RWMutex

	// SetupStats accumulates miner-side ADS construction cost.
	SetupStats core.SetupStats
}

// ShardReport is one shard's recovery outcome on reopen.
type ShardReport struct {
	// Dir is the shard's subdirectory (relative to the store root).
	Dir string
	// Log is the storage layer's recovery report (torn-tail
	// truncation, dropped segments).
	Log storage.Report
	// Dropped counts structurally valid records truncated because a
	// sibling shard lost earlier heights: the chain can only be
	// restored up to the first gap, and records above it must not
	// resurface as a divergent tail later.
	Dropped int
}

// RecoveryReport summarizes a sharded reopen.
type RecoveryReport struct {
	// Blocks is the restored chain length.
	Blocks int
	// Shards holds one report per shard, in shard order.
	Shards []ShardReport
}

// newNode builds the router skeleton: store, limiter, engines, empty
// workers. Backends are attached by the constructors.
func newNode(difficulty chain.Difficulty, b *core.Builder, opts Options) *Node {
	n := &Node{
		builder: b,
		opts:    opts,
		store:   chain.NewStore(difficulty),
		limiter: proofs.NewLimiter(opts.Workers),
	}
	perShard := opts.Workers / opts.Shards
	if perShard < 1 {
		perShard = 1
	}
	for i := 0; i < opts.Shards; i++ {
		n.shards = append(n.shards, &worker{
			id: i,
			engine: proofs.New(b.Acc, proofs.Options{
				Workers:   perShard,
				CacheSize: opts.CacheSize,
				Limiter:   n.limiter,
			}),
		})
	}
	n.router = proofs.New(b.Acc, proofs.Options{
		Workers:   opts.Workers,
		CacheSize: opts.CacheSize,
		Limiter:   n.limiter,
	})
	return n
}

// New creates an ephemeral sharded node: nothing survives the process.
// Use Open for a node whose chain persists across restarts.
func New(difficulty chain.Difficulty, b *core.Builder, opts Options) *Node {
	n := newNode(difficulty, b, opts.withDefaults())
	for _, w := range n.shards {
		w.backend = n.wrap(w.id, storage.NewNull())
		w.ads = adstore.NewResident[*core.BlockADS]()
	}
	return n
}

// heightRecord maps an owned chain height to its record index within
// the owning shard's log (the inverse of recordHeight): height h sits
// in global round h/(Band*Shards), at offset h%Band within the band.
func (n *Node) heightRecord(h int) int {
	round := n.opts.Band * n.opts.Shards
	return (h/round)*n.opts.Band + h%n.opts.Band
}

// pagedSource builds worker w's paged ADS source: a bounded LRU whose
// misses read the owning record from the shard's log and whose decode
// re-verifies the ADS against the global header index (a verified
// fetch). The Read callback re-fetches w.backend under the router lock
// each time, so the source stays valid across a RestartShard backend
// swap — an in-flight read against the closed old backend fails
// cleanly and surfaces as a page-in error.
func (n *Node) pagedSource(w *worker) core.ADSSource {
	perShard := 0
	if n.opts.ADSCacheBlocks > 0 {
		if perShard = n.opts.ADSCacheBlocks / n.opts.Shards; perShard < 1 {
			perShard = 1
		}
	}
	return adstore.NewPaged(adstore.PagedConfig[*core.BlockADS]{
		Read: func(h int) ([]byte, error) {
			n.mu.RLock()
			be := w.backend
			n.mu.RUnlock()
			return be.Read(n.heightRecord(h))
		},
		Decode:     func(h int, data []byte) (*core.BlockADS, error) { return n.decodePagedADS(h, data) },
		MaxEntries: perShard,
	})
}

// decodePagedADS decodes the ADS half of a shard record and re-checks
// the commitments the lazy reopen deferred against the validated
// global header at that height.
func (n *Node) decodePagedADS(height int, data []byte) (*core.BlockADS, error) {
	ads, err := core.DecodeChainRecordADS(data)
	if err != nil {
		return nil, fmt.Errorf("stored record for height %d: %w", height, err)
	}
	blk, err := n.store.BlockAt(height)
	if err != nil {
		return nil, fmt.Errorf("paging in ADS %d: %w", height, err)
	}
	if err := core.VerifyADSCommitments(n.builder, blk.Header, height, ads); err != nil {
		return nil, err
	}
	return ads, nil
}

// wrap applies the configured backend wrapper, if any.
func (n *Node) wrap(shard int, b storage.Backend) storage.Backend {
	if n.opts.WrapBackend == nil {
		return b
	}
	return n.opts.WrapBackend(shard, b)
}

// shardDir names shard i's subdirectory.
func shardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Open opens (or creates) a sharded block store rooted at dir: one
// segmented-log subdirectory per shard plus a topology record. Records
// replay in height order across the shards; the returned report
// carries each shard's storage recovery outcome. A shard directory
// whose tail was torn by a crash bounds the restored chain — the other
// shards are unaffected, and their records beyond the restored height
// are truncated so mining resumes from a mutually consistent state.
func Open(difficulty chain.Difficulty, b *core.Builder, dir string, opts Options) (*Node, *RecoveryReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: creating store directory: %w", err)
	}
	// Unset topology fields adopt the directory's recorded values, so a
	// reopen needs no out-of-band knowledge of how the store was
	// created; explicit values are still validated against the record.
	shards, band, ok, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		if opts.Shards < 1 {
			opts.Shards = shards
		}
		if opts.Band < 1 {
			opts.Band = band
		}
	}
	opts = opts.withDefaults()
	if err := checkMeta(dir, &opts); err != nil {
		return nil, nil, err
	}

	n := newNode(difficulty, b, opts)
	n.dir = dir
	report := &RecoveryReport{Shards: make([]ShardReport, opts.Shards)}
	closeAll := func() {
		for _, w := range n.shards {
			if w.backend != nil {
				w.backend.Close()
			}
		}
	}
	for i, w := range n.shards {
		w.dir = shardDir(i)
		log, err := storage.Open(filepath.Join(dir, w.dir), opts.Storage)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		w.backend = n.wrap(i, log)
		w.ads = n.pagedSource(w)
		report.Shards[i] = ShardReport{Dir: w.dir, Log: log.Report()}
	}

	// Replay heights 0, 1, 2, … pulling each from its owning shard's
	// next record. The replay is index-only: each record's block half is
	// decoded and re-validated against the chain rules, while the ADS
	// bodies stay on disk until a query pages them in (and verifies them
	// against the headers indexed here). The first shard that runs out
	// of records bounds the restored chain: later heights may exist in
	// other shards, but without the gap filled they can never be served
	// or re-validated, so they are truncated below.
	cursors := make([]int, opts.Shards)
	for {
		h := n.store.Height()
		o := n.owner(h)
		w := n.shards[o]
		if cursors[o] >= w.backend.Len() {
			break
		}
		data, err := w.backend.Read(cursors[o])
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: reading stored block %d: %w", o, h, err)
		}
		blk, err := core.DecodeChainRecordBlock(data)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: stored block %d: %w", o, h, err)
		}
		if err := n.store.Append(blk); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: stored block %d rejected: %w", o, h, err)
		}
		cursors[o]++
	}
	report.Blocks = n.store.Height()

	// Truncate records stranded above the restored height.
	for i, w := range n.shards {
		if surplus := w.backend.Len() - cursors[i]; surplus > 0 {
			if err := w.backend.Truncate(cursors[i]); err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("shard %d: truncating %d stranded records: %w", i, surplus, err)
			}
			report.Shards[i].Dropped = surplus
		}
	}
	return n, report, nil
}

// checkMeta validates (or writes) the directory's topology record. A
// zero opts.Shards/Band adopts the stored topology; a conflicting
// explicit value is an error, because reinterpreting record placement
// would scramble the chain.
func checkMeta(dir string, opts *Options) error {
	shards, band, ok, err := readMeta(dir)
	if err != nil {
		return err
	}
	if !ok {
		content := fmt.Sprintf("shards %d band %d\n", opts.Shards, opts.Band)
		if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(content), 0o644); err != nil {
			return fmt.Errorf("shard: writing topology record: %w", err)
		}
		return nil
	}
	if shards != opts.Shards || band != opts.Band {
		return fmt.Errorf("shard: store has %d shards with band %d, asked for %d/%d "+
			"(the topology is fixed at creation)", shards, band, opts.Shards, opts.Band)
	}
	return nil
}

// readMeta parses the topology record; ok is false when none exists
// yet (a fresh directory).
func readMeta(dir string) (shards, band int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("shard: reading topology record: %w", err)
	}
	if _, err := fmt.Sscanf(string(data), "shards %d band %d", &shards, &band); err != nil || shards < 1 || band < 1 {
		return 0, 0, false, fmt.Errorf("shard: malformed topology record %q", string(data))
	}
	return shards, band, true, nil
}

// owner returns the shard owning height h.
func (n *Node) owner(h int) int {
	return (h / n.opts.Band) % n.opts.Shards
}

// commitLocked is the router's single choke point: every (block, ADS)
// pair enters through it, exactly like core.FullNode's commitLocked
// but routed to the owning shard. The *Locked suffix is the reviewed
// exemption from the lockio rule: during replay the caller is
// single-threaded; during mining the caller holds n.mu.
func (n *Node) commitLocked(blk *chain.Block, ads *core.BlockADS, persist bool) error {
	height := n.store.Height()
	if err := core.ValidateCommit(n.builder, n.store, height, blk, ads); err != nil {
		return err
	}
	w := n.shards[n.owner(height)]
	// Circuit breaker: a quarantined shard sheds load instead of
	// hammering a sick backend. Heights are sequential, so mining
	// stalls (fail-fast, no state touched) until the supervisor
	// restores the shard.
	if !w.admit() {
		return fmt.Errorf("shard %d: committing block %d: %w", w.id, height, ErrShardUnavailable)
	}
	if _, ephemeral := w.backend.(storage.Ephemeral); ephemeral {
		persist = false
	}
	before := w.backend.Len()
	if persist {
		data, err := core.EncodeChainRecord(blk, ads)
		if err != nil {
			return err
		}
		if err := w.backend.Append(data); err != nil {
			w.fail(err, n.opts.FailureThreshold)
			return fmt.Errorf("shard %d: persisting block %d: %w", w.id, height, err)
		}
		w.ok()
	}
	// Source first, block second: readers gate on the store height
	// without taking n.mu, so the ADS must be reachable before the
	// height advances.
	w.ads.Add(height, ads)
	if err := n.store.Append(blk); err != nil {
		// Unreachable after ValidateCommit (commits are serialized),
		// but neither the durable record nor the cached ADS must
		// outlive a rejected append.
		w.ads.InvalidateFrom(height)
		if persist {
			if terr := w.backend.Truncate(before); terr != nil {
				return fmt.Errorf("shard %d: store/backend divergence at block %d: %v (rollback: %v)",
					w.id, height, err, terr)
			}
		}
		return err
	}
	return nil
}

// MineBlock builds the ADS for objs, solves proof-of-work, and commits
// the block to its owning shard. Identical discipline to
// core.FullNode.MineBlock.
func (n *Node) MineBlock(objs []chain.Object, ts int64) (*chain.Block, error) {
	height := n.store.Height()

	start := time.Now()
	ads, err := n.builder.BuildBlock(height, objs, n)
	if err != nil {
		return nil, fmt.Errorf("shard: building ADS: %w", err)
	}
	buildTime := time.Since(start)

	hdr := chain.Header{
		Height:       uint64(height),
		TS:           ts,
		MerkleRoot:   ads.MerkleRoot(),
		SkipListRoot: ads.SkipListRoot(n.builder.Acc),
	}
	if tip := n.store.Tip(); tip != nil {
		hdr.PrevHash = tip.Header.Hash()
		if ts < tip.Header.TS {
			hdr.TS = tip.Header.TS
		}
	}
	solved, err := chain.SolvePoW(hdr, n.store.Difficulty())
	if err != nil {
		return nil, err
	}
	blk := &chain.Block{Header: solved, Objects: objs}

	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.commitLocked(blk, ads, true); err != nil {
		return nil, err
	}
	n.SetupStats.Blocks++
	n.SetupStats.BuildTime += buildTime
	n.SetupStats.ADSBytes += ads.SizeBytes(n.builder.Acc)
	return blk, nil
}

// ADSAt implements core.ChainView: the global view, routed to the
// owning shard's source. (nil, nil) for a height with no block; a
// page-in failure on the shard's log comes back as the error, which
// the degraded query planner converts into breaker pressure and a
// reported gap instead of a panic (see planner.go).
func (n *Node) ADSAt(height int) (*core.BlockADS, error) {
	if height < 0 || height >= n.store.Height() {
		return nil, nil
	}
	w := n.shards[n.owner(height)]
	n.mu.RLock()
	src := w.ads
	n.mu.RUnlock()
	ads, err := src.At(height)
	if err != nil {
		return nil, fmt.Errorf("shard %d: ADS at height %d: %w", w.id, height, err)
	}
	if ads == nil {
		return nil, fmt.Errorf("shard %d: no ADS at committed height %d", w.id, height)
	}
	return ads, nil
}

// HeaderAt implements core.ChainView.
func (n *Node) HeaderAt(height int) (chain.Header, error) {
	b, err := n.store.BlockAt(height)
	if err != nil {
		return chain.Header{}, err
	}
	return b.Header, nil
}

// Headers returns every block header (what light clients sync).
func (n *Node) Headers() []chain.Header { return n.store.Headers() }

// Height returns the chain height.
func (n *Node) Height() int { return n.store.Height() }

// Store exposes the global block index (read-only for callers).
func (n *Node) Store() *chain.Store { return n.store }

// WindowByTime resolves a timestamp window to block heights.
func (n *Node) WindowByTime(ts, te int64) (start, end int, ok bool) {
	return n.store.WindowByTime(ts, te)
}

// Acc exposes the accumulator (public part) for verifiers.
func (n *Node) Acc() accumulator.Accumulator { return n.builder.Acc }

// BitWidth returns the builder's numeric attribute width.
func (n *Node) BitWidth() int { return n.builder.Width }

// Shards returns the shard count.
func (n *Node) Shards() int { return n.opts.Shards }

// Band returns the heights-per-band partitioning constant.
func (n *Node) Band() int { return n.opts.Band }

// ProofEngine returns the router's proof engine (used by the
// subscription/service layer). It shares the deployment's proof
// budget with the shard engines.
func (n *Node) ProofEngine() *proofs.Engine { return n.router }

// ShardStats snapshots each shard's health, proof-engine, and
// ADS-source counters, in shard order.
func (n *Node) ShardStats() []Stats {
	n.mu.RLock()
	sources := make([]core.ADSSource, len(n.shards))
	for i, w := range n.shards {
		sources[i] = w.ads
	}
	n.mu.RUnlock()
	out := make([]Stats, len(n.shards))
	for i, w := range n.shards {
		out[i] = w.stats()
		out[i].ADS = sources[i].Stats()
	}
	return out
}

// ProofStats aggregates every engine's counters — the per-shard
// engines plus the router's — into the process-wide view.
func (n *Node) ProofStats() proofs.Stats {
	total := n.router.Stats()
	for _, s := range n.ShardStats() {
		total = total.Add(s.Proofs)
	}
	return total
}

// Close releases every shard's backend. The node must not be used
// afterwards.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var firstErr error
	for _, w := range n.shards {
		if err := w.backend.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
