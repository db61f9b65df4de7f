package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/adstore"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/storage"
)

// ADSSource is the node's decoded-ADS store: resident (every ADS in
// RAM, the historical behavior) or paged (a bounded LRU over the
// storage backend, so node footprint no longer grows with chain
// length). See internal/adstore.
type ADSSource = adstore.Source[*BlockADS]

// FullNode is a miner/SP node: the chain store plus the per-block ADS
// bodies (only the roots of which live in headers). It implements
// ChainView for the Builder and the SP.
//
// Every (block, ADS) pair enters the node through one atomic commit
// pipeline (commitLocked) that validates, persists to the pluggable
// storage backend, and publishes both halves under a single lock —
// readers can never observe the chain height advanced without the
// matching ADS.
type FullNode struct {
	// Store is the in-RAM block index: headers, hash lookup, and
	// validation rules. It is populated exclusively through the commit
	// pipeline; external callers must treat it as read-only.
	Store *chain.Store
	// Builder constructs the ADS for mined blocks.
	Builder *Builder

	// mu serializes the commit pipeline. Readers never take it: ADSAt
	// gates on the store height and reads the source, both internally
	// synchronized, so a slow page-in never stalls mining and vice
	// versa.
	mu sync.RWMutex
	// ads owns the decoded ADS bodies; commits publish into it and
	// ADSAt reads through it.
	ads ADSSource

	// backend is the pluggable block store persisting committed
	// records (the discarding storage.Null for plain in-memory nodes).
	backend storage.Backend

	// Proofs is the node's shared proof engine: every SP derived from
	// this node routes its disjointness proofs through it, so repeated
	// and overlapping queries reuse cached proofs. Set it (e.g. to a
	// deployment-wide engine) before the first SP call; left nil, a
	// default engine is created lazily.
	Proofs   *proofs.Engine
	proofsMu sync.Mutex

	// SetupStats accumulates miner-side ADS construction cost, feeding
	// Table 1.
	SetupStats SetupStats
}

// SetupStats aggregates ADS construction measurements.
type SetupStats struct {
	// Blocks is the number of blocks built.
	Blocks int
	// BuildTime is the total ADS construction time.
	BuildTime time.Duration
	// ADSBytes is the total ADS size.
	ADSBytes int
}

// NodeOption tunes a FullNode's ADS residency.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	cacheBlocks int
}

// WithADSCache bounds the node's decoded-ADS cache to at most blocks
// entries (<= 0 leaves the entry count unbounded). It only applies to
// nodes over a durable backend — an ephemeral node's decoded set is
// its only copy and stays fully resident.
func WithADSCache(blocks int) NodeOption {
	return func(c *nodeConfig) { c.cacheBlocks = blocks }
}

// NewFullNode creates an ephemeral node with the given proof-of-work
// difficulty and ADS builder: nothing survives the process, and no
// persistence cost is paid. Use NewFullNodeOn or OpenFullNode for
// durability.
func NewFullNode(difficulty chain.Difficulty, b *Builder) *FullNode {
	n, err := NewFullNodeOn(difficulty, b, storage.NewNull())
	if err != nil {
		// Impossible: an empty backend has nothing to replay.
		panic(err)
	}
	return n
}

// NewFullNodeOn creates a node over an existing storage backend. The
// reopen is index-only: each stored record's block half is decoded and
// re-validated against the difficulty and linkage rules, but the ADS
// bodies stay on the backend until a query pages them in — at which
// point they are checked against their header commitments (a verified
// fetch), so cold start costs one block decode per record, not a
// re-mine and not even an ADS decode. Without a cache option the
// paged set is unbounded (everything faulted in stays, matching the
// old footprint once warm); WithADSCache bounds it.
// The node owns the backend from here on (Close closes it); every
// block mined later is persisted to it at commit time.
func NewFullNodeOn(difficulty chain.Difficulty, b *Builder, be storage.Backend, opts ...NodeOption) (*FullNode, error) {
	var cfg nodeConfig
	for _, o := range opts {
		o(&cfg)
	}
	n := &FullNode{Store: chain.NewStore(difficulty), Builder: b, backend: be}
	if _, ephemeral := be.(storage.Ephemeral); ephemeral {
		n.ads = adstore.NewResident[*BlockADS]()
	} else {
		n.ads = adstore.NewPaged(adstore.PagedConfig[*BlockADS]{
			Read:       be.Read,
			Decode:     n.decodePagedADS,
			MaxEntries: cfg.cacheBlocks,
		})
	}
	for i := 0; i < be.Len(); i++ {
		data, err := be.Read(i)
		if err != nil {
			return nil, fmt.Errorf("core: reading stored block %d: %w", i, err)
		}
		blk, err := DecodeChainRecordBlock(data)
		if err != nil {
			return nil, fmt.Errorf("core: stored block %d: %w", i, err)
		}
		if err := n.Store.Append(blk); err != nil {
			return nil, fmt.Errorf("core: stored block %d rejected: %w", i, err)
		}
	}
	return n, nil
}

// decodePagedADS is the paged source's decode callback: it decodes the
// ADS half of record height and re-verifies the commitments the lazy
// reopen deferred — the rebuilt roots must match the validated header,
// so a tampered record surfaces at page-in exactly as it would have at
// an eager open.
func (n *FullNode) decodePagedADS(height int, data []byte) (*BlockADS, error) {
	ads, err := DecodeChainRecordADS(data)
	if err != nil {
		return nil, fmt.Errorf("core: stored block %d: %w", height, err)
	}
	blk, err := n.Store.BlockAt(height)
	if err != nil {
		return nil, fmt.Errorf("core: paging in ADS %d: %w", height, err)
	}
	if err := VerifyADSCommitments(n.Builder, blk.Header, height, ads); err != nil {
		return nil, fmt.Errorf("core: paging in ADS %d: %w", height, err)
	}
	return ads, nil
}

// OpenFullNode opens (or creates) the segmented-log block store in dir
// and indexes it into a node: the durable counterpart of NewFullNode.
// A crash-torn log tail is truncated to the last valid record before
// replay (see storage.Open). The reopen is lazy — see NewFullNodeOn.
func OpenFullNode(difficulty chain.Difficulty, b *Builder, dir string, opts storage.Options, nopts ...NodeOption) (*FullNode, error) {
	log, err := storage.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	n, err := NewFullNodeOn(difficulty, b, log, nopts...)
	if err != nil {
		log.Close()
		return nil, err
	}
	return n, nil
}

// Backend exposes the node's storage backend (e.g. to report recovery
// statistics from a storage.Log).
func (n *FullNode) Backend() storage.Backend { return n.backend }

// Close releases the storage backend. The node must not be used
// afterwards.
func (n *FullNode) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.backend.Close()
}

// ADSAt implements ChainView: (nil, nil) for a height with no block,
// the ADS (paged in if necessary) for a committed height. A page-in
// failure — IO error, corrupt record, failed commitment check — comes
// back as the error; callers must surface it, not treat it as absence.
func (n *FullNode) ADSAt(height int) (*BlockADS, error) {
	if height < 0 || height >= n.Store.Height() {
		return nil, nil
	}
	ads, err := n.ads.At(height)
	if err != nil {
		return nil, fmt.Errorf("core: ADS at height %d: %w", height, err)
	}
	if ads == nil {
		return nil, fmt.Errorf("core: no ADS at committed height %d", height)
	}
	return ads, nil
}

// ADSStats snapshots the node's ADS-source counters (cache hits,
// misses, decodes, footprint).
func (n *FullNode) ADSStats() adstore.Stats { return n.ads.Stats() }

// HeaderAt implements ChainView.
func (n *FullNode) HeaderAt(height int) (chain.Header, error) {
	b, err := n.Store.BlockAt(height)
	if err != nil {
		return chain.Header{}, err
	}
	return b.Header, nil
}

// MineBlock builds the ADS for objs, solves proof-of-work, and appends
// the block. It returns the new block.
func (n *FullNode) MineBlock(objs []chain.Object, ts int64) (*chain.Block, error) {
	height := n.Store.Height()

	start := time.Now()
	ads, err := n.Builder.BuildBlock(height, objs, n)
	if err != nil {
		return nil, fmt.Errorf("core: building ADS: %w", err)
	}
	buildTime := time.Since(start)

	hdr := chain.Header{
		Height:       uint64(height),
		TS:           ts,
		MerkleRoot:   ads.MerkleRoot(),
		SkipListRoot: ads.SkipListRoot(n.Builder.Acc),
	}
	if tip := n.Store.Tip(); tip != nil {
		hdr.PrevHash = tip.Header.Hash()
		if ts < tip.Header.TS {
			hdr.TS = tip.Header.TS
		}
	}
	solved, err := chain.SolvePoW(hdr, n.Store.Difficulty())
	if err != nil {
		return nil, err
	}
	blk := &chain.Block{Header: solved, Objects: objs}

	// One atomic commit: validate, persist, publish block and ADS under
	// a single lock. A concurrent reader can never see the store at
	// h+1 with ADSAt(h) still nil, and a losing concurrent miner fails
	// cleanly here without touching any state.
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.commitLocked(blk, ads, true); err != nil {
		return nil, err
	}
	n.SetupStats.Blocks++
	n.SetupStats.BuildTime += buildTime
	n.SetupStats.ADSBytes += ads.SizeBytes(n.Builder.Acc)
	return blk, nil
}

// ProofEngine returns the node's shared proof engine, creating a
// default one (single default worker, default cache) on first use.
func (n *FullNode) ProofEngine() *proofs.Engine {
	n.proofsMu.Lock()
	defer n.proofsMu.Unlock()
	if n.Proofs == nil {
		n.Proofs = proofs.New(n.Builder.Acc, proofs.Options{})
	}
	return n.Proofs
}

// SP returns a query engine over this node's chain, backed by the
// shared proof engine.
func (n *FullNode) SP(batch bool) *SP {
	return &SP{Acc: n.Builder.Acc, View: n, Batch: batch, Engine: n.ProofEngine()}
}

// SPWith returns a query engine with an explicit proof-worker count.
func (n *FullNode) SPWith(batch bool, parallelism int) *SP {
	return &SP{Acc: n.Builder.Acc, View: n, Batch: batch, Parallelism: parallelism, Engine: n.ProofEngine()}
}

// Acc exposes the node's accumulator (public part) for verifiers.
func (n *FullNode) Acc() accumulator.Accumulator { return n.Builder.Acc }

// Height returns the chain height.
func (n *FullNode) Height() int { return n.Store.Height() }

// Headers returns every block header (what light clients sync).
func (n *FullNode) Headers() []chain.Header { return n.Store.Headers() }

// BitWidth returns the builder's numeric attribute width.
func (n *FullNode) BitWidth() int { return n.Builder.Width }

// ProofStats snapshots the node's proof-engine counters. On a sharded
// node the same method aggregates across shards; the service layer
// calls it without caring which it has.
func (n *FullNode) ProofStats() proofs.Stats { return n.ProofEngine().Stats() }

// TimeWindowParts answers a time-window query as a part list: the
// unsharded node returns one part spanning the whole window. The
// method exists so the service layer can serve monolithic and sharded
// nodes through one interface; verifiers resolve the parts via
// Verifier.VerifyWindowParts (identical to VerifyTimeWindow for a
// single part). The context bounds the whole proof walk.
func (n *FullNode) TimeWindowParts(ctx context.Context, q Query, batched bool) ([]WindowPart, error) {
	vo, err := n.SP(batched).TimeWindowQueryCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	return []WindowPart{{Start: q.StartBlock, End: q.EndBlock, VO: vo}}, nil
}

// TimeWindowDegraded implements the service layer's degraded query
// entry point. A monolithic node has no shards to lose: it either
// answers the full window or fails — degradation never yields gaps
// here, matching the strict path exactly.
func (n *FullNode) TimeWindowDegraded(ctx context.Context, q Query, batched bool) ([]WindowPart, []Gap, error) {
	parts, err := n.TimeWindowParts(ctx, q, batched)
	return parts, nil, err
}
