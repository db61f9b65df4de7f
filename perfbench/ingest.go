package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/storage"
	"github.com/vchain-go/vchain/internal/subscribe"
	"github.com/vchain-go/vchain/internal/workload"
)

// deliveryWait bounds how long a block waits for its publications
// before the operation fails.
const deliveryWait = time.Minute

// runIngest is ingest-subscribe: a durable monolithic WX node on the
// segmented log (fsync per commit) with standing subscriptions on one
// gob connection. The miner mines the next block only after every
// subscription's delivery for the previous one has arrived verified;
// an operation is one such block.
func runIngest(cfg config) (*result, error) {
	ds, err := workload.Generate(workload.Config{Kind: workload.WX, Blocks: cfg.ingestKeepBlocks + ingestGenerated, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	// Ranges of 0.3 per dimension match often enough that the result
	// count, and with it the work per block, varies little by seed.
	subs := queryTemplates(ds, cfg.ingestSubs, workload.QueryConfig{RangeDims: 2, Selectivity: 0.3, SharedClausePool: cfg.ingestClausePool})
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fails := &failLog{}
	var dir string

	build := func(rep int) (*target, error) {
		d, err := newDeployment(cfg, tr, ds)
		if err != nil {
			return nil, err
		}
		dir = filepath.Join(cfg.storeDir, fmt.Sprintf("ingest-%d", rep))
		log, err := storage.Open(dir, storage.Options{})
		if err != nil {
			return nil, err
		}
		node, err := core.NewFullNodeOn(d.diff, d.builder(ds.Width), d.wrapBackend(0, log))
		if err != nil {
			log.Close()
			return nil, err
		}
		node.Proofs = proofs.New(d.spAcc(), proofs.Options{Workers: spWorkers})
		if err := mineAll(node.MineBlock, ds.Blocks[:cfg.ingestKeepBlocks]); err != nil {
			node.Close()
			return nil, err
		}
		var served service.Chain = node
		if tr != nil {
			served = &tracedChain{Chain: node, tr: tr, answer: "core.answer"}
		}
		srv := service.NewServer(served, service.ServerConfig{
			Subscriptions: subscribe.Options{UseIPTree: true, Dims: 2},
		})
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			node.Close()
			return nil, err
		}
		cli, err := service.Dial(addr)
		if err != nil {
			srv.Close()
			node.Close()
			return nil, err
		}
		m := &miner{
			node: node, srv: srv, cli: cli, tr: tr, raw: d.raw, blocks: ds.Blocks, subs: subs, keepVO: cfg.keepVO,
			light:      chain.NewLightStore(d.diff),
			deliveries: make(chan arrival, len(subs)),
			stop:       make(chan struct{}),
		}
		closeAll := func() error {
			close(m.stop)
			cli.Close()
			m.forwarders.Wait()
			srv.Close()
			return node.Close()
		}
		if err := cli.SyncHeaders(context.Background(), m.light); err != nil {
			closeAll()
			return nil, err
		}
		for i, q := range subs {
			sub, err := cli.Subscribe(q, service.SubscribeConfig{Acc: d.clientAcc(i), Light: m.light})
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("subscription %d: %w", i, err)
			}
			m.forwarders.Add(1)
			go m.forward(i, sub)
		}
		// Warm-up: one block through the whole loop.
		if _, err := m.block(0); err != nil {
			closeAll()
			return nil, fmt.Errorf("warm-up block: %w", err)
		}
		return &target{
			clients: 1,
			op: func(_ int, op int64) sample {
				s, err := m.block(op)
				fails.add(op, err)
				return s
			},
			counters: func() layerCounters {
				return layerCounters{proofs: node.ProofStats(), ads: node.ADSStats()}
			},
			report: func(r map[string]any) {
				r["failures"] = fails.list()
				if n, err := dirBytes(dir); err == nil {
					r["disk_bytes_per_block"] = float64(n) / float64(node.Height())
				}
				r["blocks_mined"] = node.Height()
			},
			close: closeAll,
		}, nil
	}
	return execute(cfg, tr, build)
}

// arrival is one delivery as the subscriber received it.
type arrival struct {
	sub int
	d   service.Delivery
	ts  int64 // tracer clock
}

// miner drives the write path: mine, sync the subscriber's headers,
// fan the block out, and wait for every verified delivery.
type miner struct {
	node   *core.FullNode
	srv    *service.Server
	cli    *service.Client
	light  *chain.LightStore
	tr     *tracer
	raw    accumulator.Accumulator
	blocks [][]chain.Object
	subs   []core.Query
	keepVO bool

	deliveries chan arrival
	stop       chan struct{}
	forwarders sync.WaitGroup
}

// forward passes subscription i's deliveries to the miner loop until
// the stream ends or the run stops.
func (m *miner) forward(i int, sub *service.Subscription) {
	defer m.forwarders.Done()
	for d := range sub.C {
		a := arrival{sub: i, d: d, ts: m.tr.now()}
		select {
		case m.deliveries <- a:
		case <-m.stop:
			return
		}
	}
}

// block runs one operation: the next block from mining to its last
// verified delivery.
func (m *miner) block(op int64) (sample, error) {
	h := m.node.Height()
	if h >= len(m.blocks) {
		return sample{}, fmt.Errorf("out of generated blocks at height %d", h)
	}
	root := m.tr.newID()
	t0 := m.tr.now()
	start := time.Now()
	var busy time.Duration
	timedBusy := func(name string, f func() error) error {
		s := time.Now()
		err := m.tr.timed(name, op, root, -1, f)
		busy += time.Since(s)
		return err
	}
	err := timedBusy("core.mine", func() error {
		_, err := m.node.MineBlock(m.blocks[h], int64(h))
		return err
	})
	if err == nil {
		err = m.tr.timed("chain.header_sync", op, root, -1, func() error {
			return m.cli.SyncHeaders(context.Background(), m.light)
		})
	}
	if err == nil {
		err = timedBusy("subscribe.process", func() error { return m.srv.ProcessBlock(h) })
	}
	fanned := m.tr.now()
	var got []arrival
	if err == nil {
		got, err = m.await(h)
	}
	s := sample{latency: time.Since(start), blockMs: ms(busy)}
	for _, a := range got {
		m.tr.record(span{Name: "service.delivery", Parent: root, Op: op, Key: a.sub, Start: fanned, End: a.ts})
	}
	m.tr.record(span{ID: root, Name: "op", Op: op, Key: -1, Start: t0, End: m.tr.now()})
	if err != nil {
		return s, err
	}
	sort.Slice(got, func(i, j int) bool { return got[i].sub < got[j].sub })
	for _, a := range got {
		if err := m.check(h, a); err != nil {
			return s, err
		}
		s.results += len(a.d.Objects)
		vo := core.EncodeVO(m.raw, a.d.Pub.VO)
		s.voBytes += len(vo)
		if m.keepVO {
			s.vo = append(s.vo, vo)
		}
	}
	s.ok = true
	return s, nil
}

// await collects one delivery per subscription for block h.
func (m *miner) await(h int) ([]arrival, error) {
	timeout := time.NewTimer(deliveryWait)
	defer timeout.Stop()
	got := make([]arrival, 0, len(m.subs))
	for len(got) < len(m.subs) {
		select {
		case a := <-m.deliveries:
			got = append(got, a)
		case <-timeout.C:
			return got, fmt.Errorf("block %d: %d of %d deliveries after %v", h, len(got), len(m.subs), deliveryWait)
		}
	}
	return got, nil
}

// check verifies one delivery: accepted by the client, covering
// exactly block h, and equal to the plaintext evaluation.
func (m *miner) check(h int, a arrival) error {
	if a.d.Err != nil {
		return fmt.Errorf("block %d, subscription %d: %w", h, a.sub, a.d.Err)
	}
	if a.d.Pub.From != h || a.d.Pub.To != h {
		return fmt.Errorf("block %d, subscription %d: publication spans [%d,%d]", h, a.sub, a.d.Pub.From, a.d.Pub.To)
	}
	want := oracle(m.blocks, windowed(m.subs[a.sub], h, 1))
	if !sameObjects(m.blocks, a.d.Objects, want) {
		return fmt.Errorf("block %d, subscription %d: verified %d objects, plaintext evaluation has %d",
			h, a.sub, len(a.d.Objects), len(want))
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
