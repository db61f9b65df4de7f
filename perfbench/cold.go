package main

import (
	"context"
	"fmt"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/proofs"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/workload"
)

// queryPool is how many distinct query templates a workload draws;
// window-cold gives each operation its own, so it must exceed the
// operations one run can complete.
const queryPool = 4096

// runCold is window-cold: a 4SQ chain in an in-memory full node, served
// over the gob wire to one closed-loop client. Every query is distinct
// (own template), so no proof is reused and SP proving dominates,
// followed by the client's pairing batch.
func runCold(cfg config) (*result, error) {
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: cfg.coldBlocks, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	templates := queryTemplates(ds, queryPool, workload.QueryConfig{RangeDims: 2, BoolSize: 3})
	query := func(k int) core.Query {
		k %= queryPool
		return windowed(templates[k], windowStart(k, cfg.coldBlocks, cfg.coldWindow), cfg.coldWindow)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fails := &failLog{}

	build := func(rep int) (*target, error) {
		d, err := newDeployment(cfg, tr, ds)
		if err != nil {
			return nil, err
		}
		node := core.NewFullNode(d.diff, d.builder(ds.Width))
		node.Proofs = proofs.New(d.spAcc(), proofs.Options{Workers: spWorkers})
		if err := mineAll(node.MineBlock, ds.Blocks); err != nil {
			return nil, err
		}
		var served service.Chain = node
		if tr != nil {
			served = &tracedChain{Chain: node, tr: tr, answer: "core.answer"}
		}
		srv := service.NewServer(served)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cli, err := service.Dial(addr)
		if err != nil {
			srv.Close()
			return nil, err
		}
		light := chain.NewLightStore(d.diff)
		ver := &core.Verifier{Acc: d.clientAcc(0), Light: light}
		c := &gobClient{cli: cli, light: light, ver: ver, tr: tr, blocks: ds.Blocks, raw: d.raw, keepVO: cfg.keepVO, dropResult: cfg.dropResult}
		t := &target{
			clients: 1,
			op: func(_ int, op int64) sample {
				s, err := c.query(op, query(int(op)))
				fails.add(op, err)
				return s
			},
			counters: func() layerCounters {
				return layerCounters{proofs: node.ProofStats(), ads: node.ADSStats()}
			},
			report: func(r map[string]any) { r["failures"] = fails.list() },
			close: func() error {
				cli.Close()
				return srv.Close()
			},
		}
		// Warm-up: the first query pays connection and code-path
		// start-up; it uses the last template, which no measured
		// operation reaches.
		if _, err := c.query(0, query(queryPool-1)); err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
		return t, nil
	}
	return execute(cfg, tr, build)
}

// gobClient is a light client querying over the gob wire.
type gobClient struct {
	cli    *service.Client
	light  *chain.LightStore
	ver    *core.Verifier
	tr     *tracer
	blocks [][]chain.Object
	raw    accumulator.Accumulator
	keepVO bool
	// dropResult removes one verified object before the oracle check
	// (self-test of the check).
	dropResult bool
}

// query runs one verified query: header sync, the remote query, and
// verification of every part in one batch; then it checks the result
// against the plaintext oracle.
func (c *gobClient) query(op int64, q core.Query) (sample, error) {
	want := oracle(c.blocks, q)
	ctx := context.Background()
	root := c.tr.newID()
	t0 := c.tr.now()
	start := time.Now()
	var parts []core.WindowPart
	var objs []chain.Object
	err := c.tr.timed("chain.header_sync", op, root, 0, func() error { return c.cli.SyncHeaders(ctx, c.light) })
	if err == nil {
		err = c.tr.timed("service.rpc", op, root, 0, func() (err error) {
			parts, err = c.cli.QueryParts(ctx, q, false)
			return err
		})
	}
	if err == nil {
		err = c.tr.timed("core.verify", op, root, 0, func() (err error) {
			objs, err = c.ver.VerifyWindowParts(q, parts)
			return err
		})
	}
	s := sample{latency: time.Since(start)}
	c.tr.record(span{ID: root, Name: "op", Op: op, Key: 0, Start: t0, End: c.tr.now()})
	if err != nil {
		return s, err
	}
	s.results = len(objs)
	if c.dropResult && len(objs) > 0 {
		objs = objs[1:]
	}
	if !sameObjects(c.blocks, objs, want) {
		return s, fmt.Errorf("window [%d,%d]: verified %d objects, plaintext evaluation has %d",
			q.StartBlock, q.EndBlock, len(objs), len(want))
	}
	s.ok = true
	s.voBytes, s.vo = encodeParts(c.raw, parts, c.keepVO)
	return s, nil
}
