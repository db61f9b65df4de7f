package main

import (
	"context"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/storage"
)

// The wrappers below delegate every call unchanged and record a span
// around the calls that do work. They are installed only in traced
// runs; a self-test checks that they change no answer byte.

// tracedAcc wraps the accumulator of one side: prefix is
// "accumulator." on the SP/miner side and "accumulator.client_" on a
// light client's side, and key ties client spans to one client.
type tracedAcc struct {
	accumulator.Accumulator
	tr     *tracer
	prefix string
	key    int
}

func (a *tracedAcc) span(what string, start int64, n int64) {
	a.tr.record(span{Name: a.prefix + what, Key: a.key, Start: start, End: a.tr.now(), N: n})
}

func (a *tracedAcc) Setup(x multiset.Multiset) (accumulator.Acc, error) {
	t := a.tr.now()
	out, err := a.Accumulator.Setup(x)
	a.span("setup", t, 0)
	return out, err
}

func (a *tracedAcc) ProveDisjoint(x1, x2 multiset.Multiset) (accumulator.Proof, error) {
	t := a.tr.now()
	out, err := a.Accumulator.ProveDisjoint(x1, x2)
	a.span("prove", t, 0)
	return out, err
}

// VerifyDisjoint is recorded as a batch of one check.
func (a *tracedAcc) VerifyDisjoint(acc1, acc2 accumulator.Acc, proof accumulator.Proof) bool {
	t := a.tr.now()
	ok := a.Accumulator.VerifyDisjoint(acc1, acc2, proof)
	a.span("verify_batch", t, 1)
	return ok
}

func (a *tracedAcc) VerifyDisjointBatch(checks []accumulator.DisjointCheck) bool {
	t := a.tr.now()
	ok := a.Accumulator.VerifyDisjointBatch(checks)
	a.span("verify_batch", t, int64(len(checks)))
	return ok
}

func (a *tracedAcc) Sum(accs ...accumulator.Acc) (accumulator.Acc, error) {
	t := a.tr.now()
	out, err := a.Accumulator.Sum(accs...)
	a.span("aggregate", t, int64(len(accs)))
	return out, err
}

func (a *tracedAcc) ProofSum(proofs ...accumulator.Proof) (accumulator.Proof, error) {
	t := a.tr.now()
	out, err := a.Accumulator.ProofSum(proofs...)
	a.span("aggregate", t, int64(len(proofs)))
	return out, err
}

func (a *tracedAcc) AccBytes(x accumulator.Acc) []byte {
	t := a.tr.now()
	out := a.Accumulator.AccBytes(x)
	a.span("encode", t, 1)
	return out
}

func (a *tracedAcc) ProofBytes(p accumulator.Proof) []byte {
	t := a.tr.now()
	out := a.Accumulator.ProofBytes(p)
	a.span("encode", t, 1)
	return out
}

func (a *tracedAcc) AccFromBytes(b []byte) (accumulator.Acc, error) {
	t := a.tr.now()
	out, err := a.Accumulator.AccFromBytes(b)
	a.span("decode", t, 1)
	return out, err
}

func (a *tracedAcc) ProofFromBytes(b []byte) (accumulator.Proof, error) {
	t := a.tr.now()
	out, err := a.Accumulator.ProofFromBytes(b)
	a.span("decode", t, 1)
	return out, err
}

// tracedBackend wraps a storage backend (one shard's log, or the
// monolithic node's).
type tracedBackend struct {
	storage.Backend
	tr *tracer
}

func (b *tracedBackend) Append(data []byte) error {
	t := b.tr.now()
	err := b.Backend.Append(data)
	b.tr.record(span{Name: "storage.append", Key: -1, Start: t, End: b.tr.now(), Bytes: int64(len(data))})
	return err
}

func (b *tracedBackend) Read(i int) ([]byte, error) {
	t := b.tr.now()
	data, err := b.Backend.Read(i)
	b.tr.record(span{Name: "storage.read", Key: -1, Start: t, End: b.tr.now(), Bytes: int64(len(data))})
	return data, err
}

// tracedChain wraps the node handed to the gob server or the HTTP
// gateway. answer names the SP entry layer: core.answer for a
// monolithic node, shard.answer for the sharded planner.
type tracedChain struct {
	service.Chain
	tr     *tracer
	answer string
}

func (c *tracedChain) TimeWindowParts(ctx context.Context, q core.Query, batched bool) ([]core.WindowPart, error) {
	t := c.tr.now()
	parts, err := c.Chain.TimeWindowParts(ctx, q, batched)
	c.tr.record(span{Name: c.answer, Key: -1, Op: opFrom(ctx), Start: t, End: c.tr.now(), N: int64(len(parts))})
	return parts, err
}

func (c *tracedChain) ADSAt(height int) (*core.BlockADS, error) {
	t := c.tr.now()
	ads, err := c.Chain.ADSAt(height)
	c.tr.record(span{Name: "adstore.fetch", Key: -1, Start: t, End: c.tr.now()})
	return ads, err
}

func (c *tracedChain) Headers() []chain.Header {
	t := c.tr.now()
	hs := c.Chain.Headers()
	c.tr.record(span{Name: "chain.headers", Key: -1, Start: t, End: c.tr.now(), N: int64(len(hs))})
	return hs
}
