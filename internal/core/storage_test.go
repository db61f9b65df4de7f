package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/storage"
)

// openTestNode opens a log-backed node in dir with the standard test
// builder.
func openTestNode(t *testing.T, b *Builder, dir string) *FullNode {
	t.Helper()
	node, err := OpenFullNode(0, b, dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// openTestLog opens an empty segmented log that is closed at test end.
func openTestLog(t *testing.T) *storage.Log {
	t.Helper()
	l, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// v1Record renders (blk, ads) in the retired v1 record format: one
// bare gob of a {Block, ADS} struct, with no magic.
func v1Record(t testing.TB, blk *chain.Block, ads *BlockADS) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := struct {
		Block *chain.Block
		ADS   *BlockADS
	}{blk, ads}
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenFullNodePersistsAcrossRestart(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	dir := t.TempDir()

	node := openTestNode(t, b, dir)
	const blocks = 5
	for i := 0; i < blocks; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	headers := node.Store.Headers()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain and every ADS body come back from the log —
	// nothing is rebuilt (SetupStats counts ADS constructions).
	re := openTestNode(t, b, dir)
	if re.Height() != blocks {
		t.Fatalf("reopened height %d, want %d", re.Height(), blocks)
	}
	if re.SetupStats.Blocks != 0 {
		t.Fatalf("reopen rebuilt %d ADSs, want 0", re.SetupStats.Blocks)
	}
	for h, want := range headers {
		got, err := re.HeaderAt(h)
		if err != nil || got != want {
			t.Fatalf("header %d = %+v, %v; want %+v", h, got, err, want)
		}
		if mustADS(t, re, h) == nil {
			t.Fatalf("no ADS at %d after reopen", h)
		}
	}

	// The reopened node serves a verifiable time-window query.
	light := chain.NewLightStore(0)
	if err := light.Sync(re.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	q := sedanBenzQuery(0, blocks-1)
	vo, err := re.SP(false).TimeWindowQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo)
	if err != nil {
		t.Fatalf("reopened node's VO rejected: %v", err)
	}
	if len(results) != blocks {
		t.Fatalf("results %d, want %d", len(results), blocks)
	}

	// Mining continues the persisted chain.
	if _, err := re.MineBlock(carObjects(uint64(blocks*10)), int64(1000+blocks)); err != nil {
		t.Fatal(err)
	}
	if re.Height() != blocks+1 {
		t.Fatalf("post-reopen mine: height %d", re.Height())
	}
}

func TestOpenFullNodeRecoversFromTornTail(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	dir := t.TempDir()

	node := openTestNode(t, b, dir)
	for i := 0; i < 4; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	node.Close()

	// Simulate a crash mid-append: chop bytes off the segment tail.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, ents[len(ents)-1].Name())
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	re := openTestNode(t, b, dir)
	if re.Height() != 3 {
		t.Fatalf("recovered height %d, want 3", re.Height())
	}
	log, ok := re.Backend().(*storage.Log)
	if !ok || !log.Report().Truncated {
		t.Fatalf("expected a truncating recovery, got %T %+v", re.Backend(), log.Report())
	}

	// The surviving prefix still serves verifiable queries, and mining
	// re-fills the lost height.
	light := chain.NewLightStore(0)
	if err := light.Sync(re.Store.Headers()); err != nil {
		t.Fatal(err)
	}
	q := sedanBenzQuery(0, 2)
	vo, err := re.SP(false).TimeWindowQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Verifier{Acc: acc, Light: light}).VerifyTimeWindow(q, vo); err != nil {
		t.Fatalf("recovered node's VO rejected: %v", err)
	}
	if _, err := re.MineBlock(carObjects(uint64(99)), 2000); err != nil {
		t.Fatal(err)
	}
	if re.Height() != 4 {
		t.Fatalf("height %d after re-mining, want 4", re.Height())
	}
}

func TestOpenFullNodeRejectsChainInvalidRecord(t *testing.T) {
	// A record that passes CRC but fails chain validation (here: a
	// record order tampered at the storage layer) is a hard error, not
	// a silent truncation — CRC-clean corruption means tampering or a
	// bug, and recovery must not paper over it.
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := openTestNode(t, b, t.TempDir())
	for i := 0; i < 2; i++ {
		if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	rec0, err := node.Backend().Read(0)
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := node.Backend().Read(1)
	if err != nil {
		t.Fatal(err)
	}
	swapped := openTestLog(t)
	for _, rec := range [][]byte{rec1, rec0} {
		if err := swapped.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewFullNodeOn(0, b, swapped); err == nil {
		t.Fatal("reordered store accepted")
	}
}

// TestOpenFullNodeRejectsV1Record: records of the retired v1 format
// (a bare {Block, ADS} gob) are a decode error, not a readable entry.
func TestOpenFullNodeRejectsV1Record(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)
	blk, err := node.MineBlock(carObjects(0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t)
	if err := l.Append(v1Record(t, blk, mustADS(t, node, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFullNodeOn(0, b, l); err == nil {
		t.Fatal("v1 record accepted")
	}
}

// TestConcurrentMineAndQuery is the -race regression for the torn
// commit: before the atomic pipeline, Store.Append and the adss append
// ran under different locks, so a concurrent query could observe
// Store.Height() == h+1 while ADSAt(h) was still nil.
func TestConcurrentMineAndQuery(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeBoth, SkipSize: 2, Width: testWidth}
	node := NewFullNode(0, b)

	const blocks = 6
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < blocks; i++ {
			if _, err := node.MineBlock(carObjects(uint64(i*10)), int64(1000+i)); err != nil {
				t.Errorf("mine %d: %v", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var torn atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// The invariant under attack: once the store height is
				// visible, every ADS below it must be too.
				h := node.Height()
				for i := 0; i < h; i++ {
					if ads, err := node.ADSAt(i); err != nil || ads == nil {
						torn.Add(1)
					}
				}
				if h > 0 {
					q := sedanBenzQuery(0, h-1)
					if _, err := node.SP(false).TimeWindowQuery(q); err != nil {
						t.Errorf("query over [0,%d]: %v", h-1, err)
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("observed %d torn commits (height visible before ADS)", n)
	}
}

// TestConcurrentMinersStayAligned drives two miners into the commit
// pipeline at once: the loser of each height race must fail cleanly,
// and adss[i] must always correspond to block i.
func TestConcurrentMinersStayAligned(t *testing.T) {
	acc := testAccs(t)["acc2"]
	b := &Builder{Acc: acc, Mode: ModeIntra, Width: testWidth}
	node := NewFullNode(0, b)

	const perMiner = 4
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			mined := 0
			for attempt := 0; mined < perMiner && attempt < 200; attempt++ {
				objs := carObjects(uint64(m*1000 + attempt*10))
				if _, err := node.MineBlock(objs, int64(1000+attempt)); err == nil {
					mined++
				}
			}
			if mined < perMiner {
				t.Errorf("miner %d finished only %d/%d blocks", m, mined, perMiner)
			}
		}(m)
	}
	wg.Wait()

	if node.Height() != 2*perMiner {
		t.Fatalf("height %d, want %d", node.Height(), 2*perMiner)
	}
	for h := 0; h < node.Height(); h++ {
		hdr, err := node.HeaderAt(h)
		if err != nil {
			t.Fatal(err)
		}
		ads := mustADS(t, node, h)
		if ads.Height != h || ads.MerkleRoot() != hdr.MerkleRoot {
			t.Fatalf("ADS at %d does not correspond to its block (ads height %d)", h, ads.Height)
		}
	}
}
