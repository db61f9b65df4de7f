package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/gateway"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/shard"
	"github.com/vchain-go/vchain/internal/workload"
)

// opHeader carries a traced operation's id to the SP, so the answer
// span ties to its request even while two clients overlap.
const opHeader = "Perfbench-Op"

// runHot is window-hot: a durable 2-shard 4SQ node reopened lazily,
// with an ADS cache smaller than the working set, served through the
// HTTP gateway to two closed-loop clients that replay a small query
// pool after one warm pass. The proof cache answers nearly every
// proof, so the cost sits in ADS page-in, storage reads, shard
// fan-out, JSON, the VO codec and client verification.
func runHot(cfg config) (*result, error) {
	ds, err := workload.Generate(workload.Config{Kind: workload.FSQ, Blocks: cfg.hotBlocks, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	templates := queryTemplates(ds, cfg.hotPool, workload.QueryConfig{RangeDims: 1, Selectivity: 0.5, BoolSize: 3})
	pool := make([]hotQuery, cfg.hotPool)
	for i := range pool {
		q := windowed(templates[i], windowStart(i, cfg.hotBlocks, cfg.hotWindow), cfg.hotWindow)
		body, err := queryBody(q)
		if err != nil {
			return nil, err
		}
		pool[i] = hotQuery{q: q, want: oracle(ds.Blocks, q), body: body}
	}
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
		dir = filepath.Join(cfg.storeDir, fmt.Sprintf("hot-%d", rep))
		opts := shard.Options{
			Shards:         hotShards,
			Workers:        spWorkers,
			ADSCacheBlocks: cfg.hotADSCache,
			WrapBackend:    d.wrapBackend,
		}
		b := d.builder(ds.Width)
		node, _, err := shard.Open(d.diff, b, dir, opts)
		if err != nil {
			return nil, err
		}
		if err := mineAll(node.MineBlock, ds.Blocks); err != nil {
			node.Close()
			return nil, err
		}
		if err := node.Close(); err != nil {
			return nil, err
		}
		// Reopen: headers re-validate now, ADS bodies page in on use.
		if node, _, err = shard.Open(d.diff, b, dir, opts); err != nil {
			return nil, err
		}
		var served service.Chain = node
		if tr != nil {
			served = &tracedChain{Chain: node, tr: tr, answer: "shard.answer"}
		}
		gw, err := gateway.New(served, gateway.Config{})
		if err != nil {
			node.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			node.Close()
			return nil, err
		}
		hs := &http.Server{Handler: withOpHeader(gw.Handler()), ReadHeaderTimeout: time.Minute}
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			hs.Serve(ln)
		}()
		url := "http://" + ln.Addr().String()
		clients := make([]*httpClient, hotClients)
		for c := range clients {
			light := chain.NewLightStore(d.diff)
			acc := d.clientAcc(c)
			clients[c] = &httpClient{
				url: url, key: c, light: light,
				ver:  &core.Verifier{Acc: acc, Light: light},
				acc:  acc,
				http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
				tr:   tr, blocks: ds.Blocks, keepVO: cfg.keepVO,
			}
		}
		closeAll := func() error {
			for _, c := range clients {
				c.http.CloseIdleConnections()
			}
			hs.Close()
			<-stopped
			gw.Close()
			return node.Close()
		}
		// Warm pass: every pool query once, so the proof cache holds
		// the pool's proofs before timing.
		for i := range pool {
			if _, err := clients[0].query(0, pool[i]); err != nil {
				closeAll()
				return nil, fmt.Errorf("warm-up query %d: %w", i, err)
			}
		}
		for _, c := range clients[1:] {
			if err := c.syncHeaders(); err != nil {
				closeAll()
				return nil, err
			}
		}
		// Client c starts its replay at a different pool offset.
		nextQuery := make([]int, len(clients))
		for c := range nextQuery {
			nextQuery[c] = c * len(pool) / len(clients)
		}
		return &target{
			clients: len(clients),
			op: func(c int, op int64) sample {
				i := nextQuery[c] % len(pool)
				nextQuery[c]++
				s, err := clients[c].query(op, pool[i])
				fails.add(op, err)
				return s
			},
			counters: func() layerCounters {
				lc := layerCounters{proofs: node.ProofStats()}
				for _, st := range node.ShardStats() {
					lc.ads.Hits += st.ADS.Hits
					lc.ads.Misses += st.ADS.Misses
					lc.ads.Decodes += st.ADS.Decodes
					lc.ads.Evictions += st.ADS.Evictions
				}
				return lc
			},
			report: func(r map[string]any) {
				r["failures"] = fails.list()
				if n, err := dirBytes(dir); err == nil {
					r["disk_bytes_per_block"] = float64(n) / float64(cfg.hotBlocks)
				}
			},
			close: closeAll,
		}, nil
	}
	return execute(cfg, tr, build)
}

// withOpHeader moves a traced operation id from the request header
// into the request context, where the traced chain reads it.
func withOpHeader(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(opHeader); v != "" {
			if op, err := strconv.ParseInt(v, 10, 64); err == nil {
				r = r.WithContext(withOp(r.Context(), op))
			}
		}
		h.ServeHTTP(w, r)
	})
}

type hotQuery struct {
	q    core.Query
	want []chain.ObjectID
	body []byte
}

// queryBody is the gateway's JSON form of q: raw keywords per clause
// and the range box.
func queryBody(q core.Query) ([]byte, error) {
	type rng struct {
		Lo []int64 `json:"lo"`
		Hi []int64 `json:"hi"`
	}
	body := struct {
		StartBlock int        `json:"startBlock"`
		EndBlock   int        `json:"endBlock"`
		Keywords   [][]string `json:"keywords,omitempty"`
		Range      *rng       `json:"range,omitempty"`
	}{StartBlock: q.StartBlock, EndBlock: q.EndBlock}
	for _, cl := range q.Bool {
		var kws []string
		for _, el := range cl {
			kw, ok := core.RawKeyword(el)
			if !ok {
				return nil, fmt.Errorf("clause element %q is not a keyword", el)
			}
			kws = append(kws, kw)
		}
		body.Keywords = append(body.Keywords, kws)
	}
	if q.Range != nil {
		body.Range = &rng{Lo: q.Range.Lo, Hi: q.Range.Hi}
	}
	return json.Marshal(body)
}

// httpClient is a light client of the HTTP gateway.
type httpClient struct {
	url    string
	key    int
	light  *chain.LightStore
	ver    *core.Verifier
	acc    accumulator.Accumulator
	http   *http.Client
	tr     *tracer
	blocks [][]chain.Object
	keepVO bool
}

// query runs one verified query: header sync, the POST, VO decode of
// every part and one verification batch; then the oracle check.
func (h *httpClient) query(op int64, hq hotQuery) (sample, error) {
	tr := h.tr
	root := tr.newID()
	t0 := tr.now()
	start := time.Now()
	var resp struct {
		Parts []struct {
			Start int    `json:"start"`
			End   int    `json:"end"`
			VO    string `json:"vo"`
		} `json:"parts"`
	}
	var raws [][]byte
	var parts []core.WindowPart
	var objs []chain.Object
	err := tr.timed("chain.header_sync", op, root, h.key, h.syncHeaders)
	if err == nil {
		s := tr.now()
		var n int
		n, err = h.post(op, hq.body, &resp)
		if err == nil {
			for _, p := range resp.Parts {
				b, derr := base64.StdEncoding.DecodeString(p.VO)
				if derr != nil {
					err = fmt.Errorf("part [%d,%d]: %w", p.Start, p.End, derr)
					break
				}
				raws = append(raws, b)
			}
		}
		tr.record(span{Name: "gateway.http", Parent: root, Op: op, Key: h.key, Start: s, End: tr.now(), Bytes: int64(n)})
	}
	if err == nil {
		err = tr.timed("core.vo_decode", op, root, h.key, func() error {
			for i, p := range resp.Parts {
				vo, err := core.DecodeVO(h.acc, raws[i])
				if err != nil {
					return fmt.Errorf("part [%d,%d]: %w", p.Start, p.End, err)
				}
				parts = append(parts, core.WindowPart{Start: p.Start, End: p.End, VO: vo})
			}
			return nil
		})
	}
	if err == nil {
		err = tr.timed("core.verify", op, root, h.key, func() (err error) {
			objs, err = h.ver.VerifyWindowParts(hq.q, parts)
			return err
		})
	}
	s := sample{latency: time.Since(start)}
	tr.record(span{ID: root, Name: "op", Op: op, Key: h.key, Start: t0, End: tr.now()})
	if err != nil {
		return s, err
	}
	s.results = len(objs)
	if !sameObjects(h.blocks, objs, hq.want) {
		return s, fmt.Errorf("window [%d,%d]: verified %d objects, plaintext evaluation has %d",
			hq.q.StartBlock, hq.q.EndBlock, len(objs), len(hq.want))
	}
	s.ok = true
	for _, b := range raws {
		s.voBytes += len(b)
	}
	if h.keepVO {
		s.vo = raws
	}
	return s, nil
}

// post sends one query and decodes the JSON answer; any status but 200
// is an error. It returns the response body length.
func (h *httpClient) post(op int64, body []byte, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, h.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if h.tr.active() {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	return h.do(req, out)
}

func (h *httpClient) do(req *http.Request, out any) (int, error) {
	resp, err := h.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

// syncHeaders pulls headers past the client's height from the gateway
// and appends them to its light store, which re-checks linkage and
// proof-of-work.
func (h *httpClient) syncHeaders() error {
	for {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
			fmt.Sprintf("%s/v1/headers?from=%d", h.url, h.light.Height()), nil)
		if err != nil {
			return err
		}
		var page struct {
			Headers []struct {
				Height       uint64 `json:"height"`
				TS           int64  `json:"ts"`
				Nonce        uint64 `json:"nonce"`
				PrevHash     string `json:"prevHash"`
				MerkleRoot   string `json:"merkleRoot"`
				SkipListRoot string `json:"skipListRoot"`
			} `json:"headers"`
		}
		if _, err := h.do(req, &page); err != nil {
			return err
		}
		if len(page.Headers) == 0 {
			return nil
		}
		hs := make([]chain.Header, len(page.Headers))
		for i, j := range page.Headers {
			hs[i] = chain.Header{Height: j.Height, TS: j.TS, Nonce: j.Nonce}
			for _, f := range []struct {
				dst *chain.Digest
				src string
			}{{&hs[i].PrevHash, j.PrevHash}, {&hs[i].MerkleRoot, j.MerkleRoot}, {&hs[i].SkipListRoot, j.SkipListRoot}} {
				if f.src == "" {
					continue
				}
				if n, err := hex.Decode(f.dst[:], []byte(f.src)); err != nil || n != len(f.dst) {
					return fmt.Errorf("header %d: bad digest %q", j.Height, f.src)
				}
			}
		}
		from := h.light.Height()
		if err := h.light.Sync(hs); err != nil {
			return err
		}
		if h.light.Height() == from {
			return fmt.Errorf("header sync stalled at height %d", from)
		}
	}
}
