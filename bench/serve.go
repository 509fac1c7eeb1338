package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/wire"
)

// serveBench is serve-hot and serve-churn: a generated world loaded into
// live instance servers behind one http.Server on the loopback, and C
// closed-loop workers cycling a fixed plan over keep-alive connections.
// Client and server share the cores, so ops_per_s is the capacity of the
// pair; the spans say whose share is whose.
type serveBench struct {
	o     options
	churn bool
	world *dataset.World
	net   *instance.Network
	plan  *plan

	srv     *http.Server
	served  chan error // Serve's return
	handler *timingHandler
	client  *http.Client
	base    string

	urls    []*url.URL // per plan key
	inbox   *url.URL
	pages   []pageSum // per plan key: the warm-up body
	domains []domainState
	hash    maphash.Seed

	next atomic.Int64 // the next op id; runs on across phases
}

// pageSum identifies a body without keeping it.
type pageSum struct {
	n   int
	sum uint64
}

// domainState is what the client side knows about one domain.
type domainState struct {
	tag       atomic.Pointer[string] // the Etag of the latest response seen
	writes    atomic.Int64           // completed inbox deliveries
	lastWrite atomic.Int64           // highest op id among them
}

func setupServe(o options, churn bool, tr *tracer) (bench, error) {
	b := &serveBench{o: o, churn: churn, hash: maphash.MakeSeed()}
	ctx := context.Background()
	tr.do(spanGenerate, 0, 0, func(uint64) { b.world = gen.Generate(worldConfig(o, worldSeed)) })
	var err error
	tr.do(spanLoadWorld, 0, 0, func(uint64) {
		b.net, err = instance.LoadWorld(ctx, b.world, instance.LoadOptions{MaxTootsPerUser: sizesOf(o).serveToots})
	})
	if err != nil {
		return nil, err
	}
	b.plan = buildPlan(b.world, o.seed, sizesOf(o).planOps, churn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = b.net
	if tr != nil {
		b.handler = &timingHandler{next: b.net, tr: tr}
		h = b.handler
	}
	b.srv = &http.Server{Handler: h}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.client = &http.Client{Transport: crawler.PooledTransport(cores())}
	b.base = "http://" + ln.Addr().String()

	b.urls = make([]*url.URL, len(b.plan.keys))
	for i, k := range b.plan.keys {
		if b.urls[i], err = url.Parse(b.base + k.path); err != nil {
			b.close()
			return nil, err
		}
	}
	b.inbox = &url.URL{Scheme: "http", Host: ln.Addr().String(), Path: "/inbox"}
	b.pages = make([]pageSum, len(b.plan.keys))
	b.domains = make([]domainState, len(b.plan.domains))
	tr.do(spanWarmup, 0, 0, func(uint64) { err = b.warmUp() })
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warmUp fetches every distinct page once: it fills the servers' page
// caches, opens the C connections, learns each domain's tag and keeps each
// body's checksum for the timed phase to compare against.
func (b *serveBench) warmUp() error {
	var next atomic.Int64
	errs := make([]error, cores())
	var wg sync.WaitGroup
	for wi := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for {
				ki := int(next.Add(1) - 1)
				if ki >= len(b.plan.keys) {
					return
				}
				k := &b.plan.keys[ki]
				resp, err := b.client.Do(b.get(ki, ""))
				if err != nil {
					errs[wi] = err
					return
				}
				body, err = readInto(body[:0], resp.Body)
				resp.Body.Close()
				want := http.StatusOK
				if k.blocked {
					want = http.StatusForbidden
				}
				if err != nil || resp.StatusCode != want {
					errs[wi] = fmt.Errorf("warm-up: %s%s: status %d, want %d (%v)", b.plan.domains[k.domain], k.path, resp.StatusCode, want, err)
					return
				}
				b.pages[ki] = pageSum{len(body), maphash.Bytes(b.hash, body)}
				b.sawTag(k.domain, resp)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func readInto(buf []byte, r io.Reader) ([]byte, error) {
	w := bytes.NewBuffer(buf)
	_, err := w.ReadFrom(r)
	return w.Bytes(), err
}

// get builds the GET for a plan key; tag, when set, makes it conditional.
func (b *serveBench) get(ki int, tag string) *http.Request {
	req := &http.Request{
		Method: http.MethodGet,
		URL:    b.urls[ki],
		Host:   b.plan.domains[b.plan.keys[ki].domain],
		Header: make(http.Header, 2),
	}
	if tag != "" {
		req.Header["If-None-Match"] = []string{tag}
	}
	return req
}

func (b *serveBench) sawTag(domain int32, resp *http.Response) {
	d := &b.domains[domain]
	if tag := resp.Header.Get("Etag"); tag != "" {
		if cur := d.tag.Load(); cur == nil || *cur != tag {
			d.tag.Store(&tag)
		}
	}
}

// The note a write delivers: its content names the op, so the final check
// can look for the last one on the page.
func noteContent(op int64) string { return "bench note " + strconv.FormatInt(op, 10) }

var benchActor = federation.Actor{User: "bench", Domain: "bench.invalid"}

func (b *serveBench) post(domain int32, op int64, buf []byte) (*http.Request, []byte, error) {
	id := strconv.FormatInt(op, 10)
	buf, err := wire.AppendActivity(buf[:0], &federation.Activity{
		Type: federation.TypeCreate,
		From: benchActor,
		Note: &federation.Note{
			ID:        benchActor.Domain + "/" + id,
			Author:    benchActor,
			Content:   noteContent(op),
			CreatedAt: dataset.Day(b.world.Days).Add(time.Duration(op) * time.Second),
		},
	})
	if err != nil {
		return nil, buf, err
	}
	return &http.Request{
		Method:        http.MethodPost,
		URL:           b.inbox,
		Host:          b.plan.domains[domain],
		Header:        http.Header{"Content-Type": {"application/activity+json"}},
		Body:          io.NopCloser(bytes.NewReader(buf)),
		ContentLength: int64(len(buf)),
	}, buf, nil
}

const (
	opHeader   = "X-Bench-Op" // carries the op id to the server side, traced runs only
	checkEvery = 64           // serve-hot: one 200 body in this many is compared with its warm-up bytes
)

// worker is one closed-loop client: it sends its next request only after
// the previous one completed.
type worker struct {
	ops, failed int64
	body, act   []byte
}

func (b *serveBench) run(d time.Duration, tr *tracer) phase {
	if b.handler != nil {
		b.handler.on.Store(tr != nil)
		defer b.handler.on.Store(false)
	}
	workers := make([]worker, cores())
	start := time.Now()
	var wg sync.WaitGroup
	for wi := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &workers[wi]
			for {
				op := b.next.Add(1) - 1
				if time.Since(start) >= d {
					return
				}
				if !b.do(op, w, wi, tr) {
					w.failed++
				}
				w.ops++
			}
		}()
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for wi := range workers {
		ph.ops += workers[wi].ops
		ph.failed += workers[wi].failed
	}
	return ph
}

// do performs one planned operation and reports whether its outcome was
// the expected one. An error counts as a failed operation, not a crash.
func (b *serveBench) do(op int64, w *worker, wi int, tr *tracer) bool {
	po := b.plan.ops[op%int64(len(b.plan.ops))]
	k := &b.plan.keys[po.key]
	d := &b.domains[k.domain]

	var req *http.Request
	want := http.StatusOK
	conditional := false
	switch {
	case po.write:
		var err error
		if req, w.act, err = b.post(k.domain, op, w.act); err != nil {
			return false
		}
		want = http.StatusAccepted
	default:
		tag := ""
		if cur := d.tag.Load(); po.revalidate && cur != nil {
			tag, conditional = *cur, true
		}
		req = b.get(int(po.key), tag)
		switch {
		case k.blocked:
			want = http.StatusForbidden
		case conditional && !b.o.sabotage:
			want = http.StatusNotModified
		}
	}
	var start int64
	if tr != nil {
		req.Header[opHeader] = []string{strconv.FormatInt(op, 10)}
		start = tr.now()
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false
	}
	ok := resp.StatusCode == want
	if b.churn && conditional && !k.blocked {
		// A write may have moved the tag since it was learnt.
		ok = ok || resp.StatusCode == http.StatusOK
	}
	if !b.churn && op%checkEvery == 0 && resp.StatusCode == http.StatusOK {
		w.body, err = readInto(w.body[:0], resp.Body)
		ok = ok && err == nil && b.pages[po.key] == pageSum{len(w.body), maphash.Bytes(b.hash, w.body)}
	} else {
		_, err = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
		ok = ok && err == nil
	}
	resp.Body.Close()
	if tr != nil {
		tr.add(1+wi, span{kind: spanClientDo, id: clientSpanBase | uint64(op), op: op,
			start: start, end: tr.now(), status: int32(resp.StatusCode)})
	}
	switch {
	case !po.write:
		b.sawTag(k.domain, resp)
	case ok:
		d.writes.Add(1)
		for {
			if last := d.lastWrite.Load(); op <= last || d.lastWrite.CompareAndSwap(last, op) {
				break
			}
		}
	}
	return ok
}

// finish checks, on serve-churn, that no page outlived a completed write:
// the federated head page of each of the ten most-written domains must
// carry the last note delivered there.
func (b *serveBench) finish() (attempted, failed int64) {
	if !b.churn {
		return 0, 0
	}
	var written []int32
	for di := range b.domains {
		if b.domains[di].writes.Load() > 0 && !b.world.Instances[di].BlocksCrawl {
			written = append(written, int32(di))
		}
	}
	sort.Slice(written, func(i, j int) bool {
		wi, wj := b.domains[written[i]].writes.Load(), b.domains[written[j]].writes.Load()
		if wi != wj {
			return wi > wj
		}
		return written[i] < written[j]
	})
	for _, di := range written[:min(len(written), 10)] {
		attempted++
		want := noteContent(b.domains[di].lastWrite.Load()) + `"`
		if b.o.sabotage {
			want = noteContent(-1) + `"`
		}
		req, err := http.NewRequest(http.MethodGet, b.base+"/api/v1/timelines/public?limit="+strconv.Itoa(timelineLimit), nil)
		if err != nil {
			failed++
			continue
		}
		req.Host = b.plan.domains[di]
		resp, err := b.client.Do(req)
		if err != nil {
			failed++
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(want)) {
			failed++
		}
	}
	return attempted, failed
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.srv.Close()
	<-b.served
}

// timingHandler is the server-side wrapper: installed around the Network
// from outside, only in a traced run, and a pass-through until switched on.
type timingHandler struct {
	next http.Handler
	tr   *tracer
	on   atomic.Bool
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		op = -1 // not one of the plan's requests
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := h.tr.now()
	h.next.ServeHTTP(rec, r)
	h.tr.add(1+int(op&0xff), span{kind: spanInstanceServe, id: serverSpanBase | uint64(op), parent: clientSpanBase | uint64(op),
		op: op, start: start, end: h.tr.now(), status: int32(rec.status), bytes: int32(rec.bytes)})
}

type statusRecorder struct {
	http.ResponseWriter
	status, bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.bytes += len(p)
	return r.ResponseWriter.Write(p)
}

// layers derives the serving path's layer metrics from the traced phase
// and, on serve-hot, walks the first rungs of the open-loop ladder.
func (b *serveBench) layers(d time.Duration, tr *tracer, all []span, traced phase) map[string]float64 {
	m := setupLayers(all)

	// Client spans of ops that finished inside the traced phase, and the
	// server span each caused.
	var client []float64
	var clientSum, busy time.Duration
	var bytesOut, served int64
	status := map[int32]float64{}
	revalidated, stale := 0, 0
	for i := range all {
		s := &all[i]
		switch s.kind {
		case spanClientDo:
			client = append(client, float64(s.dur())/1e3)
			clientSum += s.dur()
		case spanInstanceServe:
			if s.op < 0 {
				continue
			}
			served++
			busy += s.dur()
			bytesOut += int64(s.bytes)
			status[s.status]++
			po := b.plan.ops[s.op%int64(len(b.plan.ops))]
			if po.revalidate && !po.write && !b.plan.keys[po.key].blocked {
				revalidated++
				if s.status == http.StatusOK {
					stale++
				}
			}
		}
	}
	sort.Float64s(client)
	quantile := func(q float64) float64 {
		if len(client) == 0 {
			return 0
		}
		return client[min(int(q*float64(len(client))), len(client)-1)]
	}
	m["client.p50_us"] = quantile(0.5)
	m["client.p99_us"] = quantile(0.99)
	m["client.p999_us"] = quantile(0.999)
	is := func(code int32) func(*span) bool {
		return func(s *span) bool { return s.kind == spanInstanceServe && s.op >= 0 && s.status == code }
	}
	m["instance.serve_us"] = meanUS(all, func(s *span) bool { return s.kind == spanInstanceServe && s.op >= 0 })
	m["instance.serve_304_us"] = meanUS(all, is(http.StatusNotModified))
	m["instance.serve_200_us"] = meanUS(all, is(http.StatusOK))
	m["instance.inbox_us"] = meanUS(all, is(http.StatusAccepted))
	m["instance.busy_share"] = busy.Seconds() / (traced.wall.Seconds() * float64(cores()))
	// What is left of the client's span once the handler's is taken out:
	// net/http on both sides, the loopback, and the client's own work.
	if len(client) > 0 {
		m["nethttp.self_us"] = float64(clientSum)/float64(len(client))/1e3 - m["instance.serve_us"]
	}
	m["instance.status_200"] = status[http.StatusOK]
	m["instance.status_304"] = status[http.StatusNotModified]
	m["instance.status_403"] = status[http.StatusForbidden]
	m["instance.status_202"] = status[http.StatusAccepted]
	if served > 0 {
		m["instance.bytes_per_op"] = float64(bytesOut) / float64(served)
	}
	if revalidated > 0 {
		m["instance.stale_tag_share"] = float64(stale) / float64(revalidated)
	}
	if !b.churn {
		b.openLoop(d, m)
	}
	return m
}

// openLoop offers fixed rates through the product's own load generator, a
// third of d each. Recorded, not gated: on a shared two-core box the tail
// is timer wake-up and scheduling as much as it is the server.
func (b *serveBench) openLoop(d time.Duration, m map[string]float64) {
	for _, rung := range []struct {
		rate float64
		name string
	}{{5000, "ol5k"}, {10000, "ol10k"}, {20000, "ol20k"}} {
		reqs, err := loadgen.BuildPlan(b.world, loadgen.Config{Seed: b.o.seed, Rate: rung.rate, Duration: d / 3})
		if err != nil || len(reqs) == 0 {
			continue
		}
		rep, err := loadgen.Run(context.Background(), reqs, loadgen.RunConfig{Target: b.base, Workers: cores(), HTTP: b.client})
		if err != nil {
			continue
		}
		m["loadgen."+rung.name+"_p99_ms"] = rep.P99Ms
		if rung.name == "ol20k" {
			m["loadgen.ol20k_achieved_share"] = rep.ThroughputRPS / rung.rate
		}
	}
}

// setupLayers reads the set-up spans every workload records.
func setupLayers(all []span) map[string]float64 {
	m := map[string]float64{}
	for kind, name := range map[spanKind]string{
		spanGenerate:  "gen.generate_s",
		spanLoadWorld: "instance.loadworld_s",
		spanWarmup:    "client.warmup_s",
		spanSimnetNew: "simnet.new_s",
	} {
		if s := secondsOf(all, kind); len(s) > 0 {
			m[name] = s[0]
		}
	}
	return m
}
