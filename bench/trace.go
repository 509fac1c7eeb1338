package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary. Spans live in memory
// until the run ends and are then written as JSON lines; nothing here
// holds a pointer, so the garbage collector never scans the span slices.
type span struct {
	kind       spanKind
	status     int32 // HTTP status, where the boundary has one
	bytes      int32 // response body bytes, where the boundary has them
	id, parent uint64
	op         int64 // operation id shared by every span of one operation
	start, end int64 // ns since the tracer started
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanKind names the boundary a span was recorded at; kindName gives the
// "<module>.<boundary>" string written to the span file.
type spanKind uint8

const (
	spanGenerate spanKind = iota
	spanLoadWorld
	spanWarmup
	spanSimnetNew
	spanClientDo      // closed-loop client: Do + drain
	spanInstanceServe // inside Network.ServeHTTP, over loopback
	spanRepetition    // one campaign repetition or one pipeline pass
	spanProbe
	spanCrawl
	spanScrape
	spanRebuild
	spanSave
	spanLoad
	spanRunAll
	spanExperiment
	spanMemProbe // inside the campaign's in-memory transport, by class
	spanMemTimeline
	spanMemFollowers
	spanMemOther
)

var kindName = [...]string{
	spanGenerate:      "gen.generate",
	spanLoadWorld:     "instance.loadworld",
	spanWarmup:        "client.warmup",
	spanSimnetNew:     "simnet.new",
	spanClientDo:      "client.do",
	spanInstanceServe: "instance.serve",
	spanRepetition:    "bench.repetition",
	spanProbe:         "simnet.probe",
	spanCrawl:         "simnet.crawl",
	spanScrape:        "simnet.scrape",
	spanRebuild:       "simnet.rebuild",
	spanSave:          "dataset.save",
	spanLoad:          "dataset.load",
	spanRunAll:        "core.runall",
	spanExperiment:    "core.exp",
	spanMemProbe:      "instance.mem_probe",
	spanMemTimeline:   "instance.mem_timeline",
	spanMemFollowers:  "instance.mem_followers",
	spanMemOther:      "instance.mem_other",
}

// Per-operation spans derive their ids from the operation id, so the
// server side can name its parent (the client span) knowing only the op.
const (
	clientSpanBase = 1 << 40
	serverSpanBase = 2 << 40
	memSpanBase    = 3 << 40
)

// tracer collects spans from many goroutines into sharded buffers. A nil
// *tracer is valid and records nothing, so set-up code is written once.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	shards []spanShard
}

type spanShard struct {
	mu sync.Mutex
	s  []span
	_  [40]byte // keep neighbouring shards' locks off one cache line
}

func newTracer(shards int) *tracer {
	return &tracer{t0: time.Now(), shards: make([]spanShard, shards)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span; callers pick a shard they rarely share.
func (t *tracer) add(shard int, s span) {
	sh := &t.shards[shard%len(t.shards)]
	sh.mu.Lock()
	sh.s = append(sh.s, s)
	sh.mu.Unlock()
}

// do runs f inside a span of the given kind and returns how long f took.
// f receives the span's id, to hand to children as their parent.
func (t *tracer) do(kind spanKind, parent uint64, op int64, f func(id uint64)) time.Duration {
	if t == nil {
		start := time.Now()
		f(0)
		return time.Since(start)
	}
	id := t.nextID.Add(1)
	start := t.now()
	f(id)
	end := t.now()
	t.add(0, span{kind: kind, id: id, parent: parent, op: op, start: start, end: end})
	return time.Duration(end - start)
}

// spans returns every recorded span ordered by start time.
func (t *tracer) spans() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.s...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// writeJSONL writes one JSON object per span. A layer's self time is its
// span's duration minus the part of it its children (parent == id) cover.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range spans {
		b = append(b[:0], `{"name":"`...)
		b = append(b, kindName[s.kind]...)
		b = append(b, `","id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, s.op, 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		if s.status != 0 {
			b = append(b, `,"status":`...)
			b = strconv.AppendInt(b, int64(s.status), 10)
			b = append(b, `,"bytes":`...)
			b = strconv.AppendInt(b, int64(s.bytes), 10)
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanUS is the mean duration, in microseconds, of the spans keep accepts.
func meanUS(spans []span, keep func(*span) bool) float64 {
	var sum time.Duration
	n := 0
	for i := range spans {
		if keep(&spans[i]) {
			sum += spans[i].dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// secondsOf collects, in start order, the durations of one kind of span.
func secondsOf(spans []span, kind spanKind) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].kind == kind {
			out = append(out, spans[i].dur().Seconds())
		}
	}
	return out
}
