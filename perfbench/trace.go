package main

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The traced run records spans from outside the program: around every
// transport Call and every handler a daemon registers with Listen
// (both named by the request's service envelope), around the
// benchmark's own calls into the cluster, core and durable layers, and
// the coordinator's own span tree (SearchTraceVia) stitched under the
// hdk.search handler that produced it. Operations run one at a time,
// so every span recorded while an operation is open belongs to it.
// Spans stay in memory until the run ends.

type spanKind uint8

const (
	spanOp      spanKind = iota // one benchmark operation (the tree root)
	spanBench                   // a benchmark call into a layer's public API
	spanCall                    // transport Call, on the calling node
	spanHandler                 // transport handler, on the serving node
	spanCoord                   // a span of the coordinator's own trace
)

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch. node is the transport owner ("client" or a daemon
// address); peer is a Call's destination or a fetch span's owner.
type span struct {
	kind       spanKind
	name       string
	node, peer string
	start, end int64
	bytes      int
	level      int  // coordinator level spans: the lattice level
	up         int  // coordinator spans: distance back to the parent span (0 for the trace root)
	parent     int  // index into the operation's span list; -1 for the root
	orphan     bool // linkSpans found no parent of the span's kind and hung it off the root
}

type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// op runs fn as one traced operation and returns its spans, root
// first, in recording order; stitch coordinator traces into them, then
// resolve parents with linkSpans.
func (r *recorder) op(name string, fn func() error) ([]span, error) {
	r.mu.Lock()
	r.spans = []span{{kind: spanOp, name: name, node: "client"}}
	r.mu.Unlock()
	start := r.now()
	r.on.Store(true)
	err := fn()
	r.on.Store(false)
	end := r.now()
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	spans[0].start, spans[0].end = start, end
	return spans, err
}

// bench times one benchmark call into a layer while an operation is
// open.
func (r *recorder) bench(name string, fn func() error) error {
	if r == nil || !r.on.Load() {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{kind: spanBench, name: name, node: "client", start: start, end: r.now()})
	return err
}

// stitch appends a coordinator trace recorded on node, aligning its
// root with the start of the last hdk.search handler span on that node
// (the handler decodes the request before the coordinator starts its
// clock; that gap is microseconds and stays with the handler).
func stitch(spans []span, node string, tr *telemetry.Trace) []span {
	if tr == nil {
		return spans
	}
	h := -1
	for i := len(spans) - 1; i >= 0; i-- {
		if s := spans[i]; s.kind == spanHandler && s.node == node && s.name == "hdk.search" {
			h = i
			break
		}
	}
	if h < 0 {
		return spans
	}
	origin := spans[h].start
	for i, ts := range tr.Spans {
		s := span{
			kind:  spanCoord,
			name:  ts.Name,
			node:  node,
			peer:  ts.Attr("owner"),
			start: origin + int64(ts.Start),
			end:   origin + int64(ts.Start+ts.Dur),
		}
		if ts.Parent >= 0 {
			s.up = i - ts.Parent
		}
		if lv, err := strconv.Atoi(ts.Attr("level")); err == nil {
			s.level = lv
		}
		spans = append(spans, s)
	}
	return spans
}

// tracedTransport wraps one node's transport so every Call it makes and
// every request its handler serves is recorded while an operation is
// open. Outside operations it adds one atomic load per call.
type tracedTransport struct {
	transport.Transport
	node string
	rec  *recorder
}

func serviceOf(req []byte) string {
	svc, _, err := overlay.DecodeEnvelope(req)
	if err != nil {
		return "?"
	}
	return svc
}

func (t *tracedTransport) Listen(addr string, h transport.Handler) (string, error) {
	return t.Transport.Listen(addr, func(req []byte) ([]byte, error) {
		if !t.rec.on.Load() {
			return h(req)
		}
		start := t.rec.now()
		resp, err := h(req)
		t.rec.add(span{kind: spanHandler, name: serviceOf(req), node: t.node, start: start, end: t.rec.now()})
		return resp, err
	})
}

func (t *tracedTransport) Call(addr string, req []byte) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.Transport.Call(addr, req)
	}
	start := t.rec.now()
	resp, err := t.Transport.Call(addr, req)
	t.rec.add(span{kind: spanCall, name: serviceOf(req), node: t.node, peer: addr,
		start: start, end: t.rec.now(), bytes: len(req) + len(resp)})
	return resp, err
}

func contains(outer, inner span) bool { return outer.start <= inner.start && inner.end <= outer.end }

// linkSpans resolves every span's parent: benchmark calls and client
// Calls nest under the innermost enclosing client-side span; a handler
// under the Call to its node and service that encloses it; a
// coordinator span by its own tree, its root under the hdk.search
// handler; a daemon's outbound Call under the coordinator fetch span
// for the same owner, else under the innermost handler on that daemon
// that encloses it. Client-side spans with no enclosing benchmark call
// belong to the root; any other span that finds no parent hangs off
// the root as an orphan.
func linkSpans(spans []span) {
	for i := range spans {
		spans[i].parent = -1
		spans[i].orphan = false
	}
	innermost := func(i int, ok func(j int) bool) int {
		best := 0
		for j := 1; j < len(spans); j++ {
			if j != i && ok(j) && contains(spans[j], spans[i]) &&
				(best == 0 || spans[j].start >= spans[best].start) {
				best = j
			}
		}
		return best
	}
	for i := 1; i < len(spans); i++ {
		s := spans[i]
		switch {
		case s.kind == spanBench || (s.kind == spanCall && s.node == "client"):
			spans[i].parent = innermost(i, func(j int) bool { return spans[j].kind == spanBench })
		case s.kind == spanHandler:
			spans[i].parent = innermost(i, func(j int) bool {
				return spans[j].kind == spanCall && spans[j].peer == s.node && spans[j].name == s.name
			})
		case s.kind == spanCoord && s.up > 0:
			spans[i].parent = i - s.up
		case s.kind == spanCoord:
			spans[i].parent = innermost(i, func(j int) bool {
				return spans[j].kind == spanHandler && spans[j].node == s.node && spans[j].name == "hdk.search"
			})
		}
	}
	for i := 1; i < len(spans); i++ {
		s := spans[i]
		if s.kind != spanCall || s.node == "client" {
			continue
		}
		best, gap := 0, int64(-1)
		for j := 1; j < len(spans); j++ {
			f := spans[j]
			if f.kind == spanCoord && f.name == "fetch" && f.node == s.node && f.peer == s.peer {
				d := f.start - s.start
				if d < 0 {
					d = -d
				}
				if gap < 0 || d < gap {
					best, gap = j, d
				}
			}
		}
		if best == 0 {
			best = innermost(i, func(j int) bool {
				return spans[j].kind == spanHandler && spans[j].node == s.node
			})
		}
		spans[i].parent = best
	}
	for i := 1; i < len(spans); i++ {
		s := &spans[i]
		clientSide := s.kind == spanBench || (s.kind == spanCall && s.node == "client")
		if s.parent <= 0 {
			s.parent, s.orphan = 0, !clientSide
		}
	}
}

// selfTimes splits the root's wall time over the spans: at every
// instant the time goes to the deepest spans running then (those with
// no running child), shared equally when parallel siblings overlap. A
// span's share is its self time — its duration minus the part its
// children cover — and the shares sum to the root's duration. Each span
// is clipped to its parent's interval first, so clock skew between a
// stitched trace and the transport spans cannot double-count.
func selfTimes(spans []span) []float64 {
	n := len(spans)
	lo := make([]int64, n)
	hi := make([]int64, n)
	done := make([]bool, n)
	var clip func(i int)
	clip = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		lo[i], hi[i] = spans[i].start, spans[i].end
		if p := spans[i].parent; p >= 0 {
			clip(p)
			lo[i] = max(lo[i], lo[p])
			hi[i] = min(hi[i], hi[p])
		}
		if hi[i] < lo[i] {
			hi[i] = lo[i]
		}
	}
	for i := range spans {
		clip(i)
	}
	cuts := make([]int64, 0, 2*n)
	for i := range spans {
		cuts = append(cuts, lo[i], hi[i])
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	self := make([]float64, n)
	busyChild := make([]bool, n)
	var leaves []int
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if a == b {
			continue
		}
		for i := range busyChild {
			busyChild[i] = false
		}
		for i := 1; i < n; i++ {
			if lo[i] <= a && b <= hi[i] {
				busyChild[spans[i].parent] = true
			}
		}
		leaves = leaves[:0]
		for i := 0; i < n; i++ {
			if lo[i] <= a && b <= hi[i] && !busyChild[i] {
				leaves = append(leaves, i)
			}
		}
		share := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			self[i] += share
		}
	}
	return self
}
