package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Self time charged to these labels is not any named layer's: the
// root's own time (client-side request encode and response decode,
// which no span isolates), spans linkSpans could not place, and daemon
// handlers of services the layer table does not name.
const (
	unattributedClient  = "unattributed: client encode/decode"
	unattributedOrphan  = "unattributed: unplaced spans"
	unattributedHandler = "unattributed: handler "
)

// layerOf names the layer a span's self time is charged to.
func layerOf(s span) string {
	if s.orphan {
		return unattributedOrphan
	}
	switch s.kind {
	case spanOp:
		return unattributedClient
	case spanBench:
		return s.name
	case spanCall:
		return "transport.wire_us." + s.name // the call minus the handler it reached
	case spanHandler:
		switch s.name {
		case "hdk.search":
			return "cluster.search_handler_us"
		case "hdk.fetchBatch":
			return "core.fetch_handler_us"
		case "hdk.insert":
			return "core.insert_handler_us"
		case "hdk.classify":
			return "core.classify_handler_us"
		}
		return unattributedHandler + s.name
	}
	switch s.name {
	case "admission", "cache":
		return "cluster." + s.name + "_us"
	case "level":
		return fmt.Sprintf("core.level_us.%d", s.level)
	}
	return "core." + s.name + "_us"
}

// opProfile is one traced operation: its duration and its self time by
// layer, nanoseconds.
type opProfile struct {
	name string
	dur  float64
	self map[string]float64
}

// traceAcc accumulates traced operations.
type traceAcc struct {
	ops         []opProfile
	calls       map[string]int     // Call spans by service
	callNs      map[string]float64 // Call durations by service
	bytes       float64            // request+response payload bytes of every Call
	handlerN    map[string]int     // handler spans by layer
	handlerSelf map[string]float64 // handler self time by layer
}

func newTraceAcc() *traceAcc {
	return &traceAcc{calls: map[string]int{}, callNs: map[string]float64{},
		handlerN: map[string]int{}, handlerSelf: map[string]float64{}}
}

func (a *traceAcc) add(spans []span) {
	linkSpans(spans)
	self := selfTimes(spans)
	p := opProfile{name: spans[0].name, dur: float64(spans[0].end - spans[0].start), self: map[string]float64{}}
	for i, s := range spans {
		l := layerOf(s)
		p.self[l] += self[i]
		switch s.kind {
		case spanCall:
			a.calls[s.name]++
			a.callNs[s.name] += float64(s.end - s.start)
			a.bytes += float64(s.bytes)
		case spanHandler:
			a.handlerN[l]++
			a.handlerSelf[l] += self[i]
		}
	}
	a.ops = append(a.ops, p)
}

// transportMetrics renders per-op RPC counts and bytes, with ops the
// workload's operation count, and the client-observed call latency.
func (a *traceAcc) transportMetrics(rep *report, ops int) {
	if ops == 0 {
		return
	}
	for k := range perLayerUnits {
		if svc, ok := strings.CutPrefix(k, "transport.rpcs_per_op."); ok {
			rep.metrics[k] = float64(a.calls[svc]) / float64(ops)
		}
		if svc, ok := strings.CutPrefix(k, "transport.call_us."); ok && a.calls[svc] > 0 {
			rep.metrics[k] = a.callNs[svc] / float64(a.calls[svc]) / 1e3
		}
	}
	rep.metrics["transport.bytes_per_op"] = a.bytes / float64(ops)
	for _, l := range []string{"core.insert_handler_us", "core.classify_handler_us"} {
		if a.handlerN[l] > 0 {
			rep.metrics[l] = a.handlerSelf[l] / float64(a.handlerN[l]) / 1e3
		}
	}
}

// readAccounting renders the read path's per-query self times and
// checks them against the client-observed median: the reads whose
// latency lies between the 40th and 60th percentile are averaged layer
// by layer, and the sum over the named layers — those with a per-layer
// metric of their own — is compared with the p50. Everything else, and
// the gap between the band's mean and the p50, is unattributed. The
// table goes to stderr.
func (a *traceAcc) readAccounting(rep *report, name string) {
	var reads []opProfile
	for _, p := range a.ops {
		if p.name == name {
			reads = append(reads, p)
		}
	}
	if len(reads) == 0 {
		return
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].dur < reads[j].dur })
	durs := make([]float64, len(reads))
	for i, p := range reads {
		durs[i] = p.dur
	}
	p50, _ := percentile(durs, 50)
	band := reads[len(reads)*40/100 : max(len(reads)*60/100, len(reads)*40/100+1)]
	all := map[string]float64{}
	mid := map[string]float64{}
	for _, p := range reads {
		for l, v := range p.self {
			all[l] += v / float64(len(reads))
		}
	}
	for _, p := range band {
		for l, v := range p.self {
			mid[l] += v / float64(len(band))
		}
	}
	for l, v := range all {
		if perLayerUnits[l] == "us" {
			rep.metrics[l] = v / 1e3
		}
	}
	named := func(l string) bool { return perLayerUnits[l] == "us" }
	layers := make([]string, 0, len(mid))
	attributed := 0.0
	for l, v := range mid {
		layers = append(layers, l)
		if named(l) {
			attributed += v
		}
	}
	sort.Slice(layers, func(i, j int) bool { return mid[layers[i]] > mid[layers[j]] })
	rep.metrics["trace.p50_us"] = p50 / 1e3
	rep.metrics["trace.attributed_pct"] = 100 * attributed / p50
	rep.metrics["trace.unattributed_us"] = (p50 - attributed) / 1e3
	var b strings.Builder
	fmt.Fprintf(&b, "traced %s: p50 %.1fus over %d reads; self time by layer, mean of the %d reads between p40 and p60:\n",
		name, p50/1e3, len(reads), len(band))
	for _, l := range layers {
		if named(l) {
			fmt.Fprintf(&b, "  %-36s %9.1fus %5.1f%%\n", l, mid[l]/1e3, 100*mid[l]/p50)
		}
	}
	fmt.Fprintf(&b, "  %-36s %9.1fus %5.1f%%\n", "named layers", attributed/1e3, 100*attributed/p50)
	fmt.Fprintf(&b, "  %-36s %9.1fus %5.1f%%, of which:\n", "unattributed (p50 - named layers)", (p50-attributed)/1e3, 100*(p50-attributed)/p50)
	for _, l := range layers {
		if !named(l) {
			fmt.Fprintf(&b, "    %-34s %9.1fus\n", l, mid[l]/1e3)
		}
	}
	var bandDur float64
	for _, p := range band {
		bandDur += p.dur / float64(len(band))
	}
	fmt.Fprintf(&b, "    %-34s %9.1fus\n", "p50 - the band's mean latency", (p50-bandDur)/1e3)
	fmt.Fprint(os.Stderr, b.String())
}

// snapshots reads every daemon's registry in process.
func (f *fleet) snapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(f.daemons))
	for i, d := range f.daemons {
		out[i] = d.srv.Metrics().Snapshot()
	}
	return out
}

// counterDelta sums a counter's growth across daemons.
func counterDelta(before, after []telemetry.Snapshot, name string) float64 {
	t := 0.0
	for i := range after {
		t += float64(after[i].CounterSum(name) - before[i].CounterSum(name))
	}
	return t
}

// histDelta merges a histogram's growth across daemons.
func histDelta(before, after []telemetry.Snapshot, name string) telemetry.HistogramValue {
	var merged telemetry.HistogramValue
	for i := range after {
		a, ok := after[i].Histogram(name)
		if !ok {
			continue
		}
		b, _ := before[i].Histogram(name)
		merged = merged.Merge(a.Sub(b))
	}
	return merged
}

// durableMetrics renders the durable layer's work per document written.
func durableMetrics(rep *report, before, after []telemetry.Snapshot, docs int) {
	if docs > 0 {
		rep.metrics["durable.append_bytes_per_doc"] = counterDelta(before, after, "hdk_durable_append_bytes_total") / float64(docs)
		rep.metrics["durable.appends_per_doc"] = counterDelta(before, after, "hdk_durable_appends_total") / float64(docs)
	}
	rep.metrics["durable.fsyncs"] = float64(histDelta(before, after, "hdk_durable_fsync_nanoseconds").Count)
	rep.metrics["durable.compactions"] = counterDelta(before, after, "hdk_durable_compactions_total")
}

// serialPhase runs operations one at a time until the window closes;
// next runs one operation and reports whether it was a read.
func serialPhase(window time.Duration, next func() (read bool, err error)) (reads int, wall time.Duration, err error) {
	start := time.Now()
	for time.Since(start) < window {
		r, err := next()
		if err != nil {
			return reads, time.Since(start), err
		}
		if r {
			reads++
		}
	}
	return reads, time.Since(start), nil
}

// traceReads is the traced run of a read workload. It runs operations
// one at a time: for the first half of the window untraced (the
// overhead baseline and the runtime and registry deltas), for the
// second half traced. readOne performs the j-th read, recording it as
// one operation when rec is non-nil; when w is non-nil its waves run
// as operations of their own whenever one is due.
func traceReads(rep *report, s settings, rec *recorder, f *fleet, readOne func(j int, rec *recorder) (cached, ok bool, spans []span, err error), w *writer) error {
	var traced [][]span     // kept in memory, analysed after the window
	var hit, miss []float64 // read latency, microseconds
	j := 0
	phase := func(r *recorder) (int, time.Duration, error) {
		return serialPhase(s.seconds/2, func() (bool, error) {
			if w != nil && w.due() {
				if r == nil {
					return false, w.apply(nil)
				}
				spans, err := r.op("wave", func() error { return w.apply(r) })
				traced = append(traced, spans)
				return false, err
			}
			t0 := time.Now()
			cached, ok, spans, err := readOne(j, r)
			j++
			rep.attempted++
			if err != nil {
				rep.failed++
				return true, nil
			}
			if !ok {
				rep.mismatches++
			}
			us := float64(time.Since(t0)) / 1e3
			if cached {
				hit = append(hit, us)
			} else {
				miss = append(miss, us)
			}
			if r != nil {
				traced = append(traced, spans)
			}
			return true, nil
		})
	}
	runtime.GC() // the set-up's garbage is not the window's
	snap0, rt0 := f.snapshots(), sampleRuntime()
	nA, wallA, err := phase(nil)
	if err != nil {
		return err
	}
	rt1, snap1 := sampleRuntime(), f.snapshots()
	nB, wallB, err := phase(rec)
	if err != nil {
		return err
	}
	acc := newTraceAcc()
	for _, spans := range traced {
		acc.add(spans)
	}
	if w != nil {
		if err := w.finish(); err != nil {
			return err
		}
		durableMetrics(rep, snap0, f.snapshots(), w.docs())
		rep.metrics["update.write_lag_ms"] = mean(w.lag)
		var gen []float64
		for _, p := range acc.ops {
			if p.name == "wave" {
				gen = append(gen, p.self["core.update"]/1e6)
			}
		}
		if len(gen) > 0 {
			rep.metrics["core.generate_ms"] = mean(gen)
			rep.metrics["core.insert_rpcs_per_doc"] = float64(acc.calls["hdk.insert"]) / float64(len(gen)*waveDocs)
		}
	}
	for k, v := range runtimeLayer(rt0, rt1, nA) {
		rep.metrics[k] = v
	}
	adm := histDelta(snap0, snap1, "hdk_search_admission_wait_nanoseconds")
	rep.metrics["cluster.admission_wait_us_p50"] = float64(adm.Quantile(0.5)) / 1e3
	rep.metrics["cluster.admission_wait_us_p90"] = float64(adm.Quantile(0.9)) / 1e3
	rep.metrics["trace.untraced_qps"] = float64(nA) / wallA.Seconds()
	rep.metrics["trace.qps"] = float64(nB) / wallB.Seconds()
	rep.metrics["trace.overhead_pct"] = 100 * (1 - rep.metrics["trace.qps"]/rep.metrics["trace.untraced_qps"])
	if n := len(hit) + len(miss); n > 0 {
		rep.metrics["cluster.cache_hit_pct"] = 100 * float64(len(hit)) / float64(n)
	}
	rep.metrics["cluster.hit_us"] = median(hit)
	rep.metrics["cluster.miss_us"] = median(miss)
	acc.readAccounting(rep, "read")
	acc.transportMetrics(rep, nB)
	return nil
}
