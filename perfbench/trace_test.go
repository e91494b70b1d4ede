package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimesSubtractChildren(t *testing.T) {
	// root [0,100): call [10,90) covering handler [20,80) which has a
	// coordinator root [25,75).
	spans := []span{
		{kind: spanOp, start: 0, end: 100, parent: -1},
		{kind: spanCall, start: 10, end: 90, parent: 0},
		{kind: spanHandler, start: 20, end: 80, parent: 1},
		{kind: spanCoord, start: 25, end: 75, parent: 2},
	}
	got := selfTimes(spans)
	want := []float64{20, 20, 10, 50}
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

func TestSelfTimesShareOverlapAndClipToParent(t *testing.T) {
	// Two parallel children overlapping on [40,60): the overlap is split
	// between them; a child reaching past its parent is clipped.
	spans := []span{
		{kind: spanOp, start: 0, end: 100, parent: -1},
		{kind: spanCall, start: 20, end: 60, parent: 0},
		{kind: spanCall, start: 40, end: 120, parent: 0},
	}
	got := selfTimes(spans)
	want := []float64{20, 30, 50}
	total := 0.0
	for i := range want {
		total += got[i]
		if !approx(got[i], want[i]) {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
	if !approx(total, 100) {
		t.Fatalf("self times sum to %v, want the root's 100", total)
	}
}

func TestLinkSpansNestsAcrossNodes(t *testing.T) {
	// One query: client call to node a, a's handler, the coordinator
	// trace stitched under it with a fetch to owner b, a's outbound
	// call to b and b's handler.
	trace := &telemetry.Trace{Spans: []telemetry.TraceSpan{
		{Name: "coordinate", Parent: -1, Start: 0, Dur: 60},
		{Name: "level", Parent: 0, Start: 5, Dur: 50, Attrs: []telemetry.TraceAttr{telemetry.Num("level", 1)}},
		{Name: "fetch", Parent: 1, Start: 10, Dur: 40, Attrs: []telemetry.TraceAttr{telemetry.Str("owner", "b")}},
	}}
	spans := []span{
		{kind: spanOp, node: "client", start: 0, end: 100},
		{kind: spanCall, name: "hdk.fetchBatch", node: "a", peer: "b", start: 32, end: 68},
		{kind: spanHandler, name: "hdk.fetchBatch", node: "b", start: 40, end: 60},
		{kind: spanHandler, name: "hdk.search", node: "a", start: 20, end: 85},
		{kind: spanCall, name: "hdk.search", node: "client", peer: "a", start: 10, end: 90},
	}
	spans = stitch(spans, "a", trace)
	linkSpans(spans)
	parents := []int{-1, 7, 1, 4, 0, 3, 5, 6}
	for i, p := range parents {
		if spans[i].parent != p {
			t.Fatalf("span %d (%s %s) has parent %d, want %d", i, spans[i].name, layerOf(spans[i]), spans[i].parent, p)
		}
	}
	if spans[6].level != 1 || layerOf(spans[6]) != "core.level_us.1" {
		t.Fatalf("level span maps to %q", layerOf(spans[6]))
	}
}

func TestAccountingLeavesUnplacedTimeUnattributed(t *testing.T) {
	// One read [0,100): the client's call [10,90) reaches a's handler
	// [20,80); a fetch handler on c [30,40) matches no call. The root's
	// own 20 and the orphan's 5 (it shares [30,40) with the handler) are
	// not a named layer's; the call's 20 and the handler's 55 are.
	acc := newTraceAcc()
	acc.add([]span{
		{kind: spanOp, name: "read", node: "client", start: 0, end: 100},
		{kind: spanCall, name: "hdk.search", node: "client", peer: "a", start: 10, end: 90},
		{kind: spanHandler, name: "hdk.search", node: "a", start: 20, end: 80},
		{kind: spanHandler, name: "hdk.fetchBatch", node: "c", start: 30, end: 40},
	})
	p := acc.ops[0]
	if !approx(p.self[unattributedClient], 20) || !approx(p.self[unattributedOrphan], 5) ||
		!approx(p.self["cluster.search_handler_us"], 55) || !approx(p.self["transport.wire_us.hdk.search"], 20) {
		t.Fatalf("self time by layer %v", p.self)
	}
	rep := newReport()
	acc.readAccounting(rep, "read")
	if !approx(rep.metrics["trace.attributed_pct"], 75) || !approx(rep.metrics["trace.unattributed_us"], 0.025) {
		t.Fatalf("attributed %v%%, unattributed %vus; want 75%%, 0.025us",
			rep.metrics["trace.attributed_pct"], rep.metrics["trace.unattributed_us"])
	}
}

func TestTracedTransportNamesServices(t *testing.T) {
	rec := newRecorder()
	inner := transport.NewInProc()
	server := &tracedTransport{Transport: inner, node: "n1", rec: rec}
	client := &tracedTransport{Transport: inner, node: "client", rec: rec}
	if _, err := server.Listen("n1", func(req []byte) ([]byte, error) { return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	// Outside an operation nothing is recorded.
	if _, err := client.Call("n1", overlay.EncodeEnvelope("hdk.stats", nil)); err != nil {
		t.Fatal(err)
	}
	spans, err := rec.op("read", func() error {
		if _, err := client.Call("n1", overlay.EncodeEnvelope("hdk.fetchBatch", []byte("k"))); err != nil {
			return err
		}
		_, err := client.Call("n1", []byte{0xff})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range spans[1:] {
		names = append(names, s.node+" "+s.name)
	}
	want := []string{"n1 hdk.fetchBatch", "client hdk.fetchBatch", "n1 ?", "client ?"}
	if len(names) != len(want) {
		t.Fatalf("recorded %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("recorded %v, want %v", names, want)
		}
	}
	if spans[2].peer != "n1" || spans[2].bytes != len(overlay.EncodeEnvelope("hdk.fetchBatch", []byte("k")))+2 {
		t.Fatalf("call span peer %q bytes %d", spans[2].peer, spans[2].bytes)
	}
}

func TestBuildRoundsCloseOnClassify(t *testing.T) {
	call := func(name string, start, end int64) span {
		return span{kind: spanCall, node: "c", name: name, start: start, end: end}
	}
	spans := []span{
		{kind: spanOp},
		call("hdk.build", 0, 1), call("hdk.build", 5, 6), call("hdk.classify", 7, 9), call("hdk.classify", 8, 10),
		call("hdk.build", 12, 13), call("hdk.classify", 20, 25),
		call("hdk.build", 30, 31), // the finish frames open no round
		{kind: spanCall, node: "other", name: "hdk.classify", start: 40, end: 50},
	}
	got := buildRounds(spans, "c")
	if len(got) != 2 || got[0] != 10 || got[1] != 13 {
		t.Fatalf("rounds %v, want [10 13]", got)
	}
	busySpans := []span{{kind: spanHandler, start: 0, end: 10}, {kind: spanHandler, start: 5, end: 20}, {kind: spanHandler, start: 30, end: 40}}
	if b := busy(busySpans, span{start: 8, end: 35}); b != 17 {
		t.Fatalf("busy = %v, want 17", b)
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndUnits)
	check("per_layer", bj.PerLayer, perLayerUnits)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
