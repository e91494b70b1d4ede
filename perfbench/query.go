package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

const (
	baseDocs = 750 // the CI scale: 5 peers x 150 documents
	// setupRepeats is how many times a run sets up; setup_s is the
	// median, and only the last set-up is measured.
	setupRepeats = 5
	// loadClients is the closed-loop client count: one per core of the
	// 2-core machine the bounds were fixed on.
	loadClients = 2
)

// clientBuilt is a fleet indexed through the client fabric: the
// engine holds the peers (and their documents) client-side and every
// store lives on a daemon.
type clientBuilt struct {
	f      *fleet
	in     *inputs
	eng    *core.Engine
	peers  []*core.Peer
	setup  []float64 // every set-up's wall time, seconds
	builds []float64 // every set-up's BuildIndex wall time, seconds
}

// setupClientBuilt sets up setupRepeats times — generate the inputs,
// boot the daemons, build the base index with Engine.BuildIndex (no
// poll sleeps: every round is client-driven work) — and keeps the last.
// Each set-up starts from a released heap and a reset resident-set
// peak, so the peak read after the window is the last set-up's fleet's.
func setupClientBuilt(s settings, waves int, opts func() fleetOpts) (*clientBuilt, error) {
	cb := &clientBuilt{}
	for r := 0; r < setupRepeats; r++ {
		if cb.f != nil {
			cb.f.close()
			cb.f = nil
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if cb.in, err = makeInputs(baseDocs, waves, s.seed); err != nil {
			return nil, err
		}
		if cb.f, err = bootFleet(opts()); err != nil {
			return nil, err
		}
		c := cb.f.client
		if err := c.Configure(cb.in.cfg); err != nil {
			cb.f.close()
			return nil, err
		}
		if cb.eng, err = core.NewEngine(c, cb.in.cfg, cb.in.full.Vocab, cb.in.full.TermFrequencies()); err != nil {
			cb.f.close()
			return nil, err
		}
		members := c.Members()
		cb.peers = cb.peers[:0]
		for i, part := range cb.in.base.SplitRoundRobin(nodes) {
			p, err := cb.eng.AddPeer(members[i], part)
			if err != nil {
				cb.f.close()
				return nil, err
			}
			cb.peers = append(cb.peers, p)
		}
		b0 := time.Now()
		if err := cb.eng.BuildIndex(); err != nil {
			cb.f.close()
			return nil, fmt.Errorf("base build: %w", err)
		}
		cb.builds = append(cb.builds, time.Since(b0).Seconds())
		cb.setup = append(cb.setup, time.Since(t0).Seconds())
	}
	return cb, nil
}

// readStats accumulates one closed-loop window's reads.
type readStats struct {
	lat        []float64 // completed reads, milliseconds
	done       []float64 // per completed read: when it returned, seconds into the window
	errors     int
	mismatches int
}

func (r *readStats) merge(o *readStats) {
	r.lat = append(r.lat, o.lat...)
	r.done = append(r.done, o.done...)
	r.errors += o.errors
	r.mismatches += o.mismatches
}

// closedLoop runs clients goroutines, each sending its next read as
// soon as the previous one returns, until the window closes. read
// performs client w's j-th read and returns whether the answer was
// right. It returns the merged stats and the
// window's wall time (up to the last read's return).
func closedLoop(clients int, window time.Duration, read func(w, j int) (ok bool, err error)) (*readStats, time.Duration) {
	per := make([]readStats, clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for j := 0; time.Now().Before(deadline); j++ {
				t0 := time.Now()
				ok, err := read(w, j)
				if err != nil {
					st.errors++
					continue
				}
				st.lat = append(st.lat, float64(time.Since(t0))/1e6)
				st.done = append(st.done, time.Since(start).Seconds())
				if !ok {
					st.mismatches++
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	all := &readStats{}
	for w := range per {
		all.merge(&per[w])
	}
	return all, wall
}

// subWindows is how many equal slices a window is cut into. Throughput
// and latency are taken per slice and the medians reported, so a burst
// of outside load in one slice moves them little.
const subWindows = 15

// readMetrics renders a window's throughput, latency and CPU cost.
func readMetrics(rep *report, st *readStats, wall, cpu time.Duration) {
	n := len(st.lat)
	rep.attempted += n + st.errors
	rep.failed += st.errors
	rep.mismatches += st.mismatches
	slice := wall.Seconds() / subWindows
	lat := make([][]float64, subWindows)
	for i, d := range st.done {
		k := min(int(d/slice), subWindows-1)
		lat[k] = append(lat[k], st.lat[i])
	}
	var qps, p50, p90 []float64
	for _, l := range lat {
		sort.Float64s(l)
		qps = append(qps, float64(len(l))/slice)
		v50, _ := percentile(l, 50)
		v90, _ := percentile(l, 90)
		p50, p90 = append(p50, v50), append(p90, v90)
	}
	all := append([]float64(nil), st.lat...)
	sort.Float64s(all)
	p99, beyond := percentile(all, 99)
	fmt.Fprintf(os.Stderr, "  reads/s per slice: %.0f\n  p99 over the window %.3fms (%d reads, %d beyond it)\n", qps, p99, n, beyond)
	rep.metrics["qps"] = median(qps)
	rep.metrics["p50_ms"] = median(p50)
	rep.metrics["p90_ms"] = median(p90)
	if n > 0 {
		rep.metrics["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(n)
	}
}

// runQuery is the coordinated read path alone: NoCache hdk.search
// requests from loadClients closed-loop clients, coordinators rotating
// round-robin over the query log.
func runQuery(s settings) (*report, error) {
	var rec *recorder
	if s.trace {
		rec = newRecorder()
	}
	exp, err := expectFor(baseDocs, 0, s.seed)
	if err != nil {
		return nil, err
	}
	want := exp.want
	cb, err := setupClientBuilt(s, 0, func() fleetOpts { return fleetOpts{rec: rec} })
	if err != nil {
		return nil, err
	}
	defer cb.f.close()
	in, f := cb.in, cb.f
	rep := newReport()
	if err := checkAgainst(rep, f, exp, in, in.base); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(cb.setup)
	rep.metrics["write_p50_ms"] = median(cb.builds) * 1e3
	rep.metrics["docs_per_s"] = float64(in.base.M()) / median(cb.builds)

	readOne := func(qi int, r *recorder) (bool, bool, []span, error) {
		qi %= len(in.reqs)
		req, addr := in.reqs[qi], f.addrs[qi%nodes]
		req.NoCache = true
		if r == nil {
			got, cached, err := f.client.SearchVia(addr, req)
			if err != nil {
				return false, false, nil, err
			}
			return cached, sameResults(got.Results, want[qi].Results), nil, nil
		}
		var got *core.SearchResult
		var tr *telemetry.Trace
		spans, err := r.op("read", func() (err error) {
			got, tr, err = f.client.SearchTraceVia(addr, req)
			return err
		})
		if err != nil {
			return false, false, nil, err
		}
		return false, sameResults(got.Results, want[qi].Results), stitch(spans, addr, tr), nil
	}
	if s.trace {
		return rep, traceReads(rep, s, rec, f, readOne, nil)
	}
	runtime.GC() // the set-up's garbage is not the window's
	cpu0 := cpuTime()
	st, wall := closedLoop(loadClients, s.seconds, func(w, j int) (bool, error) {
		_, ok, _, err := readOne(w*len(in.reqs)/loadClients+j, nil)
		return ok, err
	})
	readMetrics(rep, st, wall, cpuTime()-cpu0)
	rep.metrics["rss_mb"], err = peakRSSMB()
	return rep, err
}
