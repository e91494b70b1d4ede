package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/transport/cluster"
)

// buildDocs is the bulk-build size: 5 peers x 400 documents, large
// enough that work, not the build's 50 ms and 100 ms poll sleeps, sets
// the time (about 5 s per build on 2 cores), and small enough to keep
// the process near 1 GB resident.
const buildDocs = 2000

// ingestAll streams every member its round-robin shard (document j to
// ring member j mod n) over hdk.ingest, one member after another, and
// returns each member's Ingest wall time, seconds.
func ingestAll(c *cluster.Client, in *inputs, rec *recorder) ([]float64, error) {
	members := c.Members()
	n := len(members)
	walls := make([]float64, 0, n)
	freqs := in.base.TermFrequencies()
	for i, m := range members {
		j := i
		src := cluster.IngestSource{
			Session:   1,
			Config:    in.cfg,
			Vocab:     in.base.Vocab,
			TermFreqs: freqs,
			TotalDocs: in.base.M(),
			ShardDocs: (in.base.M() - i + n - 1) / n,
			Docs: func() (corpus.Document, bool) {
				if j >= in.base.M() {
					return corpus.Document{}, false
				}
				d := in.base.Docs[j]
				j += n
				return d, true
			},
		}
		t0 := time.Now()
		err := rec.bench("cluster.ingest", func() error {
			_, err := c.Ingest(m.Addr(), src)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ingest shard %d: %w", i, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// bulkBuild is one timed build: streamed ingest to every member, then
// the daemon-coordinated BuildRemote. ingests holds each member's
// Ingest call, seconds.
func bulkBuild(f *fleet, in *inputs, rec *recorder) (ingests []float64, ingest, build time.Duration, err error) {
	t0 := time.Now()
	if ingests, err = ingestAll(f.client, in, rec); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	err = rec.bench("cluster.build_remote", func() error {
		return f.client.BuildRemote(f.client.Members()[0].Addr(), nil)
	})
	return ingests, t1.Sub(t0), time.Since(t1), err
}

// buildReadWindow is how long the closed-loop readers run over each
// finished build. The windows, end to end, give build's read figures.
const buildReadWindow = 1500 * time.Millisecond

// runBuild is the bulk write path on durable daemons: each measured
// build boots a fresh fleet, streams the 2000-document corpus in and
// lets the daemons build it, with no query traffic while it builds.
// Each build is checked against the reference, then read in a closed
// loop for buildReadWindow. Builds repeat until the window is spent.
func runBuild(s settings) (*report, error) {
	var rec *recorder
	if s.trace {
		rec = newRecorder()
	}
	exp, err := expectFor(buildDocs, 0, s.seed)
	if err != nil {
		return nil, err
	}
	root, err := newDataRoot("build")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := newReport()
	var in *inputs
	var setup, wall, ingests []float64
	reads, readWall := &readStats{}, time.Duration(0)
	var buildCPU time.Duration
	var traced []span
	// Builds run while another one fits in the window; the traced run
	// builds at least twice: untraced for the runtime and durable deltas,
	// then traced.
	needBuild := func() bool {
		return len(wall) == 0 || sum(wall)+mean(wall) <= s.seconds.Seconds() || (s.trace && len(wall) < 2)
	}
	// The resident-set peak covers every fleet the run boots, from
	// after the answer key is taken.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	for r := 0; needBuild() || len(setup) < setupRepeats; r++ {
		t0 := time.Now()
		if in, err = makeInputs(buildDocs, 0, s.seed); err != nil {
			return nil, err
		}
		f, err := bootFleet(fleetOpts{rec: rec, dataRoot: filepath.Join(root, fmt.Sprintf("b%d", r))})
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if !needBuild() {
			f.close() // a set-up-only repeat, for the setup_s median
			continue
		}
		runtime.GC() // the previous run's garbage is not this one's
		snap0, rt0, cpu0 := f.snapshots(), sampleRuntime(), cpuTime()
		var ing []float64
		var ingest, build time.Duration
		if s.trace && len(wall) == 1 {
			traced, err = rec.op("build", func() (err error) {
				ing, ingest, build, err = bulkBuild(f, in, rec)
				return err
			})
		} else {
			ing, ingest, build, err = bulkBuild(f, in, nil)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		buildCPU += cpuTime() - cpu0
		if s.trace && len(wall) == 0 {
			for k, v := range runtimeLayer(rt0, sampleRuntime(), buildDocs) {
				rep.metrics[k] = v
			}
			durableMetrics(rep, snap0, f.snapshots(), buildDocs)
		}
		wall = append(wall, (ingest + build).Seconds())
		ingests = append(ingests, ing...)
		cr, err := runCold(f, in)
		if err != nil {
			f.close()
			return nil, err
		}
		cr.check(rep, exp, in, in.base)
		runtime.GC() // the build's garbage is not the reads'
		st, w := closedLoop(loadClients, buildReadWindow, func(wk, j int) (bool, error) {
			qi := (wk*len(in.reqs)/loadClients + j) % len(in.reqs)
			req := in.reqs[qi]
			req.NoCache = true
			got, _, err := f.client.SearchVia(f.addrs[qi%nodes], req)
			if err != nil {
				return false, err
			}
			return sameResults(got.Results, exp.want[qi].Results), nil
		})
		f.close()
		for i := range st.done {
			st.done[i] += readWall.Seconds()
		}
		reads.merge(st)
		readWall += w
	}
	if rep.metrics["rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "  build wall s: %.2f\n", wall)
	readMetrics(rep, reads, readWall, 0)
	docs := float64(buildDocs)
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["docs_per_s"] = docs / median(wall)
	rep.metrics["write_p50_ms"] = median(ingests) * 1e3
	rep.metrics["cpu_us_per_op"] = float64(buildCPU.Microseconds()) / (docs * float64(len(wall)))
	if traced != nil {
		buildLayers(rep, traced, docs)
	}
	return rep, nil
}

// buildLayers renders the per-layer metrics of one traced build.
func buildLayers(rep *report, spans []span, docs float64) {
	acc := newTraceAcc()
	acc.add(spans)
	acc.transportMetrics(rep, int(docs))
	rep.metrics["core.insert_rpcs_per_doc"] = float64(acc.calls["hdk.insert"]) / docs
	var remote span
	coord := ""
	for _, s := range spans {
		switch {
		case s.kind == spanBench && s.name == "cluster.ingest":
			rep.metrics["cluster.ingest_s"] += float64(s.end-s.start) / 1e9
		case s.kind == spanBench && s.name == "cluster.build_remote":
			remote = s
		case s.kind == spanCall && s.node == "client" && s.name == "hdk.build":
			coord = s.peer
		}
	}
	for i, d := range buildRounds(spans, coord) {
		if i < 3 {
			rep.metrics[fmt.Sprintf("cluster.build_round_s.%d", i+1)] = d / 1e9
		}
	}
	if remote.end > remote.start {
		rep.metrics["cluster.build_idle_pct"] = 100 * (1 - busy(spans, remote)/float64(remote.end-remote.start))
	}
}

// buildRounds splits a build coordinator's outbound calls into rounds:
// a round opens with its hdk.build kick-offs and barrier polls and
// closes with the last hdk.classify call of its classification sweep.
// It returns each round's wall time, nanoseconds.
func buildRounds(spans []span, coord string) []float64 {
	var calls []span
	for _, s := range spans {
		if s.kind == spanCall && s.node == coord && (s.name == "hdk.build" || s.name == "hdk.classify") {
			calls = append(calls, s)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	var rounds []float64
	start, end, classifying := int64(-1), int64(0), false
	for _, c := range calls {
		switch {
		case c.name == "hdk.classify":
			classifying, end = true, max(end, c.end)
		case classifying:
			rounds = append(rounds, float64(end-start))
			start, classifying = c.start, false
		case start < 0:
			start = c.start
		}
	}
	if classifying {
		rounds = append(rounds, float64(end-start))
	}
	return rounds
}

// busy is how much of window's interval some daemon handler span
// covers, nanoseconds.
func busy(spans []span, window span) float64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.kind == spanHandler {
			lo, hi := max(s.start, window.start), min(s.end, window.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, reach := int64(0), window.start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		total += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return float64(total)
}
