package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry"
)

// waveInterval is the open-loop writer's period: one 10-document wave
// per second, well under what one wave costs on the 2-core machine the
// bounds were fixed on (0.2 to 0.5 s).
const waveInterval = time.Second

// writer applies update waves through the client-fabric engine on an
// open-loop schedule: AddDocuments on every peer, then UpdateIndex.
type writer struct {
	sched openLoop
	waves []*corpus.Collection
	peers []*core.Peer
	eng   *core.Engine
	next  int

	latency []float64 // from due time to UpdateIndex return, ms
	lag     []float64 // how late the generator started the wave, ms
	service []float64 // from start to UpdateIndex return, ms
}

func (w *writer) due() bool {
	return w.next < len(w.waves) && !time.Now().Before(w.sched.due(w.next))
}

func (w *writer) docs() int { return w.next * waveDocs }

// apply runs the next wave, timed into rec when it is non-nil.
func (w *writer) apply(rec *recorder) error {
	i := w.next
	w.next++
	started := time.Now()
	err := rec.bench("core.update", func() error {
		for p, part := range splitWave(w.waves[i]) {
			if err := w.peers[p].AddDocuments(part); err != nil {
				return err
			}
		}
		return w.eng.UpdateIndex()
	})
	if err != nil {
		return fmt.Errorf("wave %d: %w", i, err)
	}
	done := time.Now()
	lat, lag := w.sched.account(i, started, done)
	w.latency = append(w.latency, float64(lat)/1e6)
	w.lag = append(w.lag, float64(lag)/1e6)
	w.service = append(w.service, float64(done.Sub(started))/1e6)
	return nil
}

// run applies every wave at its due time.
func (w *writer) run() error {
	for w.next < len(w.waves) {
		time.Sleep(time.Until(w.sched.due(w.next)))
		if err := w.apply(nil); err != nil {
			return err
		}
	}
	return nil
}

// finish applies the waves still outstanding when a window closed.
func (w *writer) finish() error {
	for w.next < len(w.waves) {
		if err := w.apply(nil); err != nil {
			return err
		}
	}
	return nil
}

// runUpdate serves reads beside writes on durable daemons: one
// closed-loop reader drawing Zipf-skewed queries with the result cache
// on, and one open-loop writer applying a wave per waveInterval.
func runUpdate(s settings) (*report, error) {
	var rec *recorder
	if s.trace {
		rec = newRecorder()
	}
	root, err := newDataRoot("update")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	waves := int(math.Ceil(float64(s.seconds) / float64(waveInterval)))
	exp, err := expectFor(baseDocs, waves, s.seed)
	if err != nil {
		return nil, err
	}
	setups := 0
	cb, err := setupClientBuilt(s, waves, func() fleetOpts {
		setups++
		return fleetOpts{rec: rec, dataRoot: filepath.Join(root, fmt.Sprintf("s%d", setups))}
	})
	if err != nil {
		return nil, err
	}
	defer cb.f.close()
	in, f := cb.in, cb.f
	rep := newReport()
	rep.metrics["setup_s"] = median(cb.setup)
	w := &writer{waves: in.waves, peers: cb.peers, eng: cb.eng}
	z := newZipf(len(in.reqs), 1, s.seed)
	// Answers read while waves land are not compared: a coordinator's
	// cache is invalidated only by mutations it serves itself, so a read
	// may legitimately return the answer of an earlier wave. The
	// NoCache parity pass after the last wave checks every query.
	readOne := func(j int, r *recorder) (bool, bool, []span, error) {
		req, addr := in.reqs[z.next()], f.addrs[j%nodes]
		if r == nil {
			_, cached, err := f.client.SearchVia(addr, req)
			return cached, true, nil, err
		}
		var tr *telemetry.Trace
		spans, err := r.op("read", func() (err error) {
			_, tr, err = f.client.SearchTraceVia(addr, req)
			return err
		})
		return tr == nil, true, stitch(spans, addr, tr), err
	}
	runtime.GC() // the set-up's garbage is not the window's
	w.sched = openLoop{start: time.Now(), interval: waveInterval}
	if s.trace {
		if err := traceReads(rep, s, rec, f, readOne, w); err != nil {
			return nil, err
		}
	} else {
		cpu0 := cpuTime()
		werr := make(chan error, 1)
		go func() { werr <- w.run() }()
		st, wall := closedLoop(1, s.seconds, func(_, j int) (bool, error) {
			_, ok, _, err := readOne(j, nil)
			return ok, err
		})
		if err := <-werr; err != nil {
			return nil, err
		}
		readMetrics(rep, st, wall, cpuTime()-cpu0)
		rep.metrics["write_p50_ms"] = median(w.latency)
		rep.metrics["docs_per_s"] = float64(w.docs()) / (sum(w.service) / 1e3)
	}
	if err := checkAgainst(rep, f, exp, in, in.full); err != nil {
		return nil, err
	}
	rep.metrics["rss_mb"], err = peakRSSMB()
	return rep, err
}
