package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rank"
)

// coldRun is the cluster's side of a check: its stored index by key
// size and one serial NoCache pass over the whole query log, rotating
// coordinators.
type coldRun struct {
	counts  indexCounts
	answers []*core.SearchResult // nil where the request failed
}

func runCold(f *fleet, in *inputs) (coldRun, error) {
	var cr coldRun
	var err error
	if cr.counts, err = f.counts(); err != nil {
		return cr, err
	}
	for i, req := range in.reqs {
		req.NoCache = true
		got, _, err := f.client.SearchVia(f.addrs[i%len(f.addrs)], req)
		if err != nil {
			got = nil
		}
		cr.answers = append(cr.answers, got)
	}
	return cr, nil
}

// sameCold reports whether a coordinated answer matches the reference in
// its ranked results and its placement-independent cold-pass counters.
func sameCold(got, want *core.SearchResult) bool {
	return sameResults(got.Results, want.Results) && got.FetchedPosts == want.FetchedPosts &&
		got.ProbedKeys == want.ProbedKeys && got.FoundKeys == want.FoundKeys && got.Rounds == want.Rounds
}

// check compares the run with the answer key of an index holding col,
// and records the exact per-query counts into rep. Differences count as
// wrong answers.
func (cr coldRun) check(rep *report, exp *expected, in *inputs, col *corpus.Collection) {
	if cr.counts != exp.counts {
		fmt.Fprintf(os.Stderr, "perfbench: index differs from the reference: postings by size %v (want %v), keys by size %v (want %v)\n",
			cr.counts.posts, exp.counts.posts, cr.counts.keys, exp.counts.keys)
		rep.mismatches++
	}
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	var postings, probes, levels, overlap float64
	for i, got := range cr.answers {
		rep.attempted++
		if got == nil {
			rep.failed++
			continue
		}
		if !sameCold(got, exp.want[i]) {
			rep.mismatches++
		}
		postings += float64(got.FetchedPosts)
		probes += float64(got.ProbedKeys)
		levels += float64(got.Rounds)
		overlap += rank.Overlap(cen.Search(in.queries[i], topK), got.Results, topK)
	}
	n := float64(len(cr.answers))
	rep.metrics["postings_per_query"] = postings / n
	rep.metrics["overlap_at_10_pct"] = overlap / n
	rep.metrics["index_postings_per_doc"] = float64(cr.counts.postings()) / float64(col.M())
	rep.metrics["core.probes_per_query"] = probes / n
	rep.metrics["core.levels_per_query"] = levels / n
}

// checkAgainst runs the cold check on f against the answer key exp.
func checkAgainst(rep *report, f *fleet, exp *expected, in *inputs, col *corpus.Collection) error {
	cr, err := runCold(f, in)
	if err != nil {
		return err
	}
	cr.check(rep, exp, in, col)
	return nil
}
