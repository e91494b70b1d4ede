package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
)

const (
	nodes    = 5
	replicas = 2
	topK     = 10
	// queryLogSize is the generated query log's length: long enough
	// that per-query averages move little from one seed to the next.
	queryLogSize = 1000
	waveDocs     = 10
)

// inputs is everything a workload feeds the program, generated from
// the experiments.SmallScale corpus parameters and the workload seed:
// the corpus itself is SmallScale's (its own fixed seed); the seed
// drives the query log and the update waves' documents.
type inputs struct {
	base    *corpus.Collection   // documents indexed by the base build
	waves   []*corpus.Collection // update waves, ids continuing base
	full    *corpus.Collection   // base plus every wave
	queries []corpus.Query
	reqs    []core.SearchRequest // queries in coordinator wire form
	cfg     core.Config
}

func makeInputs(docs, waves int, seed int64) (*inputs, error) {
	sc := experiments.SmallScale()
	gp := sc.GenParams()
	gp.NumDocs = docs
	base, err := corpus.Generate(gp)
	if err != nil {
		return nil, err
	}
	in := &inputs{base: base, full: base}
	if waves > 0 {
		wp := sc.GenParams()
		wp.NumDocs = waves * waveDocs
		wp.Seed = seed
		extra, err := corpus.Generate(wp)
		if err != nil {
			return nil, err
		}
		in.full = &corpus.Collection{Vocab: base.Vocab, Docs: append(append([]corpus.Document(nil), base.Docs...), extra.Docs...)}
		for i := range extra.Docs {
			in.full.Docs[docs+i].ID = corpus.DocID(docs + i)
		}
		for w := 0; w < waves; w++ {
			lo := docs + w*waveDocs
			in.waves = append(in.waves, in.full.Slice(lo, lo+waveDocs))
		}
	}
	cen := baseline.NewCentralized(base, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(queryLogSize)
	qp.MinHits = sc.MinHits
	qp.Seed = seed
	if in.queries, err = corpus.GenerateQueries(base, qp, sc.Window, cen.ConjunctiveHits); err != nil {
		return nil, fmt.Errorf("query log: %w", err)
	}
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: base.M(), AvgDocLen: base.AvgDocLen()})
	cfg.DFMax = sc.DFMaxes[0]
	cfg.SMax = sc.SMax
	cfg.Window = sc.Window
	cfg.Ff = sc.Ff
	cfg.ReplicationFactor = replicas
	in.cfg = cfg
	// Query terms depend only on the vocabulary and the Ff cutoff, so a
	// throwaway engine over no peers renders them.
	eng, err := core.NewEngine(overlay.NewNetwork(transport.NewInProc()), cfg, in.full.Vocab, in.full.TermFrequencies())
	if err != nil {
		return nil, err
	}
	for _, q := range in.queries {
		in.reqs = append(in.reqs, core.SearchRequest{Terms: eng.QueryTerms(q), K: topK})
	}
	return in, nil
}

// splitWave places a wave's documents on the peers the way a
// round-robin split of the whole collection would (document id j on
// peer j mod nodes), so base and waves agree on placement.
func splitWave(w *corpus.Collection) []*corpus.Collection {
	parts := make([]*corpus.Collection, nodes)
	for i := range parts {
		parts[i] = &corpus.Collection{Vocab: w.Vocab}
	}
	for _, d := range w.Docs {
		p := int(d.ID) % nodes
		parts[p].Docs = append(parts[p].Docs, d)
	}
	return parts
}

// reference is the answer key: an in-process engine over
// transport.InProc built from the same collection and configuration.
type reference struct {
	eng    *core.Engine
	peers  []*core.Peer
	origin overlay.Member
}

func buildReference(in *inputs) (*reference, error) {
	net := overlay.NewNetwork(transport.NewInProc())
	members := make([]overlay.Member, nodes)
	for i := range members {
		n, err := net.AddNode(fmt.Sprintf("ref-%d", i))
		if err != nil {
			return nil, err
		}
		members[i] = n
	}
	eng, err := core.NewEngine(net, in.cfg, in.full.Vocab, in.full.TermFrequencies())
	if err != nil {
		return nil, err
	}
	ref := &reference{eng: eng, origin: members[0]}
	for i, part := range in.base.SplitRoundRobin(nodes) {
		p, err := eng.AddPeer(members[i], part)
		if err != nil {
			return nil, err
		}
		ref.peers = append(ref.peers, p)
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	return ref, nil
}

// applyWave stages documents on the reference's peers and updates its
// index.
func (r *reference) applyWave(w *corpus.Collection) error {
	for i, part := range splitWave(w) {
		if err := r.peers[i].AddDocuments(part); err != nil {
			return err
		}
	}
	return r.eng.UpdateIndex()
}

// answers runs every query against the reference.
func (r *reference) answers(qs []corpus.Query) ([]*core.SearchResult, error) {
	out := make([]*core.SearchResult, len(qs))
	for i, q := range qs {
		res, err := r.eng.Search(q, r.origin, topK)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// expected is the answer key a run is checked against: the
// reference's stored index by key size and its answer to every query
// of the log.
type expected struct {
	counts indexCounts
	want   []*core.SearchResult
}

// expectFor generates a run's inputs (docs base documents, waves update
// waves, seed) and takes their answer key before the run sets up: it
// builds the reference over the base collection, applies every update
// wave in one UpdateIndex (which yields the same index however the new
// documents are batched), and answers the query log. The reference is
// dropped before the measured fleet boots, so its memory is not the
// run's.
func expectFor(docs, waves int, seed int64) (*expected, error) {
	in, err := makeInputs(docs, waves, seed)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(in)
	if err != nil {
		return nil, err
	}
	if waves > 0 {
		if err := ref.applyWave(in.full.Slice(in.base.M(), in.full.M())); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	want, err := ref.answers(in.queries)
	if err != nil {
		return nil, err
	}
	return &expected{counts: ref.counts(), want: want}, nil
}

// indexCounts is the stored index by key size: postings and keys.
type indexCounts struct {
	posts, keys [core.MaxKeySize + 1]int
}

func (r *reference) counts() indexCounts {
	st := r.eng.Stats()
	return indexCounts{posts: st.StoredBySize, keys: st.KeysBySize}
}

func (f *fleet) counts() (indexCounts, error) {
	var ic indexCounts
	stats, err := f.client.StoreStats()
	if err != nil {
		return ic, err
	}
	for _, ns := range stats {
		for s := range ic.posts {
			ic.posts[s] += ns.Stats.PostsBySize[s]
			ic.keys[s] += ns.Stats.KeysBySize[s]
		}
	}
	return ic, nil
}

func (ic indexCounts) postings() int {
	t := 0
	for _, v := range ic.posts {
		t += v
	}
	return t
}

func sameResults(a, b []rank.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
