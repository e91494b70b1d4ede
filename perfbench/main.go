// Command perfbench is the repository's benchmark: it boots a five-daemon
// HDK cluster inside one process (every request still crosses loopback
// TCP, the production framing, connection pool, dispatch, admission,
// coordinator and store code), drives one workload against it through
// public APIs, checks every answer against an in-process reference
// engine, and prints one JSON result line.
//
//	go build -o .bench_build/perfbench . && cd .. &&
//	    perfbench/.bench_build/perfbench --workload query --seed 1 --seconds 10 --trace 0
//
// run.sh does the build and runs from the repository root. See README.md
// for the workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricUnits names every metric the benchmark prints, with its unit:
// end-to-end metrics (printed with --trace 0) and per-layer metrics
// (printed with --trace 1). BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":                "s",
	"qps":                    "1/s",
	"p50_ms":                 "ms",
	"p90_ms":                 "ms",
	"cpu_us_per_op":          "us",
	"write_p50_ms":           "ms",
	"docs_per_s":             "1/s",
	"postings_per_query":     "count",
	"overlap_at_10_pct":      "%",
	"index_postings_per_doc": "count",
	"rss_mb":                 "MB",
}

var perLayerUnits = map[string]string{
	"transport.rpcs_per_op.hdk.search":     "count",
	"transport.rpcs_per_op.hdk.fetchBatch": "count",
	"transport.rpcs_per_op.hdk.insert":     "count",
	"transport.rpcs_per_op.hdk.classify":   "count",
	"transport.rpcs_per_op.hdk.ingest":     "count",
	"transport.rpcs_per_op.hdk.build":      "count",
	"transport.rpcs_per_op.cluster.info":   "count",
	"transport.bytes_per_op":               "bytes",
	"transport.call_us.hdk.search":         "us",
	"transport.call_us.hdk.fetchBatch":     "us",
	"transport.wire_us.hdk.search":         "us",
	"transport.wire_us.hdk.fetchBatch":     "us",
	"cluster.search_handler_us":            "us",
	"cluster.admission_us":                 "us",
	"cluster.admission_wait_us_p50":        "us",
	"cluster.admission_wait_us_p90":        "us",
	"cluster.cache_hit_pct":                "%",
	"cluster.hit_us":                       "us",
	"cluster.miss_us":                      "us",
	"cluster.ingest_s":                     "s",
	"cluster.build_round_s.1":              "s",
	"cluster.build_round_s.2":              "s",
	"cluster.build_round_s.3":              "s",
	"cluster.build_idle_pct":               "%",
	"core.coordinate_us":                   "us",
	"core.level_us.1":                      "us",
	"core.level_us.2":                      "us",
	"core.level_us.3":                      "us",
	"core.route_us":                        "us",
	"core.fetch_us":                        "us",
	"core.union_us":                        "us",
	"core.rank_us":                         "us",
	"core.probes_per_query":                "count",
	"core.levels_per_query":                "count",
	"core.fetch_handler_us":                "us",
	"core.insert_handler_us":               "us",
	"core.classify_handler_us":             "us",
	"core.insert_rpcs_per_doc":             "count",
	"core.generate_ms":                     "ms",
	"durable.append_bytes_per_doc":         "bytes",
	"durable.appends_per_doc":              "count",
	"durable.fsyncs":                       "count",
	"durable.compactions":                  "count",
	"runtime.alloc_bytes_per_op":           "bytes",
	"runtime.allocs_per_op":                "count",
	"runtime.gc_cpu_pct":                   "%",
	"runtime.heap_mb":                      "MB",
	"update.write_lag_ms":                  "ms",
	"trace.qps":                            "1/s",
	"trace.untraced_qps":                   "1/s",
	"trace.overhead_pct":                   "%",
	"trace.p50_us":                         "us",
	"trace.attributed_pct":                 "%",
	"trace.unattributed_us":                "us",
}

// settings are one invocation's arguments.
type settings struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// report is one workload's outcome. Metrics absent from the map print
// as 0: a per-layer metric of a layer the workload does not exercise.
type report struct {
	attempted, failed int
	mismatches        int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(settings) (*report, error){
	"query":  runQuery,
	"update": runUpdate,
	"build":  runBuild,
}

func main() {
	workload := flag.String("workload", "", "query, update, build, or all")
	seed := flag.Int64("seed", 1, "workload seed: drives the query log, the Zipf draws and the update waves")
	seconds := flag.Int("seconds", 10, "measured window per run, seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"query", "update", "build"}
	}
	s := settings{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	ok := true
	for _, name := range names {
		run, found := workloads[name]
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want query, update, build or all)\n", name)
			os.Exit(2)
		}
		if !emit(name, s, run) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// emit runs one workload, prints its human-readable table to stderr and
// its JSON result line to stdout, and reports whether every check held.
func emit(name string, s settings, run func(settings) (*report, error)) bool {
	start := time.Now()
	rep, err := run(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
		return false
	}
	units := endToEndUnits
	if s.trace {
		units = perLayerUnits
	}
	line := resultLine{
		Correct:   rep.mismatches == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(units)),
	}
	keys := make([]string, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%.0f trace=%t (%.1fs wall)\n", name, s.seed, s.seconds.Seconds(), s.trace, time.Since(start).Seconds())
	fmt.Fprintf(&b, "  attempted %d, failed %d, wrong answers %d\n", rep.attempted, rep.failed, rep.mismatches)
	for _, k := range keys {
		line.Metrics[k] = metricOut{Value: rep.metrics[k], Unit: units[k]}
		fmt.Fprintf(&b, "  %-38s %14.4f %s\n", k, rep.metrics[k], units[k])
	}
	fmt.Fprint(os.Stderr, b.String())
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
		return false
	}
	fmt.Println(string(out))
	return line.Correct
}
