// Command moara-perfbench is Moara's end-to-end benchmark. It runs one
// workload from a seed, checks every answer against an oracle the load
// generator computes from its own copy of the attributes, and prints
// one JSON result line:
//
//	moara-perfbench --workload tcp-oneshot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// untraced; with --trace 1 it holds the per-layer metrics of a separate
// traced run. README.md defines every metric per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// sizes are a run's scale knobs; the test shrinks them.
type sizes struct {
	setups int // set-ups per measured run (median time reported)

	tcpNodes     int
	tcpClients   int
	tcpWarm      time.Duration // unmeasured closed-loop warm-up
	standingSubs int
	period       time.Duration // tcp-standing epoch
	writeEvery   time.Duration // tcp-standing open-loop write interval

	groupsN       int
	flipsPerQuery int
	settle        time.Duration // virtual time flips settle before a query

	scaleN      int
	scaleKeys   int
	scalePeriod time.Duration

	exactQueries int // simulator queries that make the exact counts
	captureOps   int // operations replayed through the codec
}

func defaultSizes(workload string) sizes {
	sz := sizes{
		setups:        5,
		tcpNodes:      128,
		tcpClients:    runtime.NumCPU(),
		tcpWarm:       500 * time.Millisecond,
		standingSubs:  64,
		period:        200 * time.Millisecond,
		writeEvery:    10 * time.Millisecond,
		groupsN:       10000,
		flipsPerQuery: 10,
		settle:        time.Second,
		scaleN:        10000,
		scaleKeys:     1000,
		scalePeriod:   250 * time.Millisecond,
		exactQueries:  210, // 30 cycles of sim-groups' 7-query mix
		captureOps:    100,
	}
	switch workload {
	case "tcp-oneshot", "tcp-standing":
		// TCP runs pool their boots (see oneshotMeasured). A tcp-oneshot
		// boot takes ~40ms, too little to time steadily from five, and
		// each tcp-standing boot draws its epoch timers' phases, which
		// set its freshness, anew; nine boots average both out.
		sz.setups = 9
	case "sim-groups":
		sz.captureOps = 10
	case "sim-scale":
		sz.exactQueries = 50
		sz.captureOps = 1
	}
	return sz
}

// params are one run's inputs.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
	sizes   sizes
}

var workloads = map[string]func(params) (*outcome, error){
	"tcp-oneshot":  runTCPOneshot,
	"tcp-standing": runTCPStanding,
	"sim-groups":   func(p params) (*outcome, error) { return runSim("sim-groups", p) },
	"sim-scale":    func(p params) (*outcome, error) { return runSim("sim-scale", p) },
}

// endToEnd and perLayer are the metric names a run prints, in order.
// Every workload prints all of them: a per-layer metric a workload does
// not exercise reads 0 (README.md says which).
var endToEnd = []string{"setup_s", "p50_ms", "tail_ms", "ops_per_s", "cpu_ms_per_op", "msgs_per_op", "live_heap_mb"}

var perLayer = func() []string {
	out := []string{
		"transport.msgs_per_op", "transport.bytes_per_msg", "transport.bytes_per_op",
		"transport.dials", "transport.decode_errors",
		"transport.lock_wait_us_p50", "transport.lock_wait_us_p99", "transport.subscribe_ms",
	}
	for _, k := range traceKinds {
		out = append(out, "core.wire.enc_ns."+k, "core.wire.dec_ns."+k, "core.wire.bytes."+k)
	}
	out = append(out, "core.wire.fallback_share", "core.wire.ns_per_op")
	for _, k := range handleKinds {
		out = append(out, "core.handle_ns."+k, "core.handle_count."+k)
	}
	return append(out,
		"core.timer_ns", "core.timer_count", "core.parse_ns", "core.normalize_ns", "core.coalesce_ratio",
		"predicate.cnf_ns", "predicate.eval_ns",
		"aggregate.add_ns", "aggregate.merge_ns_per_key", "aggregate.merge_allocs", "aggregate.state_bytes",
		"pastry.nexthop_ns", "pastry.hops_per_route",
		"simnet.msgs_per_wall_s", "simnet.pending_peak",
		"service.attach_ratio", "service.live_streams",
		"gen.late_ms_p99", "runtime.allocs_per_op", "runtime.gc_cpu_fraction", "trace.overhead",
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("moara-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tcp-oneshot, tcp-standing, sim-groups or sim-scale")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "moara-perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		nproc:   runtime.NumCPU(),
		sizes:   defaultSizes(*name),
	}
	fmt.Fprintln(stdout, stamp(*name, p))
	o, err := wl(p)
	if err != nil {
		fmt.Fprintf(stderr, "moara-perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.firstErr != "" {
		fmt.Fprintf(stderr, "moara-perfbench: %s: first failure: %s\n", *name, o.firstErr)
	}
	line, err := resultLine(o, p.trace)
	if err != nil {
		fmt.Fprintf(stderr, "moara-perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON object. A traced run fills the
// per-layer metrics its workload does not exercise with 0; an untraced
// run must have measured every end-to-end metric.
func resultLine(o *outcome, trace bool) (string, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	have := make(map[string]metric, len(o.metrics))
	for _, m := range o.metrics {
		have[m.Name] = m
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jv, len(names))
	for _, n := range names {
		m, ok := have[n]
		if !ok && !trace {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if !ok {
			m = metric{Name: n, Unit: unitOf(n)}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s = %v", n, m.Value)
		}
		out[n] = jv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{o.wrong == 0 && o.attempted > 0, max(o.attempted, 1), o.failed, out})
	return string(b), err
}

// unitOf names the unit of a per-layer metric reported as absent.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns") || strings.Contains(name, "_ns."):
		return "ns"
	case strings.Contains(name, ".bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_us_p50") || strings.HasSuffix(name, "_us_p99"):
		return "us"
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_ms_p99"):
		return "ms"
	case strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_ratio") ||
		strings.HasSuffix(name, "_fraction") || name == "trace.overhead":
		return "ratio"
	case strings.HasSuffix(name, "_per_wall_s"):
		return "1/s"
	}
	return "count"
}

// stamp describes the environment a result was measured on.
func stamp(workload string, p params) string {
	commit := os.Getenv("MOARA_BENCH_COMMIT") // set by run.py
	if commit == "" {
		commit = "unknown"
	}
	b, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": p.seed, "seconds": p.seconds.Seconds(), "trace": p.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": p.nproc, "go": runtime.Version(),
		"commit": commit, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	return "stamp " + string(b)
}
